"""The names of symcorr that the benchmark in ``perfbench/`` reads.

``perfbench/tracer.py`` wraps each entry of its ``LAYERS``: a module
function under every name it is imported by, or a method it takes from
its class's own ``__dict__``, so a method that moves to a base class
breaks it as surely as one that is deleted.  ``perfbench/run.py``
collects the ``tables`` reports by wrapping ``cli.compute_report``,
parses its argvs with ``cli.build_parser`` and counts rule nodes on
``Configuration.domains(1)[0]``.  This test fails on a removed name
before a traced benchmark pass does.
"""

import importlib
import os
import runpy

import pytest

from symcorr import Configuration, ModelParams
from symcorr import cli
from symcorr.quadrature import Interval, RealLine

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")
LAYERS = runpy.run_path(TRACER)["LAYERS"]


@pytest.mark.parametrize("layer", LAYERS, ids=[f"{l[1]}.{l[2]}" for l in LAYERS])
def test_every_name_the_tracer_wraps_exists(layer):
    _, module_name, attr, _, _ = layer
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name)), attr
    else:
        assert callable(getattr(module, attr, None)), attr


def test_the_names_the_benchmark_runner_reads_exist():
    assert callable(cli.compute_report)
    parser, subparsers = cli.build_parser()
    assert set(subparsers) >= {"tables", "scan-superposition", "report"}
    parser.parse_args(["tables", "--which", "1"])
    box, ho = ModelParams.box(1.0), ModelParams.oscillator(1.0)
    assert Configuration(box, (1, 2, 3), "antisymmetric").domains(1)[0] \
        == Interval(0.0, 1.0)
    for cfg in (Configuration(ho, (0, 1, 2), "antisymmetric"),
                Configuration(box, (1, 2, 3), "antisymmetric", "momentum")):
        assert isinstance(cfg.domains(1)[0], RealLine)
