"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They check that the printed metrics are the ones BENCHMARK.json names,
with its units, and that the tracer leaves symcorr unpatched.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

run.import_symcorr()
import symcorr.cli  # noqa: E402


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def symcorr_namespace():
    """Identity snapshot of every symcorr module and class attribute."""
    snap = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "symcorr" or name.startswith("symcorr.")):
            continue
        for attr, value in vars(module).items():
            snap[(name, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for meth, member in vars(value).items():
                    snap[(name, f"{attr}.{meth}")] = id(member)
    return snap


def run_benchmark(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         "tables", "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_the_declared_ones(trace, section):
    declared = {m["name"]: m["unit"] for m in benchmark_spec()[section]}
    lines = run_benchmark(trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {line.split()[0] for line in lines[:-1] if line.strip()}
    assert set(declared) <= printed


def test_declared_units_match_the_runner():
    spec = benchmark_spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tracer_wraps_every_lookup_and_restores_symcorr():
    before = symcorr_namespace()
    t = tracer.Tracer()
    with t:
        patched = set(t.patched_names())
        for name in ("symcorr.wavefunction.eval_orbital",
                     "symcorr.information.entropy_from_values",
                     "symcorr.information.quadrature_marginal",
                     "symcorr.information.reduce_to_one",
                     "symcorr.information.reduce_to_pair",
                     "symcorr.superposition.compute_report",
                     "symcorr.cli.compute_report",
                     "symcorr.cli.scan_coefficient",
                     "WaveFunction.amplitude_tensor",
                     "_CachedMixture.marginal_values"):
            assert name in patched
        small = ["--panels", "2", "--nodes", "8"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert symcorr.cli.main(["report", "--n", "1,1,2", "--sym", "s",
                                     "--space", "momentum"] + small) == 0
            assert symcorr.cli.main(["scan-superposition", "--c1sq-grid",
                                     "0,0.5,1"] + small) == 0
    assert symcorr_namespace() == before
    layers = {s.layer for s in t.spans}
    assert set(tracer.LAYER_NAMES) <= layers
    assert all(s.end >= s.start and s.self_s >= -1e-9 for s in t.spans)


def test_tracer_overhead_pairs_each_traced_pass_with_its_neighbours():
    # the machine slows down by 10% a pass; tracing costs 5%
    passes = [{"traced": i % 2 == 1,
               "item_seconds": {"x": 1.1 ** i * (1.05 if i % 2 else 1.0),
                                "y": 2.0 * 1.1 ** i * (1.05 if i % 2 else 1.0)}}
              for i in range(5)]
    assert run.tracer_overhead(passes) == pytest.approx(0.05, abs=0.01)


def test_worst_error_uses_the_unrounded_values():
    reference = dict.fromkeys(checks.MEASURES, 1.0)
    printed = dict.fromkeys(checks.MEASURES, 1.0)
    precise = dict(printed, s3=1.00004)
    outcome = checks.Outcome()
    outcome.add("cell", printed, reference, 0.0, precise)
    assert outcome.failed == 0
    assert outcome.max_abs_err == pytest.approx(4e-5)
