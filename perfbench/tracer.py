"""Span tracer that wraps symcorr's public functions from outside the package.

Each traced layer is a function or method of one symcorr module.  The
tracer replaces it under every name it is looked up by: the defining
module, every other symcorr module that imported it, and the package
namespace.  A span records its layer, parent, pass, start and end, and
the number of grid nodes it handled where the layer does array work.
Spans stay in memory; ``dump`` writes them out when the run ends.
``restore`` puts every original object back.

Self time is a span's duration minus the durations of its direct
children, so the self times of one pass add up to the time spent
inside traced calls.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
import time
from collections import defaultdict


def _axes_nodes(args, kwargs):
    axes = args[1] if len(args) > 1 else kwargs["axes"]
    return math.prod(len(ax) for ax in axes)


def _broadcast_nodes(args, kwargs):
    import numpy as np
    return math.prod(np.broadcast_shapes(*(np.shape(c) for c in args[1:])))


def _values_nodes(args, kwargs):
    values = args[0] if args else kwargs["values"]
    return int(values.size)


# (layer name, module, attribute, node counter, wrap what it returns)
LAYERS = (
    ("wavefunction.amplitude_tensor", "symcorr.wavefunction",
     "WaveFunction.amplitude_tensor", _axes_nodes, None),
    ("wavefunction.density_tensor", "symcorr.wavefunction",
     "WaveFunction.density_tensor", _axes_nodes, None),
    ("wavefunction.amplitude", "symcorr.wavefunction",
     "WaveFunction.amplitude", _broadcast_nodes, None),
    ("quadrature.entropy_from_values", "symcorr.quadrature",
     "entropy_from_values", _values_nodes, None),
    ("quadrature.axis_rule", "symcorr.quadrature", "axis_rule", None, None),
    ("superposition.mixture_density", "symcorr.superposition",
     "_CachedMixture.density_tensor", _axes_nodes, None),
    ("superposition.mixture_marginal", "symcorr.superposition",
     "_CachedMixture.marginal_values", None, None),
    ("superposition.scan_coefficient", "symcorr.superposition",
     "scan_coefficient", None, None),
    ("densities.reduce", "symcorr.densities", "quadrature_marginal", None,
     "callable"),
    ("densities.reduce", "symcorr.densities", "reduce_to_one", None,
     "density"),
    ("densities.reduce", "symcorr.densities", "reduce_to_pair", None,
     "density"),
    ("densities.reduce", "symcorr.densities", "reduce_numerical", None,
     "density"),
    ("information.compute_report", "symcorr.information", "compute_report",
     None, None),
    ("cli.main", "symcorr.cli", "main", None, None),
    ("orbitals.eval_orbital", "symcorr.orbitals", "eval_orbital", None, None),
)

MARGINAL_EVAL = "densities.marginal_eval"
LAYER_NAMES = tuple(dict.fromkeys([l[0] for l in LAYERS] + [MARGINAL_EVAL]))


@dataclasses.dataclass
class Span:
    id: int
    parent: int | None
    pass_id: int | None
    layer: str
    start: float
    end: float = 0.0
    self_s: float = 0.0
    nodes: int = 0
    tag: str | None = None


class Tracer:
    """Installs span wrappers on symcorr and collects spans in memory.

    ``tag`` is an optional callable (layer, args) -> str | None
    whose result is stored on the span, e.g. to mark coarse grids.
    """

    def __init__(self, tag=None):
        self.spans = []
        self.pass_id = None
        self._tag = tag
        self._stack = []  # [span, child seconds]
        self._patches = []  # (owner, attribute, original)

    # ------------------------------------------------------------ spans

    def _traced(self, layer, fn, nodes=None, returns=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1][0].id if tracer._stack else None
            span = Span(id=len(tracer.spans), parent=parent,
                        pass_id=tracer.pass_id, layer=layer, start=0.0)
            tracer.spans.append(span)
            if nodes is not None:
                span.nodes = nodes(args, kwargs)
            if tracer._tag is not None:
                span.tag = tracer._tag(layer, args)
            frame = [span, 0.0]
            tracer._stack.append(frame)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                duration = span.end - span.start
                span.self_s = duration - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += duration
            if returns == "callable":
                return tracer._traced(MARGINAL_EVAL, result)
            if returns == "density" and not hasattr(result.func, "__wrapped__"):
                return dataclasses.replace(
                    result, func=tracer._traced(MARGINAL_EVAL, result.func))
            return result

        return traced

    # ------------------------------------------------------------ patching

    def install(self):
        """Wrap every layer under every name symcorr looks it up by."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "symcorr" or name.startswith("symcorr."))
                   and m is not None]
        for layer, module_name, attr, nodes, returns in LAYERS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original,
                            self._traced(layer, original, nodes, returns))
                continue
            original = getattr(module, attr)
            wrapper = self._traced(layer, original, nodes, returns)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def patched_names(self):
        return sorted(f"{getattr(o, '__name__', o)}.{a}"
                      for o, a, _ in self._patches)

    def restore(self):
        """Put every patched name back to its original object."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # ------------------------------------------------------------ results

    def per_pass(self):
        """{pass_id: {layer: {"calls", "self_s", "nodes", tag + "_s"}}}."""
        out = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
        for s in self.spans:
            row = out[s.pass_id][s.layer]
            row["calls"] += 1
            row["self_s"] += s.self_s
            row["nodes"] += s.nodes
            if s.tag:
                row[f"{s.tag}_s"] += s.self_s
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dataclasses.asdict(s)) + "\n")
