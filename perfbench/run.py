"""symcorr benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 40 --trace 0

The workload runs in this process through ``symcorr.cli.main(argv)`` at
the default QuadratureScheme, as a closed loop of passes: each pass runs
every item of the workload once, in an order shuffled by ``--seed``, and
a new pass starts only while it is expected to end within ``--seconds``
(at least two passes run).  Between passes, fresh interpreters time the
set-up (setup_s).  The inputs are the paper's fixed systems;
the seed only changes the order, which exposes state carried between
calls.  Every output is checked (see checks.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the
traced ones (see tracer.py).  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the full record,
with the environment, goes to perfbench/results/.  Exit code 0 when
every check passes, 1 when one fails, 2 when the run cannot start.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

import checks
from tracer import LAYER_NAMES, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REF_DIR = os.path.join(HERE, "references")
RESULTS_DIR = os.path.join(HERE, "results")

REPORT = ["report", "--model", "box", "--space", "momentum", "--format", "json"]
SCAN = ["scan-superposition"]

# workload -> [(item name, argv)]; item names key the stored references
WORKLOADS = {
    # the paper's two 64-cell tables: 16 distinct-quantum-number reports,
    # closed-form rho/Gamma, no error run; the 3D amplitude kernel dominates
    "tables": [("table-1", ["tables", "--which", "1"]),
               ("table-2", ["tables", "--which", "2"])],
    # the four c1^2 curves, 84 reports: entropy kernel and cached-mixture
    # arithmetic dominate; the D curves keep the full grid
    "scan": [("s", SCAN + ["--sym", "s"]), ("a", SCAN + ["--sym", "a"]),
             ("d", SCAN + ["--sym", "d"]),
             ("d-no-interference", SCAN + ["--sym", "d", "--no-interference"])],
    # the repeated-quantum-number path (pointwise amplitude under the
    # quadrature marginals), complex amplitudes and the coarse error run
    "report-momentum": [("a-1,2,3", REPORT + ["--n", "1,2,3", "--sym", "a"]),
                        ("s-1,1,2", REPORT + ["--n", "1,1,2", "--sym", "s"])],
}

MIN_PASSES = 2
# fresh-interpreter set-ups timed before every pass and after the last
SETUP_STARTS_PER_GAP = 3
# One thread, not OpenBLAS's default of nproc: on 2 cores the scan passes
# ran about 6% faster and less than half as noisy with one.  The work is
# mostly element-wise numpy, which is single-threaded anyway.
BLAS_THREADS = 1

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "max_abs_err": "nats"}
COUNTED = ("wavefunction.amplitude_tensor", "wavefunction.amplitude",
           "quadrature.entropy_from_values")
# the traced root span: its self time is what no named layer accounts for
ROOT_LAYER = "cli.main"

SETUP_CODE = """\
import json, sys, time
start = time.perf_counter()
import symcorr.cli
parser, _ = symcorr.cli.build_parser()
for argv in json.loads(sys.argv[1]):
    parser.parse_args(argv)
seconds = time.perf_counter() - start
print(json.dumps({"seconds": seconds, "file": symcorr.__file__}))
"""


class SetupError(RuntimeError):
    """The benchmark cannot start in this directory."""


def per_layer_units():
    units = {}
    for layer in LAYER_NAMES:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        if layer in COUNTED:
            units[f"{layer}.nodes"] = "count"
    units["quadrature.entropy_from_values.ns_per_node"] = "ns"
    units["quadrature.entropy_from_values.coarse_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    units["trace.self_sum_frac"] = "ratio"
    return units


# ---------------------------------------------------------------- set-up

def limit_blas_threads():
    """Pin BLAS/OpenMP to BLAS_THREADS threads; must run before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


def blas_threads_in_use():
    """Thread count OpenBLAS reports, or None if it cannot be asked."""
    import numpy
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def load_references(workload):
    """Stored reference values; ``tables`` uses symcorr's published tables."""
    if workload == "tables":
        return None
    path = os.path.join(REF_DIR, f"{workload}.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise SetupError(f"reference values missing or unreadable ({exc}); "
                         "regenerate them with perfbench/make_references.py"
                         ) from None


def import_symcorr():
    """Compile and import symcorr from this checkout's src/."""
    package = os.path.join(SRC, "symcorr")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SetupError(f"no symcorr sources under {package}")
    if not compileall.compile_dir(package, quiet=1):
        raise SetupError("symcorr sources do not compile")
    sys.path.insert(0, SRC)
    import symcorr
    import symcorr.cli  # noqa: F401 - the workloads call it
    if os.path.dirname(os.path.abspath(symcorr.__file__)) != package:
        raise SetupError(f"imported symcorr from {symcorr.__file__}")
    return symcorr


def measure_setup(argvs, starts):
    """Seconds to import symcorr and parse the argvs, in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(starts):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, json.dumps(argvs)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise SetupError(f"set-up interpreter failed: {proc.stderr.strip()}")
        row = json.loads(proc.stdout)
        if not row["file"].startswith(SRC):
            raise SetupError(f"set-up interpreter imported {row['file']}")
        times.append(row["seconds"])
    return times


def rule_nodes(workload):
    """Nodes per axis of the 1D/2D/3D rules (and the coarse level)."""
    from symcorr import Configuration, ModelParams, QuadratureScheme
    from symcorr.quadrature import axis_rule
    box, ho = ModelParams.box(1.0), ModelParams.oscillator(1.0)
    systems = {
        "tables": {"box position": Configuration(box, (1, 2, 3), "antisymmetric"),
                   "ho position": Configuration(ho, (0, 1, 2), "antisymmetric")},
        "scan": {"box position": Configuration(box, (1, 2, 3), "antisymmetric")},
        "report-momentum": {"box momentum": Configuration(
            box, (1, 2, 3), "antisymmetric", "momentum")},
    }[workload]
    scheme = QuadratureScheme()
    out = {}
    for label, cfg in systems.items():
        domain = cfg.domains(1)[0]
        out[label] = {
            level: {f"{d}d": len(axis_rule(domain, s, d)[0]) for d in (1, 2, 3)}
            for level, s in (("default", scheme), ("coarse", scheme.coarsened()))}
    return out


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


# ---------------------------------------------------------------- passes

@contextlib.contextmanager
def captured_reports(cli):
    """Collect the reports the CLI computes, keyed by (symmetry tag, n3).

    ``tables`` prints 4 decimals, too few to check the hierarchy residual.
    """
    reports = {}
    inner = cli.compute_report

    def capture(system, *args, **kwargs):
        rep = inner(system, *args, **kwargs)
        reports[(system.symmetry[0], system.ns[-1])] = rep
        return rep

    cli.compute_report = capture
    try:
        yield reports
    finally:
        cli.compute_report = inner


def run_item(cli, argv):
    """(exit code or error text, stdout) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    except Exception as exc:  # noqa: BLE001 - a raising call is a failed item
        rc = f"raised {type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def check_item(workload, name, rc, out, refs, reports):
    if workload == "tables":
        from symcorr.reference_tables import ROW_LABELS, table_spec
        reference = table_spec(int(name.rsplit("-", 1)[1]))[0]
        return checks.check_tables(name, rc, out, reports, reference, ROW_LABELS)
    if workload == "scan":
        return checks.check_scan(name, rc, out, refs["curves"][name])
    return checks.check_report(name, rc, out, refs["reports"][name])


def run_pass(workload, items, cli, refs, rng):
    order = rng.sample(items, len(items))
    outcomes = []
    item_seconds = {}
    cpu = os.times()
    start = time.perf_counter()
    for name, argv in order:
        with captured_reports(cli) as reports:
            item_start = time.perf_counter()
            rc, out = run_item(cli, argv)
            item_seconds[name] = time.perf_counter() - item_start
        outcomes.append((name, rc, out, reports))
    seconds = time.perf_counter() - start
    cpu_end = os.times()
    checked = [check_item(workload, name, rc, out, refs, reports)
               for name, rc, out, reports in outcomes]
    return {"seconds": seconds, "order": [name for name, _ in order],
            "item_seconds": item_seconds,
            "user_s": cpu_end.user - cpu.user, "sys_s": cpu_end.system - cpu.system,
            "checked": checked}


def run_passes(workload, seconds, cli, refs, seed, tracer=None):
    """Run passes until the next one would end after ``seconds``.

    Without a tracer, SETUP_STARTS_PER_GAP set-ups are timed in the gap
    before every pass and after the last, so that setup_s samples the
    same machine state as the passes.  With a tracer, odd passes are
    traced and no set-up is timed.  Returns (passes, set-up seconds).
    """
    items = WORKLOADS[workload]
    argvs = [argv for _, argv in items]
    starts = 0 if tracer is not None else SETUP_STARTS_PER_GAP
    rng = random.Random(seed)
    passes, setup_times = [], []
    start = time.perf_counter()
    while True:
        gap_start = time.perf_counter()
        setup_times += measure_setup(argvs, starts)
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and (
                now - start + passes[-1]["seconds"] + now - gap_start > seconds):
            break
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.pass_id = len(passes)
        with tracer if traced else contextlib.nullcontext():
            result = run_pass(workload, items, cli, refs, rng)
        passes.append(dict(result, traced=traced))
    return passes, setup_times


# ---------------------------------------------------------------- metrics

def tracer_overhead(passes):
    """Median over items of traced over untraced item seconds, minus 1.

    Each traced pass is paired with the untraced passes next to it, so a
    drift of the machine's speed during the run mostly cancels.  It still
    cannot resolve an overhead below the pass-to-pass spread of an item.
    """
    ratios = []
    for i, p in enumerate(passes):
        if not p["traced"]:
            continue
        plain = [passes[j]["item_seconds"] for j in (i - 1, i + 1)
                 if j < len(passes)]
        ratios += [sec / statistics.mean(q[item] for q in plain)
                   for item, sec in p["item_seconds"].items()]
    return statistics.median(ratios) - 1.0


def layer_metrics(tracer, passes):
    """Per-layer metrics: medians over the traced passes."""
    traced = [i for i, p in enumerate(passes) if p["traced"]]
    table = tracer.per_pass()
    values = {}

    def median_of(layer, key):
        return statistics.median(table[i][layer][key] for i in traced)

    for layer in LAYER_NAMES:
        values[f"{layer}.calls"] = round(median_of(layer, "calls"))
        values[f"{layer}.self_s"] = median_of(layer, "self_s")
        if layer in COUNTED:
            values[f"{layer}.nodes"] = round(median_of(layer, "nodes"))
    entropy = "quadrature.entropy_from_values"
    values[f"{entropy}.coarse_s"] = median_of(entropy, "coarse_s")
    values[f"{entropy}.ns_per_node"] = statistics.median(
        1e9 * table[i][entropy]["self_s"] / max(table[i][entropy]["nodes"], 1)
        for i in traced)
    values["trace.overhead_frac"] = tracer_overhead(passes)
    values["trace.self_sum_frac"] = statistics.median(
        sum(row["self_s"] for layer, row in table[i].items()
            if layer != ROOT_LAYER) / passes[i]["seconds"]
        for i in traced)
    return values


def benchmark(args):
    """Run the workload, print its metrics; the exit code of main."""
    nproc = limit_blas_threads()
    refs = load_references(args.workload)
    symcorr = import_symcorr()

    import numpy
    import scipy
    nodes = rule_nodes(args.workload)
    env = {
        "nproc": nproc, "blas_threads_requested": BLAS_THREADS,
        "blas_threads": blas_threads_in_use(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": git_commit(),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "workload": args.workload, "rule_nodes": nodes,
        "symcorr": os.path.relpath(symcorr.__file__, ROOT),
    }
    fine_3d = min(n["default"]["3d"] for n in nodes.values())
    fine_low = min(n["default"]["1d"] for n in nodes.values())

    def coarse_tag(layer, call_args):
        if layer != "quadrature.entropy_from_values":
            return None
        values = call_args[0]
        fine = fine_3d if values.ndim == 3 else fine_low
        return "coarse" if values.shape[0] < fine else None

    cli = symcorr.cli
    tracer = Tracer(tag=coarse_tag) if args.trace else None
    passes, setup_times = run_passes(args.workload, args.seconds, cli, refs,
                                     args.seed, tracer)

    checked = [c for p in passes for c in p["checked"]]
    attempted = sum(c.attempted for c in checked)
    failed = sum(c.failed for c in checked)
    messages = sorted({m for c in checked for m in c.messages})
    if args.trace:
        metrics = layer_metrics(tracer, passes)
        units = per_layer_units()
    else:
        metrics = {
            "wall_s": statistics.median(p["seconds"] for p in passes),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "max_abs_err": max(c.max_abs_err for c in checked),
        }
        units = END_TO_END_UNITS
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}

    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = dict(result, env=env, failed_frac=failed / max(attempted, 1),
                  setup_times=setup_times, messages=messages,
                  passes=[{k: v for k, v in p.items() if k != "checked"}
                          for p in passes])
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    if tracer is not None:
        tracer.dump(stem + ".spans.jsonl")

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"record {os.path.relpath(stem, ROOT)}.json")
    print("env " + json.dumps(env, sort_keys=True))
    for message in messages:
        print("check failed: " + message)
    for key in units:
        print(f"{key:<48} {metrics[key]:.6g} {units[key]}")
    print(f"{'failed_frac':<48} {record['failed_frac']:.6g} "
          f"({failed} of {attempted} operations)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        return benchmark(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
