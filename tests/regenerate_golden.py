"""Golden CLI outputs: the commands, how each runs, and their regeneration.

    PYTHONPATH=src python tests/regenerate_golden.py [NAME ...]

rewrites the files of the named cases under tests/golden/ from the
current code.  With no name it rewrites only the cases whose output
fails the comparison of ``test_golden.py`` (``mismatches``), or whose
file is missing, so numbers that moved by round-off within its
tolerance stay as they are.  Each command runs in-process through
``symcorr.cli.main``; its file holds what it printed on stdout.
``test_golden.py`` compares the same runs with these files.  ``CASES``
and ``test_cli.py``, which holds the exit-1, 2 and 3 runs, are the one
list of CLI commands that the tests run.  Name the files whose diff
shows a change.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import sys

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

REPORT_MOMENTUM = ["report", "--model", "box", "--space", "momentum", "--format", "json"]

# file name -> argv; every command exits 0
CASES = {
    # the paper's two tables, each checked cell by cell against the published one
    "tables-1": ["tables", "--which", "1"],
    "tables-2": ["tables", "--which", "2"],
    # the four c1^2 curves of the benchmark's scan workload
    "scan-s": ["scan-superposition", "--sym", "s"],
    "scan-a": ["scan-superposition", "--sym", "a"],
    "scan-d": ["scan-superposition", "--sym", "d"],
    "scan-d-no-interference": ["scan-superposition", "--sym", "d", "--no-interference"],
    # both box momentum reports of the benchmark's report-momentum workload
    "report-box-momentum-a123": REPORT_MOMENTUM + ["--n", "1,2,3", "--sym", "a"],
    "report-box-momentum-s112": REPORT_MOMENTUM + ["--n", "1,1,2", "--sym", "s"],
    # oscillator and momentum reports and scans beyond the workloads,
    # the CSV writers and the pair-density grid
    "report-ho-momentum-a012": ["report", "--model", "ho", "--space", "momentum",
                                "--n", "0,1,2", "--sym", "a", "--format", "json"],
    "report-ho-d013": ["report", "--model", "ho", "--n", "0,1,3", "--sym", "d",
                       "--format", "json"],
    "scan-ho-d-no-interference": ["scan-superposition", "--model", "ho", "--n", "0,1,2",
                                  "--n-second", "3,4,5", "--sym", "d",
                                  "--no-interference", "--c1sq-grid", "0.3,0.5,0.7"],
    "scan-box-momentum-d": ["scan-superposition", "--space", "momentum", "--sym", "d",
                            "--c1sq-grid", "0.3,0.5,0.7"],
    "scan-box-momentum-a": ["scan-superposition", "--space", "momentum", "--sym", "a",
                            "--c1sq-grid", "0.3,0.5,0.7"],
    # phase products -i and i: the one scan whose components interfere
    # with a relative phase of -1
    "scan-box-momentum-s125": ["scan-superposition", "--space", "momentum", "--sym", "s",
                               "--n", "1,2,3", "--n-second", "1,2,5",
                               "--c1sq-grid", "0.3,0.5,0.7"],
    "report-box-a12-csv": ["report", "--model", "box", "--n", "1,2", "--sym", "a",
                           "--format", "csv"],
    "density-grid-a123": ["density-grid", "--n", "1,2,3", "--sym", "a", "--points", "11"],
    "scan-n3-both-csv": ["scan-n3", "--n", "1,2", "--n3-range", "3:4", "--space", "both",
                         "--format", "csv"],
    # the default table text of two three-particle rows, one per space
    "report-box-s123-both-table": ["report", "--n", "1,2,3", "--sym", "s",
                                   "--space", "both"],
    # the JSON row of a two-particle state
    "report-box-a12-json": ["report", "--n", "1,2", "--sym", "a", "--format", "json"],
    # a two-particle Hartree product (s2 = 2 s1, so I_pair is 0 exactly),
    # both spaces in one batch
    "report-box-d12-both-csv": ["report", "--n", "1,2", "--sym", "d", "--space", "both",
                                "--format", "csv"],
}


# a signed decimal or float literal, kept by re.split as its own piece
NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")


def mismatches(got, want):
    """Lines where ``got`` differs from ``want`` beyond the tolerance.

    The text between the numbers must match exactly; each number must
    match within 1e-11 relative or 1e-13 absolute.
    """
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return [f"{len(got_lines)} lines, expected {len(want_lines)}"]
    bad = []
    for k, (g, w) in enumerate(zip(got_lines, want_lines)):
        gs, ws = NUMBER.split(g), NUMBER.split(w)
        same = len(gs) == len(ws) and all(
            a == b if i % 2 == 0 else
            math.isclose(float(a), float(b), rel_tol=1e-11, abs_tol=1e-13)
            for i, (a, b) in enumerate(zip(gs, ws)))
        if not same:
            bad.append(f"line {k + 1}: {g!r} != {w!r}")
    return bad


def path(name):
    return os.path.join(GOLDEN_DIR, f"{name}.txt")


def run(argv):
    """(exit code, stdout) of one in-process ``symcorr.cli.main`` run."""
    from symcorr import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def main():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in sys.argv[1:] or CASES:
        code, text = run(CASES[name])
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        if not sys.argv[1:] and os.path.exists(path(name)):
            with open(path(name)) as fh:
                if not mismatches(text, fh.read()):
                    continue
        with open(path(name), "w") as fh:
            fh.write(text)
        print(f"wrote {path(name)}")


if __name__ == "__main__":
    main()
