"""Golden CLI outputs: the commands, how each runs, and their regeneration.

    PYTHONPATH=src python tests/regenerate_golden.py

rewrites every file under tests/golden/ from the current code.  Each
command runs in-process through ``symcorr.cli.main``; its file holds
what it printed on stdout.  ``test_golden.py`` compares the same runs
with these files.  Run this only when a change moves numbers on
purpose, and name the files whose diff shows a change.
"""

from __future__ import annotations

import contextlib
import io
import os
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
    # the remaining commands of CI's runtime-without-scipy job
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
}


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
    for name, argv in CASES.items():
        code, text = run(argv)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        with open(path(name), "w") as fh:
            fh.write(text)
        print(f"wrote {path(name)}")


if __name__ == "__main__":
    main()
