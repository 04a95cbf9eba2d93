"""Output checks for the benchmark workloads.

Every check turns one item's output (exit code and stdout of one
``symcorr.cli.main`` call) into operations: a table column, a scan row
or a report.  An operation fails if the call raised or exited non-zero,
if a printed value is more than TOLERANCE from its reference, or if the
hierarchy residual exceeds RESIDUAL_TOL.  Every compared value also
feeds the workload's worst absolute error, at full precision.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

MEASURES = ("s1", "s2", "s3", "I_pair", "I3", "I_rho_gamma",
            "I_gamma_gamma", "I_higher")
# the reproduction gate of the published tables, applied to every value
TOLERANCE = 2e-3
# the mutual-information hierarchy is an algebraic identity
RESIDUAL_TOL = 1e-9


@dataclass
class Outcome:
    """Operations of one item: attempted, failed, worst error, messages."""

    attempted: int = 0
    failed: int = 0
    max_abs_err: float = 0.0
    messages: list = field(default_factory=list)

    def add(self, name, values, reference, residual=0.0, precise=None):
        """Record one operation comparing ``values`` with ``reference``.

        ``precise`` holds the unrounded values where ``values`` are
        rounded for printing; the worst error is then taken from them.
        """
        self.attempted += 1
        problems = []
        precise = values if precise is None else precise
        for key in MEASURES:
            err = abs(values[key] - reference[key])
            precise_err = abs(precise[key] - reference[key])
            if not (math.isfinite(err) and math.isfinite(precise_err)):
                problems.append(f"{key} is not finite")
                continue
            self.max_abs_err = max(self.max_abs_err, precise_err)
            if err > TOLERANCE:
                problems.append(f"{key} off by {err:.2e}")
        if not residual <= RESIDUAL_TOL:
            problems.append(f"hierarchy residual {residual:.2e}")
        if problems:
            self.fail(name, "; ".join(problems))

    def fail(self, name, reason, count=1):
        self.failed += count
        self.messages.append(f"{name}: {reason}")


def hierarchy_residual(v):
    """Largest deviation of the hierarchy differences from 2 s1 - s2.

    Also checks that the printed pair information is 2 s1 - s2, or 0
    where that is a small negative quadrature artefact.
    """
    raw = 2 * v["s1"] - v["s2"]
    diffs = (v["I3"] - v["I_rho_gamma"], v["I_rho_gamma"] - v["I_gamma_gamma"],
             v["I_gamma_gamma"] - v["I_higher"])
    return max([abs(d - raw) for d in diffs] + [abs(v["I_pair"] - max(raw, 0.0))])


def check_tables(name, rc, out, reports, reference, row_labels):
    """One operation per table column (symmetry, n3): 8 printed cells.

    ``reports`` maps (symmetry tag, n3) to the InformationReport the run
    computed.  The table prints 4 decimals, too few for the residual and
    for a worst error that moves by less than 1e-4, so both use the
    reports; the printed cells decide whether the column passes.
    """
    result = Outcome()
    columns = sorted(reference)
    lines = out.splitlines()
    cells = {}
    try:
        header = lines[0].split()
        keys = [(h[0].lower(), int(h[1:])) for h in header[1:]]
        label_to_key = {v: k for k, v in row_labels.items()}
        for line in lines[1:]:
            parts = line.split()
            if not parts or parts[0] not in label_to_key:
                continue
            for col, text in zip(keys, parts[1:]):
                cells.setdefault(col, {})[label_to_key[parts[0]]] = float(text)
        verdict = [l for l in lines if l.startswith(("PASS:", "FAIL:"))]
    except (IndexError, ValueError) as exc:
        result.attempted += len(columns)
        result.fail(name, f"unparsable output ({exc})", len(columns))
        return result
    passed = rc == 0 and any(l.startswith("PASS:") for l in verdict)
    for col in columns:
        col_name = f"{name} {col[0].upper()}{col[1]}"
        if set(cells.get(col, ())) != set(MEASURES) or col not in reports:
            result.attempted += 1
            result.fail(col_name, "column missing")
            continue
        precise = reports[col].as_dict()
        result.add(col_name, cells[col], reference[col],
                   hierarchy_residual(precise), precise)
    if not passed and result.failed == 0:
        result.fail(name, f"exit code {rc}, verdict {verdict} with every "
                          "cell in tolerance")
    return result


def check_scan(name, rc, out, reference):
    """One operation per c1^2 row of the curve; missing rows fail.

    ``reference`` maps the c1^2 text ("0.05") to the stored values.
    """
    result = Outcome()
    rows = {}
    if rc == 0:
        try:
            for row in csv.DictReader(io.StringIO(out)):
                rows[f"{float(row['c1sq']):g}"] = {k: float(row[k]) for k in MEASURES}
        except (KeyError, ValueError, TypeError) as exc:
            rows = {}
            result.messages.append(f"{name}: unparsable output ({exc})")
    for key, ref in reference.items():
        if key not in rows:
            result.attempted += 1
            result.fail(f"{name} c1^2={key}", f"row missing (exit {rc})")
            continue
        result.add(f"{name} c1^2={key}", rows[key], ref,
                   hierarchy_residual(rows[key]))
    extra = set(rows) - set(reference)
    if extra:
        result.attempted += len(extra)
        result.fail(name, f"unexpected rows {sorted(extra)}", len(extra))
    return result


def check_report(name, rc, out, reference):
    """One operation: the single JSON report of the item."""
    result = Outcome()
    try:
        if rc != 0:
            raise ValueError(f"exit code {rc}")
        (row,) = json.loads(out)
        values = {k: float(row[k]) for k in MEASURES}
        est = float(row["error_estimate"])
        if not (math.isfinite(est) and est >= 0):
            raise ValueError(f"error estimate {est}")
    except (ValueError, KeyError, TypeError) as exc:
        result.attempted += 1
        result.fail(name, str(exc))
        return result
    result.add(name, values, reference, hierarchy_residual(values))
    return result
