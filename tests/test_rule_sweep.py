"""The 3D rule's convergence sweep, its coarse level and its panel edges.

The box position 3D rule puts a panel edge on every node plane x = k/n
of the state's orbitals (``OrbitalTables.node_planes``,
``quadrature._panel_gaps``).  At the default ``panels_3d`` and at two
finer counts, I^3 must stay within ``BOUND`` of converged values: the
four scan curves against ``perfbench/references/scan.json`` (resolution
4.5e-6), table 1's eight states and two states whose 13 gaps are more
than the default's 12 panels against ``FINE_I_HIGHER``.
"""

import json
import math
import os
from itertools import combinations

import pytest

from symcorr import (
    DEFAULT_C1SQ_GRID,
    Configuration,
    ModelParams,
    QuadratureScheme,
    SuperpositionSpec,
    build_superposition,
    compute_report,
    compute_reports,
)
from symcorr import quadrature
from symcorr.quadrature import Interval, _panel_gaps
from symcorr.wavefunction import tabulated_rules

from regenerate_golden import run

BOX = ModelParams.box(1.0)
SYMMETRY = {"a": "antisymmetric", "s": "symmetric", "d": "distinguishable"}
BOUND = 2e-5
# the default and the next two even counts: an odd count with a plane at
# the centre drops that plane (``_panel_gaps``)
SWEEP = [QuadratureScheme().panels_3d + k for k in (0, 2, 4)]
REFERENCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "references", "scan.json")
# I^3 on plane-edged rules of 120 panels of 12 nodes; 96 x 12 and
# 80 x 12 give values within 1.1e-9 and 1.2e-9 of these
FINE_I_HIGHER = {
    "a123": 0.19099047177407802, "s123": 0.19737955574396893,
    "a124": 0.202430339770441, "s124": 0.19911701646176727,
    "a125": 0.19149642708148096, "s125": 0.19525920206970881,
    "a126": 0.1639278875772755, "s126": 0.2112271619054401,
    "a357": 0.19379084900327415, "s357": 0.19762948096646105,
}


def _scan_states():
    states, refs = [], []
    with open(REFERENCE) as fh:
        curves = json.load(fh)["curves"]
    for name, sym, interference in (("s", "s", True), ("a", "a", True), ("d", "d", True),
                                    ("d-no-interference", "d", False)):
        a, b = (Configuration(BOX, ns, SYMMETRY[sym]) for ns in ((1, 2, 3), (4, 5, 6)))
        for c1sq in DEFAULT_C1SQ_GRID:
            states.append(build_superposition(
                SuperpositionSpec(a, b, math.sqrt(c1sq), interference)))
            refs.append(curves[name][f"{c1sq:g}"]["I_higher"])
    return states, refs


@pytest.mark.parametrize("panels_3d", SWEEP)
def test_scan_i_higher_within_the_bound(panels_3d):
    states, refs = _scan_states()
    reports = compute_reports(states, QuadratureScheme(panels_3d=panels_3d),
                              with_error=False)
    worst = max(abs(r.i_higher - want) for r, want in zip(reports, refs))
    assert worst <= BOUND


@pytest.mark.parametrize("panels_3d", SWEEP)
def test_table_states_i_higher_within_the_bound(panels_3d):
    # (3, 5, 7) cuts the box into 13 gaps: equal panels at 12, its planes above
    assert len(Configuration(BOX, (3, 5, 7), "symmetric").tables.node_planes) == 12
    scheme = QuadratureScheme(panels_3d=panels_3d)
    for key, want in FINE_I_HIGHER.items():
        cfg = Configuration(BOX, tuple(map(int, key[1:])), SYMMETRY[key[0]])
        assert abs(compute_report(cfg, scheme, with_error=False).i_higher - want) \
            <= BOUND, key


@pytest.mark.parametrize("panels", range(1, 27))
def test_panel_gaps_put_an_edge_on_every_plane(panels):
    box = Interval(0.0, 1.0)
    for orbitals in combinations(range(1, 9), 3):
        planes = Configuration(BOX, orbitals, "distinguishable").tables.node_planes
        gaps = _panel_gaps(box, planes, panels)
        assert sum(m for _, _, m in gaps) == panels
        edges = {a for a, _, _ in gaps[1:]}
        if len(planes) + 1 > panels:
            assert len(gaps) == 1
        else:  # only a plane at the centre may go, for an odd extra count
            assert edges >= set(planes) - {0.5}
        x, w = quadrature._rule.__wrapped__(box, panels, 2, planes)
        assert len(x) == 2 * panels and abs(sum(w) - 1.0) < 1e-14


def test_coarse_3d_rule_has_fewer_nodes_for_every_state():
    # the two-level error estimate sees the 3D rule only where its coarse
    # level differs from the fine one, which it cannot with equal nodes
    fine = QuadratureScheme()
    coarse = fine.coarsened()
    for ns in combinations(range(1, 9), 3):
        t = Configuration(BOX, ns, "antisymmetric").tables
        n_fine, n_coarse = (len(tabulated_rules(t, s, {})(3)[0]) for s in (fine, coarse))
        assert n_coarse < n_fine == fine.panels_3d * fine.nodes_per_panel, ns


def test_report_error_estimate_carries_the_3d_rule():
    # A(4, 5, 6): 12 gaps, so 12 plane-edged panels and 6 equal ones; with
    # one 3D rule at both levels, I^3 would not move and s3 would move by
    # 3 (ds2 - ds1) alone
    code, text = run(["report", "--n", "4,5,6", "--format", "json"])
    assert code == 0
    estimate = json.loads(text)[0]["error_estimate"]
    cfg = Configuration(BOX, (4, 5, 6), "antisymmetric")
    fine, coarse = (compute_report(cfg, s, with_error=False).entropies
                    for s in (QuadratureScheme(), QuadratureScheme().coarsened()))
    ds1, ds2, ds3 = (getattr(fine, k) - getattr(coarse, k) for k in ("s1", "s2", "s3"))
    assert estimate == max(abs(ds1), abs(ds2), abs(ds3))
    without_3d = max(abs(ds1), abs(ds2), abs(3.0 * (ds2 - ds1)))
    assert abs(estimate - without_3d) > 1e-6
