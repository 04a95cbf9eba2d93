import math

import numpy as np
import pytest

from symcorr import (
    ANTISYMMETRIC,
    DEFAULT_C1SQ_GRID,
    DISTINGUISHABLE,
    SYMMETRIC,
    Configuration,
    ModelParams,
    QuadratureScheme,
    build_superposition,
    compute_report,
    compute_reports,
    scan_coefficient,
)
from symcorr import wavefunction
from symcorr.orbitals import MOMENTUM, POSITION, orbital_factor
from symcorr.quadrature import axis_rule
from symcorr.superposition import ScanResult, SuperpositionSpec


def spec_box(sym, c1, interference=True, ns_b=(4, 5, 6), box=None):
    box = box or ModelParams.box(1.0)
    return SuperpositionSpec(
        state_a=Configuration(box, (1, 2, 3), sym, "position"),
        state_b=Configuration(box, ns_b, sym, "position"),
        c1=c1, interference=interference)


def test_spec_validation(box, ho):
    with pytest.raises(ValueError):
        spec_box(ANTISYMMETRIC, 1.2)
    with pytest.raises(ValueError):
        SuperpositionSpec(
            state_a=Configuration(box, (1, 2, 3), SYMMETRIC),
            state_b=Configuration(box, (4, 5, 6), ANTISYMMETRIC), c1=0.5)
    with pytest.raises(ValueError):
        SuperpositionSpec(
            state_a=Configuration(box, (1, 2, 3), SYMMETRIC),
            state_b=Configuration(ho, (0, 1, 2), SYMMETRIC), c1=0.5)
    with pytest.raises(ValueError):
        SuperpositionSpec(
            state_a=Configuration(box, (1, 2, 3), SYMMETRIC, "position"),
            state_b=Configuration(box, (4, 5, 6), SYMMETRIC, "momentum"), c1=0.5)
    s = spec_box(SYMMETRIC, 0.6)
    assert s.c2 == pytest.approx(0.8)


@pytest.mark.parametrize("ns_b", [(3, 4), (3, 4, 5)])
def test_spec_rejects_two_particle_states(box, ns_b):
    # a scan's rows and extrema need s3 and I^3, which two particles lack
    with pytest.raises(ValueError, match="scans are for 3-particle states"):
        SuperpositionSpec(Configuration(box, (1, 2), SYMMETRIC),
                          Configuration(box, ns_b, SYMMETRIC), c1=0.6)
    with pytest.raises(ValueError, match="scans are for 3-particle states"):
        SuperpositionSpec(Configuration(box, ns_b[::-1], SYMMETRIC),
                          Configuration(box, (1, 2), SYMMETRIC), c1=0.6)


def test_vanishing_norm_rejected(box):
    # c1 = -sqrt(1/2) of a state against itself: c1 Psi + c2 Psi = 0
    a = Configuration(box, (1, 2, 3), SYMMETRIC)
    with pytest.raises(ValueError, match="vanishing norm"):
        build_superposition(SuperpositionSpec(a, a, -math.sqrt(0.5)))
    # without interference the two densities add, whatever the sign of c1
    mix = build_superposition(SuperpositionSpec(a, a, -math.sqrt(0.5), False))
    assert mix.norm_sq == 1.0 and len(mix.terms) == 2


def test_component_overlap(box):
    def overlap(cfg_a, cfg_b):
        return build_superposition(SuperpositionSpec(cfg_a, cfg_b, 0.6)).overlap

    a = Configuration(box, (1, 2, 3), ANTISYMMETRIC)
    assert overlap(a, Configuration(box, (4, 5, 6), ANTISYMMETRIC)) == 0.0
    assert overlap(a, a) == pytest.approx(1.0)
    # one shared orbital is not enough for a nonzero determinant overlap
    assert overlap(a, Configuration(box, (1, 4, 5), ANTISYMMETRIC)) == 0.0
    s = Configuration(box, (1, 2, 3), SYMMETRIC)
    assert overlap(s, s) == pytest.approx(1.0)
    assert overlap(s, Configuration(box, (1, 2, 4), SYMMETRIC)) == 0.0
    d = Configuration(box, (1, 2, 3), DISTINGUISHABLE)
    assert overlap(d, d) == 1.0
    assert overlap(d, Configuration(box, (1, 2, 4), DISTINGUISHABLE)) == 0.0


@pytest.mark.parametrize("interference", [True, False])
@pytest.mark.parametrize("sym", [SYMMETRIC, ANTISYMMETRIC, DISTINGUISHABLE])
def test_balanced_superposition_normalized(sym, interference, scheme):
    swf = build_superposition(spec_box(sym, 1.0 / math.sqrt(2.0), interference))
    x, w = axis_rule(swf.tables.domain, scheme, 3)
    d = swf.density_tensor([x] * 3)
    for ax in (2, 1, 0):
        d = np.tensordot(d, w, axes=([ax], [0]))
    assert abs(float(d) - 1.0) < 1e-6


def test_nonorthogonal_components_renormalized(box, scheme):
    # shared pair of orbitals gives nonzero overlap for symmetric states
    spec = SuperpositionSpec(
        state_a=Configuration(box, (1, 2, 3), SYMMETRIC),
        state_b=Configuration(box, (1, 2, 4), SYMMETRIC), c1=0.7)
    swf = build_superposition(spec)
    assert swf.overlap == 0.0  # permanents over orthonormal orbitals
    spec_same = SuperpositionSpec(
        state_a=Configuration(box, (1, 2, 3), SYMMETRIC),
        state_b=Configuration(box, (1, 2, 3), SYMMETRIC), c1=0.6)
    swf_same = build_superposition(spec_same)
    assert swf_same.overlap == pytest.approx(1.0)
    assert swf_same.norm_sq == pytest.approx(1.0 + 2 * 0.6 * 0.8)
    x, w = axis_rule(swf_same.tables.domain, scheme, 3)
    d = swf_same.density_tensor([x] * 3)
    for ax in (2, 1, 0):
        d = np.tensordot(d, w, axes=([ax], [0]))
    assert abs(float(d) - 1.0) < 1e-6


def test_amplitude_only_with_interference(box):
    swf = build_superposition(spec_box(SYMMETRIC, 0.5, interference=False))
    with pytest.raises(ValueError):
        swf.amplitude(0.1, 0.2, 0.3)
    swf_on = build_superposition(spec_box(SYMMETRIC, 0.5, interference=True))
    pt = (0.21, 0.48, 0.77)
    assert swf_on.density(*pt) == pytest.approx(
        abs(swf_on.amplitude(*pt)) ** 2, rel=1e-12)


def test_scan_endpoints_match_pure_states(box, scheme):
    for sym in (SYMMETRIC, ANTISYMMETRIC):
        scan = scan_coefficient(spec_box(sym, 1.0), (0.0, 0.5, 1.0), scheme)
        by_c = dict(scan.samples)
        pure_a = compute_report(Configuration(box, (1, 2, 3), sym),
                                scheme, with_error=False)
        pure_b = compute_report(Configuration(box, (4, 5, 6), sym),
                                scheme, with_error=False)
        assert abs(by_c[1.0].i_higher - pure_a.i_higher) < 1e-6
        assert abs(by_c[0.0].i_higher - pure_b.i_higher) < 1e-6
        assert abs(by_c[1.0].entropies.s3 - pure_a.entropies.s3) < 1e-6


@pytest.mark.parametrize("interference", [True, False])
def test_distinguishable_scan_endpoints_are_exact_products(interference, scheme):
    # at c1^2 = 0 and 1 the state is a Hartree product: every correlation
    # measure vanishes to round-off, not to the 3D rule's error
    scan = scan_coefficient(spec_box(DISTINGUISHABLE, 1.0, interference),
                            (0.0, 0.5, 1.0), scheme)
    by_c = dict(scan.samples)
    for end in (0.0, 1.0):
        e = by_c[end].entropies
        assert abs(by_c[end].i_higher) <= 1e-12
        assert abs(e.s3 - 3.0 * e.s1) <= 1e-12


def test_pair_mutual_information_insensitive_to_interference(scheme):
    # components differ in all three orbitals, so the cross terms vanish
    # from one- and two-particle marginals; only s3 feels the toggle
    on = dict(scan_coefficient(spec_box(ANTISYMMETRIC, 1.0, True),
                               (0.0, 0.5, 1.0), scheme).samples)
    off = dict(scan_coefficient(spec_box(ANTISYMMETRIC, 1.0, False),
                                (0.0, 0.5, 1.0), scheme).samples)
    assert abs(on[0.5].i_pair - off[0.5].i_pair) < 1e-5
    assert abs(on[0.5].entropies.s1 - off[0.5].entropies.s1) < 1e-7
    assert abs(on[0.5].entropies.s2 - off[0.5].entropies.s2) < 1e-7
    assert abs(on[0.5].entropies.s3 - off[0.5].entropies.s3) > 1e-3


def test_scan_validation(scheme):
    with pytest.raises(ValueError):
        scan_coefficient(spec_box(SYMMETRIC, 1.0), (0.2, 0.5), scheme)
    with pytest.raises(ValueError):
        scan_coefficient(spec_box(SYMMETRIC, 1.0), (0.0, 0.5, 1.5), scheme)
    with pytest.raises(ValueError):
        scan_coefficient(spec_box(SYMMETRIC, 1.0), (0.5, 0.5, 1.0), scheme)
    # NaN fails every comparison, so it passed the range check
    with pytest.raises(ValueError, match=r"distinct values in \[0, 1\]"):
        scan_coefficient(spec_box(SYMMETRIC, 1.0), (math.nan, 0.5, 1.0), scheme)


def test_scan_csv_and_extrema(scheme):
    scan = scan_coefficient(spec_box(SYMMETRIC, 1.0), (0.0, 0.5, 1.0), scheme)
    text = scan.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == ScanResult.CSV_HEADER
    assert lines[0] == ("c1sq,s1,s2,s3,I_pair,I3,I_rho_gamma,"
                        "I_gamma_gamma,I_higher")
    assert len(lines) == 4
    assert scan.argmax_higher() in (0.0, 0.5, 1.0)
    assert scan.argmax_higher() == 0.5  # interference peak at balance
    assert scan.argmin_higher() != 0.5


@pytest.mark.parametrize("sym", [SYMMETRIC, ANTISYMMETRIC, DISTINGUISHABLE])
@pytest.mark.parametrize("model,space,ns_a,ns_b", [
    ("box", "momentum", (1, 2, 3), (4, 5, 6)),
    ("ho", "position", (0, 1, 2), (3, 4, 5)),
])
def test_superposition_does_not_depend_on_component_order(
        box, ho, model, space, ns_a, ns_b, sym):
    # c1 Psi_A + c2 Psi_B at c1^2 = 0.3 is c2 Psi_B + c1 Psi_A at c1^2 = 0.7;
    # the map scale of its axes comes from the orbitals of both components
    params = box if model == "box" else ho
    a = Configuration(params, ns_a, sym, space)
    b = Configuration(params, ns_b, sym, space)
    ab = build_superposition(SuperpositionSpec(a, b, math.sqrt(0.3)))
    ba = build_superposition(SuperpositionSpec(b, a, math.sqrt(0.7)))
    assert ab.tables.domain == ba.tables.domain == b.tables.domain
    scheme = QuadratureScheme(panels=8, panels_3d=4, line_panels=8,
                              line_panels_3d=4)
    e_ab = compute_report(ab, scheme, with_error=False).entropies
    e_ba = compute_report(ba, scheme, with_error=False).entropies
    for name in ("s1", "s2", "s3"):
        assert abs(getattr(e_ab, name) - getattr(e_ba, name)) < 1e-12, name


@pytest.mark.parametrize("sym,interference", [
    (SYMMETRIC, True), (ANTISYMMETRIC, True),
    (DISTINGUISHABLE, True), (DISTINGUISHABLE, False)])
def test_scan_evaluates_orbital_tables_once_per_curve(sym, interference,
                                                      monkeypatch):
    # every sample shares the tables of each rule, so more samples must
    # not mean more orbital evaluations
    calls = []

    def counting(*args):
        calls.append(args[1])
        return orbital_factor(*args)

    monkeypatch.setattr(wavefunction, "orbital_factor", counting)
    spec = spec_box(sym, 1.0, interference)
    scheme = QuadratureScheme(panels=8, panels_3d=3, nodes_per_panel=7)
    counts = []
    for grid in ((0.0, 0.5, 1.0), DEFAULT_C1SQ_GRID):
        calls.clear()
        wavefunction.tabulated_rules.cache_clear()  # rules last the process
        scan_coefficient(spec, grid, scheme)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_repeated_reports_evaluate_no_orbital_table(box, ho, monkeypatch, fresh_rules):
    # every rule and its table last the process: the same reports again,
    # and an S state after the A state over its orbitals, evaluate none
    calls = []

    def counting(*args):
        calls.append(args[1])
        return orbital_factor(*args)

    monkeypatch.setattr(wavefunction, "orbital_factor", counting)
    states = [Configuration(box, (1, 2, 3), ANTISYMMETRIC),
              Configuration(ho, (0, 1, 2), ANTISYMMETRIC, "momentum")]
    compute_reports(states)
    assert calls
    calls.clear()
    compute_reports(states + [Configuration(box, (1, 2, 3), SYMMETRIC)])
    assert calls == []


def test_repeated_reports_build_no_slab_plan_or_fold_set(box, ho, monkeypatch,
                                                       fresh_rules, fresh_folds):
    # each rule keeps its s3 kernel plans, and each (parities, nonzero
    # pattern) its marginal folds and s3 region: the same reports again,
    # and the report of an S state after that of the A state over its
    # orbitals, build none of them and test no parity product
    plans, slab_plan = [], wavefunction.slab_plan
    tests = []

    def counting(*args):
        plans.append(args[2:])
        return slab_plan(*args)

    def testing(name):
        inner = getattr(wavefunction, name)
        monkeypatch.setattr(wavefunction, name,
                            lambda *args: tests.append(name) or inner(*args))

    monkeypatch.setattr(wavefunction, "slab_plan", counting)
    testing("_invariant")
    testing("fold_axes")
    folds = wavefunction._pattern_folds.cache_info
    states = [Configuration(box, (1, 2, 3), ANTISYMMETRIC),
              Configuration(ho, (0, 1, 2), ANTISYMMETRIC, MOMENTUM)]
    compute_reports(states)
    built = folds().misses
    assert len(plans) == 4 and built > 0  # two rules per state, fine and coarse
    assert {"_invariant", "fold_axes"} <= set(tests)
    plans.clear()
    tests.clear()
    compute_reports(states)
    compute_report(Configuration(box, (1, 2, 3), SYMMETRIC))
    assert plans == [] and tests == [] and folds().misses == built


@pytest.mark.parametrize("space", [POSITION, MOMENTUM])
@pytest.mark.parametrize("model", ["box", "ho"])
def test_a_product_mixed_with_itself_is_a_product(box, ho, model, space, scheme):
    # c1 C and c2 C are one term, C: a product whose every measure is 0,
    # where two terms on the rule's imperfect mass gave I3 = 1.3e-4 in box
    # momentum
    params, ns = (box, (1, 2, 3)) if model == "box" else (ho, (0, 1, 2))
    d = Configuration(params, ns, DISTINGUISHABLE, space)
    scan = scan_coefficient(SuperpositionSpec(d, d, 1.0, interference=False),
                            (0.0, 0.5, 1.0), scheme)
    for c1sq, rep in scan.samples:
        e = rep.entropies
        measures = (rep.i_pair, rep.i_total3, rep.i_one_pair, rep.i_pair_pair,
                    rep.i_higher, e.s2 - 2.0 * e.s1, e.s3 - 3.0 * e.s1)
        assert max(map(abs, measures)) <= 1e-13, (c1sq, measures)


def test_default_grid():
    assert len(DEFAULT_C1SQ_GRID) == 21
    assert DEFAULT_C1SQ_GRID[0] == 0.0
    assert DEFAULT_C1SQ_GRID[-1] == 1.0
    assert DEFAULT_C1SQ_GRID[10] == 0.5
