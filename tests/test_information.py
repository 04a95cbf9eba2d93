import ast
import glob
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from symcorr import (
    ANTISYMMETRIC,
    DISTINGUISHABLE,
    ENTROPIC_BOUND,
    SYMMETRIC,
    Configuration,
    ModelParams,
    NonConvergenceError,
    QuadratureScheme,
    SuperpositionSpec,
    WaveFunction,
    build,
    build_superposition,
    DEFAULT_C1SQ_GRID,
    compute_report,
    compute_reports,
    cumulant3,
    entropy,
    entropy_sum_check,
    mutual_information_higher_direct,
    mutual_information_pair_direct,
)
from symcorr import information, wavefunction
from symcorr.densities import quadrature_marginal, reduce_numerical, reduce_to_one
from symcorr.orbitals import MOMENTUM, POSITION
from symcorr.quadrature import (
    DENSITY_FLOOR,
    axis_rule,
    d_ln_d,
    entropy_from_values,
    gauss_panels,
)
from symcorr.reference_tables import BOX_TABLE, OSCILLATOR_TABLE
from symcorr.superposition import _CachedMixture
from symcorr.wavefunction import (
    TRIM_BOUND,
    coefficient_tensor,
    density_grid,
    entropy_grid,
    fold_axes,
    orbital_products,
    reduced_density,
    slab_folds,
    trim_rule,
)


@pytest.fixture(scope="module")
def report_a3(box):
    return compute_report(Configuration(box, (1, 2, 3), ANTISYMMETRIC))


def test_ground_state_pair_entropy(box):
    # both particles in n = 1: Psi is a product, so s = 2 (ln 2 - 1)
    wf = build(Configuration(box, (1, 1), SYMMETRIC))
    assert abs(entropy(wf) - 2.0 * (math.log(2.0) - 1.0)) < 1e-7


def test_report_matches_table1_spot_values(report_a3):
    ref = BOX_TABLE[("a", 3)]
    d = report_a3.as_dict()
    for key, want in ref.items():
        assert abs(d[key] - want) < 2e-3, key


def test_report_matches_table2_spot_value(ho):
    rep = compute_report(Configuration(ho, (0, 1, 2), SYMMETRIC),
                         with_error=False)
    assert abs(rep.entropies.s3 - OSCILLATOR_TABLE[("s", 2)]["s3"]) < 2e-3


def test_hierarchy_residuals(report_a3, box, ho):
    assert max(abs(r) for r in report_a3.hierarchy_residuals()) < 1e-9
    rep = compute_report(Configuration(ho, (0, 1, 4), SYMMETRIC, MOMENTUM),
                         with_error=False)
    assert max(abs(r) for r in rep.hierarchy_residuals()) < 1e-9
    rep = compute_report(Configuration(box, (1, 1, 2), SYMMETRIC),
                         with_error=False)
    assert max(abs(r) for r in rep.hierarchy_residuals()) < 1e-9


def test_error_estimate_present_and_small(report_a3):
    err = report_a3.entropies.error_estimate
    assert err is not None
    assert err < 1e-3


def test_direct_integrals_match_combinations_position(box, report_a3):
    ip = mutual_information_pair_direct(Configuration(box, (1, 2, 3), ANTISYMMETRIC))
    ih = mutual_information_higher_direct(Configuration(box, (1, 2, 3), ANTISYMMETRIC))
    assert abs(ip - report_a3.i_pair) < 1e-5
    assert abs(ih - report_a3.i_higher) < 1e-5


@pytest.mark.parametrize("params,ns", [
    (ModelParams.box(1.0), (1, 2, 3)),
    (ModelParams.box(1.0), (1, 2, 4)),
    (ModelParams.oscillator(1.0), (0, 1, 2)),
], ids=["box-123", "box-124", "ho-012"])
@pytest.mark.parametrize("sym", [SYMMETRIC, ANTISYMMETRIC])
def test_report_higher_equals_the_direct_integral_on_position_rules(params, ns, sym):
    # a position rule integrates the orbital products exactly, so the
    # report's I^3, from s1, s2 and s3 on the 3D rule's nodes, is the
    # direct integral of |Psi|^2 ln R on that rule
    cfg = Configuration(params, ns, sym)
    rep = compute_report(cfg, with_error=False)
    assert abs(rep.i_higher - mutual_information_higher_direct(cfg)) <= 1e-12


def _vandermonde_s3(wf, a, b, f, g, point, panels=20, nodes=20):
    """s3 of a state with |Psi|^2 = c prod_i f(x_i) prod_{i<j} g(x_i, x_j).

    ln |Psi|^2 splits into one- and two-coordinate terms, so
    s3 = -ln c - 3 int rho ln f - 3 int Gamma ln g: a 1D and a 2D
    integral on [a, b].  The 2D one runs over x < y, twice, with
    x = a + (y - a) t, so the diagonal, where g vanishes, is an edge of
    the rule.  c follows from |Psi|^2 at one point.
    """
    rho, gamma = quadrature_marginal(wf, (0,)), quadrature_marginal(wf, (0, 1))
    y, wy = gauss_panels(a, b, panels, nodes)
    t, wt = gauss_panels(0.0, 1.0, panels, nodes)
    x = a + (y[:, None] - a) * t
    wx = wy[:, None] * (y[:, None] - a) * wt
    p = np.asarray(point)
    c = wf.density(*p) / (np.prod(f(p)) * g(p[0], p[1]) * g(p[0], p[2]) * g(p[1], p[2]))
    return -math.log(c) - 3.0 * np.sum(wy * rho(y) * np.log(f(y))) \
        - 6.0 * np.sum(wx * gamma(x, y[:, None]) * np.log(g(x, y[:, None])))


def test_s3_matches_the_vandermonde_oracle(box, ho):
    # the lowest A states are Vandermonde products:
    # box: Psi ~ prod sin(pi x_i) prod_{i<j} (cos pi x_j - cos pi x_i),
    # oscillator: Psi ~ exp(-sum x_i^2 / 2) prod_{i<j} (x_j - x_i)
    cases = (
        (box, (1, 2, 3), 0.0, 1.0, lambda x: np.sin(np.pi * x) ** 2,
         lambda x, y: (np.cos(np.pi * y) - np.cos(np.pi * x)) ** 2,
         (0.1, 0.35, 0.7), -1.2454656569, 4e-6),
        (ho, (0, 1, 2), -12.0, 12.0, lambda x: np.exp(-x * x),
         lambda x, y: (x - y) ** 2, (-0.9, 0.2, 1.3), 3.93364847, 6e-5),
    )
    for params, ns, a, b, f, g, point, value, tol in cases:
        cfg = Configuration(params, ns, ANTISYMMETRIC)
        oracle = _vandermonde_s3(build(cfg), a, b, f, g, point)
        assert abs(oracle - value) < 5e-9
        s3 = compute_report(cfg, with_error=False).entropies.s3
        assert abs(s3 - oracle) <= tol, (ns, s3 - oracle)


def test_direct_integrals_reject_distinguishable(box):
    cfg = Configuration(box, (1, 2, 3), DISTINGUISHABLE)
    with pytest.raises(ValueError):
        mutual_information_pair_direct(cfg)
    with pytest.raises(ValueError):
        mutual_information_higher_direct(cfg)


def test_distinguishable_measures_vanish(box, ho):
    for params, ns in ((box, (1, 2, 3)), (ho, (0, 1, 2))):
        rep = compute_report(Configuration(params, ns, DISTINGUISHABLE),
                             with_error=False)
        assert rep.i_pair == 0.0
        for v in (rep.i_total3, rep.i_one_pair, rep.i_pair_pair, rep.i_higher):
            assert abs(v) < 1e-9


def test_pair_mutual_information_nonnegative(box, ho):
    for sym in (SYMMETRIC, ANTISYMMETRIC):
        for params, ns in ((box, (1, 2, 3)), (ho, (0, 1, 2))):
            rep = compute_report(Configuration(params, ns, sym), with_error=False)
            assert rep.i_pair >= 0.0


@pytest.mark.parametrize("i_pair,warns", [(-1e-13, False), (-1e-6, True)])
def test_negative_pair_information_within_tolerance_is_clamped(box, i_pair, warns):
    wf = build(Configuration(box, (1, 2, 3), SYMMETRIC))
    scheme = QuadratureScheme(target_abs_tol=1e-5)
    fine = (1.0, 2.0 - i_pair, 3.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = information._report(wf, fine, None, scheme)
    assert rep.i_pair == 0.0
    assert [str(w.message).startswith("pair mutual information clamped")
            for w in caught] == ([True] if warns else [])
    # the other measures keep the unclamped entropies
    assert rep.i_higher == 3 * fine[1] - 3 * fine[0] - fine[2]


def test_negative_pair_information_beyond_tolerance_raises(box):
    wf = build(Configuration(box, (1, 2, 3), SYMMETRIC))
    with pytest.raises(NonConvergenceError,
                       match="negative beyond quadrature tolerance") as caught:
        information._report(wf, (1.0, 2.0 + 2e-5, 3.0), None,
                            QuadratureScheme(target_abs_tol=1e-5))
    assert caught.value.achieved_error == pytest.approx(2e-5)


def test_two_particle_report_matches_entropy(box):
    wf = build(Configuration(box, (1, 2), ANTISYMMETRIC))
    rep = compute_report(wf)
    e = rep.entropies
    assert e.s1 == pytest.approx(entropy(reduce_to_one(wf)), abs=1e-13)
    assert e.s2 == pytest.approx(entropy(wf), abs=1e-13)
    assert rep.i_pair == 2 * e.s1 - e.s2 > 0
    assert e.s3 is None and rep.i_higher is None
    assert list(rep.as_dict()) == ["system", "space", "s1", "s2", "I_pair",
                                   "error_estimate"]
    with pytest.raises(ValueError):
        rep.hierarchy_residuals()


def test_two_and_three_particles_in_one_batch(box):
    # D(1,1) and D(1,1,1) share orbitals and a one-byte nonzero mask
    two, three = compute_reports([Configuration(box, (1, 1), DISTINGUISHABLE),
                                  Configuration(box, (1, 1, 1), DISTINGUISHABLE)])
    assert two.system.endswith("ns=(1, 1) distinguishable")
    assert three.system.endswith("ns=(1, 1, 1) distinguishable")
    assert two.entropies.s3 is None
    assert two.entropies.s1 == three.entropies.s1
    assert two.entropies.s2 == three.entropies.s2 == 2 * two.entropies.s1
    assert two.i_pair == three.i_pair == three.i_higher == 0.0


# Exact invariances: each holds to round-off on the default scheme, so an
# error of 1e-9 in a rule, a map, a trim or an orbital fails the bound.
ROUND_OFF = 1e-13
MEASURES = ("I_pair", "I3", "I_rho_gamma", "I_gamma_gamma", "I_higher")


def _rows(systems):
    return [r.as_dict() for r in compute_reports(systems, with_error=False)]


def _covariance_residual(a, b, per_coordinate=0.0):
    """Largest |b - a - k per_coordinate| over the s_k and |b - a| over the measures."""
    shifts = {"s1": per_coordinate, "s2": 2 * per_coordinate, "s3": 3 * per_coordinate}
    shifts.update(dict.fromkeys(MEASURES, 0.0))
    return max(abs(b[k] - a[k] - shift) for k, shift in shifts.items() if k in a)


def test_cumulants_vanish_for_indistinguishable(box, ho):
    for params, ns in ((box, (1, 2, 3)), (box, (1, 1, 2)), (ho, (0, 1, 2))):
        for space in (POSITION, MOMENTUM):
            for sym in (SYMMETRIC, ANTISYMMETRIC)[:len(set(ns)) - 1]:
                c = cumulant3(Configuration(params, ns, sym, space))
                assert abs(c) < ROUND_OFF, (params.kind, ns, sym, space)


@pytest.mark.parametrize("space", [POSITION, MOMENTUM])
def test_ho_measures_invariant_under_omega(space):
    # x scales as omega^(-1/2) and p as omega^(1/2): s_k shifts by -/+ (k/2) ln omega
    per_coordinate = (-0.5 if space == POSITION else 0.5) * math.log(4.0)
    for ns, sym in (((0, 1, 2), ANTISYMMETRIC), ((0, 0, 3), SYMMETRIC),
                    ((0, 2, 5), DISTINGUISHABLE), ((0, 3), SYMMETRIC)):
        a, b = _rows([Configuration(ModelParams.oscillator(w), ns, sym, space)
                      for w in (1.0, 4.0)])
        assert _covariance_residual(a, b, per_coordinate) < ROUND_OFF, (ns, sym)


def test_ho_position_equals_momentum_at_unit_omega(ho):
    for ns, sym in (((0, 1, 2), SYMMETRIC), ((0, 1, 3), ANTISYMMETRIC),
                    ((0, 2, 5), DISTINGUISHABLE), ((1, 1, 4), SYMMETRIC),
                    ((0, 3), SYMMETRIC)):
        rx, rp = _rows([Configuration(ho, ns, sym, space)
                        for space in (POSITION, MOMENTUM)])
        assert _covariance_residual(rx, rp) < ROUND_OFF, (ns, sym)


def test_box_position_covariant_under_length():
    # x scales as L and p as 1/L: s_k shifts by +/- k ln L.  Box momentum
    # is exact too, since every entropy runs at L = 1; on the L = 2.5 rule
    # its 1/p^2 tails left residuals of order 1e-5
    def states(length, space):
        box = ModelParams.box(length)
        spec = SuperpositionSpec(Configuration(box, (1, 2, 3), SYMMETRIC, space),
                                 Configuration(box, (4, 5, 6), SYMMETRIC, space),
                                 math.sqrt(0.4))
        return [Configuration(box, (1, 2, 3), ANTISYMMETRIC, space),
                Configuration(box, (1, 1, 2), SYMMETRIC, space),
                Configuration(box, (1, 2, 4), DISTINGUISHABLE, space),
                Configuration(box, (1, 2), ANTISYMMETRIC, space),
                build_superposition(spec)]

    for space, sign in ((POSITION, 1.0), (MOMENTUM, -1.0)):
        for a, b in zip(_rows(states(1.0, space)), _rows(states(2.5, space))):
            residual = _covariance_residual(a, b, sign * math.log(2.5))
            assert residual < ROUND_OFF, (a["system"], space)


@pytest.mark.parametrize("space", [POSITION, MOMENTUM])
@pytest.mark.parametrize("kind", ["box", "oscillator"])
def test_entropies_shift_by_k_ln_c_at_every_scale(kind, space):
    # L or omega over 600 decades, in one batch: every entropy runs at unit
    # scale, each s_k is s_k(1) + k ln c, and every measure stays.  At
    # omega = 1e-300 oscillator A(0, 1, 2) printed s2 = s3 = 0 and
    # I^3 = -1040.9, and box A states failed at L = 0.01
    scales = (1e-300, 1e-6, 0.01, 1e6, 1e300)
    make, ns = (ModelParams.box, (1, 2, 3)) if kind == "box" \
        else (ModelParams.oscillator, (0, 1, 2))

    def states(scale):
        params = make(scale)
        spec = SuperpositionSpec(Configuration(params, ns, SYMMETRIC, space),
                                 Configuration(params, ns[1:] + (6,), SYMMETRIC, space),
                                 math.sqrt(0.4))
        return [Configuration(params, ns, ANTISYMMETRIC, space),
                Configuration(params, ns[:2], ANTISYMMETRIC, space),
                Configuration(params, ns, DISTINGUISHABLE, space),
                build_superposition(spec)]

    rows = _rows([st for scale in (1.0,) + scales for st in states(scale)])
    sign = 1.0 if space == POSITION else -1.0
    for k, scale in enumerate(scales, 1):
        log_c = sign * math.log(scale) * (1.0 if kind == "box" else -0.5)
        for a, b in zip(rows[:4], rows[4 * k:4 * k + 4]):
            bound = 1e-14 * max(1.0, abs(b["s1"]))
            assert _covariance_residual(a, b, log_c) <= bound, (b["system"], space)


def test_report_rejects_an_entropy_that_is_not_finite(box):
    # safety code: no state's unit-scale tables are known to give one
    wf = Configuration(box, (1, 2, 3), SYMMETRIC)
    for fine, coarse in (((1.0, math.nan, 3.0), None),
                         ((1.0, 2.0, 3.0), (1.0, 2.0, math.inf))):
        with pytest.raises(NonConvergenceError, match="not finite"):
            information._report(wf, fine, coarse, QuadratureScheme())


@pytest.mark.parametrize("sym", [SYMMETRIC, ANTISYMMETRIC])
def test_order_of_quantum_numbers_changes_nothing(box, ho, sym):
    for params, ns, space in ((box, (1, 2, 5), POSITION), (box, (1, 2, 5), MOMENTUM),
                              (ho, (0, 1, 4), POSITION)):
        a, b = (compute_report(Configuration(params, order, sym, space),
                               with_error=False).as_dict()
                for order in (ns, ns[2:] + ns[:2]))
        assert _covariance_residual(a, b) == 0.0, (params.kind, ns, space)


def test_cumulant_distinguishable_reported_not_asserted(box):
    c = cumulant3(Configuration(box, (1, 2, 3), DISTINGUISHABLE))
    assert np.isfinite(c)


def test_entropy_sum_bound(box, ho):
    for sym in (SYMMETRIC, ANTISYMMETRIC):
        total, bound, ok = entropy_sum_check(box, (1, 2, 3), sym)
        assert ok and total >= bound
    total, bound, ok = entropy_sum_check(ho, (0, 1, 2), ANTISYMMETRIC)
    assert ok
    assert bound == pytest.approx(1.0 + math.log(math.pi))
    assert ENTROPIC_BOUND == pytest.approx(1.0 + math.log(math.pi))


def test_entropy_accepts_wavefunction_and_density(box, scheme):
    wf = build(Configuration(box, (1, 2, 3), ANTISYMMETRIC))
    s3 = entropy(wf, scheme)
    assert abs(s3 - BOX_TABLE[("a", 3)]["s3"]) < 2e-3
    s1 = entropy(reduce_to_one(wf), scheme)
    assert abs(s1 - BOX_TABLE[("a", 3)]["s1"]) < 2e-3


# odd and even node counts per axis: 3 x 7 = 21 and 4 x 5 = 20
ODD_EVEN_SCHEMES = [
    QuadratureScheme(panels_3d=3, line_panels_3d=3, nodes_per_panel=7),
    QuadratureScheme(panels_3d=4, line_panels_3d=4, nodes_per_panel=5),
]
# the same with an error level: 5 x 5 = 25 and 5 x 4 = 20 nodes, whose 3D
# counts ``coarsened`` can halve (3 and 4 panels above are its floor)
ERROR_SCHEMES = [
    QuadratureScheme(panels_3d=5, line_panels_3d=5, nodes_per_panel=5),
    QuadratureScheme(panels_3d=5, line_panels_3d=5, nodes_per_panel=4),
]


def _kernel_cases():
    box, ho = ModelParams.box(1.0), ModelParams.oscillator(1.0)
    pairs = [
        ("s-box", Configuration(box, (1, 2, 3), SYMMETRIC)),
        ("a-box", Configuration(box, (1, 2, 3), ANTISYMMETRIC)),
        ("s-ho", Configuration(ho, (0, 1, 2), SYMMETRIC)),
        ("a-ho", Configuration(ho, (0, 1, 2), ANTISYMMETRIC)),
        ("a-box-momentum", Configuration(box, (1, 2, 3), ANTISYMMETRIC, MOMENTUM)),
        ("s112-box-momentum", Configuration(box, (1, 1, 2), SYMMETRIC, MOMENTUM)),
        # a Hartree product, whose entropy() integrates |Psi|^2 on the 3D rule too
        ("d-box", Configuration(box, (1, 2, 3), DISTINGUISHABLE)),
    ]
    cases = [(name, build(cfg)) for name, cfg in pairs]
    for name, params, space, sym, ns_a, ns_b, interference in (
            ("a-interfering", box, POSITION, ANTISYMMETRIC, (1, 2, 3), (1, 2, 4), True),
            ("s-mixture", box, POSITION, SYMMETRIC, (1, 2, 3), (4, 5, 6), False),
            ("d-superposition", box, POSITION, DISTINGUISHABLE, (1, 2, 3), (4, 5, 6), True),
            ("d-mixture", box, POSITION, DISTINGUISHABLE, (1, 2, 3), (4, 5, 6), False),
            ("d-ho-momentum", ho, MOMENTUM, DISTINGUISHABLE, (0, 1, 2), (3, 4, 5), True),
            # phase products -i and 1: two real terms, one per component
            ("a-box-momentum-superposition", box, MOMENTUM, ANTISYMMETRIC,
             (1, 2, 3), (4, 5, 6), True),
            ("d-parity-mixed", box, POSITION, DISTINGUISHABLE, (1, 2, 3), (1, 2, 4), True)):
        spec = SuperpositionSpec(Configuration(params, ns_a, sym, space),
                                 Configuration(params, ns_b, sym, space),
                                 math.sqrt(0.4), interference)
        cases.append((name, build_superposition(spec)))
    return cases


KERNEL_CASES = _kernel_cases()


def _rule3(wf, scheme):
    """(x, table, q, w) of the 3D rule the s3 kernel runs ``wf`` on: the
    unit tables' ``rule(3)``, trimmed, with panel edges on the node planes."""
    return wavefunction.tabulated_rules(wf.tables.unit_scale[0], scheme, {})(3)


def _kernel_s3(wf, scheme):
    """-sum w w w d ln d of one state: the s3 kernel alone, on the 3D rule
    as ``trim_rule`` trims it and over the region ``slab_folds`` sets."""
    _, table, _, w = _rule3(wf, scheme)
    symmetric = wf.symmetry != DISTINGUISHABLE
    return entropy_grid(wf.terms, table, w, symmetric,
                        slab_folds(wf.terms, symmetric, wf.tables.parities))


@pytest.mark.parametrize("scheme3", ODD_EVEN_SCHEMES, ids=["odd", "even"])
@pytest.mark.parametrize("name,wf", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_fused_s3_matches_full_grid(name, wf, scheme3):
    x, _, _, w = _rule3(wf, scheme3)
    want = entropy_from_values(wf.density_tensor([x] * 3), [w] * 3)
    assert abs(_kernel_s3(wf, scheme3) - want) < 1e-12


MOMENTUM_CASES = [c for c in KERNEL_CASES if c[1].space == MOMENTUM]


@pytest.mark.parametrize("scheme3", ODD_EVEN_SCHEMES, ids=["odd", "even"])
@pytest.mark.parametrize("name,wf", MOMENTUM_CASES, ids=[c[0] for c in MOMENTUM_CASES])
def test_fused_s3_matches_pointwise_density_in_momentum_space(name, wf, scheme3):
    # density_tensor shares the real terms and tables with the kernel; the
    # pointwise density of the complex orbitals shares neither
    x, _, _, w = _rule3(wf, scheme3)
    want = entropy_from_values(wf.density(*np.meshgrid(x, x, x, indexing="ij")),
                               [w] * 3)
    assert abs(_kernel_s3(wf, scheme3) - want) < 1e-12


def _higher_direct_full_grid(wf, scheme):
    """I^3 as the full-grid sum of |Psi|^2 ln R, with the floors of
    ``mutual_information_higher_direct``."""
    x, _, _, w = _rule3(wf, scheme)
    d = wf.density_tensor([x] * 3)
    lr = np.log(np.maximum(quadrature_marginal(wf, (0,))(x), DENSITY_FLOOR))
    lg = np.log(np.maximum(quadrature_marginal(wf, (0, 1))(x[:, None], x[None, :]),
                           DENSITY_FLOOR))
    i, j, k = np.ogrid[:len(x), :len(x), :len(x)]
    log_r = np.log(np.maximum(d, DENSITY_FLOOR)) + lr[i] + lr[j] + lr[k] \
        - lg[i, j] - lg[i, k] - lg[j, k]
    f = np.where(d > DENSITY_FLOOR, d * log_r, 0.0)
    return float(np.einsum("i,j,k,ijk->", w, w, w, f))


DIRECT_CASES = [c for c in KERNEL_CASES
                if c[0] in ("s-box", "a-box", "a-ho", "a-box-momentum", "a-interfering")] \
    + [("s112-box", build(Configuration(ModelParams.box(1.0), (1, 1, 2), SYMMETRIC)))]


@pytest.mark.parametrize("scheme3", ODD_EVEN_SCHEMES, ids=["odd", "even"])
@pytest.mark.parametrize("name,wf", DIRECT_CASES, ids=[c[0] for c in DIRECT_CASES])
def test_direct_higher_matches_full_grid(name, wf, scheme3):
    # the sorted sector's multiplicities and every log offset, to round-off
    want = _higher_direct_full_grid(wf, scheme3)
    assert abs(want) > 1e-3
    assert abs(mutual_information_higher_direct(wf, scheme3) - want) < 1e-12


# D states of KERNEL_CASES -> the axes their parities let the kernel fold
FOLDS = {
    # (+,-,+) and (-,+,-) interfere: flips of axes {1,2}, {1,3}, {2,3}
    "d-superposition": (0, 1),
    # phase products i and 1: the components do not interfere, and each
    # term is one product
    "d-ho-momentum": (0, 1, 2),
    # each term alone is a product: all eight flips
    "d-mixture": (0, 1, 2),
    # (+,-,+) and (+,-,-): the third axis must stay whole
    "d-parity-mixed": (0, 1),
    # one product: all eight flips
    "d-box": (0, 1, 2),
}


@pytest.mark.parametrize("name", sorted(FOLDS))
def test_fold_axes_of_distinguishable_states(name):
    wf = dict(KERNEL_CASES)[name]
    assert slab_folds(wf.terms, False, wf.tables.parities) == FOLDS[name]


def test_fold_axes_of_single_configurations(box):
    wf = build(Configuration(box, (1, 2, 3), DISTINGUISHABLE))
    assert slab_folds(wf.terms, False, wf.tables.parities) == (0, 1, 2)
    # a permanent mixes the parities over the axes; only the reflection
    # of all three, a product over all of (1, 2, 3), leaves it invariant
    wf = build(Configuration(box, (1, 2, 3), SYMMETRIC))
    assert slab_folds(wf.terms, False, wf.tables.parities) == (0,)


# S/A states of KERNEL_CASES whose every term the inversion of all three
# axes leaves invariant: the kernel runs the first ceil(n/2) slabs only
INVERTED = {"s-box", "a-box", "s-ho", "a-ho", "a-box-momentum",
            "s112-box-momentum", "s-mixture", "a-box-momentum-superposition"}
EXCHANGE_SYMMETRIC = [c for c in KERNEL_CASES if c[1].symmetry != DISTINGUISHABLE]


@pytest.mark.parametrize("name,wf", EXCHANGE_SYMMETRIC,
                         ids=[c[0] for c in EXCHANGE_SYMMETRIC])
def test_inversion_invariance_of_exchange_symmetric_states(name, wf):
    assert slab_folds(wf.terms, True, wf.tables.parities) == \
        ((0,) if name in INVERTED else ())


@pytest.fixture
def integrand_nodes(monkeypatch):
    """Sizes of the density arrays the s3 kernel passes to -d ln d."""
    counted = []

    def counting(d, out):
        counted.append(np.size(d))
        return d_ln_d(d, out)

    monkeypatch.setattr(wavefunction, "d_ln_d", counting)
    return counted


@pytest.mark.parametrize("scheme3", ODD_EVEN_SCHEMES, ids=["odd", "even"])
@pytest.mark.parametrize("name,wf", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_fused_s3_evaluates_each_distinct_value_once(name, wf, scheme3, integrand_nodes):
    _kernel_s3(wf, scheme3)
    # the nodes of the rule the kernel runs on: trim_rule drops oscillator tails
    n = len(_rule3(wf, scheme3)[3])
    if wf.symmetry == DISTINGUISHABLE:
        f = len(FOLDS[name])
        want = ((n + 1) // 2) ** f * n ** (3 - f)
    elif name in INVERTED:
        # slab j of the sorted sector holds (j + 1)(n - j) nodes
        want = sum((j + 1) * (n - j) for j in range((n + 1) // 2))
    else:
        want = n * (n + 1) * (n + 2) // 6
    assert sum(integrand_nodes) == want


@pytest.mark.parametrize("sym", [SYMMETRIC, ANTISYMMETRIC])
def test_inversion_halves_only_the_scan_endpoints(box, sym, integrand_nodes):
    # C_A over (1, 2, 3) and C_B over (4, 5, 6) have opposite inversion
    # parity, so only the samples made of one of them fold
    a = Configuration(box, (1, 2, 3), sym)
    b = Configuration(box, (4, 5, 6), sym)
    scheme3 = ODD_EVEN_SCHEMES[0]
    for c1sq, folds in ((0.0, True), (0.5, False), (1.0, True)):
        wf = build_superposition(SuperpositionSpec(a, b, math.sqrt(c1sq)))
        n = len(_rule3(wf, scheme3)[3])
        assert slab_folds(wf.terms, True, wf.tables.parities) == ((0,) if folds else ())
        integrand_nodes.clear()
        entropy(wf, scheme3)
        slabs = (n + 1) // 2 if folds else n
        assert sum(integrand_nodes) == sum((j + 1) * (n - j) for j in range(slabs))


@pytest.mark.parametrize("scheme3", ODD_EVEN_SCHEMES, ids=["odd", "even"])
def test_batched_scan_endpoints_run_the_inverted_half_sector(box, scheme3,
                                                             integrand_nodes):
    # in one compute_reports batch too, each endpoint is its own group and
    # keeps the inversion the interior sample lacks
    a = Configuration(box, (1, 2, 3), SYMMETRIC)
    b = Configuration(box, (4, 5, 6), SYMMETRIC)
    mixes = [build_superposition(SuperpositionSpec(a, b, math.sqrt(c1sq)))
             for c1sq in (0.0, 0.5, 1.0)]
    compute_reports(mixes, scheme3, with_error=False)
    n = len(_rule3(mixes[0], scheme3)[3])
    sector = [(j + 1) * (n - j) for j in range(n)]
    assert sum(integrand_nodes) == 2 * sum(sector[:(n + 1) // 2]) + sum(sector)


SCAN_CURVES = [(SYMMETRIC, True), (ANTISYMMETRIC, True),
               (DISTINGUISHABLE, True), (DISTINGUISHABLE, False)]


@pytest.mark.parametrize("scheme3", ODD_EVEN_SCHEMES, ids=["odd", "even"])
@pytest.mark.parametrize("sym,interference", SCAN_CURVES,
                         ids=["s", "a", "d", "d-no-interference"])
def test_batched_s3_matches_per_sample_s3(box, sym, interference, scheme3,
                                          integrand_nodes):
    a = Configuration(box, (1, 2, 3), sym)
    b = Configuration(box, (4, 5, 6), sym)
    mixes = [build_superposition(SuperpositionSpec(a, b, math.sqrt(c1sq),
                                                   interference))
             for c1sq in DEFAULT_C1SQ_GRID]
    reports = compute_reports(mixes, scheme3, with_error=False)
    batched = list(integrand_nodes)
    integrand_nodes.clear()
    for mix, rep in zip(mixes, reports):
        # a D endpoint is a Hartree product, whose report runs no kernel
        if len(mix.terms) > 1 or np.count_nonzero(mix.terms[0]) > 1:
            assert abs(rep.entropies.s3 - entropy(mix, scheme3)) <= 1e-13
    # the same nodes, the endpoints' inversion and parity folds included
    assert sum(batched) == sum(integrand_nodes)
    # the kernel alone on every sample: a fold only where all samples keep it
    _, table, _, w = _rule3(mixes[0], scheme3)
    if interference:
        terms = [np.stack([m.terms[0] for m in mixes])]
    else:  # c1 C_A and c2 C_B of every sample, the endpoints' zero tensors too
        c1sq = np.array(DEFAULT_C1SQ_GRID)[:, None, None, None]
        orbitals = mixes[0].tables.orbitals
        terms = [np.sqrt(c1sq) * coefficient_tensor(a, orbitals),
                 np.sqrt(1.0 - c1sq) * coefficient_tensor(b, orbitals)]
    symmetric = sym != DISTINGUISHABLE
    folds = slab_folds(terms, symmetric, mixes[0].tables.parities)
    # blocks hold at most n^2 values, so more calls than the slabs of the
    # groups the batch forms means some slab split its samples: the
    # interior samples run the slabs of the folds all samples keep, and an
    # S/A endpoint, grouped on its own nonzero pattern, half the sector
    # (a D endpoint runs none)
    n = len(w)
    h = (n + 1) // 2
    slabs = (h if 0 in folds else n) + (2 * h if symmetric else 0)
    assert max(batched) <= n * n
    assert len(batched) > slabs
    s3 = entropy_grid(terms, table, w, symmetric, folds)
    for mix, got in zip(mixes, s3):
        assert abs(got - _kernel_s3(mix, scheme3)) <= 1e-13


@pytest.mark.parametrize("sym,interference", SCAN_CURVES,
                         ids=["s", "a", "d", "d-no-interference"])
def test_batched_error_estimate_matches_per_sample(box, sym, interference):
    a = Configuration(box, (1, 2, 3), sym)
    b = Configuration(box, (4, 5, 6), sym)
    mixes = [build_superposition(SuperpositionSpec(a, b, math.sqrt(c1sq),
                                                   interference))
             for c1sq in (0.0, 0.3, 0.5, 1.0)]
    scheme3 = ERROR_SCHEMES[1]
    for mix, rep in zip(mixes, compute_reports(mixes, scheme3)):
        one = compute_report(mix, scheme3)
        assert abs(rep.entropies.error_estimate
                   - one.entropies.error_estimate) <= 1e-13
        assert rep.system == one.system


@pytest.mark.parametrize("space", [POSITION, MOMENTUM])
def test_a_batch_changes_no_s1_or_s2(box, space):
    # each member's rho and Gamma are its own density matrix contracted
    # with the orbital products, so a batch gives every member the s1 and
    # s2 of its own report to the last bit (up to 1.1e-14 apart when a
    # scan curve's Gamma combined one basis of the members' span): the
    # four scan curves, and the S/A pair of each n3 of ``scan-n3``
    states = []
    for sym, interference in SCAN_CURVES:
        a = Configuration(box, (1, 2, 3), sym, space)
        b = Configuration(box, (4, 5, 6), sym, space)
        states += [build_superposition(SuperpositionSpec(a, b, math.sqrt(c1sq),
                                                         interference))
                   for c1sq in DEFAULT_C1SQ_GRID]
    states += [Configuration(box, (1, 2, n3), sym, space)
               for n3 in (3, 4, 5) for sym in (ANTISYMMETRIC, SYMMETRIC)]
    scheme = ODD_EVEN_SCHEMES[0]
    for st, rep in zip(states, compute_reports(states, scheme, with_error=False)):
        one = compute_report(st, scheme, with_error=False).entropies
        assert (rep.entropies.s1, rep.entropies.s2) == (one.s1, one.s2), rep.system


def test_fused_s3_full_grid_without_parities(integrand_nodes):
    wf = dict(KERNEL_CASES)["d-mixture"]
    _, table, _, w = _rule3(wf, ODD_EVEN_SCHEMES[0])
    # no folds: the kernel runs the whole grid, to the folded value
    full = entropy_grid(wf.terms, table, w, False, ())
    assert sum(integrand_nodes) == len(w) ** 3
    assert abs(full - _kernel_s3(wf, ODD_EVEN_SCHEMES[0])) < 1e-12


def test_fused_s3_builds_no_3d_grid(box, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a 3D density array was built")

    monkeypatch.setattr(WaveFunction, "density_tensor", forbidden)
    monkeypatch.setattr(_CachedMixture, "density_tensor", forbidden)
    rep = compute_report(Configuration(box, (1, 1, 2), SYMMETRIC, MOMENTUM),
                         ERROR_SCHEMES[0])
    assert rep.entropies.error_estimate is not None
    spec = SuperpositionSpec(Configuration(box, (1, 2, 3), DISTINGUISHABLE),
                             Configuration(box, (4, 5, 6), DISTINGUISHABLE),
                             math.sqrt(0.5))
    compute_report(build_superposition(spec), ERROR_SCHEMES[1])
    # the validation integrals build none either
    for _, wf in KERNEL_CASES:
        cumulant3(wf, ODD_EVEN_SCHEMES[0])
        if wf.symmetry != DISTINGUISHABLE:
            mutual_information_higher_direct(wf, ODD_EVEN_SCHEMES[0])


def _cumulant3_full_grid(wf, scheme):
    """cumulant3 with <x1 x2 x3> summed over |Psi|^2 on the full 3D grid."""
    x, _, _, w = _rule3(wf, scheme)
    wx = w * x
    if wf.symmetry == DISTINGUISHABLE:
        ones, pairs = [(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)]
    else:
        ones, pairs = [(0,)], [(0, 1)]
    m1 = float(np.mean([wx @ quadrature_marginal(wf, k)(x) for k in ones]))
    m2 = float(np.mean([wx @ quadrature_marginal(wf, k)(x[:, None], x[None, :]) @ wx
                        for k in pairs]))
    d3 = wf.density_tensor([x] * 3)
    m3 = float(np.einsum("i,j,k,ijk->", wx, wx, wx, d3, optimize=True))
    return m3 - 3.0 * m2 * m1 + 2.0 * m1**3


def _cumulant_cases():
    box = ModelParams.box(1.0)
    cases = [(f"{sym[0]}-{space}", build(Configuration(box, (1, 2, 3), sym, space)))
             for sym in (SYMMETRIC, ANTISYMMETRIC, DISTINGUISHABLE)
             for space in (POSITION, MOMENTUM)]
    # interference leaves a nonzero cumulant: about -1.8e-5 (S), -4.9e-6 (D)
    for sym in (SYMMETRIC, DISTINGUISHABLE):
        spec = SuperpositionSpec(Configuration(box, (1, 2, 3), sym),
                                 Configuration(box, (4, 5, 6), sym), math.sqrt(0.3))
        cases.append((f"{sym[0]}-superposition", build_superposition(spec)))
    return cases


CUMULANT_CASES = _cumulant_cases()


@pytest.mark.parametrize("scheme3", ODD_EVEN_SCHEMES, ids=["odd", "even"])
@pytest.mark.parametrize("name,wf", CUMULANT_CASES, ids=[c[0] for c in CUMULANT_CASES])
def test_cumulant3_matches_full_grid(name, wf, scheme3):
    want = _cumulant3_full_grid(wf, scheme3)
    if name.endswith("superposition"):
        assert abs(want) > 1e-6  # a wrong contraction cannot hide behind zero
    assert abs(cumulant3(wf, scheme3) - want) <= 1e-12


def test_validation_integrals_stay_below_the_3d_grid():
    # box momentum A(1,2,3), default scheme: 240 nodes per axis, so the
    # full float grid alone is 110 MB
    cfg = Configuration(ModelParams.box(1.0), (1, 2, 3), ANTISYMMETRIC, MOMENTUM)
    for f, bound_mb in ((mutual_information_higher_direct, 64), (cumulant3, 16)):
        tracemalloc.start()
        try:
            f(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 1e6, (f.__name__, peak)


@pytest.mark.parametrize("space", [POSITION, MOMENTUM])
@pytest.mark.parametrize("sym", [SYMMETRIC, ANTISYMMETRIC, DISTINGUISHABLE])
def test_two_particle_entropy_matches_full_grid(box, ho, sym, space):
    scheme = ODD_EVEN_SCHEMES[0]
    for params, ns in ((box, (1, 2)), (ho, (0, 3))):
        wf = build(Configuration(params, ns, sym, space))
        if sym == DISTINGUISHABLE:
            # a Hartree product: s2 is the sum of its one-particle entropies
            want = sum(entropy(reduce_numerical(wf, 1, scheme, keep=(k,)))
                       for k in range(2))
        else:
            x, w = axis_rule(wf.tables.domain, scheme, 2)
            want = entropy_from_values(wf.density_tensor([x] * 2), [w] * 2)
        assert abs(entropy(wf, scheme) - want) <= 1e-13


def _trim_cases():
    """Oscillator states on rules that trim_rule cuts at both ends."""
    ho = ModelParams.oscillator(1.0)
    cases = [(f"{sym[0]}-{space}", build(Configuration(ho, (0, 1, 2), sym, space)))
             for sym in (SYMMETRIC, ANTISYMMETRIC, DISTINGUISHABLE)
             for space in (POSITION, MOMENTUM)]
    for name, sym, interference in (("s-superposition", SYMMETRIC, True),
                                    ("d-mixture", DISTINGUISHABLE, False)):
        spec = SuperpositionSpec(Configuration(ho, (0, 1, 2), sym),
                                 Configuration(ho, (3, 4, 5), sym),
                                 math.sqrt(0.4), interference)
        cases.append((name, build_superposition(spec)))
    return cases


TRIM_CASES = _trim_cases()
TRIM_SCHEMES = [QuadratureScheme(), QuadratureScheme().coarsened()]


@pytest.mark.parametrize("scheme", TRIM_SCHEMES, ids=["default", "coarse"])
def test_trimmed_rules_keep_every_entropy(scheme, monkeypatch):
    states = [wf for _, wf in TRIM_CASES]
    for wf in states:
        assert len(_rule3(wf, scheme)[3]) < scheme.line_panels_3d * scheme.nodes_per_panel
    trimmed = compute_reports(states, scheme, with_error=False)
    monkeypatch.setattr(wavefunction, "trim_rule", lambda t, w, k: (t, w, 0.0))
    full = compute_reports(states, scheme, with_error=False)
    for (name, _), a, b in zip(TRIM_CASES, trimmed, full):
        for key in ("s1", "s2", "s3"):
            assert abs(getattr(a.entropies, key) - getattr(b.entropies, key)) \
                <= 1e-14, (name, key)


def test_marginal_folds_keep_every_entropy(monkeypatch):
    # rho and Gamma run on the first half of each axis the parities of
    # their orbital products fold; unfolded, every entropy is the same
    states = [wf for _, wf in KERNEL_CASES + TRIM_CASES]
    scheme = ODD_EVEN_SCHEMES[0]
    seen = []

    def recording(rows, naxes):
        seen.append(fold_axes(rows, naxes))
        return seen[-1]

    monkeypatch.setattr(wavefunction, "fold_axes", recording)
    folded = compute_reports(states, scheme, with_error=False)
    assert (0,) in seen and (0, 1) in seen
    monkeypatch.setattr(wavefunction, "fold_axes", lambda rows, naxes: ())
    full = compute_reports(states, scheme, with_error=False)
    for wf, a, b in zip(states, folded, full):
        for key in ("s1", "s2", "s3"):
            assert abs(getattr(a.entropies, key) - getattr(b.entropies, key)) \
                <= 1e-13, (wf.label, key)


@pytest.mark.parametrize("space", [POSITION, MOMENTUM])
def test_box_rules_keep_every_node(box, space):
    # sin tails at the walls, 1/p^2 tails in momentum: no end node is idle
    for ns in ((1, 2, 3), (1, 1, 2), (4, 5, 6)):
        wf = build(Configuration(box, ns, SYMMETRIC, space))
        for scheme in TRIM_SCHEMES:
            for k in (1, 2, 3):
                x, w = axis_rule(wf.tables.domain, scheme, k)
                t, kept, bound = trim_rule(wf.tables(x), w, k)
                assert len(kept) == len(w) == len(t) and bound == 0.0


def _dropped_entropy(terms, t, w, m, k):
    """Largest -sum w.. d ln d over the nodes of the k-fold rule outside
    the kept block (a coordinate among the m first or last nodes), over
    every k-particle marginal; |Psi|^2 one slab at a time for k = 3."""
    inner = np.zeros(len(w), bool)
    inner[m:len(w) - m] = True
    if k == 3:
        total = 0.0
        for i in range(len(w)):
            d = density_grid(terms, [t[i:i + 1], t, t])[0]
            e = -w[i] * np.outer(w, w) * d_ln_d(d, np.empty_like(d))
            total += float(np.sum(e if not inner[i] else
                                  e[~np.outer(inner, inner)]))
        return total
    keeps = [(0,), (1,), (2,)] if k == 1 else [(0, 1), (0, 2), (1, 2)]
    q = orbital_products(t)
    products = [q] if k == 1 else [q[:, None], q[None, :]]
    worst = 0.0
    for keep in keeps:
        d = reduced_density(terms, keep, products)
        e = -d_ln_d(d, np.empty_like(d)) * (w if k == 1 else np.outer(w, w))
        mask = ~inner if k == 1 else ~np.outer(inner, inner)
        worst = max(worst, float(np.sum(e[mask])))
    return worst


@pytest.mark.parametrize("name,wf", TRIM_CASES, ids=[c[0] for c in TRIM_CASES])
def test_trim_bound_covers_the_dropped_nodes(name, wf):
    # on the coarse rules, where the dropped 3D nodes can be summed here
    scheme = TRIM_SCHEMES[1]
    for k in (1, 2, 3):
        x, w = axis_rule(wf.tables.domain, scheme, k)
        t = wf.tables(x)
        kept, bound = trim_rule(t, w, k)[1:]
        m = (len(w) - len(kept)) // 2
        assert m > 0 and np.array_equal(kept, w[m:len(w) - m])
        assert _dropped_entropy(wf.terms, t, w, m, k) <= bound <= TRIM_BOUND


def test_trimmed_s3_nodes_of_oscillator_a012(ho, integrand_nodes):
    # 200 nodes per axis, 128 kept: the inverted sorted sector falls from
    # 676,700 to 178,880 nodes
    compute_report(Configuration(ho, (0, 1, 2), ANTISYMMETRIC), with_error=False)
    assert sum(integrand_nodes) == 178_880


def _unit(params):
    return ModelParams.box(1.0) if params.kind == "box" else ModelParams.oscillator(1.0)


SCALES = [(ModelParams.box(v), (1, 2, 3)) for v in (1e-300, 2.5, 1e300)] \
    + [(ModelParams.oscillator(v), (0, 1, 2)) for v in (1e-300, 1.7, 1e300)]
SCALE_IDS = [f"{p.kind}-{p.L or p.omega:g}" for p, _ in SCALES]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sym", [SYMMETRIC, ANTISYMMETRIC])
@pytest.mark.parametrize("space", [POSITION, MOMENTUM])
@pytest.mark.parametrize("params,ns", SCALES, ids=SCALE_IDS)
def test_direct_integrals_do_not_depend_on_the_scale(params, ns, space, sym):
    # both integrands are scale-free, so they run on the unit tables'
    # rule: at 1e-300 a physical-unit rule gave I_pair = 0 and I^3 = 1031
    scheme = ODD_EVEN_SCHEMES[0]
    for f in (mutual_information_pair_direct, mutual_information_higher_direct):
        unit = f(Configuration(_unit(params), ns, sym, space), scheme)
        assert f(Configuration(params, ns, sym, space), scheme) == unit, f.__name__


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sym", [SYMMETRIC, ANTISYMMETRIC, DISTINGUISHABLE])
@pytest.mark.parametrize("params,ns", SCALES, ids=SCALE_IDS)
def test_entropy_sum_does_not_depend_on_the_scale(params, ns, sym):
    # s_x and s_p shift by ln c and -ln c; at L = 1e-300 a physical-unit
    # rule gave -690.9 and reported the bound broken
    total, bound, ok = entropy_sum_check(params, ns, sym)
    assert ok and total >= bound
    assert abs(total - entropy_sum_check(_unit(params), ns, sym)[0]) <= 1e-13


@pytest.mark.filterwarnings("error")
def test_cumulant3_scales_as_the_cube_of_the_length():
    def cumulant(L):
        a, b = (Configuration(ModelParams.box(L), ns, DISTINGUISHABLE)
                for ns in ((1, 2, 3), (2, 1, 4)))
        return cumulant3(build_superposition(SuperpositionSpec(a, b, math.sqrt(0.5))))

    unit = cumulant(1.0)
    assert abs(unit - -0.00644066726321968) <= 1e-15
    assert abs(cumulant(2.5) / (2.5**3 * unit) - 1.0) <= 1e-12
    with pytest.raises(OverflowError):
        cumulant(1e300)


# orbital pairs of opposite parity: reflecting one coordinate maps
# |Psi_S|^2 onto |Psi_A|^2, so S and A share every entropy
OPPOSITE_PARITY = [(ModelParams.box(1.0), ns) for ns in ((1, 2), (2, 5), (1, 4), (3, 6))] \
    + [(ModelParams.oscillator(1.0), ns) for ns in ((0, 1), (2, 5), (1, 2), (0, 3))]


def _s_and_a(params, ns, space):
    return compute_reports([Configuration(params, ns, sym, space)
                            for sym in (SYMMETRIC, ANTISYMMETRIC)], with_error=False)


@pytest.mark.parametrize("space", [POSITION, MOMENTUM])
@pytest.mark.parametrize("params,ns", OPPOSITE_PARITY,
                         ids=[f"{p.kind}-{a}{b}" for p, (a, b) in OPPOSITE_PARITY])
def test_two_particle_s_equals_a_for_opposite_parities(params, ns, space):
    s, a = _s_and_a(params, ns, space)
    for key in ("s1", "s2", "I_pair"):
        assert abs(s.as_dict()[key] - a.as_dict()[key]) <= 1e-13, key


@pytest.mark.parametrize("space", [POSITION, MOMENTUM])
def test_two_particle_a_exceeds_s_for_equal_parities(box, ho, space):
    # box (2, 4) in position space is the exception: shifting one
    # coordinate by L/2 (mod L) flips the sign of phi_2 and keeps phi_4,
    # so it maps S onto A and the two are equal; in momentum A is ahead
    # by 0.044
    cases = [(box, (1, 3)), (ho, (0, 2)), (ho, (1, 3))]
    if space == MOMENTUM:
        cases.append((box, (2, 4)))
    else:
        s, a = _s_and_a(box, (2, 4), space)
        assert abs(a.i_pair - s.i_pair) <= 1e-13
    for params, ns in cases:
        s, a = _s_and_a(params, ns, space)
        assert a.i_pair > s.i_pair + 0.04, (params.kind, ns)


def test_information_takes_every_rule_from_rules():
    # one rule source: ``information`` imports no reduced density from
    # ``densities`` and makes no ``tables(x)`` call, and in the whole
    # package only ``wavefunction.tabulated_rules`` and
    # ``quadrature.integrate`` call ``axis_rule``
    callers = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(information.__file__),
                                              "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        module = os.path.basename(path)[:-3]
        if module == "information":
            assert not [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                        and n.module == "densities"]
            assert not [c for c in ast.walk(tree) if isinstance(c, ast.Call)
                        and getattr(c.func, "attr", None) == "tables"]
        callers += [f"{module}.{getattr(node, 'name', '<module>')}" for node in tree.body
                    for c in ast.walk(node) if isinstance(c, ast.Call)
                    and "axis_rule" in (getattr(c.func, "id", None),
                                        getattr(c.func, "attr", None))]
    assert callers == ["quadrature.integrate", "wavefunction.tabulated_rules"]


def test_no_module_imports_a_private_name_of_another():
    # every name a symcorr module takes from another is public, so a
    # module's private names can change without reaching into its users
    private = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(information.__file__),
                                              "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        module = os.path.basename(path)[:-3]
        private += [f"{module} <- {node.module}.{alias.name}" for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and (node.level or (node.module or "").startswith("symcorr"))
                    for alias in node.names if alias.name.startswith("_")]
    assert private == []
