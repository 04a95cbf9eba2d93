"""Acceptance gate: one test per reproduction criterion, pinned tolerances.

The quadrature oracles run first (file order = execution order); if they
fail, nothing downstream is meaningful.

The superposition-scan checks (criterion 7) mix (1,2,3) with (4,5,6) in
the box.  The two components share no orbital, so rho and Gamma carry no
cross terms: s1 and s2 are the entropies of c1^2 rho_A + c2^2 rho_B and
c1^2 Gamma_A + c2^2 Gamma_B.  Nothing maps (1,2,3) onto (4,5,6), so the
curves have no symmetry under c1^2 <-> 1 - c1^2.  Their endpoints differ
(A scan: I^3(0) = 0.1940, I^3(1) = 0.1910), and so does the location of
the extremum: a parabola through the top three grid samples of the
reference curves puts it at c1^2 ~ 0.521 (S), 0.525 (A), 0.537 (D) and,
for the minimum of the D curve without interference, 0.435.  The
reference is ``perfbench/references/scan.json``, an independent
orbital-coefficient tensor formula on much finer rules (resolution
4.5e-6):

    curve                grid extremum   I^3 there    I^3 at 0.5
    A, interference      max at 0.55     0.500009     0.499989
    D, interference      max at 0.55     0.251876     0.250936
    D, no interference   min at 0.45    -0.010405    -0.010143

So the checks ask what the default grid resolves: the extremum lies
within one grid step of balance, and it is a true interior extremum,
beyond the values at both ends of the scan.  The S curve's peak lands on
the 0.5 sample itself, ahead of 0.55 by 3.7e-4, and 7a pins that.
"""

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
    compute_report,
    compute_reports,
    cumulant3,
    entropy_sum_check,
    mutual_information_higher_direct,
    mutual_information_pair_direct,
    reduce_to_one,
    reduce_to_pair,
    scan_coefficient,
)
from symcorr.orbitals import eval_orbital
from symcorr.quadrature import axis_rule, entropy_integrand, integrate
from symcorr.reference_tables import TABLE_TOLERANCE, table_spec
from symcorr.superposition import SuperpositionSpec

BOX = ModelParams.box(1.0)
HO = ModelParams.oscillator(1.0)
SCHEME = QuadratureScheme()

TABLE_KEYS = ("s1", "s2", "s3", "I_pair", "I3", "I_rho_gamma",
              "I_gamma_gamma", "I_higher")


def _table_reports(which):
    reference, base, model_kwargs = table_spec(which)
    params = ModelParams(**model_kwargs)
    out = {}
    for (sym_tag, n3) in reference:
        sym = SYMMETRIC if sym_tag == "s" else ANTISYMMETRIC
        cfg = Configuration(params, base + (n3,), sym, "position")
        out[(sym_tag, n3)] = compute_report(cfg, SCHEME, with_error=False)
    return reference, out


@pytest.fixture(scope="module")
def table1():
    return _table_reports(1)


@pytest.fixture(scope="module")
def table2():
    return _table_reports(2)


@pytest.fixture(scope="module")
def momentum_reports():
    out = {}
    for sym_tag, sym in (("a", ANTISYMMETRIC), ("s", SYMMETRIC)):
        for n3 in range(3, 7):
            cfg = Configuration(BOX, (1, 2, n3), sym, "momentum")
            out[(sym_tag, n3)] = compute_report(cfg, SCHEME, with_error=False)
    return out


def _scan(sym, interference):
    spec = SuperpositionSpec(
        state_a=Configuration(BOX, (1, 2, 3), sym, "position"),
        state_b=Configuration(BOX, (4, 5, 6), sym, "position"),
        c1=1.0, interference=interference)
    return scan_coefficient(spec, DEFAULT_C1SQ_GRID, SCHEME)


@pytest.fixture(scope="module")
def scans():
    return {
        (SYMMETRIC, True): _scan(SYMMETRIC, True),
        (ANTISYMMETRIC, True): _scan(ANTISYMMETRIC, True),
        (DISTINGUISHABLE, True): _scan(DISTINGUISHABLE, True),
        (DISTINGUISHABLE, False): _scan(DISTINGUISHABLE, False),
    }


# --- criterion 8: quadrature oracles gate every table run -------------------

def test_criterion_8_oracle_box_entropy_ln2_minus_1():
    # single-particle ground-state box density 2 sin^2(pi x): s = ln 2 - 1
    fine = QuadratureScheme(panels=100)
    res = integrate(
        lambda x: entropy_integrand(2.0 * np.sin(np.pi * x) ** 2),
        Configuration(BOX, (1, 2), SYMMETRIC).domains(1)[:1], fine)
    assert abs(res.value - (math.log(2.0) - 1.0)) < 1e-10


def test_criterion_8_oracle_gaussian_moment():
    dom = Configuration(HO, (0, 1), SYMMETRIC).domains(1)[:1]
    norm = integrate(lambda x: np.exp(-x * x) / math.sqrt(math.pi), dom, SCHEME)
    second = integrate(
        lambda x: x * x * np.exp(-x * x) / math.sqrt(math.pi), dom, SCHEME)
    assert abs(norm.value - 1.0) < 1e-10
    assert abs(second.value - 0.5) < 1e-10


def test_criterion_8_oracle_fourier_unitarity():
    # momentum-space orbitals must stay normalized (Parseval); the box
    # orbitals have slowly decaying sinc tails, so their oracle rule is
    # finer than the production default
    schemes = {"box": QuadratureScheme(line_panels=96), "oscillator": SCHEME}
    for params, ns in ((BOX, (1, 2, 3)), (HO, (0, 1, 2))):
        cfg = Configuration(params, ns, ANTISYMMETRIC, "momentum")
        dom = cfg.domains(1)[0]
        x, w = axis_rule(dom, schemes[params.kind], 1)
        for n in ns:
            v = eval_orbital(params, n, cfg.space, x)
            assert abs(float(np.abs(v) ** 2 @ w) - 1.0) < 1e-6


# --- criteria 1-2: table reproduction ---------------------------------------

def _check_table(reference, reports):
    worst = 0.0
    bad = []
    for key, ref_row in reference.items():
        got = reports[key].as_dict()
        for q in TABLE_KEYS:
            ref_key = {"s1": "s1", "s2": "s2", "s3": "s3"}.get(q, q)
            delta = abs(got[ref_key] - ref_row[q])
            worst = max(worst, delta)
            if delta > TABLE_TOLERANCE:
                bad.append((key, q, delta))
    assert not bad, f"cells outside {TABLE_TOLERANCE:g}: {bad}"
    return worst


def test_criterion_1_table1_box_64_cells(table1):
    reference, reports = table1
    assert len(reference) * len(TABLE_KEYS) == 64
    _check_table(reference, reports)


def test_criterion_2_table2_oscillator_64_cells(table2):
    reference, reports = table2
    assert len(reference) * len(TABLE_KEYS) == 64
    _check_table(reference, reports)


# --- criterion 3: hierarchy identity ----------------------------------------

def test_criterion_3_hierarchy_differences_equal_pair_mi(table1, table2,
                                                         momentum_reports):
    reports = (list(table1[1].values()) + list(table2[1].values())
               + list(momentum_reports.values()))
    for rep in reports:
        diffs = (rep.i_total3 - rep.i_one_pair,
                 rep.i_one_pair - rep.i_pair_pair,
                 rep.i_pair_pair - rep.i_higher)
        for d in diffs:
            assert abs(d - rep.i_pair) < 1e-9


# --- criterion 4: direct integrals vs entropy combinations ------------------

# Momentum-space rules are pinned per sub-check: the pair comparison
# needs a finer 2D line rule, while the three-variable comparison needs
# MATCHED 2D/3D resolutions so the discretization errors of s2 and the
# direct integrand cancel the same way on both sides.
MOMENTUM_PAIR_SCHEME = QuadratureScheme(line_panels=64)
MOMENTUM_HIGHER_SCHEME = QuadratureScheme(line_panels=32, line_panels_3d=32)


@pytest.mark.parametrize("sym", [SYMMETRIC, ANTISYMMETRIC])
def test_criterion_4_direct_vs_combination_position(sym):
    cfg = Configuration(BOX, (1, 2, 3), sym, "position")
    rep = compute_report(cfg, SCHEME, with_error=False)
    assert abs(mutual_information_pair_direct(cfg, SCHEME) - rep.i_pair) < 1e-5
    assert abs(mutual_information_higher_direct(cfg, SCHEME)
               - rep.i_higher) < 1e-5


@pytest.mark.parametrize("sym", [SYMMETRIC, ANTISYMMETRIC])
def test_criterion_4_direct_vs_combination_momentum(sym):
    cfg = Configuration(BOX, (1, 2, 3), sym, "momentum")
    rep_pair = compute_report(cfg, MOMENTUM_PAIR_SCHEME, with_error=False)
    assert abs(mutual_information_pair_direct(cfg, MOMENTUM_PAIR_SCHEME)
               - rep_pair.i_pair) < 1e-5
    rep_higher = compute_report(cfg, MOMENTUM_HIGHER_SCHEME, with_error=False)
    assert abs(mutual_information_higher_direct(cfg, MOMENTUM_HIGHER_SCHEME)
               - rep_higher.i_higher) < 1e-5


# --- criterion 5: property suite --------------------------------------------

def test_criterion_5a_one_particle_density_symmetry_independent():
    for params, ns, t in ((BOX, (1, 2, 3), np.linspace(0, 1, 1000)),
                          (HO, (0, 1, 2), np.linspace(-6, 6, 1000))):
        rho_s = reduce_to_one(
            _wf(Configuration(params, ns, SYMMETRIC, "position")))
        rho_a = reduce_to_one(
            _wf(Configuration(params, ns, ANTISYMMETRIC, "position")))
        assert float(np.max(np.abs(rho_s(t) - rho_a(t)))) < 1e-10


def test_criterion_5b_fermi_hole_on_the_diagonal():
    for params, ns, t in ((BOX, (1, 2, 3), np.linspace(0, 1, 1000)),
                          (HO, (0, 1, 2), np.linspace(-6, 6, 1000))):
        for space in ("position", "momentum"):
            gamma = reduce_to_pair(
                _wf(Configuration(params, ns, ANTISYMMETRIC, space)))
            assert float(np.max(np.abs(gamma(t, t)))) < 1e-10


def test_criterion_5c_entropic_uncertainty_bound(table1, momentum_reports):
    bound = 1.0 + math.log(math.pi)
    for key, rep_x in table1[1].items():
        s_sum = rep_x.entropies.s1 + momentum_reports[key].entropies.s1
        assert s_sum >= bound - 1e-9, (key, s_sum)


def test_criterion_5d_third_cumulant_vanishes():
    for sym in (SYMMETRIC, ANTISYMMETRIC):
        for space in ("position", "momentum"):
            c = cumulant3(Configuration(BOX, (1, 2, 3), sym, space), SCHEME)
            assert abs(c) < 1e-6, (sym, space, c)


def test_criterion_5e_oscillator_scale_and_space_invariance():
    for sym in (SYMMETRIC, ANTISYMMETRIC):
        r1 = compute_report(Configuration(HO, (0, 1, 2), sym, "position"),
                            SCHEME, with_error=False)
        r4 = compute_report(
            Configuration(ModelParams.oscillator(4.0), (0, 1, 2), sym,
                          "position"), SCHEME, with_error=False)
        rp = compute_report(Configuration(HO, (0, 1, 2), sym, "momentum"),
                            SCHEME, with_error=False)
        for a, b in ((r1, r4), (r1, rp)):
            # exact on the mapped rules: round-off, not quadrature error
            assert abs(a.i_pair - b.i_pair) < 1e-13
            assert abs(a.i_higher - b.i_higher) < 1e-13


# --- criterion 6: sign pattern of the three-variable measure ----------------

def test_criterion_6_higher_order_sign_pattern(table1):
    reports = table1[1]
    for n3 in (3, 5, 6):
        assert reports[("s", n3)].i_higher > reports[("a", n3)].i_higher, n3
    assert reports[("a", 4)].i_higher > reports[("s", 4)].i_higher


# --- criterion 7: superposition scans ---------------------------------------

def _assert_extremum_near_balance(scan, kind):
    """The scan's I^3 extremum is interior and within one grid step of 0.5.

    ``kind`` is "max" or "min".  The grid step comes from the scan's own
    samples; the 1e-12 slack absorbs 0.55 - 0.5 = 0.05000000000000004.
    """
    c1sq = [c for c, _ in scan.samples]
    value = {c: rep.i_higher for c, rep in scan.samples}
    assert (c1sq[0], c1sq[-1]) == (0.0, 1.0), "scan must include both ends"
    step = max(b - a for a, b in zip(c1sq, c1sq[1:]))
    at = scan.argmax_higher() if kind == "max" else scan.argmin_higher()
    assert abs(at - 0.5) <= step + 1e-12, (kind, at, step)
    sign = 1.0 if kind == "max" else -1.0
    for end in (0.0, 1.0):
        assert sign * (value[at] - value[end]) > 0.0, \
            (kind, at, value[at], end, value[end])


def test_criterion_7a_symmetric_interference_peak_at_balance(scans):
    # 0.5 is the grid sample nearest the peak at c1^2 ~ 0.52 (not a
    # symmetry of the curve); it leads the 0.55 sample by 3.7e-4
    assert scans[(SYMMETRIC, True)].argmax_higher() == 0.5


def test_criterion_7b_antisymmetric_interference_peak_at_balance(scans):
    # the peak is near c1^2 ~ 0.525, midway between samples: the grid
    # maximum is 0.55, ahead of 0.50 by only 2e-5 (reference 0.500009 vs
    # 0.499989), which this check does not hinge on
    _assert_extremum_near_balance(scans[(ANTISYMMETRIC, True)], "max")


def test_criterion_7c_distinguishable_interference_peak_at_balance(scans):
    # the peak is near c1^2 ~ 0.537: grid maximum at 0.55, ahead of 0.50
    # by 9.4e-4 (reference 0.251876 vs 0.250936)
    _assert_extremum_near_balance(scans[(DISTINGUISHABLE, True)], "max")


def test_criterion_7d_symmetry_ordering_at_balance(scans):
    at_half = {k: dict(v.samples)[0.5].i_higher for k, v in scans.items()
               if k[1]}
    assert (at_half[(ANTISYMMETRIC, True)] > at_half[(SYMMETRIC, True)]
            > at_half[(DISTINGUISHABLE, True)])


def test_criterion_7e_distinguishable_no_interference_negative(scans):
    # negativity is pinned at the balanced point; one far-edge sample
    # (c1^2 = 0.95) is slightly positive (+3e-4, stable under grid
    # refinement), so negativity is not a property of the whole interior
    at_half = dict(scans[(DISTINGUISHABLE, False)].samples)[0.5]
    assert at_half.i_higher < 0.0


def test_criterion_7f_distinguishable_no_interference_min_at_balance(scans):
    # the minimum is near c1^2 ~ 0.435: grid minimum at 0.45, below 0.50
    # by 2.6e-4 (reference -0.010405 vs -0.010143); the curve is not
    # symmetric about 0.5 (I^3(0.05) = -0.0011, I^3(0.95) = +0.0003)
    _assert_extremum_near_balance(scans[(DISTINGUISHABLE, False)], "min")


# --- figure-level monotonicity / inequality checks --------------------------

def test_figures_momentum_pair_mi_increases_with_n3(momentum_reports):
    for sym_tag in ("a", "s"):
        vals = [momentum_reports[(sym_tag, n3)].i_pair for n3 in range(3, 7)]
        assert all(b > a for a, b in zip(vals, vals[1:])), (sym_tag, vals)


def test_figures_antisymmetric_more_correlated(table1):
    for n3 in range(3, 7):
        rep_a = table1[1][("a", n3)]
        rep_s = table1[1][("s", n3)]
        assert rep_a.i_pair > rep_s.i_pair
        assert rep_a.i_total3 > rep_s.i_total3


def test_figures_momentum_pair_mi_exceeds_position(table1, momentum_reports):
    for sym_tag in ("a", "s"):
        for n3 in range(3, 7):
            if sym_tag == "a" and n3 == 3:
                continue  # the one documented exception
            assert (momentum_reports[(sym_tag, n3)].i_pair
                    > table1[1][(sym_tag, n3)].i_pair), (sym_tag, n3)


# the largest max_abs_err of the benchmark's workloads is 4.9e-4 nats
CLAIM_MARGIN = 1e-3


def test_abstract_pairs_favour_antisymmetric_and_i_higher_alternates():
    # N = 3, box n3 = 3-6 and oscillator n3 = 2-5, both spaces: A leads S
    # in I_pair in all 16 cases (least by 1.16e-2, box momentum n3 = 6),
    # and I^3(S) - I^3(A) runs + - + + beyond the margin.  Box momentum
    # n3 = 3 is left out: it leads by 3.6e-4, under the margin
    cases = [(BOX, (1, 2), range(3, 7)), (HO, (0, 1), range(2, 6))]
    configs = [Configuration(params, base + (n3,), sym, space)
               for params, base, n3s in cases for space in ("position", "momentum")
               for n3 in n3s for sym in (ANTISYMMETRIC, SYMMETRIC)]
    reports = compute_reports(configs, SCHEME, with_error=False)
    signs = {}
    for cfg, a, s in zip(configs[::2], reports[::2], reports[1::2]):
        assert a.i_pair - s.i_pair > CLAIM_MARGIN, cfg.label
        gap = s.i_higher - a.i_higher
        signs.setdefault((cfg.params.kind, cfg.space), []).append(
            int(math.copysign(1, gap)) if abs(gap) > CLAIM_MARGIN else 0)
    assert signs[("box", "momentum")][1:] == [-1, 1, 1]
    assert signs[("oscillator", "position")] == [1, -1, 1, 1]
    assert signs[("oscillator", "momentum")] == [1, -1, 1, 1]


def test_entropy_sum_check_helper():
    s_sum, bound, ok = entropy_sum_check(BOX, (1, 2, 3), ANTISYMMETRIC, SCHEME)
    assert ok and s_sum >= bound


def _wf(cfg):
    from symcorr.wavefunction import build
    return build(cfg)
