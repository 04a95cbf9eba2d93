import dataclasses
import itertools
import math

import numpy as np
import pytest

from symcorr import (
    ANTISYMMETRIC,
    DISTINGUISHABLE,
    SYMMETRIC,
    Configuration,
    ModelParams,
    QuadratureScheme,
    build,
    compute_reports,
    entropy,
    export_density_grid,
    reduce_numerical,
    reduce_to_one,
    reduce_to_pair,
)
from symcorr.orbitals import MOMENTUM, POSITION
from symcorr.quadrature import Interval, axis_rule, gauss_panels
from symcorr.superposition import SuperpositionSpec, build_superposition
from symcorr.wavefunction import tabulated_rules


@pytest.fixture(scope="module")
def anti_wf(box):
    return build(Configuration(box, (1, 2, 3), ANTISYMMETRIC))


@pytest.fixture(scope="module")
def sym_wf(box):
    return build(Configuration(box, (1, 2, 3), SYMMETRIC))


def test_one_particle_density_closed_form_value(anti_wf):
    # at x = 0.5: (|psi_1|^2 + |psi_2|^2 + |psi_3|^2)/3 = (2 + 0 + 2)/3
    rho = reduce_to_one(anti_wf)
    assert rho(0.5) == pytest.approx(4.0 / 3.0, abs=1e-13)
    assert rho.integral() == pytest.approx(1.0, abs=1e-10)


def test_one_particle_density_sym_antisym_identical(anti_wf, sym_wf):
    x = np.linspace(0.0, 1.0, 1001)
    assert np.max(np.abs(reduce_to_one(anti_wf)(x) - reduce_to_one(sym_wf)(x))) \
        < 1e-14


def test_pair_density_symmetry_and_normalization(anti_wf, sym_wf):
    x = np.linspace(0.05, 0.95, 31)
    for wf in (anti_wf, sym_wf):
        gamma = reduce_to_pair(wf)
        vals = gamma(x[:, None], x[None, :])
        assert np.max(np.abs(vals - vals.T)) < 1e-14
        assert np.all(vals >= -1e-14)
        assert gamma.integral() == pytest.approx(1.0, abs=1e-10)


def test_antisymmetric_pair_density_diagonal_zero(anti_wf, ho):
    t = np.linspace(0.0, 1.0, 1000)
    gamma = reduce_to_pair(anti_wf)
    assert np.max(np.abs(gamma(t, t))) < 1e-12
    wf_ho = build(Configuration(ho, (0, 1, 2), ANTISYMMETRIC, MOMENTUM))
    t = np.linspace(-4.0, 4.0, 1000)
    assert np.max(np.abs(reduce_to_pair(wf_ho)(t, t))) < 1e-12


def test_symmetry_hole_two_particle_box(box):
    # N = 2 symmetric (2, 3): the pair density vanishes on x2 = L - x1
    # (spatial-symmetry zero, not a Fermi hole)
    wf = build(Configuration(box, (2, 3), SYMMETRIC))
    t = np.linspace(0.0, 1.0, 500)
    gamma = reduce_to_pair(wf)
    assert np.max(np.abs(gamma(t, 1.0 - t))) < 1e-12
    # ...while the antisymmetric partner vanishes on the main diagonal
    wf_a = build(Configuration(box, (2, 3), ANTISYMMETRIC))
    assert np.max(np.abs(reduce_to_pair(wf_a)(t, t))) < 1e-12


def test_closed_form_requires_distinct_indistinguishable(box):
    wf_rep = build(Configuration(box, (1, 1, 2), SYMMETRIC))
    with pytest.raises(ValueError):
        reduce_to_pair(wf_rep)
    wf_dist = build(Configuration(box, (1, 2, 3), DISTINGUISHABLE))
    with pytest.raises(ValueError):
        reduce_to_one(wf_dist)


@pytest.mark.parametrize("sym", [ANTISYMMETRIC, SYMMETRIC])
def test_closed_form_rejects_a_superposition(box, sym):
    # it raised AttributeError: a superposition has no ``distinct``
    mix = build_superposition(SuperpositionSpec(
        Configuration(box, (1, 2, 3), sym), Configuration(box, (4, 5, 6), sym), 0.6))
    for reduce in (reduce_to_one, reduce_to_pair):
        with pytest.raises(ValueError, match="one term over N orbitals"):
            reduce(mix)
    assert reduce_numerical(mix, 1).integral() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("sym", [ANTISYMMETRIC, SYMMETRIC])
def test_numerical_reduction_matches_closed_form(box, sym, scheme):
    wf = build(Configuration(box, (1, 2, 3), sym))
    gamma_ref = reduce_to_pair(wf)
    gamma_num = reduce_numerical(wf, 2, scheme)
    x = np.linspace(0.01, 0.99, 50)
    ref = gamma_ref(x[:, None], x[None, :])
    num = gamma_num(x[:, None], x[None, :])
    assert np.max(np.abs(ref - num)) < 1e-7
    rho_ref = reduce_to_one(wf)
    rho_num = reduce_numerical(wf, 1, scheme)
    assert np.max(np.abs(rho_ref(x) - rho_num(x))) < 1e-7


def test_numerical_reduction_momentum_space(ho, scheme):
    wf = build(Configuration(ho, (0, 1, 2), ANTISYMMETRIC, MOMENTUM))
    gamma_ref = reduce_to_pair(wf)
    gamma_num = reduce_numerical(wf, 2, scheme)
    p = np.linspace(-2.5, 2.5, 30)
    diff = np.abs(gamma_ref(p[:, None], p[None, :])
                  - gamma_num(p[:, None], p[None, :]))
    assert np.max(diff) < 1e-7
    assert gamma_num.integral() == pytest.approx(1.0, abs=1e-8)


def test_consistency_chain_pair_to_one(anti_wf, sym_wf):
    # integrating Gamma over either coordinate returns rho pointwise
    x_probe = np.linspace(0.02, 0.98, 25)
    y, w = gauss_panels(0.0, 1.0, 48, 10)
    for wf in (anti_wf, sym_wf):
        gamma = reduce_to_pair(wf)
        rho = reduce_to_one(wf)
        marg = gamma(x_probe[:, None], y[None, :]) @ w
        assert np.max(np.abs(marg - rho(x_probe))) < 1e-7
        marg_other = w @ gamma(y[:, None], x_probe[None, :])
        assert np.max(np.abs(marg_other - rho(x_probe))) < 1e-7


def test_distinguishable_marginals_per_coordinate(box, scheme):
    # Hartree product: the k-th marginal is |psi_{n_k}|^2 exactly
    wf = build(Configuration(box, (1, 2, 3), DISTINGUISHABLE))
    x = np.linspace(0.02, 0.98, 40)
    for k, n in enumerate((1, 2, 3)):
        rho_k = reduce_numerical(wf, 1, scheme, keep=(k,))
        ref = 2.0 * np.sin(n * np.pi * x) ** 2
        assert np.max(np.abs(rho_k(x) - ref)) < 1e-7


def _brute_rule(domain):
    """Far finer than the engine's rules: 640 Gauss-Legendre nodes on the
    box, or 2000 on the real line mapped by p = 60 tan(theta), which keeps
    the oscillating 1/p^4 tails of box momentum densities resolved (the
    engine's own map reaches only ~1e-7 there)."""
    if isinstance(domain, Interval):
        return gauss_panels(domain.a, domain.b, 64, 10)
    theta, w = gauss_panels(-np.pi / 2, np.pi / 2, 200, 10)
    return 60.0 * np.tan(theta), w * 60.0 / np.cos(theta) ** 2


def _brute_marginal(wf, keep, probes, rule):
    """Marginal at probe points by direct 3D quadrature of wf.density."""
    x, w = rule
    away = [i for i in range(3) if i not in keep]
    out = []
    for point in zip(*probes):
        args = [None] * 3
        for k, v in zip(keep, point):
            args[k] = v
        for j, i in enumerate(away):
            args[i] = x.reshape((-1,) + (1,) * (len(away) - 1 - j))
        d = wf.density(*args)
        for _ in away:
            d = d @ w
        out.append(float(d))
    return np.array(out)


@pytest.mark.parametrize("case", ["symmetric-112-momentum",
                                  "distinguishable-123",
                                  "antisymmetric-superposition"])
def test_reduction_matches_brute_force_quadrature(box, case):
    # reduce_numerical comes from the reduced density matrices of the
    # coefficient tensor; the oracle integrates the permutation expansion
    # of |Psi|^2 over the other coordinates, independently of it
    if case == "symmetric-112-momentum":
        wf = build(Configuration(box, (1, 1, 2), SYMMETRIC, MOMENTUM))
        keeps = [(0,), (0, 1)]
        probes = [-7.3, 0.0, 2.9, 11.0]
    elif case == "distinguishable-123":
        wf = build(Configuration(box, (1, 2, 3), DISTINGUISHABLE))
        keeps = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
        probes = [0.07, 0.31, 0.5, 0.88]
    else:
        wf = build_superposition(SuperpositionSpec(
            Configuration(box, (1, 2, 3), ANTISYMMETRIC),
            Configuration(box, (1, 2, 4), ANTISYMMETRIC), c1=0.6))
        keeps = [(0,), (0, 1)]
        probes = [0.07, 0.31, 0.5, 0.88]
    rule = _brute_rule(wf.tables.domain)
    for keep in keeps:
        coords = [np.array(probes), np.array(probes[::-1])][:len(keep)]
        got = reduce_numerical(wf, len(keep), keep=keep)(*coords)
        want = _brute_marginal(wf, keep, coords, rule)
        assert np.max(np.abs(got - want)) < 1e-8, keep


def test_reduce_numerical_argument_checks(anti_wf):
    with pytest.raises(ValueError):
        reduce_numerical(anti_wf, 3)
    with pytest.raises(ValueError):
        reduce_numerical(anti_wf, 2, keep=(1, 0))
    with pytest.raises(ValueError):
        reduce_numerical(anti_wf, 2, keep=(0, 3))
    with pytest.raises(ValueError):
        reduce_numerical(anti_wf, 0)


def test_reduced_density_call_arity(anti_wf):
    rho = reduce_to_one(anti_wf)
    with pytest.raises(ValueError):
        rho(0.1, 0.2)


def test_riemann_normalization_of_numerical_grid(box, scheme):
    wf = build(Configuration(box, (1, 1, 2), SYMMETRIC))
    gamma = reduce_numerical(wf, 2, scheme)
    assert gamma.integral() == pytest.approx(1.0, abs=1e-3)


def test_export_density_grid_format(anti_wf):
    gamma = reduce_to_pair(anti_wf)
    text = export_density_grid(gamma, n_points=7)
    lines = text.strip().split("\n")
    assert lines[0] == "x1,x2,value"
    assert len(lines) == 1 + 7 * 7
    x1, x2, v = lines[25].split(",")
    assert float(v) == pytest.approx(gamma(float(x1), float(x2)), rel=1e-10)
    # 12 significant digits survive the round trip
    assert abs(float(v) - gamma(float(x1), float(x2))) < 1e-12 * max(1.0, float(v))


def test_export_density_grid_momentum_header(box):
    wf = build(Configuration(box, (1, 2, 3), ANTISYMMETRIC, MOMENTUM))
    text = export_density_grid(reduce_to_pair(wf), n_points=3)
    assert text.startswith("p1,p2,value\n")


def test_export_density_grid_rejects_one_particle(anti_wf):
    with pytest.raises(ValueError):
        export_density_grid(reduce_to_one(anti_wf))


@pytest.mark.parametrize("n_points", [0, -3])
def test_export_density_grid_rejects_empty_grid(anti_wf, n_points):
    # 0 failed inside numpy's reshape, -3 inside linspace
    with pytest.raises(ValueError, match="n_points must be at least 1"):
        export_density_grid(reduce_to_pair(anti_wf), n_points=n_points)


def test_export_density_grid_rejects_significantly_negative(anti_wf):
    gamma = reduce_to_pair(anti_wf)
    shifted = dataclasses.replace(gamma, func=lambda x1, x2: gamma(x1, x2) - 1e-9)
    with pytest.raises(ValueError, match="significantly negative"):
        export_density_grid(shifted, n_points=3)


def _table_cases():
    box = ModelParams.box(1.0)
    a3 = build(Configuration(box, (1, 2, 3), ANTISYMMETRIC))
    s2 = build(Configuration(box, (1, 2), SYMMETRIC, MOMENTUM))
    d3 = build(Configuration(box, (1, 2, 3), DISTINGUISHABLE))
    # phase products -i and 1: the superposition is two real terms
    a_mom = build_superposition(SuperpositionSpec(
        Configuration(box, (1, 2, 3), ANTISYMMETRIC, MOMENTUM),
        Configuration(box, (1, 2, 4), ANTISYMMETRIC, MOMENTUM), math.sqrt(0.4)))
    default, small = QuadratureScheme(), QuadratureScheme(panels=4, nodes_per_panel=8)
    return {
        "to-one-n3": (lambda: reduce_to_one(a3), default),
        "to-pair-n3": (lambda: reduce_to_pair(a3), default),
        "to-one-n2-momentum": (lambda: reduce_to_one(s2), default),
        "to-pair-n2-momentum": (lambda: reduce_to_pair(s2), default),
        "numerical-n3": (lambda: reduce_numerical(a3, 2, small), small),
        "numerical-n2-momentum": (lambda: reduce_numerical(s2, 2, small), small),
        "numerical-d-keep-2": (lambda: reduce_numerical(d3, 1, small, keep=(2,)), small),
        "numerical-d-keep-0-2": (
            lambda: reduce_numerical(d3, 2, small, keep=(0, 2)), small),
        "numerical-interfering-momentum": (
            lambda: reduce_numerical(a_mom, 2, small), small),
    }


TABLE_CASES = _table_cases()


@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_reduced_density_table_holds_its_values_at_the_rule_nodes(name):
    # every ReducedDensity is tabulated on the scheme's rule for its arity
    make, scheme = TABLE_CASES[name]
    rd = make()
    rules = [axis_rule(d, scheme, rd.arity) for d in rd.domains]
    assert len(rd.grid_weights) == rd.arity
    for (_, w), table_w in zip(rules, rd.grid_weights):
        assert np.array_equal(w, table_w)
    pointwise = rd(*np.meshgrid(*(x for x, _ in rules), indexing="ij"))
    assert rd.grid_values.shape == pointwise.shape
    assert np.allclose(rd.grid_values, pointwise, rtol=1e-13, atol=1e-14)
    # box momentum densities fall off only as p^-2, so the mapped rule
    # integrates them to ~1e-5
    assert rd.integral() == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("ns", [(1, 2, 3), (1, 2)])
def test_closed_form_wrappers_are_reduce_numerical_on_the_default_scheme(box, ns):
    wf = build(Configuration(box, ns, ANTISYMMETRIC))
    rho, gamma = reduce_to_one(wf), reduce_to_pair(wf)
    assert entropy(rho) == entropy(reduce_numerical(wf, 1))
    assert entropy(gamma) == entropy(reduce_numerical(wf, 2))
    # a density integrates its own table; the scheme applies to states only
    coarse = QuadratureScheme(panels=2, panels_3d=2, nodes_per_panel=8)
    assert entropy(rho, coarse) == entropy(rho)
    assert entropy(gamma, coarse) == entropy(gamma)


def _scale_states(kind, scale, space):
    """Box A(1,2,3), S(1,1,2) and D(1,2,3), or oscillator A(0,1,2), and an
    S superposition, at L or omega = ``scale``."""
    if kind == "box":
        params = ModelParams.box(scale)
        ns = [((1, 2, 3), ANTISYMMETRIC), ((1, 1, 2), SYMMETRIC),
              ((1, 2, 3), DISTINGUISHABLE)]
        pair = (1, 2, 3), (1, 2, 4)
    else:
        params = ModelParams.oscillator(scale)
        ns = [((0, 1, 2), ANTISYMMETRIC)]
        pair = (0, 1, 2), (1, 2, 6)
    spec = SuperpositionSpec(*(Configuration(params, n, SYMMETRIC, space) for n in pair),
                             math.sqrt(0.4))
    return [Configuration(params, n, sym, space) for n, sym in ns] \
        + [build_superposition(spec)]


@pytest.mark.parametrize("space", [POSITION, MOMENTUM])
@pytest.mark.parametrize("kind, scales", [("box", (1e-300, 2.5, 1e300)),
                                          ("oscillator", (1e-300, 1.7, 1e300))])
def test_reduced_density_tables_run_at_unit_scale(kind, scales, space):
    # the table is the unit-scale density and the entropy adds k ln c, so
    # every entropy matches the report's s_k at any scale.  With a table in
    # physical units, box A(1,2,3) gave s1 = 566.81 for 690.66 at L = 1e300
    # and s2 = nan at L = 1e-300
    unit = {}
    for scale in (1.0,) + scales:
        states = _scale_states(kind, scale, space)
        reports = compute_reports(states, with_error=False)
        c = {("box", POSITION): scale, ("box", MOMENTUM): 1.0 / scale,
             ("oscillator", POSITION): scale**-0.5,
             ("oscillator", MOMENTUM): scale**0.5}[kind, space]
        for m, (wf, rep) in enumerate(zip(states, reports)):
            for k, want in ((1, rep.entropies.s1), (2, rep.entropies.s2)):
                keeps = list(itertools.combinations(range(3), k)) \
                    if wf.symmetry == DISTINGUISHABLE else [tuple(range(k))]
                rds = [reduce_numerical(wf, k, keep=keep) for keep in keeps]
                got = sum(entropy(rd) for rd in rds) / len(rds)
                if k == 2 and wf.symmetry == DISTINGUISHABLE:
                    # the report's s2 of a Hartree product is 2 s1; its pair
                    # table's entropy weighs each s1 by the other factor's
                    # rule integral, which box momentum misses by ~1e-5, so
                    # the two differ by 4.3e-5 there
                    want = unit.setdefault(m, got - 2 * math.log(c)) + 2 * math.log(c)
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (m, k, scale)
                integrals = [rd.integral() for rd in rds]
                assert integrals == unit.setdefault((m, k), integrals), (m, k, scale)
                if 1.0 < scale < 1e300:
                    x = tabulated_rules(wf.tables.unit_scale[0], QuadratureScheme(),
                                        {})(k)[0]
                    pointwise = c**k * rds[0](*np.meshgrid(*(c * x,) * k, indexing="ij"))
                    assert np.allclose(rds[0].grid_values, pointwise, rtol=1e-13,
                                       atol=1e-14), (m, k)
