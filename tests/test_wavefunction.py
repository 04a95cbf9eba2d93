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
    WaveFunction,
    build,
    build_superposition,
    compute_report,
    cumulant3,
    entropy,
    eval_density,
    exchange_symmetry_check,
    parse_symmetry,
    reduce_numerical,
)
from symcorr import wavefunction
from symcorr.orbitals import MOMENTUM, POSITION, orbital_parity
from symcorr.quadrature import Interval, RealLine, axis_rule
from symcorr.superposition import SuperpositionSpec
from symcorr.wavefunction import tabulated_rules

from conftest import dense_rule

RNG = np.random.default_rng(20240817)


def norm_integral(wf, scheme=None):
    scheme = scheme or QuadratureScheme()
    n = wf.nparticles
    x, w = axis_rule(wf.tables.domain, scheme, n)
    d = wf.density_tensor([x] * n)
    for axis in range(n - 1, -1, -1):
        d = np.tensordot(d, w, axes=([axis], [0]))
    return float(d)


def test_parse_symmetry():
    assert parse_symmetry("s") == SYMMETRIC
    assert parse_symmetry("A") == ANTISYMMETRIC
    assert parse_symmetry("distinguishable") == DISTINGUISHABLE
    with pytest.raises(ValueError):
        parse_symmetry("bosonic")


def test_configuration_validation(box, ho):
    with pytest.raises(ValueError):
        Configuration(box, (1, 1, 2), ANTISYMMETRIC)
    with pytest.raises(ValueError):
        Configuration(box, (1, 1, 1), SYMMETRIC)
    with pytest.raises(ValueError):
        Configuration(box, (1, 2, 3, 4), ANTISYMMETRIC)
    with pytest.raises(ValueError):
        Configuration(box, (0, 1, 2), SYMMETRIC)
    with pytest.raises(ValueError):
        Configuration(ho, (-1, 0, 1), SYMMETRIC)
    with pytest.raises(ValueError):
        Configuration(box, (1, 2, 3), "bosonic")
    with pytest.raises(ValueError):
        Configuration(box, (1, 2, 3), SYMMETRIC, space="angular")
    # each value is checked as given, before it becomes an int
    for params, ns, bad in ((box, (1.5, 2, 3), "1.5"), (ho, (0.9, 1, 2), "0.9"),
                            (box, (0.5, 2, 3), "0.5"), (box, (1, 2, math.nan), "nan"),
                            (ho, (0, math.inf, 2), "inf")):
        with pytest.raises(ValueError, match=f"invalid quantum number {bad} "):
            Configuration(params, ns, ANTISYMMETRIC)
    assert Configuration(box, (1.0, 2, 3), ANTISYMMETRIC).ns == (1, 2, 3)
    cfg = Configuration(box, (1, 1, 2), SYMMETRIC)  # double repeat is fine
    assert not cfg.distinct
    assert Configuration(ho, (0, 1, 2), ANTISYMMETRIC).distinct


def test_norm_factors(box):
    assert build(Configuration(box, (1, 2, 3), ANTISYMMETRIC)).norm_factor \
        == pytest.approx(1.0 / math.sqrt(6.0))
    assert build(Configuration(box, (1, 1, 2), SYMMETRIC)).norm_factor \
        == pytest.approx(1.0 / math.sqrt(12.0))
    assert build(Configuration(box, (1, 2), SYMMETRIC)).norm_factor \
        == pytest.approx(1.0 / math.sqrt(2.0))
    assert build(Configuration(box, (1, 2, 3), DISTINGUISHABLE)).norm_factor == 1.0


@pytest.mark.parametrize("sym", [SYMMETRIC, ANTISYMMETRIC, DISTINGUISHABLE])
@pytest.mark.parametrize("space", [POSITION, MOMENTUM])
def test_normalization_box_123(box, sym, space, scheme):
    wf = build(Configuration(box, (1, 2, 3), sym, space))
    # the mapped momentum axis carries slowly decaying sinc tails, so the
    # reference scheme is an order of magnitude coarser there
    tol = 1e-6 if space == POSITION else 1e-4
    assert abs(norm_integral(wf, scheme) - 1.0) < tol


def test_normalization_symmetric_repeated(box, ho, scheme):
    # the 1/sqrt(3! * 2!) factor for a doubly occupied orbital
    for params, ns in ((box, (1, 1, 2)), (ho, (0, 0, 1))):
        wf = build(Configuration(params, ns, SYMMETRIC))
        assert abs(norm_integral(wf, scheme) - 1.0) < 1e-6


def test_normalization_ho_012(ho, scheme):
    for sym in (SYMMETRIC, ANTISYMMETRIC):
        for space in (POSITION, MOMENTUM):
            wf = build(Configuration(ho, (0, 1, 2), sym, space))
            assert abs(norm_integral(wf, scheme) - 1.0) < 1e-6


def test_fermi_hole(box, ho):
    for params, ns in ((box, (1, 2, 3)), (ho, (0, 1, 2))):
        wf = build(Configuration(params, ns, ANTISYMMETRIC))
        t = 0.312 if params.kind == "box" else -0.77
        u = 0.641 if params.kind == "box" else 1.24
        assert abs(wf.amplitude(t, t, u)) < 1e-14
        assert abs(wf.amplitude(t, u, t)) < 1e-14
        assert abs(wf.amplitude(u, t, t)) < 1e-14


def test_exchange_symmetry(box):
    pts = RNG.uniform(0.02, 0.98, size=(20, 3))
    sym_wf = build(Configuration(box, (1, 2, 3), SYMMETRIC))
    anti_wf = build(Configuration(box, (1, 2, 3), ANTISYMMETRIC))
    for pt in pts:
        a, b = exchange_symmetry_check(sym_wf, tuple(pt))
        assert a == pytest.approx(b, abs=1e-13)
        a, b = exchange_symmetry_check(anti_wf, tuple(pt))
        assert a == pytest.approx(-b, abs=1e-13)


def test_amplitude_tensor_matches_pointwise(box, ho):
    configs = [
        Configuration(box, (1, 2, 3), ANTISYMMETRIC),
        Configuration(box, (1, 2, 3), SYMMETRIC, MOMENTUM),
        Configuration(box, (1, 1, 2), SYMMETRIC),
        Configuration(ho, (0, 1, 2), DISTINGUISHABLE),
        Configuration(box, (2, 3), ANTISYMMETRIC),
    ]
    for cfg in configs:
        wf = build(cfg)
        if cfg.params.kind == "box" and cfg.space == POSITION:
            axes = [np.linspace(0.05, 0.95, 5)] * cfg.nparticles
        else:
            axes = [np.linspace(-2.0, 2.0, 5)] * cfg.nparticles
        tensor = wf.amplitude_tensor(axes)
        for idx in np.ndindex(*tensor.shape):
            point = tuple(axes[k][idx[k]] for k in range(cfg.nparticles))
            assert tensor[idx] == pytest.approx(
                complex(wf.amplitude(*point)), abs=1e-12)


def test_momentum_density_matches_numerical_fourier(box):
    # N = 2 spot check: |Phi|^2 from the closed-form momentum orbitals
    # against the 2D Fourier transform of the position-space Psi
    wf_x = build(Configuration(box, (1, 2), ANTISYMMETRIC, POSITION))
    wf_p = build(Configuration(box, (1, 2), ANTISYMMETRIC, MOMENTUM))
    x, w = dense_rule(0.0, 1.0, panel_width=1.0 / 64)
    psi = wf_x.amplitude_tensor([x, x])
    for p1, p2 in [(0.0, 1.0), (-2.5, 4.0), (math.pi, -math.pi), (7.0, 0.3)]:
        kern1 = np.exp(-1j * p1 * x) * w
        kern2 = np.exp(-1j * p2 * x) * w
        phi = kern1 @ psi @ kern2 / (2.0 * math.pi)
        assert abs(abs(phi) ** 2 - wf_p.density(p1, p2)) < 1e-6


def test_amplitude_argument_checks(box):
    wf = build(Configuration(box, (1, 2, 3), SYMMETRIC))
    with pytest.raises(ValueError):
        wf.amplitude(0.1, 0.2)
    # each orbital checks each coordinate (orbitals.eval_box_position), on
    # the pointwise path and on the tables' path to the marginals
    for at in ((-0.1, 0.2, 0.3), (0.1, 1.2, 0.3), (0.1, 0.2, 1.5)):
        with pytest.raises(ValueError, match="outside the box"):
            wf.amplitude(*at)
    for x in (-0.1, 1.5):
        with pytest.raises(ValueError, match="outside the box"):
            wf.marginal_values((0,), (x,))
    with pytest.raises(ValueError):
        wf.amplitude_tensor([np.linspace(0, 1, 4)] * 2)


def test_tables_are_one_value_per_orbital_set(box):
    # a configuration and a superposition over the orbitals 1, 2, 3 share
    # their tables, and so a group key, a rule table and a domain
    cfg = Configuration(box, (3, 2, 1), SYMMETRIC)
    mix = build_superposition(SuperpositionSpec(
        Configuration(box, (1, 1, 3), SYMMETRIC),
        Configuration(box, (2, 3, 3), SYMMETRIC), c1=0.6))
    assert cfg.tables.orbitals == mix.tables.orbitals == (1, 2, 3)
    assert cfg.tables == mix.tables and hash(cfg.tables) == hash(mix.tables)
    assert {cfg.tables: 1}[mix.tables] == 1
    assert build(cfg).tables is cfg.tables
    assert cfg.tables != Configuration(box, (1, 2, 3), SYMMETRIC, MOMENTUM).tables
    assert cfg.tables != Configuration(box, (1, 2, 4), SYMMETRIC).tables


@pytest.mark.parametrize("model", ["box", "ho"])
def test_memoised_rules_are_read_only(box, ho, model):
    # every report over the same tables shares one Rule, so none may change it
    tables = Configuration({"box": box, "ho": ho}[model], (1, 2, 3), SYMMETRIC).tables
    rule = tabulated_rules(tables, QuadratureScheme())
    for k in (1, 2, 3):
        assert rule(k) is tabulated_rules(tables, QuadratureScheme())(k)
        for values in rule(k):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.0


@pytest.mark.parametrize("model", ["box", "ho"])
def test_slab_plans_are_read_only_and_go_with_their_rule(box, ho, model, monkeypatch,
                                                         fresh_rules):
    # a plan is shared by every report on its rule, so none may change it;
    # cache_clear drops it with the rule
    tables = Configuration({"box": box, "ho": ho}[model], (1, 2, 3), SYMMETRIC).tables
    built, slab_plan = [], wavefunction.slab_plan

    def counting(*args):
        built.append(args[2:])
        return slab_plan(*args)

    monkeypatch.setattr(wavefunction, "slab_plan", counting)
    for symmetric, folds in ((True, (0,)), (False, (0, 1))):
        plan = tabulated_rules(tables, QuadratureScheme())(3).plan(symmetric, folds, 2)
        assert plan is tabulated_rules(tables, QuadratureScheme())(3).plan(
            symmetric, folds, 2)
        arrays = [plan.t0, plan.outer, plan.region] + [
            a for _, pieces in plan.chunks for piece in pieces
            for a in piece[7:]] + ([plan.corner] if symmetric else [])
        for values in arrays:
            with pytest.raises(ValueError, match="read-only"):
                values[(0,) * values.ndim] = 0.0
    assert len(built) == 2
    tabulated_rules.cache_clear()
    tabulated_rules(tables, QuadratureScheme())(3).plan(True, (0,), 2)
    assert len(built) == 3


@pytest.mark.parametrize("space", [POSITION, MOMENTUM])
@pytest.mark.parametrize("model", ["box", "ho"])
def test_tables_domain_is_the_configuration_axis(model, space):
    # [0, L] for the box in position space, else the real line mapped with
    # the scale of the highest orbital, the same for every arity
    if model == "box":
        params, ns = ModelParams.box(2.5), (1, 2, 6)
        want = Interval(0.0, 2.5) if space == POSITION \
            else RealLine(6 * math.pi / 2.5 + 10.0 / 2.5)
    else:
        params, ns = ModelParams.oscillator(4.0), (0, 1, 5)
        want = RealLine((math.sqrt(11.0) + 6.0) * (0.5 if space == POSITION else 2.0))
    cfg = Configuration(params, ns, ANTISYMMETRIC, space)
    assert cfg.tables.domain == want == cfg.domains(1)[0]
    assert cfg.domains() == cfg.domains(3) == [want] * 3
    assert build(cfg).tables.domain == want


@pytest.mark.parametrize("space", [POSITION, MOMENTUM])
def test_tables_parities_are_the_orbital_parities(box, ho, space):
    for params, ns, want in ((box, (1, 2, 3, 6), (1, -1, 1, -1)),
                             (ho, (0, 1, 2, 5), (1, -1, 1, -1))):
        tables = Configuration(params, ns[:3], SYMMETRIC, space).tables
        assert tables.parities == want[:3]
        assert tables.parities == tuple(orbital_parity(params, n) for n in ns[:3])
        mix = build_superposition(SuperpositionSpec(
            Configuration(params, ns[:3], SYMMETRIC, space),
            Configuration(params, ns[1:], SYMMETRIC, space), c1=0.6))
        assert mix.tables.parities == want


# 25 to 30 nodes per axis, with a coarser level for the error estimate
SMALL = QuadratureScheme(panels=6, panels_3d=5, line_panels=6, line_panels_3d=5,
                         nodes_per_panel=5)


@pytest.mark.parametrize("space", [POSITION, MOMENTUM])
@pytest.mark.parametrize("model", ["box", "ho"])
def test_a_configuration_is_its_own_wavefunction(model, space):
    # entropy, reduce_numerical and eval_density raised AttributeError on a
    # bare Configuration; every entry point takes one, with the numbers it
    # gives on build() of an equal configuration
    params = ModelParams.box(1.0) if model == "box" else ModelParams.oscillator(1.0)
    ns = (1, 2, 3) if model == "box" else (0, 1, 2)
    point = (0.2, 0.5, 0.7) if params.kind == "box" and space == POSITION \
        else (-0.4, 0.3, 0.9)
    assert WaveFunction is Configuration
    for sym, k in ((SYMMETRIC, 3), (ANTISYMMETRIC, 3), (DISTINGUISHABLE, 3),
                   (ANTISYMMETRIC, 2)):
        cfg = Configuration(params, ns[:k], sym, space)
        assert build(cfg) is cfg
        wf = build(Configuration(params, ns[:k], sym, space))
        assert wf == cfg and wf is not cfg
        assert entropy(cfg, SMALL) == entropy(wf, SMALL)
        for arity in (1, 2):
            got, want = (reduce_numerical(s, arity, SMALL) for s in (cfg, wf))
            assert got.domains == want.domains
            assert np.array_equal(got.grid_values, want.grid_values)
            assert entropy(got) == entropy(want)
        assert eval_density(cfg, point[:k]) == eval_density(wf, point[:k])
        assert exchange_symmetry_check(cfg, point[:k]) \
            == exchange_symmetry_check(wf, point[:k])
        if k == 3:
            assert cumulant3(cfg, SMALL) == cumulant3(wf, SMALL)
        assert compute_report(cfg, SMALL).as_dict() \
            == compute_report(wf, SMALL).as_dict()


def test_eval_density_scalar(box):
    wf = build(Configuration(box, (1, 2, 3), SYMMETRIC))
    val = eval_density(wf, (0.2, 0.5, 0.7))
    assert isinstance(val, float)
    assert val >= 0.0
