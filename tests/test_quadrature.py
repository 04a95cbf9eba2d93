import math

import numpy as np
import pytest

from symcorr import quadrature
from symcorr.quadrature import (
    Interval,
    NonConvergenceError,
    QuadratureScheme,
    RealLine,
    _d_ln_d,
    axis_rule,
    entropy_from_values,
    entropy_integrand,
    gauss_panels,
    integrate,
    mirror_symmetric,
    momentum_map,
)

LN2_MINUS_1 = math.log(2.0) - 1.0


def test_gauss_panels_polynomial_exactness():
    # 10-point GL is exact through degree 19 on each panel
    x, w = gauss_panels(-1.0, 2.0, 3, 10)
    for deg in (0, 5, 19):
        exact = (2.0 ** (deg + 1) - (-1.0) ** (deg + 1)) / (deg + 1)
        assert abs(np.sum(w * x**deg) - exact) < 1e-12 * max(1.0, abs(exact))


def test_ground_state_box_entropy_closed_form():
    # integral_0^1 -2 sin^2(pi x) ln(2 sin^2(pi x)) dx = ln 2 - 1
    def f(x):
        d = 2.0 * np.sin(np.pi * x) ** 2
        return entropy_integrand(d)

    res = integrate(f, [Interval(0.0, 1.0)], QuadratureScheme(panels=100))
    assert abs(res.value - LN2_MINUS_1) < 1e-10


def test_gaussian_integral_through_map():
    res = integrate(lambda p: np.exp(-p * p), [RealLine(scale=4.0)])
    assert abs(res.value - math.sqrt(math.pi)) < 1e-10


def test_gaussian_moment_through_map():
    res = integrate(lambda p: p * p * np.exp(-p * p), [RealLine(scale=4.0)])
    assert abs(res.value - math.sqrt(math.pi) / 2.0) < 1e-10


def test_momentum_map_is_odd_with_positive_jacobian():
    u = np.linspace(-0.95, 0.95, 41)
    p, jac = momentum_map(u, 3.0)
    p_neg, jac_neg = momentum_map(-u, 3.0)
    assert np.allclose(p, -p_neg)
    assert np.allclose(jac, jac_neg)
    assert np.all(jac > 0)
    assert p[u == 0.0] == 0.0
    with pytest.raises(ValueError):
        momentum_map(np.array([1.0]), 3.0)


def test_axis_rule_integrates_constant_to_domain_measure():
    scheme = QuadratureScheme()
    x, w = axis_rule(Interval(0.25, 0.75), scheme)
    assert abs(np.sum(w) - 0.5) < 1e-13
    assert x.min() > 0.25 and x.max() < 0.75


def test_axis_rule_is_shared_and_read_only():
    scheme = QuadratureScheme()
    line = RealLine(3.0)
    x, w = axis_rule(line, scheme, 2)
    # 1D and 2D rules use the same panel count, so they are one rule
    assert axis_rule(line, scheme, 1)[0] is x
    assert len(axis_rule(line, scheme, 3)[0]) != len(x)
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("scheme", [QuadratureScheme(), QuadratureScheme().coarsened()],
                         ids=["default", "coarsened"])
@pytest.mark.parametrize("domain,centre", [(Interval(0.0, 1.0), 0.5),
                                           (Interval(-0.3, 2.2), 0.95),
                                           (RealLine(1.0), 0.0),
                                           (RealLine(41.4), 0.0)])
def test_axis_rules_are_mirror_symmetric_about_the_centre(scheme, domain, centre):
    assert domain.centre == pytest.approx(centre, abs=1e-15)
    for ndim in (1, 2, 3):
        x, w = axis_rule(domain, scheme, ndim)
        assert np.max(np.abs(x[::-1] - (2 * centre - x))) \
            <= 1e-12 * np.max(np.abs(x - centre))
        assert np.max(np.abs(w[::-1] - w) / w) <= 1e-12
        assert mirror_symmetric(domain, x, w)


@pytest.mark.parametrize("nodes", [5, 7, 8, 10, 12])
@pytest.mark.parametrize("domain", [Interval(0.0, 1.0), RealLine(1.0), RealLine(41.4)],
                         ids=["interval", "line-1", "line-41.4"])
def test_every_panel_count_builds_a_mirror_symmetric_rule(domain, nodes):
    # 120 panels of 10 nodes on a RealLine once failed the check by 1.03e-12
    for panels in range(1, 401):
        quadrature._rule.__wrapped__(domain, panels, nodes)


def test_mirror_symmetric_rejects_skewed_rules():
    x, w = gauss_panels(0.0, 1.0, 4, 5)
    assert mirror_symmetric(Interval(0.0, 1.0), x, w)
    assert not mirror_symmetric(Interval(0.0, 2.0), x, w)
    assert not mirror_symmetric(Interval(0.0, 1.0), x, w * (1.0 + 1e-6 * x))
    assert not mirror_symmetric(Interval(0.0, 1.0), x ** 1.01, w)


def test_axis_rule_rejects_a_rule_without_mirror_symmetry(monkeypatch):
    # the s3 kernel folds by parities, so a skewed rule must not get through
    def skewed(a, b, panels, nodes_per_panel):
        x, w = gauss_panels(a, b, panels, nodes_per_panel)
        return a + (b - a) * ((x - a) / (b - a)) ** 1.01, w

    quadrature._rule.cache_clear()
    monkeypatch.setattr(quadrature, "gauss_panels", skewed)
    try:
        with pytest.raises(RuntimeError, match="not mirror-symmetric"):
            axis_rule(Interval(0.0, 1.0), QuadratureScheme(), 3)
    finally:
        quadrature._rule.cache_clear()


def test_integrate_2d_and_3d_separable():
    val2 = integrate(lambda x, y: np.sin(np.pi * x) ** 2 * np.sin(np.pi * y) ** 2,
                     [Interval(0.0, 1.0)] * 2).value
    assert abs(val2 - 0.25) < 1e-12
    val3 = integrate(lambda x, y, z: x * y * z, [Interval(0.0, 1.0)] * 3).value
    assert abs(val3 - 0.125) < 1e-12


def test_integrate_rejects_bad_dimension():
    with pytest.raises(ValueError):
        integrate(lambda *a: 1.0, [Interval(0.0, 1.0)] * 4)


def test_entropy_integrand_limits_and_noise():
    assert entropy_integrand(0.0) == 0.0
    assert entropy_integrand(1.0) == 0.0
    assert entropy_integrand(np.array([-1e-13]))[0] == 0.0
    with pytest.raises(ValueError):
        entropy_integrand(np.array([-1e-9]))


def test_entropy_integrand_floor_and_buffer():
    d = np.array([[0.5, 1e-301, 0.0], [-1e-13, 5e-324, 2.0]])
    keep = d.copy()
    out = entropy_integrand(d)
    assert np.array_equal(d, keep)
    # below the 1e-300 floor, noise included, the integrand is exactly 0
    assert np.all(out[d < 1e-300] == 0.0)
    assert out[0, 0] == pytest.approx(0.5 * math.log(2.0), rel=1e-15)
    assert out[1, 2] == pytest.approx(-2.0 * math.log(2.0), rel=1e-15)
    # the kernels' d ln d is its exact negation: exact zeros, values below
    # the floor and noise down to -1e-12, and (second row) none of them
    for d in (np.array([0.0, -0.0, 1e-301, 5e-324, -1e-12, -1e-13, 0.25, 3.0]),
              np.array([1e-300, 0.25, 1.0, 3.0])):
        lean = _d_ln_d(d, np.empty_like(d))
        assert lean.tobytes() == (-entropy_integrand(d)).tobytes()
    with pytest.raises(ValueError, match="significantly negative"):
        _d_ln_d(np.array([0.0, -1.0001e-12]), np.empty(2))


def test_entropy_from_values_matches_direct_sum():
    x, w = gauss_panels(0.0, 1.0, 100, 10)
    d = 2.0 * np.sin(np.pi * x) ** 2
    s = entropy_from_values(d, [w])
    assert abs(s - LN2_MINUS_1) < 1e-10
    # product density on a coarser grid: entropies add
    x, w = gauss_panels(0.0, 1.0, 24, 10)
    d = 2.0 * np.sin(np.pi * x) ** 2
    s2 = entropy_from_values(np.outer(d, d), [w, w])
    assert abs(s2 - 2.0 * LN2_MINUS_1) < 1e-7
    # 3D slice-wise path
    s3 = entropy_from_values(d[:, None, None] * d[None, :, None] * d[None, None, :],
                             [w, w, w])
    assert abs(s3 - 3.0 * LN2_MINUS_1) < 1e-7
    with pytest.raises(ValueError):
        entropy_from_values(np.outer(d, d), [w])


def test_scheme_validation_and_coarsening():
    with pytest.raises(ValueError):
        QuadratureScheme(panels=0)
    with pytest.raises(ValueError):
        QuadratureScheme(panels=1, nodes_per_panel=8)  # < 16 nodes per axis
    with pytest.raises(ValueError):
        QuadratureScheme(target_abs_tol=0.0)
    sch = QuadratureScheme()
    assert sch.coarsened().panels == sch.panels // 2


@pytest.mark.parametrize("kwargs,stuck", [
    (dict(panels=2, panels_3d=2, line_panels=2, line_panels_3d=2),
     "panels, panels_3d, line_panels, line_panels_3d"),
    (dict(panels=4, panels_3d=4, line_panels=4, line_panels_3d=4, nodes_per_panel=5),
     "panels, panels_3d, line_panels, line_panels_3d"),
    (dict(panels_3d=3, nodes_per_panel=7), "panels_3d"),
])
def test_coarsened_raises_at_the_node_floor(kwargs, stuck):
    # a count at the floor was kept, so the "coarse" rule was the fine one
    # and every error estimate read exactly 0: on 2 panels sin(40x)^2
    # integrated to 0.4570, not 0.5062, with error_estimate 0.0
    sch = QuadratureScheme(**kwargs)
    with pytest.raises(ValueError, match=f"error estimate: {stuck} at the floor"):
        sch.coarsened()
    with pytest.raises(ValueError, match="keep 16 nodes per axis"):
        integrate(lambda x: np.sin(40 * x) ** 2, [Interval(0.0, 1.0)], sch)


def test_domain_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        RealLine(scale=0.0)


def test_significantly_negative_density_is_a_numerical_failure():
    # a ValueError as before, and a NonConvergenceError, so the CLI exits 3
    with pytest.raises(NonConvergenceError, match="significantly negative") as info:
        _d_ln_d(np.array([0.0, -1e-9]), np.empty(2))
    assert isinstance(info.value, ValueError)
    assert info.value.achieved_error == 1e-9
