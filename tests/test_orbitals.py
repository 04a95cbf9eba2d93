import math

import numpy as np
import pytest
from scipy.special import eval_hermite, factorial

from symcorr.orbitals import (
    MOMENTUM,
    POSITION,
    ModelParams,
    box_momentum_factor,
    eval_box_momentum,
    eval_box_position,
    eval_ho,
    eval_orbital,
    hermite_functions,
    momentum_domain_scale,
    orbital_factor,
    orbital_parity,
    position_domain_scale,
)

from conftest import dense_rule, fourier_orbital


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(kind="box")
    with pytest.raises(ValueError):
        ModelParams(kind="box", L=-1.0)
    with pytest.raises(ValueError):
        ModelParams(kind="oscillator", omega=0.0)
    with pytest.raises(ValueError):
        ModelParams(kind="square-well", L=1.0)
    ModelParams.box(2.0).validate_quantum_number(1)
    with pytest.raises(ValueError):
        ModelParams.box(1.0).validate_quantum_number(0)
    with pytest.raises(ValueError):
        ModelParams.oscillator(1.0).validate_quantum_number(-1)


def test_box_position_trivial_values():
    assert abs(eval_box_position(1, 1.0, 0.5) - math.sqrt(2.0)) < 1e-14
    assert abs(eval_box_position(2, 1.0, 0.5)) < 1e-14
    assert abs(eval_box_position(1, 1.0, 0.0)) < 1e-14
    with pytest.raises(ValueError):
        eval_box_position(1, 1.0, 1.5)
    with pytest.raises(ValueError):
        eval_box_position(0, 1.0, 0.5)


def test_box_momentum_trivial_values():
    # integral of psi_2 vanishes by odd symmetry about L/2
    assert abs(eval_box_momentum(2, 1.0, 0.0)) < 1e-14
    with pytest.raises(ValueError):
        eval_box_momentum(0, 1.0, 0.0)


def test_box_momentum_matches_defining_fourier_integral():
    params = ModelParams.box(1.0)
    p = np.array([-7.3, -math.pi, 0.0, 0.7, math.pi, 2 * math.pi, 11.0])
    for n in (1, 2, 3, 6):
        oracle = fourier_orbital(params, n, p)
        got = eval_box_momentum(n, 1.0, p)
        assert np.max(np.abs(got - oracle)) < 1e-10


def test_box_momentum_factor_near_removable_points_matches_direct_formula():
    # pL = +/- n pi +- 2 dz, so z- or z+ is +-dz with dz in [1e-7, 1e-4];
    # there sin(z)/(2 z) written out has no cancellation
    dz = np.geomspace(1e-7, 1e-4, 40)
    for L in (1.0, 2.5):
        for n in (1, 2, 5):
            for sign in (1.0, -1.0):
                p = (sign * n * math.pi + 2.0 * np.concatenate([dz, -dz])) / L
                zm = (p * L - n * math.pi) / 2.0
                zp = (p * L + n * math.pi) / 2.0
                direct = math.sqrt(L / math.pi) \
                    * (np.sin(zm) / (2.0 * zm) - (-1) ** n * np.sin(zp) / (2.0 * zp))
                got = box_momentum_factor(n, L, p)
                assert np.max(np.abs(got - direct)) < 1e-14, (L, n, sign)


def test_box_momentum_removable_points_continuous():
    # the mean of the values at pL = +/- n pi +- 6e-4 must hit the value
    # at the removable point itself
    for n in (1, 2, 5):
        for sign in (1.0, -1.0):
            p0 = sign * n * math.pi
            center = eval_box_momentum(n, 1.0, p0)
            eps = 6e-4
            sym = 0.5 * (eval_box_momentum(n, 1.0, p0 + eps)
                         + eval_box_momentum(n, 1.0, p0 - eps))
            assert abs(sym - center) < 1e-7
            near = eval_box_momentum(n, 1.0, p0 + 1e-12)
            assert abs(near - center) < 1e-10


def test_hermite_functions_against_scipy():
    y = np.linspace(-6.0, 6.0, 121)
    h = hermite_functions(10, y)
    for n in range(11):
        ref = (eval_hermite(n, y) * np.exp(-y * y / 2.0)
               / math.sqrt(2.0**n * factorial(n) * math.sqrt(math.pi)))
        assert np.max(np.abs(h[n] - ref)) < 1e-10


def test_ho_parity():
    y = np.linspace(0.1, 5.0, 37)
    for n in range(6):
        v_pos = eval_ho(n, 1.0, y)
        v_neg = eval_ho(n, 1.0, -y)
        assert np.allclose(v_neg, (-1.0) ** n * v_pos, atol=1e-13)


def test_position_parity_about_domain_centre():
    box, ho = ModelParams.box(2.5), ModelParams.oscillator(1.7)
    z = np.linspace(0.0, 1.25, 41)
    for params, centre in ((box, 1.25), (ho, 0.0)):
        for n in range(params.min_quantum_number(), 9):
            pi_n = orbital_parity(params, n)
            assert pi_n == ((-1) ** (n + 1) if params.kind == "box" else (-1) ** n)
            left = eval_orbital(params, n, POSITION, centre - z)
            right = eval_orbital(params, n, POSITION, centre + z)
            assert np.max(np.abs(left - pi_n * right)) < 1e-13, (params.kind, n)


def test_momentum_parity_up_to_a_common_phase():
    L = 2.5
    box, ho = ModelParams.box(L), ModelParams.oscillator(1.7)
    # includes the removable points p L = n pi
    p = np.concatenate([np.linspace(0.0, 30.0, 61), math.pi * np.arange(1, 9) / L])
    for n in range(1, 9):
        got = eval_orbital(box, n, MOMENTUM, -p)
        want = orbital_parity(box, n) * np.exp(1j * p * L) \
            * eval_orbital(box, n, MOMENTUM, p)
        assert np.max(np.abs(got - want)) < 1e-13, n
    for n in range(9):
        got = eval_orbital(ho, n, MOMENTUM, -p)
        want = orbital_parity(ho, n) * eval_orbital(ho, n, MOMENTUM, p)
        assert np.max(np.abs(got - want)) < 1e-13, n


def test_ho_ground_state_values():
    assert abs(eval_ho(0, 1.0, 0.0) - math.pi**-0.25) < 1e-14
    # omega scaling: psi_0(x) = (omega/pi)^(1/4) exp(-omega x^2/2)
    for omega in (0.5, 2.0):
        got = eval_ho(0, omega, 0.7)
        ref = (omega / math.pi) ** 0.25 * math.exp(-omega * 0.7**2 / 2.0)
        assert abs(got - ref) < 1e-13


def test_ho_gaussian_moment():
    # <x^2> = 1/(2 omega) in the ground state, omega = 2
    omega = 2.0
    x, w = dense_rule(-8.0, 8.0)
    rho = np.abs(eval_ho(0, omega, x)) ** 2
    assert abs(np.sum(w * x * x * rho) - 1.0 / (2.0 * omega)) < 1e-10


def test_ho_momentum_matches_fourier_transform():
    params = ModelParams.oscillator(1.7)
    p = np.array([-2.3, -0.5, 0.0, 0.4, 1.9])
    for n in range(4):
        oracle = fourier_orbital(params, n, p)
        got = eval_ho(n, 1.7, p, space=MOMENTUM)
        assert np.max(np.abs(got - oracle)) < 1e-8


def test_orthonormality_box_position():
    x, w = dense_rule(0.0, 1.0, panel_width=1.0 / 32)
    vals = [eval_box_position(n, 1.0, x) for n in range(1, 11)]
    for i in range(10):
        for j in range(i + 1):
            got = np.sum(w * vals[i] * vals[j])
            assert abs(got - (1.0 if i == j else 0.0)) < 1e-12


def test_orthonormality_box_momentum():
    # |phi_n|^2 tails decay ~ p^-4 after phase cancellation, so a wide
    # dense rule reaches 1e-8 without any infinite-domain machinery
    B = 10000.0
    x, w = dense_rule(-B, B, panel_width=1.0)
    vals = {n: eval_box_momentum(n, 1.0, x) for n in range(1, 11)}
    for n in range(1, 11):
        for m in range(1, n + 1):
            got = float(np.real(np.conj(vals[m]) * vals[n]) @ w)
            assert abs(got - (1.0 if m == n else 0.0)) < 1e-8, (m, n)


@pytest.mark.parametrize("space", [POSITION, MOMENTUM])
def test_orthonormality_oscillator(space):
    omega = 1.3
    w_eff = omega if space == POSITION else 1.0 / omega
    half = (math.sqrt(21.0) + 8.0) / math.sqrt(w_eff)
    x, w = dense_rule(-half, half, panel_width=0.25 / math.sqrt(w_eff))
    vals = [eval_ho(n, omega, x, space=space) for n in range(11)]
    for i in range(11):
        for j in range(i + 1):
            got = float(np.real(np.conj(vals[i]) * vals[j]) @ w)
            assert abs(got - (1.0 if i == j else 0.0)) < 1e-8


def test_eval_orbital_dispatch_and_errors():
    box = ModelParams.box(1.0)
    ho = ModelParams.oscillator(1.0)
    assert np.allclose(eval_orbital(box, 1, POSITION, 0.5),
                       eval_box_position(1, 1.0, 0.5))
    assert np.allclose(eval_orbital(ho, 0, MOMENTUM, 0.3),
                       eval_ho(0, 1.0, 0.3, space=MOMENTUM))
    with pytest.raises(ValueError):
        eval_orbital(box, 1, "angular", 0.5)
    with pytest.raises(ValueError):
        eval_ho(0, 1.0, 0.3, space="angular")


@pytest.mark.parametrize("params", [ModelParams.box(1.0), ModelParams.oscillator(1.0)])
def test_orbital_factor_rejects_an_unknown_space(params):
    # one check for both models, ahead of either model's factor
    n = params.min_quantum_number()
    with pytest.raises(ValueError, match="unknown space 'spin'"):
        orbital_factor(params, n, "spin", 0.5)


def test_domain_scales():
    box = ModelParams.box(2.0)
    ho = ModelParams.oscillator(4.0)
    assert momentum_domain_scale(box, (1, 2, 3)) > 3 * math.pi / 2.0
    assert momentum_domain_scale(ho, (0, 1, 2)) > math.sqrt(5.0) * 2.0
    assert position_domain_scale(ho, (0, 1, 2)) > math.sqrt(5.0) / 2.0
    with pytest.raises(ValueError):
        position_domain_scale(box, (1, 2))
