"""Single-particle orbitals for the 1D box and the harmonic trap.

Both models are provided in position and momentum space (hbar = m = 1).
Box momentum orbitals use the closed form of the Fourier transform of
sin(n*pi*x/L), whose removable singularities at p*L = +/- n*pi
``numpy.sinc`` resolves.  Oscillator orbitals are built from the stable
Hermite-function recurrence, which keeps values finite for n up to ~50.
Every orbital is a constant phase (``orbital_phase``, a power of i) times
a real factor (``orbital_factor``), times e^{-ipL/2} for a box momentum
orbital, a phase that all box orbitals share at a given p.
All evaluators are pure and vectorized over numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "eval_box_position",
    "box_momentum_factor",
    "eval_box_momentum",
    "eval_ho",
    "eval_orbital",
    "orbital_factor",
    "orbital_phase",
    "orbital_parity",
    "hermite_functions",
    "position_domain_scale",
    "momentum_domain_scale",
]

POSITION = "position"
MOMENTUM = "momentum"

# i^k for k = 0..3, exact
_I_POWERS = (1.0 + 0j, 1j, -1.0 + 0j, -1j)


@dataclass(frozen=True)
class ModelParams:
    """Model selector: 1D box of length L or harmonic trap of strength omega."""

    kind: str  # "box" | "oscillator"
    L: float | None = None
    omega: float | None = None

    def __post_init__(self):
        if self.kind == "box":
            if self.L is None or not self.L > 0:
                raise ValueError("box model requires L > 0")
        elif self.kind == "oscillator":
            if self.omega is None or not self.omega > 0:
                raise ValueError("oscillator model requires omega > 0")
        else:
            raise ValueError(f"unknown model kind {self.kind!r}")

    @classmethod
    def box(cls, L):
        return cls(kind="box", L=float(L))

    @classmethod
    def oscillator(cls, omega):
        return cls(kind="oscillator", omega=float(omega))

    def min_quantum_number(self):
        return 1 if self.kind == "box" else 0

    def validate_quantum_number(self, n):
        if int(n) != n or n < self.min_quantum_number():
            raise ValueError(
                f"invalid quantum number {n} for {self.kind} model")


def eval_box_position(n, L, x):
    """sqrt(2/L) * sin(n*pi*x/L) on [0, L]; zero-boundary standing wave."""
    if n < 1 or int(n) != n:
        raise ValueError("box quantum number must be a positive integer")
    x = np.asarray(x, dtype=float)
    if np.any((x < 0.0) | (x > L)):
        raise ValueError("position outside the box [0, L]")
    return np.sqrt(2.0 / L) * np.sin(n * math.pi * x / L)


def box_momentum_factor(n, L, p):
    """Real factor g_n of the momentum-space box orbital, entire in p.

    g_n(p) = sqrt(L/pi) [ sin(z-)/(2 z-) - (-1)^n sin(z+)/(2 z+) ]
    with z-+ = (pL -+ n pi)/2, each sin(z)/(2 z) taken as
    0.5 sinc(z/pi) (``numpy.sinc``).  That is exactly 1/2 at z = 0, the
    removable points pL = +/- n pi, and exactly even, so
    g_n(-p) = (-1)^(n+1) g_n(p) holds bit for bit.
    """
    if n < 1 or int(n) != n:
        raise ValueError("box quantum number must be a positive integer")
    p = np.asarray(p, dtype=float)
    z_minus = (p * L - n * math.pi) / 2.0
    z_plus = (p * L + n * math.pi) / 2.0
    return 0.5 * math.sqrt(L / math.pi) \
        * (np.sinc(z_minus / math.pi) - (-1) ** n * np.sinc(z_plus / math.pi))


def eval_box_momentum(n, L, p):
    """Momentum-space box orbital (complex), entire in p.

    phi_n(p) = -i sqrt(L/pi) e^{-ipL/2} [ e^{i n pi/2} sin(z-)/(2 z-)
                                        - e^{-i n pi/2} sin(z+)/(2 z+) ]
    with z-+ = (pL -+ n pi)/2.  Since e^{-i n pi/2} = (-1)^n e^{i n pi/2},
    it factors as phi_n(p) = -i^(n+1) e^{-ipL/2} g_n(p): a constant phase,
    a phase that does not depend on n, and the real ``box_momentum_factor``.
    """
    return eval_orbital(ModelParams.box(L), n, MOMENTUM, p)


def hermite_functions(n_max, y):
    """Orthonormal Hermite functions h_0..h_n_max at y (unit frequency).

    h_0 = pi^{-1/4} exp(-y^2/2); the value itself is carried through the
    three-term recurrence, so no raw-polynomial overflow occurs.
    """
    y = np.asarray(y, dtype=float)
    h = np.zeros((n_max + 1,) + y.shape)
    h[0] = math.pi**-0.25 * np.exp(-y * y / 2.0)
    if n_max >= 1:
        h[1] = math.sqrt(2.0) * y * h[0]
    for k in range(1, n_max):
        h[k + 1] = math.sqrt(2.0 / (k + 1)) * y * h[k] \
            - math.sqrt(k / (k + 1.0)) * h[k - 1]
    return h


def ho_factor(n, omega, z, space=POSITION):
    """Real factor of the harmonic-trap orbital: w^{1/4} h_n(sqrt(w) z).

    w = omega in position space and 1/omega in momentum space; n and
    omega are checked by ``ModelParams``, the space by ``orbital_factor``.
    """
    w = omega if space == POSITION else 1.0 / omega
    z = np.asarray(z, dtype=float)
    return w**0.25 * hermite_functions(n, math.sqrt(w) * z)[n]


def eval_ho(n, omega, z, space=POSITION):
    """Harmonic-trap orbital at coordinate z in either space.

    Position: omega^{1/4} h_n(sqrt(omega) x).  Momentum: the Fourier
    transform, (-i)^n times the same functional form with omega -> 1/omega.
    """
    return eval_orbital(ModelParams.oscillator(omega), n, space, z)


def eval_orbital(params, n, space, z):
    """Orbital n at z: ``orbital_phase`` times ``orbital_factor``.

    A box momentum orbital also takes the phase e^{-ipL/2}.
    """
    val = orbital_phase(params, n, space) * orbital_factor(params, n, space, z)
    if params.kind == "box" and space == MOMENTUM:
        val = val * np.exp(-0.5j * np.asarray(z, dtype=float) * params.L)
    return val


def orbital_phase(params, n, space):
    """Constant phase c_n of orbital n: a power of i, 1 in position space.

    phi_n = c_n * ``orbital_factor``, times e^{-ipL/2} for a box momentum
    orbital: c_n = -i^(n+1) there, and (-i)^n for an oscillator momentum
    orbital.
    """
    params.validate_quantum_number(n)
    if space == POSITION:
        return 1.0
    return _I_POWERS[(n + 3) % 4 if params.kind == "box" else (3 * n) % 4]


def orbital_factor(params, n, space, z):
    """Real factor of orbital n at z: phi_n without its phases.

    A position orbital is its own factor.  A box momentum orbital is
    ``orbital_phase`` times e^{-ipL/2} times g_n (``box_momentum_factor``);
    the middle phase is the same for every orbital at p, so it cancels in
    every density.  An oscillator momentum orbital is (-i)^n times its
    factor.
    """
    params.validate_quantum_number(n)
    if space not in (POSITION, MOMENTUM):
        raise ValueError(f"unknown space {space!r}")
    if params.kind != "box":
        return ho_factor(n, params.omega, z, space)
    if space == POSITION:
        return eval_box_position(n, params.L, z)
    return box_momentum_factor(n, params.L, z)


def orbital_parity(params, n):
    """Parity +1 or -1 of orbital n under reflection about the domain centre.

    The parity of the real factor (``orbital_factor``), which is what the
    tables of every density hold.  Box: (-1)^(n+1) about L/2 in position,
    and g_n(-p) = (-1)^(n+1) g_n(p) exactly in momentum, with no shared
    phase left.  Oscillator: (-1)^n about 0 in both spaces.
    """
    params.validate_quantum_number(n)
    return (-1) ** (n + 1) if params.kind == "box" else (-1) ** n


def position_domain_scale(params, ns):
    """Map scale for the (infinite) oscillator position axis.

    Classical turning point sqrt(2n+1)/sqrt(omega) plus generous padding;
    the box needs no map in position space.
    """
    if params.kind != "oscillator":
        raise ValueError("position-space map only applies to the oscillator")
    n_max = max(ns)
    return (math.sqrt(2 * n_max + 1) + 6.0) / math.sqrt(params.omega)


def momentum_domain_scale(params, ns):
    """Map scale for the momentum axis.

    Box: max(n)*pi/L + 10/L captures both sinc lobes.  Oscillator: the
    momentum-space turning point sqrt((2n+1)*omega) plus padding.
    """
    n_max = max(ns)
    if params.kind == "box":
        return n_max * math.pi / params.L + 10.0 / params.L
    return (math.sqrt(2 * n_max + 1) + 6.0) * math.sqrt(params.omega)
