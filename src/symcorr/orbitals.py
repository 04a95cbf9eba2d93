"""Single-particle orbitals for the 1D box and the harmonic trap.

Both models are provided in position and momentum space (hbar = m = 1).
Box momentum orbitals use the closed form of the Fourier transform of
sin(n*pi*x/L), with a series branch resolving the removable singularities
at p*L = +/- n*pi.  Oscillator orbitals are built from the stable
Hermite-function recurrence, which keeps values finite for n up to ~50.
All evaluators are pure and vectorized over numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "eval_box_position",
    "eval_box_momentum",
    "eval_ho",
    "eval_orbital",
    "orbital_parity",
    "hermite_functions",
    "position_domain_scale",
    "momentum_domain_scale",
]

# series branch for sin(z)/z below this |z|; keeps relative error < 1e-12
SINC_SERIES_THRESHOLD = 1e-4

POSITION = "position"
MOMENTUM = "momentum"


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


def _sinc_half(z):
    """sin(z)/(2 z) with a 3-term series branch near z = 0."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = np.abs(z) < SINC_SERIES_THRESHOLD
    zs = z[small]
    out[small] = 0.5 * (1.0 - zs * zs / 6.0 + zs**4 / 120.0)
    zb = z[~small]
    out[~small] = np.sin(zb) / (2.0 * zb)
    return out


def eval_box_momentum(n, L, p):
    """Momentum-space box orbital (complex), entire in p.

    phi_n(p) = -i sqrt(L/pi) e^{-ipL/2} [ e^{i n pi/2} sin(z-)/(2 z-)
                                        - e^{-i n pi/2} sin(z+)/(2 z+) ]
    with z-+ = (pL -+ n pi)/2; the removable points pL = +/- n pi go
    through the series branch.
    """
    if n < 1 or int(n) != n:
        raise ValueError("box quantum number must be a positive integer")
    p = np.asarray(p, dtype=float)
    z_minus = (p * L - n * math.pi) / 2.0
    z_plus = (p * L + n * math.pi) / 2.0
    phase_n = np.exp(1j * n * math.pi / 2.0)
    bracket = phase_n * _sinc_half(z_minus) - np.conj(phase_n) * _sinc_half(z_plus)
    return -1j * math.sqrt(L / math.pi) * np.exp(-1j * p * L / 2.0) * bracket


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


def eval_ho(n, omega, z, space=POSITION):
    """Harmonic-trap orbital at coordinate z in either space.

    Position: omega^{1/4} h_n(sqrt(omega) x).  Momentum: the Fourier
    transform, (-i)^n times the same functional form with omega -> 1/omega.
    """
    if n < 0 or int(n) != n:
        raise ValueError("oscillator quantum number must be a non-negative integer")
    if not omega > 0:
        raise ValueError("omega must be positive")
    if space == POSITION:
        w = omega
        phase = 1.0
    elif space == MOMENTUM:
        w = 1.0 / omega
        phase = (-1j) ** n
    else:
        raise ValueError(f"unknown space {space!r}")
    z = np.asarray(z, dtype=float)
    val = w**0.25 * hermite_functions(n, math.sqrt(w) * z)[n]
    return phase * val


def eval_orbital(params, n, space, z):
    """Dispatch to the model/space-specific orbital evaluator."""
    params.validate_quantum_number(n)
    if params.kind == "box":
        if space == POSITION:
            return eval_box_position(n, params.L, z)
        if space == MOMENTUM:
            return eval_box_momentum(n, params.L, z)
        raise ValueError(f"unknown space {space!r}")
    return eval_ho(n, params.omega, z, space)


def orbital_parity(params, n):
    """Parity +1 or -1 of orbital n under reflection about the domain centre.

    Box: (-1)^(n+1) about L/2 in position; in momentum
    phi_n(-p) = (-1)^(n+1) e^{ipL} phi_n(p), the same parity up to a phase
    shared by all orbitals, which cancels in every |Psi|^2.  Oscillator:
    (-1)^n about 0 in both spaces.
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
