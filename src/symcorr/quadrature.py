"""Tensor-product quadrature on finite boxes and the real line.

Every rule is composite Gauss-Legendre.  Infinite domains are handled by
the algebraic map p = S*u/(1 - u^2), so every integral runs over a
finite box internally.  Error estimates come from comparing two
panel-refinement levels.  This module holds the generic rule of one
axis (``axis_rule``), the integrals, and the one weighted grid sum and
d ln d; ``wavefunction.tabulated_rules`` trims and tabulates the rule
for a state's orbitals.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "Interval",
    "RealLine",
    "QuadratureScheme",
    "IntegralResult",
    "NonConvergenceError",
    "gauss_panels",
    "axis_rule",
    "mirror_symmetric",
    "momentum_map",
    "integrate",
    "entropy_integrand",
    "entropy_from_values",
]

# -d*ln(d) is treated as exactly 0 below this; avoids log underflow noise
DENSITY_FLOOR = 1e-300
# quadrature round-off can push densities slightly negative
NEGATIVE_NOISE_TOL = 1e-12
# relative round-off allowed in the mirror image of a rule
MIRROR_RTOL = 1e-12
# the panel-count fields of QuadratureScheme
_PANEL_COUNTS = ("panels", "panels_3d", "line_panels", "line_panels_3d")


class NonConvergenceError(RuntimeError):
    """Raised when refinement fails to reach the requested tolerance."""

    def __init__(self, message, achieved_error):
        super().__init__(f"{message} (achieved error estimate {achieved_error:.3e})")
        self.achieved_error = achieved_error


class NegativeDensityError(NonConvergenceError, ValueError):
    """A density below -1e-12 (``require_nonnegative``).

    Round-off that the values cannot hold, as in the pair-density grid,
    which is evaluated in physical units, at an extreme L: a
    numerical failure like any ``NonConvergenceError``, so the CLI exits
    3 on it, and also a ``ValueError``, a value outside a density's range.
    """


def require_nonnegative(values):
    """The lowest of ``values``; raises ``NegativeDensityError`` below -1e-12.

    The one check of a density's sign, for the entropies (``d_ln_d``)
    and the grid export; the achieved error is the lowest value's size.
    """
    lowest = values.min(initial=np.inf)
    if lowest < -NEGATIVE_NOISE_TOL:
        raise NegativeDensityError("density value significantly negative", -lowest)
    return lowest


@dataclass(frozen=True)
class Interval:
    """Finite integration interval [a, b]."""

    a: float
    b: float

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError(f"empty interval [{self.a}, {self.b}]")

    @property
    def centre(self):
        return 0.5 * (self.a + self.b)


@dataclass(frozen=True)
class RealLine:
    """The real line, integrated through u -> scale*u/(1-u^2)."""

    scale: float

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError("map scale must be positive")

    @property
    def centre(self):
        return 0.0


@dataclass(frozen=True)
class QuadratureScheme:
    """Resolution of the composite Gauss-Legendre rules.

    ``panels`` applies to 1D and 2D integrals, ``panels_3d`` to 3D ones;
    the ``line_*`` counts are used on mapped infinite axes.  Node count
    per axis is panels * nodes_per_panel.  The 3D rule is coarser than
    the others because it only carries I^3, whose integrand cancels the
    zeros of the density (see ``information``).  On the box position
    axis it puts a panel edge on each node plane of the state's orbitals
    (``_panel_gaps``), where a density's factors vanish; ``panels_3d``
    stays its panel count.  Its I^3 error then falls steadily with even
    counts: at 12, 14 and 16 every scan curve is within 1.9e-5 of the
    reference and every table-1 state within 4.4e-6, where equal panels
    gave 3.2e-5 at 14, erratically.  The 20 line panels carry box
    momentum and the oscillator, whose rules have no planes.
    """

    panels: int = 24
    panels_3d: int = 12
    line_panels: int = 32
    line_panels_3d: int = 20
    nodes_per_panel: int = 10
    target_abs_tol: float = 5e-5

    def __post_init__(self):
        for name in _PANEL_COUNTS + ("nodes_per_panel",):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if min(getattr(self, n) for n in _PANEL_COUNTS) * self.nodes_per_panel < 16:
            raise ValueError("fewer than 16 nodes per axis")
        if not self.target_abs_tol > 0:
            raise ValueError("target_abs_tol must be positive")

    def panels_for(self, domain, ndim):
        if isinstance(domain, RealLine):
            return self.line_panels_3d if ndim >= 3 else self.line_panels
        return self.panels_3d if ndim >= 3 else self.panels

    def coarsened(self):
        """Half the panel counts; used for the two-level error estimate.

        Each count is halved, but to no fewer panels than keep 16 nodes
        per axis.  A count already at that floor would give a coarse
        rule equal to the fine one, and so an error estimate of exactly
        0 however far the fine rule is from converged: this raises
        ``ValueError`` instead, naming those counts.
        """
        floor = -(-16 // self.nodes_per_panel)  # keep >= 16 nodes per axis
        stuck = [n for n in _PANEL_COUNTS if getattr(self, n) <= floor]
        if stuck:
            raise ValueError(
                f"no coarser rule for the error estimate: {', '.join(stuck)} at "
                f"the floor of {floor} panels of {self.nodes_per_panel} nodes, the "
                "fewest that keep 16 nodes per axis")
        return replace(self, **{n: max(floor, getattr(self, n) // 2) for n in _PANEL_COUNTS})


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    nodes_used: int


def gauss_panels(a, b, panels, nodes_per_panel):
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    t, w = leggauss(nodes_per_panel)
    edges = np.linspace(a, b, panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    x = (mid[:, None] + half[:, None] * t[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return x, wts


def momentum_map(u, scale):
    """Map u in (-1, 1) to the real line; returns (p, jacobian).

    p = scale*u/(1-u^2), odd in u, with dp/du = scale*(1+u^2)/(1-u^2)^2.
    """
    u = np.asarray(u, dtype=float)
    if np.any(np.abs(u) >= 1.0):
        raise ValueError("mapped coordinate must satisfy |u| < 1")
    one_minus = 1.0 - u * u
    p = scale * u / one_minus
    jac = scale * (1.0 + u * u) / one_minus**2
    return p, jac


def axis_rule(domain, scheme, ndim=1, planes=()):
    """Nodes and weights along one axis of the given domain.

    For RealLine the returned nodes are physical (momentum) coordinates
    and the weights already carry the map jacobian.  ``planes`` are points
    inside an Interval where the integrand has a kink, such as the node
    planes of a state's orbitals (``OrbitalTables.node_planes``); each is
    a panel edge (``_panel_gaps``).  Rules are memoised and shared between
    callers, so both arrays are read-only.
    """
    return _rule(domain, scheme.panels_for(domain, ndim), scheme.nodes_per_panel,
                 tuple(planes))


def _panel_gaps(domain, planes, panels):
    """(a, b, panel count) of each gap that ``planes`` cut the Interval into.

    Each plane is a panel edge.  The panels beyond one per gap go, one at
    a time, to the gap whose panels are widest, and each gap and its
    mirror image take the same count, so the rule stays mirror-symmetric.
    An odd number of extra panels needs a middle gap, so where a plane
    sits at the centre, that plane alone is dropped.  Where the planes
    make more gaps than ``panels``, the rule is ``panels`` equal panels,
    as without planes: every rule has ``panels * nodes_per_panel`` nodes.
    """
    edges = [domain.a, *planes, domain.b]
    if len(edges) - 1 > panels:
        return [(domain.a, domain.b, panels)]
    if panels % 2 and len(edges) % 2:  # an odd count, and a plane at the centre
        del edges[len(edges) // 2]
    gaps = np.diff(edges)
    n, counts = len(gaps), np.ones(len(gaps), dtype=int)
    h = (n + 1) // 2  # gap i < h and its mirror image n - 1 - i
    while counts.sum() < panels:
        # one panel left over: n is odd then, and the middle gap takes it
        i = h - 1 if counts.sum() == panels - 1 else np.argmax(gaps[:h] / counts[:h])
        counts[[i, n - 1 - i]] += 1  # the middle gap, i = n - 1 - i, once
    return list(zip(edges[:-1], edges[1:], counts.tolist()))


@functools.lru_cache(maxsize=64)
def _rule(domain, panels, nodes_per_panel, planes=()):
    if isinstance(domain, Interval):
        x, w = map(np.concatenate, zip(*(gauss_panels(a, b, m, nodes_per_panel)
                                         for a, b, m in _panel_gaps(domain, planes, panels))))
    else:
        x, w = gauss_panels(-1.0, 1.0, panels, nodes_per_panel)
        # mirror exactly in u: the map is odd and its jacobian even bit for
        # bit, and would magnify the nodes' round-off near |u| = 1
        x, w = (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0
        x, jac = momentum_map(x, domain.scale)
        w = w * jac
    # the s3 kernel folds and inverts axes by the orbitals' parities
    if not mirror_symmetric(domain, x, w):
        raise RuntimeError(f"the rule on {domain} is not mirror-symmetric "
                           f"about {domain.centre:g}")
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def mirror_symmetric(domain, x, w):
    """True when x[::-1] = 2c - x and w[::-1] = w, c the domain centre.

    A parity fold of an integrand (``wavefunction.entropy_grid``) is
    exact only on such a rule, so ``axis_rule`` checks every rule it
    builds and raises on one that fails.
    """
    dx = np.abs(x[::-1] + x - 2.0 * domain.centre)
    return bool(np.max(dx) <= MIRROR_RTOL * np.max(np.abs(x - domain.centre))
                and np.all(np.abs(w[::-1] - w) <= MIRROR_RTOL * np.abs(w)))


def integrate(f, domains, scheme=None):
    """Integrate f over a 1-3 dimensional product domain.

    ``f`` must accept one broadcastable array argument per coordinate and
    return values of matching shape.  The error estimate is the
    difference against a run with half the panels per axis
    (``QuadratureScheme.coarsened``, which raises at the 16-node floor).
    """
    scheme = scheme or QuadratureScheme()
    ndim = len(domains)
    if not 1 <= ndim <= 3:
        raise ValueError("only 1-3 dimensional integrals are supported")
    runs = []
    for level in (scheme, scheme.coarsened()):
        rules = [axis_rule(d, level, ndim) for d in domains]
        shape = tuple(len(x) for x, _ in rules)
        grids = np.meshgrid(*(x for x, _ in rules), indexing="ij", sparse=True)
        # broadcast f over sparse grids if it returned a scalar or partial shape
        vals = np.broadcast_to(np.asarray(f(*grids), dtype=float), shape)
        runs.append((weighted_sum(vals, [w for _, w in rules]), math.prod(shape)))
    (fine, nodes), (coarse, _) = runs
    return IntegralResult(value=fine, error_estimate=abs(fine - coarse),
                          nodes_used=nodes)


def weighted_sum(values, weight_axes):
    """sum w0_i w1_j .. values_ij.. on a tensor grid, the last axis first.

    The one weighted grid sum, as a float, of every tabulated integral.
    """
    for axis in range(values.ndim - 1, -1, -1):
        values = np.tensordot(values, weight_axes[axis], axes=([axis], [0]))
    return float(values)


def d_ln_d(d, out):
    """d*ln(d) of a float array, in ``out``: the one d ln d of s1, s2 and s3.

    The values of ``entropy_integrand``, not negated: callers negate the
    reduced sum instead, which is exact.  One ``min()`` check
    (``require_nonnegative``) rejects values below -1e-12; ``log`` runs
    on ``d`` itself unless some value is below the 1e-300 floor, in
    which case the floor is taken first and those nodes are set to
    exactly 0 afterwards.  ``out`` must not be ``d``: the s3 slab kernel
    passes its reused buffer.
    """
    lowest = require_nonnegative(d)
    floored = lowest < DENSITY_FLOOR
    np.log(np.maximum(d, DENSITY_FLOOR, out=out) if floored else d, out=out)
    out *= d
    if floored:
        out[d < DENSITY_FLOOR] = 0.0
    return out


def entropy_integrand(density_value):
    """-d*ln(d) with the x*ln(x) -> 0 limit at d = 0; never NaN.

    Small negative values (quadrature noise) count as zero; anything
    below -1e-12 is rejected.  Values below the 1e-300 floor give exactly
    0.  The negation of ``d_ln_d``, in a new array.
    """
    d = np.asarray(density_value, dtype=float)
    out = d_ln_d(d, np.empty_like(d))
    return np.negative(out, out=out)


def entropy_from_values(values, weight_axes):
    """Shannon entropy -sum w * d ln d of density values on a tensor grid.

    ``weight_axes`` is a sequence of per-axis weight vectors matching the
    shape of ``values``.  s1 and s2 come through here; s3 of a
    three-particle state never builds its 3D grid (see
    ``wavefunction.entropy_grid``), and the tests use this function on
    a full 3D grid as that kernel's reference.
    """
    if values.ndim != len(weight_axes):
        raise ValueError("weight axes do not match value dimensions")
    values = np.asarray(values, dtype=float)
    return -weighted_sum(d_ln_d(values, np.empty_like(values)), weight_axes)
