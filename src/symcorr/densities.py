"""Reduced (marginal) one- and two-particle probability densities.

Every reduced density comes from the reduced density matrix of the
state's orbital-coefficient tensor (see ``wavefunction``): by orbital
orthonormality it is exact at any point, with no quadrature over the
integrated coordinates.  A ``ReducedDensity`` also carries its own
table, which its integral and entropy consume: the density of the
state's unit-scale tables (``OrbitalTables.unit_scale``, L = 1 or
omega = 1) at the nodes kept for its arity k, as
``wavefunction.marginal_tables`` tabulates it for every entropy of a
report, and ln c, c the coordinate scale.  The table's densities are of
order 1 whatever L or omega; its integral does not depend on c and its
entropy adds k ln c, as every entropy of a report does.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .quadrature import (
    Interval,
    NonConvergenceError,
    require_nonnegative,
    weighted_sum,
)
from .wavefunction import DISTINGUISHABLE, marginal_tables

__all__ = [
    "ReducedDensity",
    "reduce_to_one",
    "reduce_to_pair",
    "reduce_numerical",
    "quadrature_marginal",
    "export_density_grid",
]


@dataclass(frozen=True)
class ReducedDensity:
    """k-particle density (k = 1 or 2): exact calls plus its unit-scale table.

    ``func`` and ``domains`` are in physical units; ``grid_values`` and
    ``grid_weights`` are the unit-scale table and its weights, and
    ``log_c`` is ln c, c the coordinate scale.
    """

    arity: int
    space: str
    domains: tuple
    func: object = field(repr=False)  # callable on physical coordinates
    grid_weights: tuple = field(repr=False)
    grid_values: np.ndarray = field(repr=False)
    log_c: float

    def __call__(self, *coords):
        if len(coords) != self.arity:
            raise ValueError(f"expected {self.arity} coordinates")
        return self.func(*coords)

    def integral(self):
        """Quadrature integral of the table over the full domain (~1, any c)."""
        return weighted_sum(self.grid_values, self.grid_weights)


def quadrature_marginal(wf, keep):
    """Callable marginal density of the kept coordinates.

    Exact from the state's reduced density matrix, so no quadrature runs
    despite the name.  Kept coordinates broadcast; scalars give a float.
    """

    def func(*kept_vals):
        vals = wf.marginal_values(tuple(keep), kept_vals)
        return vals if vals.ndim else float(vals)

    return func


def _require_single_distinct(wf):
    """Reject any state but one (anti)symmetrized term over N orbitals.

    Reads the state protocol only (``symmetry``, ``terms``, ``tables``,
    ``nparticles``), so a distinguishable state, a repeated quantum
    number and a superposition, of two terms or of more orbitals than
    particles, all raise ``ValueError``.
    """
    if wf.symmetry == DISTINGUISHABLE or len(wf.terms) != 1 \
            or len(wf.tables.orbitals) != wf.nparticles:
        raise ValueError("reduce_to_one/reduce_to_pair need an (anti)symmetrized "
                         "state of one term over N orbitals for N particles; "
                         "use reduce_numerical")


def reduce_to_one(wf):
    """One-particle density of an (anti)symmetrized distinct-orbital state.

    rho(x) = (1/N) sum_i |psi_{n_i}(x)|^2, identical for symmetric and
    antisymmetric states with the same quantum numbers.  Default scheme.
    """
    _require_single_distinct(wf)
    return reduce_numerical(wf, 1)


def reduce_to_pair(wf):
    """Pair density of an (anti)symmetrized distinct-orbital state.

    For N = 3 this is the Hartree + exchange form
    (1/6) [ sum_{i != j} |psi_i(x1)|^2 |psi_j(x2)|^2
           +/- sum_{i != j} psi_i*(x1) psi_j*(x2) psi_j(x1) psi_i(x2) ];
    for N = 2 the pair density is |Psi|^2 itself.  Default scheme.
    """
    _require_single_distinct(wf)
    return reduce_numerical(wf, 2)


def reduce_numerical(wf, arity, scheme=None, keep=None):
    """k-particle density of any state, tabulated at unit scale.

    The table holds the unit-scale density at the nodes of the scheme's
    rule kept for ``arity`` coordinates, contracted from the state's
    reduced density matrix as every entropy of a report is
    (``wavefunction.marginal_tables``); pointwise calls are exact, in
    physical units.  ``keep`` selects which coordinates survive
    (defaults to the first ``arity``); it only matters for
    distinguishable states, whose marginals differ per coordinate.  For N = 2, arity 2 is |Psi|^2 itself.
    """
    if arity not in (1, 2):
        raise ValueError("reduced density arity must be 1 or 2")
    n_part = wf.nparticles
    if arity > n_part:
        raise ValueError("arity exceeds the particle count")
    keep = tuple(keep) if keep is not None else tuple(range(arity))
    if (len(keep) != arity or any(k not in range(n_part) for k in keep)
            or list(keep) != sorted(set(keep))):
        raise ValueError(f"invalid kept-coordinate selection {keep}")
    rule, values = marginal_tables(wf, scheme, arity, keep)
    return ReducedDensity(arity=arity, space=wf.space, func=quadrature_marginal(wf, keep),
                          domains=(wf.tables.domain,) * arity, grid_values=values,
                          grid_weights=(rule.w,) * arity, log_c=wf.tables.unit_scale[1])


def _default_plot_range(domain):
    if isinstance(domain, Interval):
        return domain.a, domain.b
    # cover the bulk of a mapped infinite axis; tails are negligible there
    return -0.75 * domain.scale, 0.75 * domain.scale


def export_density_grid(density, n_points=101):
    """The CSV text of a pair density, rows ``x1,x2,value``.

    Row-major over ``n_points`` (at least 1) equispaced points per axis,
    spanning a box axis or the bulk of a mapped one; 12 significant
    digits.  Round-off in [-1e-12, 0) is written as 0; a value below
    that raises ``NegativeDensityError`` (``require_nonnegative``), and
    a value that is not finite, as the density of an extreme L or omega
    can overflow to, ``NonConvergenceError``.
    """
    if density.arity != 2:
        raise ValueError("grid export requires a pair density")
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points}")
    x1, x2 = (np.linspace(*_default_plot_range(d), n_points) for d in density.domains)
    vals = np.asarray(density(x1[:, None], x2[None, :]), dtype=float)
    if not np.isfinite(vals).all():
        raise NonConvergenceError("pair density not finite", np.inf)
    require_nonnegative(vals)
    vals = np.where(vals > 0.0, vals, 0.0)

    head = "p1,p2,value" if density.space == "momentum" else "x1,x2,value"
    buf = io.StringIO()
    buf.write(head + "\n")
    for i in range(n_points):
        for j in range(n_points):
            buf.write(f"{x1[i]:.12g},{x2[j]:.12g},{vals[i, j]:.12g}\n")
    return buf.getvalue()
