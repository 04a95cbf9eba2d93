"""Shannon entropies (arity 1-3) and the mutual-information hierarchy.

The five correlation measures are computed from entropy combinations:

    I      = 2 s1 - s2                 (pair mutual information, >= 0)
    I3     = 3 s1 - s3                 (total three-variable correlation)
    I_rg   = s1 + s2 - s3              (one variable vs a pair)
    I_gg   = 2 s2 - s1 - s3            (pair vs pair)
    I^3    = 3 s2 - 3 s1 - s3          (higher-order; may be negative)

Consecutive hierarchy differences all equal the pair mutual information,
which makes the hierarchy an algebraic identity here.

I^3 and s3 come from one rule.  d ln d is not smooth where the density
vanishes: on the coincidence planes of A states, on the orbital-node
planes of D states and in the oscillating 1/p^2 tails of box momentum.
The same zeros appear in rho and Gamma, and in the direct integrand of
I^3, |Psi|^2 ln R with R = |Psi|^2 rho rho rho / (Gamma Gamma Gamma),
they largely cancel.  On a rule that integrates the orbital products
exactly, as every position rule does, the sum of that integrand equals
3 s2' - 3 s1' - s3', the three entropies on the rule's own nodes.  So a
report's I^3 is that combination on the 3D rule, and its s3 is
3 s2 - 3 s1 - I^3, with s1 and s2 from the finer marginal rule: the
3D rule's zero-set errors cancel in I^3 and no longer reach s3, and the
3D rule can be coarser than the marginal one.  In the box it is
coarser still: a position density's factors vanish on the planes
x = kL/n of its orbitals (``OrbitalTables.node_planes``), and the 3D
rule, and no other, puts a panel edge on each (``quadrature.axis_rule``),
so its I^3 converges steadily in the panel count.  ``entropy`` of a
three-particle state returns that s3.
``mutual_information_higher_direct`` integrates ln R itself and
``mutual_information_pair_direct`` the pair integrand, as checks.
Neither check, nor ``cumulant3``, builds a 3D array: the I^3 integral
is s3' from the s3 kernel plus a sum over the rule's own pair marginal,
and the moments contract C with a one-axis moment matrix.

Every state, of two or three particles, takes one path, at unit scale.
An entropy of k coordinates is that of the same state at L = 1 or
omega = 1 plus k ln c, exactly, c the coordinate scale
(``OrbitalTables.unit_scale``: L or 1/L in the box, omega^(-1/2) or
omega^(1/2) in the trap), so every entropy runs on the state's
unit-scale tables, where its densities are of order 1 whatever L or
omega, and adds k ln c; no measure depends on c.  Oscillator momentum
tables at omega = 1 are its position tables, bit for bit.
``compute_reports`` groups the states it is given, such as the c1^2
samples of a scan, once, by their unit-scale ``OrbitalTables`` (params,
space and orbitals), particle count, exchange symmetry and the nonzero
mask of each term's C; those fix the domain, the kernel region and
whether a state is a Hartree product.  Every rule runs on the unit
tables' ``domain``.  Each group is prepared once per call
(``_prepare``): its stacked terms, reduced density matrices, their
marginal folds and the s3 kernel's region depend on no rule, so that
one preparation feeds s1, s2 and, for three particles, s3 at the fine
and the coarse level.  The endpoints of an S/A
scan curve are each a group of their own, on the inverted half
sector.  The orbital table of each distinct rule is evaluated once per
level and kept for later reports (``wavefunction.tabulated_rules``), so
the S and A states over one set of orbitals share it; s1 and s2 run on
one rule, the marginal rule, so rho and Gamma share it.  s1
and s2 integrate each state's exact rho and Gamma, from the reduced
density matrices of its coefficient tensor, formed with their folds once
per group and call (``wavefunction.density_forms``):
``wavefunction.marginal_entropies`` contracts each member's own matrix
with the rule's orbital products, on the half-axes the folds allow, so
grouping changes no s1 or s2.  This module decides which entropies
combine, never which nodes they run on.  For distinguishable (Hartree-type) states
the marginals differ per coordinate; s1 and s2 are then the averages
over coordinates/pairs, which reproduces the distinguishable-system
decomposition of I^3, sum s2_ij - sum s1_i - s3, exactly and keeps the
hierarchy identities intact.  A Hartree product
factorizes, so its s2 and s3 are 2 s1 and 3 s1, and every correlation
measure vanishes to round-off; proportional terms are merged first
(``_merged``), so a product is one term whatever its term list.  s3' of the other groups comes from one
pass of ``wavefunction.entropy_grid`` per group over |Psi|^2 on the 3D
rule, slab by slab, on the region their symmetries leave distinct:
``wavefunction.slab_folds`` decides it from the tables' ``parities``
about the domain centre, which every rule is mirror-symmetric about, as
``quadrature.axis_rule`` checks where it builds the rule.  s2 runs on
the nodes ``wavefunction.trim_rule`` keeps for two coordinates, and s1
on the same rule, whose nodes hold every node it keeps for one; s1',
s2' and s3' run on those it keeps for three.  It drops the end nodes of
a rule where every orbital is so small that, for any state over them,
their whole contribution is at most 1e-17 nats.  That cuts the mapped
oscillator rules (200 -> 126-128 nodes per axis in 3D for table 2) and
no box rule.  The s3 kernel's plan (``wavefunction.slab_plan``) cuts
each slab further, by the product bound, to the same 1e-17 nats: about
a third of table 2's sorted sector.  This module builds no rule, no
table and no density matrix: every integral here, the checks and
``entropy_sum_check`` too, takes its nodes, weights and table from
``wavefunction.tabulated_rules`` at unit scale, and the checks their
rho and Gamma from ``wavefunction.marginal_tables``, whose rule
``entropy_sum_check`` hands to ``marginal_entropies``:
the direct integrals do not depend on c, the entropy sum adds ln c to
each s1 and the cumulant is the unit one times c^3.  All three
entropies apply the one d ln d, ``quadrature.d_ln_d``, and negate the
reduced sum.  All values are in nats.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .orbitals import MOMENTUM, POSITION
from .quadrature import (
    DENSITY_FLOOR,
    NonConvergenceError,
    QuadratureScheme,
    entropy_from_values,
)
from .reference_tables import ROW_KEYS
from .wavefunction import (
    DISTINGUISHABLE,
    Configuration,
    density_forms,
    entropy_grid,
    marginal_entropies,
    marginal_tables,
    slab_folds,
    tabulated_rules,
)

__all__ = [
    "EntropyTriple",
    "InformationReport",
    "entropy",
    "compute_report",
    "compute_reports",
    "mutual_information_pair_direct",
    "mutual_information_higher_direct",
    "entropy_sum_check",
    "cumulant3",
    "ENTROPIC_BOUND",
]

ENTROPIC_BOUND = 1.0 + math.log(math.pi)


@dataclass(frozen=True)
class EntropyTriple:
    """One-, two- and three-particle Shannon entropies (nats).

    s3 is None for a two-particle system.
    """

    s1: float
    s2: float
    s3: float | None
    space: str
    error_estimate: float | None = None


@dataclass(frozen=True)
class InformationReport:
    """Entropy triple plus the five correlation measures for one system.

    A two-particle system has s2 and i_pair only: s3 and the four
    three-particle measures are None.
    """

    entropies: EntropyTriple
    i_pair: float
    i_total3: float | None
    i_one_pair: float | None
    i_pair_pair: float | None
    i_higher: float | None
    space: str
    system: str

    def hierarchy_residuals(self):
        """Deviations of the three consecutive differences from i_pair."""
        if self.entropies.s3 is None:
            raise ValueError("the hierarchy needs a three-particle system")
        d1 = self.i_total3 - self.i_one_pair
        d2 = self.i_one_pair - self.i_pair_pair
        d3 = self.i_pair_pair - self.i_higher
        raw = 2 * self.entropies.s1 - self.entropies.s2
        return (d1 - raw, d2 - raw, d3 - raw)

    def as_dict(self):
        """One output row, the one source of every writer's columns.

        ``system`` and ``space``, then each measure of ``ROW_KEYS`` in its
        order, then ``error_estimate``.  A measure that is None is left
        out, so a two-particle row has s1, s2 and I_pair only.
        """
        e = self.entropies
        values = (e.s1, e.s2, e.s3, self.i_pair, self.i_total3, self.i_one_pair,
                  self.i_pair_pair, self.i_higher)
        row = {"system": self.system, "space": self.space}
        row.update((k, v) for k, v in zip(ROW_KEYS, values) if v is not None)
        row["error_estimate"] = e.error_estimate
        return row


def entropy(density, scheme=None):
    """-integral d ln d of a ReducedDensity or of a state's |Psi|^2.

    A ReducedDensity carries its own unit-scale table, which is
    integrated as it is, plus k ln c for its k coordinates; ``scheme``
    applies to states (anything with coefficient-tensor
    ``terms``: a Configuration or a superposition).  It is the last
    entropy of the state's report: s2 for two particles, and for three
    s3 = 3 s2 - 3 s1 - I^3 (see the module docstring).
    """
    if not hasattr(density, "terms"):
        return entropy_from_values(density.grid_values, density.grid_weights) \
            + density.arity * density.log_c
    terms = [_merged(density.terms)]
    return _entropies([density], [_prepare([density], terms, [0])],
                      scheme or QuadratureScheme())[0][-1]


def _merged(terms):
    """The terms, with each set of proportional tensors merged into one.

    The densities of C and of lambda C add up to (1 + lambda^2) |Psi_C|^2,
    the density of the one tensor sqrt(1 + lambda^2) C.  So a product
    state, such as a mixture of a product with itself, is one term with
    one nonzero entry however its term list writes it, and takes the
    Hartree shortcut.  Two tensors C and D count as proportional when
    they are nonzero at the same entries and D - lambda C, lambda =
    <C, D> / <C, C>, is nowhere above 1e-14 of D's largest entry.
    """
    out = []
    for c in terms:
        for k, u in enumerate(out):
            lam = float(np.vdot(u, c) / np.vdot(u, u))
            if np.array_equal(c != 0, u != 0) \
                    and np.max(np.abs(c - lam * u)) <= 1e-14 * np.max(np.abs(c)):
                out[k] = u * math.sqrt(1.0 + lam * lam)
                break
        else:
            out.append(c)
    return tuple(out)


def _group_key(st, terms):
    """Unit tables, particle count, exchange symmetry, nonzero mask of each C.

    ``terms`` are the state's terms, ``_merged``.  States with equal keys
    share their unit-scale tables (``OrbitalTables.unit_scale``), and so
    their domain, kernel region and one s3 kernel pass, whatever their L
    or omega: the region (``slab_folds``) depends on a state only through
    its symmetry, its orbitals' parities and where its tensors are
    nonzero.  So does whether it is a Hartree product.
    """
    return (st.tables.unit_scale[0], st.nparticles, st.symmetry != DISTINGUISHABLE) \
        + tuple(np.not_equal(c, 0).tobytes() for c in terms)


def _keeps(wf):
    """Kept coordinates of the distinct 1- and 2-particle marginals."""
    if wf.symmetry == DISTINGUISHABLE:
        axes = range(wf.nparticles)
        return list(combinations(axes, 1)), list(combinations(axes, 2))
    return [(0,)], [(0, 1)]


# A group's rule-free part (``_prepare``): its first state, each member's
# (state index, sample index), the members' terms stacked along a sample
# axis, the ``density_forms`` of rho and of Gamma (None for Hartree
# products) and the s3 kernel's ``slab_folds`` (None unless the group has
# three particles and Gamma).
_Group = namedtuple("_Group", "first slots stacked rho gamma folds")


def _prepare(states, terms, members):
    """The ``_Group`` of ``states[k]`` for k in ``members``; no rule takes part.

    ``terms[k]`` are the terms of ``states[k]``, ``_merged``.  Members
    whose unit-scale terms are equal bit for bit, such as an oscillator
    state in position and in momentum space, share one sample.  The
    density matrices, their marginal folds and the s3 kernel's region
    depend on the terms and parities only, so one preparation serves
    every rule the group's entropies run on.
    """
    first = states[members[0]]
    parities = first.tables.parities  # the same at every scale
    ones, pairs = _keeps(first)
    keys = [b"".join(c.tobytes() for c in terms[k]) for k in members]
    distinct = list(dict.fromkeys(keys))
    stacked = [np.stack(c) for c in zip(*(terms[members[keys.index(key)]]
                                          for key in distinct))]
    slots = list(zip(members, map(distinct.index, keys)))
    own = terms[members[0]]
    hartree = len(own) == 1 and np.count_nonzero(own[0]) == 1
    gamma = None if hartree else density_forms(stacked, pairs, parities)
    folds = None if hartree or first.nparticles == 2 else \
        slab_folds(own, first.symmetry != DISTINGUISHABLE, parities)
    return _Group(first, slots, stacked, density_forms(stacked, ones, parities),
                  gamma, folds)


def _entropies(states, groups, scheme):
    """(s1, s2) or (s1, s2, s3) of each state, from its ``_prepare``d group.

    Each orbital table, and the orbital products of each trimmed one, is
    evaluated once per rule and kept across calls (``tabulated_rules``):
    s1 and s2 run on the one marginal rule, ``rule(1) is rule(2)``.  A
    group's s1 and s2 contract its density matrices, each member's its
    own, with the rule's orbital products (``marginal_entropies``).  A
    group is all Hartree products, whose joint density factorizes, or
    none.  For other three-particle states I^3 is 3 s2' - 3 s1' - s3',
    all three on the trimmed 3D rule, with s3' from one ``entropy_grid``
    pass over the stacked terms, on the region ``slab_folds`` set, and
    s3 is 3 s2 - 3 s1 - I^3.  Every rule and table is the group's unit-scale
    tables' (``unit_scale``), where the densities are of order 1 at any
    L or omega, and each member adds its own k ln c to its s_k: members
    of one group may differ in L or omega.
    """
    out = [None] * len(states)
    for g in groups:
        rule = tabulated_rules(g.first.tables.unit_scale[0], scheme)
        s1 = marginal_entropies(g.rho, rule(1))
        if g.gamma is None:  # Hartree products: the joint density factorizes
            s = [s1, 2.0 * s1, 3.0 * s1]
        else:
            s = [s1, marginal_entropies(g.gamma, rule(2))]
            if g.folds is not None:
                symmetric = g.first.symmetry != DISTINGUISHABLE
                i_higher = 3.0 * marginal_entropies(g.gamma, rule(3)) \
                    - 3.0 * marginal_entropies(g.rho, rule(3)) \
                    - entropy_grid(g.stacked, rule(3), symmetric, g.folds)
                s.append(3.0 * s[1] - 3.0 * s1 - i_higher)
        for k, j in g.slots:
            out[k] = tuple(float(v[j]) + n * states[k].tables.unit_scale[1]
                           for n, v in enumerate(s[:g.first.nparticles], 1))
    return out


def _report(wf, fine, coarse, scheme):
    """InformationReport of ``wf`` from its fine and, if run, coarse entropies.

    An entropy that is not finite raises ``NonConvergenceError``, which
    no state's unit-scale tables are known to give.  The error estimate
    is the largest |fine - coarse| over the entropies.
    Pair mutual information in [-tol, 0) is quadrature noise: it is clamped
    to 0, with a warning below -1e-12.  Below -tol the rule is too coarse
    for the state, and this raises ``NonConvergenceError``.  The same
    holds for the three measures that no density lets fall below 0, as
    Shannon inequalities: I3, the total correlation; I_rg = I(X1; X2 X3);
    and I_gg = I(X1; X2 | X3), for D states of the coordinate averages
    too.  Below -tol each raises ``NonConvergenceError``; in [-tol, 0)
    each is reported as computed, not clamped, since the hierarchy
    identities (``hierarchy_residuals``) tie it to the entropies.
    """
    if not np.isfinite(fine + (coarse or ())).all():
        raise NonConvergenceError(f"entropies {fine}, coarse {coarse}, not finite",
                                  math.inf)
    s1, s2 = fine[:2]
    err = None if coarse is None else max(abs(f - c) for f, c in zip(fine, coarse))
    i_pair = 2 * s1 - s2
    if i_pair < 0:
        if i_pair < -scheme.target_abs_tol:
            raise NonConvergenceError(
                f"pair mutual information {i_pair:.3e} is negative beyond "
                "quadrature tolerance", -i_pair)
        if i_pair < -1e-12:
            warnings.warn("pair mutual information clamped to 0 "
                          f"(quadrature noise {i_pair:.3e})")
        i_pair = 0.0
    if len(fine) == 2:
        s3, measures = None, (None,) * 4
    else:
        s3 = fine[2]
        measures = (3 * s1 - s3, s1 + s2 - s3, 2 * s2 - s1 - s3,
                    3 * s2 - 3 * s1 - s3)
        for name, value in zip(("I3", "I_rho_gamma", "I_gamma_gamma"), measures):
            if value < -scheme.target_abs_tol:
                raise NonConvergenceError(
                    f"{name} {value:.3e} is negative beyond quadrature tolerance",
                    -value)
    return InformationReport(EntropyTriple(s1, s2, s3, wf.space, err), i_pair,
                             *measures, space=wf.space, system=wf.label)


def compute_reports(systems, scheme=None, with_error=True):
    """InformationReports of two- and three-particle systems, computed together.

    Each system is a Configuration or a superposition
    (``build_superposition``).  Each system's proportional terms are
    merged first (``_merged``), so that a product is one term whatever
    its term list.  The systems are grouped once
    (``_group_key``) and each group is prepared once (``_prepare``): its
    density matrices, their folds and its s3 region serve both levels.
    The members of a group, such as the interior c1^2 samples of a scan,
    share their orbital tables, and a three-particle group's s3 comes
    from one pass over the slabs per level (``_entropies``).
    Grouping changes no s1 or s2: each member's are those of its own
    report.  With ``with_error`` the coarse level runs on the same
    groups, and a scheme ``coarsened`` cannot halve raises ``ValueError``
    before either level runs.  Each report is checked by ``_report``:
    I_pair, I3, I_rg or I_gg more negative than -tol raises
    ``NonConvergenceError``.  A batch returns every report or raises.
    """
    scheme = scheme or QuadratureScheme()
    coarse_scheme = with_error and scheme.coarsened()
    wfs = list(systems)
    terms = [_merged(wf.terms) for wf in wfs]
    groups = {}
    for k, wf in enumerate(wfs):
        groups.setdefault(_group_key(wf, terms[k]), []).append(k)
    prepared = [_prepare(wfs, terms, members) for members in groups.values()]
    fine = _entropies(wfs, prepared, scheme)
    coarse = _entropies(wfs, prepared, coarse_scheme) if with_error \
        else [None] * len(wfs)
    return [_report(*args, scheme) for args in zip(wfs, fine, coarse)]


def compute_report(system, scheme=None, with_error=True):
    """Full InformationReport for one system: ``compute_reports([system])[0]``."""
    return compute_reports([system], scheme, with_error)[0]


def mutual_information_pair_direct(system, scheme=None):
    """Pair mutual information from its defining integral (validation mode).

    integral Gamma ln[ Gamma / (rho(x1) rho(x2)) ]; indistinguishable
    systems only.  The integral does not depend on the coordinate
    scale, so it runs on the unit tables' marginal rule (``marginal_tables``).
    """
    if system.symmetry == DISTINGUISHABLE:
        raise ValueError("direct pair integral assumes indistinguishable marginals")
    rule, rho, gamma = marginal_tables(system, scheme, 2, (0,), (0, 1))
    mask = gamma > DENSITY_FLOOR
    denom = np.maximum(np.outer(rho, rho), DENSITY_FLOOR)
    wmat = np.outer(rule.w, rule.w)
    g = gamma[mask]
    return float(np.sum(wmat[mask] * g * (np.log(g) - np.log(denom[mask]))))


def mutual_information_higher_direct(system, scheme=None):
    """Higher-order mutual information from its defining 3D integral.

    integral |Psi|^2 ln[ |Psi|^2 rho(x1) rho(x2) rho(x3)
                         / (Gamma(x1,x2) Gamma(x1,x3) Gamma(x2,x3)) ].
    Validation mode; indistinguishable systems only.  ln R does not
    depend on the coordinate scale, so the integral runs on the unit
    tables' trimmed 3D rule (``marginal_tables``), and there the sum of the
    integrand is the finite sum rearranged, the way ``cumulant3``
    rearranges its moments: ln R at node (i, j, k) is
    ln d_ijk + g_ij + g_ik + g_jk, g_ij = (ln rho_i + ln rho_j)/2 -
    ln Gamma_ij with rho and Gamma exact and floored at 1e-300, and d is
    exchange-symmetric.  So the sum is -s3' + 3 sum_ij w_i w_j Gamma'_ij
    g_ij, s3' from the s3 kernel (``entropy_grid``) over the sorted
    sector, never inverted, and Gamma' = Q K Q^T the rule's own pair
    marginal of d: K[(a a'), (b b')] = sum_t sum_cc' C_abc G_cc' C_a'b'c',
    G = T^T diag(w) T the rule's Gram matrix of the orbital table T, and
    Q = ``orbital_products(T)``.  Where the rule integrates the orbital
    products exactly, the sum equals a report's I^3, 3 s2' - 3 s1' - s3'
    on the same rule, to round-off: so on every position rule.  In box
    momentum the 1/p^2 tails break that exactness, and at the default
    scheme the two differ by 1.8e-5 for A(1,2,3) and 2.6e-5 for S(1,1,2).
    """
    if system.symmetry == DISTINGUISHABLE:
        raise ValueError("direct higher-order integral assumes "
                         "indistinguishable marginals")
    rule, rho, gamma = marginal_tables(system, scheme, 3, (0,), (0, 1))
    _, t, q, w = rule
    log_rho = np.log(np.maximum(rho, DENSITY_FLOOR))
    g = 0.5 * (log_rho[:, None] + log_rho) - np.log(np.maximum(gamma, DENSITY_FLOOR))
    gram = (t.T * w) @ t
    kmat = sum(np.einsum("abc,cd,efd->aebf", c, gram, c) for c in system.terms)
    gamma_rule = q @ kmat.reshape(q.shape[1], -1) @ q.T
    return 3.0 * float(w @ (gamma_rule * g) @ w) \
        - entropy_grid(system.terms, rule, True, ())


def entropy_sum_check(params, ns, symmetry, scheme=None):
    """One-particle entropy sum s_x + s_p against the 1 + ln(pi) bound.

    Each s1 is that of coordinate 0 on the unit tables' marginal rule
    (``marginal_tables``, ``marginal_entropies``) plus ln c
    (``OrbitalTables.unit_scale``).  The two s1 and the two ln c
    are summed apart, so the ln c, equal and opposite, cancel exactly.
    Returns (entropy_sum, bound, satisfied).
    """
    parts = []
    for space in (POSITION, MOMENTUM):
        cfg = Configuration(params=params, ns=ns, symmetry=symmetry, space=space)
        forms = density_forms([c[None] for c in cfg.terms], [(0,)], cfg.tables.parities)
        rule = marginal_tables(cfg, scheme, 1)[0]
        parts.append((marginal_entropies(forms, rule)[0], cfg.tables.unit_scale[1]))
    total = float(np.sum(parts, axis=0).sum())
    return total, ENTROPIC_BOUND, bool(total >= ENTROPIC_BOUND - 1e-9)


def cumulant3(system, scheme=None):
    """Third-order cumulant <x1 x2 x3> - 3 <xi xj> <x> + 2 <x>^3.

    Moments are taken over rho, Gamma and |Psi|^2; the cumulant vanishes
    identically for indistinguishable particles.  For distinguishable
    systems the value is reported with coordinate-averaged moments and no
    zero assertion applies.  A joint third cumulant does not change
    under a shift and scales as c^3, so it is that of the unit tables'
    trimmed 3D rule times c^3 = exp(3 ln c) (``OrbitalTables.unit_scale``),
    which raises ``OverflowError`` where c^3 overflows.  Each moment is
    the rule's finite sum rearranged onto the real terms: sum_t sum
    C_abc C_a'b'c' X_aa' X_bb' X_cc' for <x1 x2 x3>, X[a, b] = sum_i w_i
    x_i phi_a(x_i) phi_b(x_i) over the real orbital factors, with the
    identity for X on each axis a lower moment leaves out.
    """
    x, table, _, w = marginal_tables(system, scheme, 3)[0]
    xmat = (table.T * (w * x)) @ table
    eye = np.eye(len(xmat))

    def moment(keep):
        mats = [xmat if k in keep else eye for k in range(3)]
        return sum(np.einsum("abc,ad,be,cf,def->", c, *mats, c)
                   for c in system.terms)

    ones, pairs = _keeps(system)
    m1 = float(np.mean([moment(k) for k in ones]))
    m2 = float(np.mean([moment(k) for k in pairs]))
    m3 = float(moment((0, 1, 2)))
    return (m3 - 3.0 * m2 * m1 + 2.0 * m1**3) \
        * math.exp(3.0 * system.tables.unit_scale[1])
