"""N-particle wavefunctions (N = 2, 3) from single-particle orbitals.

Symmetric states are permanents, antisymmetric states Slater
determinants, and distinguishable states plain Hartree products.  A
configuration is held as one orbital-coefficient tensor C over its
distinct orbitals,

    Psi(x1, ..., xN) = sum C_ab.. phi_a(x1) phi_b(x2) ...,

and every state as a tuple of such real tensors, its terms, whose
densities add: |Psi|^2 = sum_t (sum C_t phi phi phi)^2.  Every path
from C to a density runs in real arithmetic.  A state's
``OrbitalTables``, the value of its params, space and orbitals, hold
each orbital's real factor (``orbitals.orbital_factor``), the one
integration axis of every coordinate, the orbitals' parities and the
coordinate scale, the same orbitals at unit scale and its log
(``OrbitalTables.unit_scale``); no other code works these out.  An
orbital's constant phase, a power of i that is 1 in position space,
multiplies every entry of a configuration's C by the same product, a
global phase that no density sees; the factor e^{-ipL/2} that all box
momentum orbitals share has modulus 1 in every density too.  So a
configuration is the one term C, and only a superposition keeps a
phase: that of its components relative to each other
(``superposition``).
|Psi|^2 on a tensor grid is one mode product per axis (BLAS); the
entropy of a three-particle density, or of a stack of them such as the
samples of a scan, is built and integrated slab by slab, without the
3D grid, in chunks of at most n^2 values (``entropy_grid``), over the
sorted sector i <= j <= k of an
exchange-symmetric density, halved again when the inversion of all
three axes leaves every term invariant, and over the parity-folded
grid of a distinguishable one; ``slab_folds`` decides that region from
the orbitals' parities, which hold on every rule since each is checked
mirror-symmetric where it is built.  On a mapped axis a
rule reaches far past where any orbital of the state is non-negligible;
``trim_rule`` drops the nodes at each end whose total contribution to
the entropy it bounds below 1e-17 nats, for every state over the
orbitals, and the s3 kernel's plan on the 3D rule (``slab_plan``)
cuts each slab to the rectangle where the product bound
P(x1) P(x2) P(x3), P = sum_a phi_a^2, can matter, to the same bound in
all.  The
reduced densities follow exactly from the reduced density matrices of
C, by orbital orthonormality, with no quadrature over the integrated
coordinates.
This module decides which nodes, weights and orbital tables an entropy
of k coordinates runs on, and no other: ``tabulated_rules`` builds the
trimmed rule of each arity from ``quadrature.axis_rule``, with the 3D
rule's panel edges on the orbitals' node planes, and memoises each rule,
its table and its s3 kernel plans, read-only, for every later report
over the same tables and scheme; ``marginal_tables`` contracts a state's
rho and Gamma on it, and ``marginal_folds`` and ``slab_folds`` set the
half-axes each entropy runs on.
A ``Configuration`` is its own wavefunction, an immutable value whose
evaluation is referentially transparent; ``WaveFunction`` is another
name for it, and ``build`` returns the configuration it is given.
``Configuration.amplitude`` keeps the explicit permutation expansion
of the complex orbitals (``orbitals.eval_orbital``) as an independent
pointwise reference.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter, namedtuple
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .orbitals import (
    MOMENTUM,
    POSITION,
    ModelParams,
    eval_orbital,
    orbital_factor,
    orbital_parity,
)
from .quadrature import Interval, QuadratureScheme, RealLine, axis_rule, d_ln_d

__all__ = [
    "SYMMETRIC",
    "ANTISYMMETRIC",
    "DISTINGUISHABLE",
    "parse_symmetry",
    "Configuration",
    "WaveFunction",
    "OrbitalTables",
    "coefficient_tensor",
    "density_grid",
    "entropy_grid",
    "slab_folds",
    "fold_axes",
    "marginal_folds",
    "trim_rule",
    "TRIM_BOUND",
    "Rule",
    "tabulated_rules",
    "SlabPlan",
    "slab_plan",
    "folded_weights",
    "marginal_tables",
    "orbital_products",
    "density_matrix",
    "reduced_density",
    "build",
    "eval_density",
    "exchange_symmetry_check",
]

SYMMETRIC = "symmetric"
ANTISYMMETRIC = "antisymmetric"
DISTINGUISHABLE = "distinguishable"

_SYMMETRY_ALIASES = {
    "s": SYMMETRIC, SYMMETRIC: SYMMETRIC,
    "a": ANTISYMMETRIC, ANTISYMMETRIC: ANTISYMMETRIC,
    "d": DISTINGUISHABLE, DISTINGUISHABLE: DISTINGUISHABLE,
}

# nats a trimmed rule may change an entropy by: below the round-off of
# any entropy summed here, which is at least eps * |s| ~ 1e-16
TRIM_BOUND = 1e-17

_PERMUTATIONS = {
    2: [((0, 1), 1), ((1, 0), -1)],
    3: [(p, 1 if p in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1)
        for p in itertools.permutations(range(3))],
}


def parse_symmetry(tag):
    try:
        return _SYMMETRY_ALIASES[tag.lower()]
    except KeyError:
        raise ValueError(f"unknown symmetry class {tag!r}") from None


@dataclass(frozen=True)
class Configuration:
    """One N-particle state: model, quantum numbers, symmetry, space.

    A configuration is its own wavefunction: ``terms`` is its one real C
    over its ``tables``, and ``amplitude`` the explicit permutation
    expansion of the complex orbitals.
    """

    params: ModelParams
    ns: tuple
    symmetry: str
    space: str = POSITION

    def __post_init__(self):
        if len(self.ns) not in (2, 3):
            raise ValueError("only 2- and 3-particle systems are supported")
        if self.symmetry not in (SYMMETRIC, ANTISYMMETRIC, DISTINGUISHABLE):
            raise ValueError(f"unknown symmetry class {self.symmetry!r}")
        if self.space not in (POSITION, MOMENTUM):
            raise ValueError(f"unknown space {self.space!r}")
        for n in self.ns:  # as given, so that 1.5 is not taken for 1
            self.params.validate_quantum_number(n)
        object.__setattr__(self, "ns", tuple(int(n) for n in self.ns))
        counts = Counter(self.ns)
        if self.symmetry == ANTISYMMETRIC and max(counts.values()) > 1:
            raise ValueError(
                "antisymmetric state requires distinct quantum numbers "
                "(determinant with equal rows vanishes)")
        if self.symmetry == SYMMETRIC and max(counts.values()) > 2:
            raise ValueError(
                "symmetric state with a triple-repeated quantum number is "
                "not supported")

    @property
    def nparticles(self):
        return len(self.ns)

    @property
    def distinct(self):
        return len(set(self.ns)) == len(self.ns)

    @cached_property
    def tables(self):
        return OrbitalTables(self.params, self.space, tuple(sorted(set(self.ns))))

    def domains(self, arity=None):
        """Per-axis integration domains ([0,L] or mapped real line)."""
        return [self.tables.domain] * (arity or self.nparticles)

    @property
    def norm_factor(self):
        if self.symmetry == DISTINGUISHABLE:
            return 1.0
        mult = math.prod(math.factorial(m) for m in Counter(self.ns).values())
        return 1.0 / math.sqrt(math.factorial(self.nparticles) * mult)

    @property
    def label(self):
        p = self.params
        model = f"box L={p.L:g}" if p.kind == "box" else f"ho omega={p.omega:g}"
        return f"{model} ns={self.ns} {self.symmetry}"

    @cached_property
    def terms(self):
        """(C,): the state as one real C over its tables' factors.

        The orbitals' phase product is the same on every entry of C, a
        global phase, so C leaves it out.
        """
        return (coefficient_tensor(self, self.tables.orbitals),)

    def amplitude(self, *coords):
        """Psi at one point or broadcastable coordinate arrays.

        The explicit permutation expansion: the reference the coefficient
        tensor paths are tested against.
        """
        if len(coords) != self.nparticles:
            raise ValueError(
                f"expected {self.nparticles} coordinates, got {len(coords)}")
        # vals[k][i]: orbital k evaluated at coordinate i
        vals = [[eval_orbital(self.params, n, self.space, c) for c in coords]
                for n in self.ns]
        if self.symmetry == DISTINGUISHABLE:
            out = vals[0][0]
            for k in range(1, self.nparticles):
                out = out * vals[k][k]
            return out
        out = None
        for perm, sign in _PERMUTATIONS[self.nparticles]:
            term = vals[perm[0]][0]
            for i in range(1, self.nparticles):
                term = term * vals[perm[i]][i]
            if self.symmetry == ANTISYMMETRIC and sign < 0:
                term = -term
            out = term if out is None else out + term
        return self.norm_factor * out

    def density(self, *coords):
        """|Psi|^2 at the given point(s)."""
        a = self.amplitude(*coords)
        return np.abs(a) ** 2 if np.iscomplexobj(a) else np.asarray(a) ** 2

    def amplitude_tensor(self, axes):
        """Psi on the tensor grid spanned by 1D coordinate axes (``amplitude``)."""
        return self.amplitude(*np.meshgrid(*axes, indexing="ij", sparse=True))

    def density_tensor(self, axes):
        """|Psi|^2 on the tensor grid spanned by 1D coordinate axes."""
        return density_grid(self.terms, [self.tables(ax) for ax in axes])

    def marginal_values(self, keep, coords):
        """Reduced density of the kept coordinates at broadcastable points."""
        return reduced_density(self.terms, keep,
                               [orbital_products(self.tables(c)) for c in coords])


# the wavefunction of a configuration is the configuration itself
WaveFunction = Configuration


def coefficient_tensor(config, orbitals):
    """Normalized C of a configuration over the given orbital list."""
    idx = [orbitals.index(n) for n in config.ns]
    c = np.zeros((len(orbitals),) * config.nparticles)
    if config.symmetry == DISTINGUISHABLE:
        c[tuple(idx)] = 1.0
        return c
    for perm, sign in _PERMUTATIONS[config.nparticles]:
        c[tuple(idx[p] for p in perm)] += \
            sign if config.symmetry == ANTISYMMETRIC else 1
    return c * config.norm_factor


@dataclass(frozen=True)
class OrbitalTables:
    """A state's orbitals, with their integration axis and parities.

    A hashable value of (params, space, orbitals), so states over the
    same orbitals share one key.  A call gives the real orbital factors
    at coordinate arrays, orbital index last, evaluated afresh;
    ``tabulated_rules`` evaluates each rule's table once and keeps it, so
    every report over equal tables and scheme, in one call or across
    calls, shares it.
    """

    params: ModelParams
    space: str
    orbitals: tuple

    @cached_property
    def domain(self):
        """The integration axis of every coordinate.

        The box position axis is [0, L]; every other axis is the real
        line, mapped with a scale set by the highest orbital n: n pi / L
        plus 10 / L, both sinc lobes, in box momentum, and the turning
        point sqrt(2n + 1) plus 6 over sqrt(omega) in oscillator position
        and times it in oscillator momentum.
        """
        p, n = self.params, max(self.orbitals)
        if p.kind == "box":
            return Interval(0.0, p.L) if self.space == POSITION \
                else RealLine(n * math.pi / p.L + 10.0 / p.L)
        turn, root = math.sqrt(2 * n + 1) + 6.0, math.sqrt(p.omega)
        return RealLine(turn / root if self.space == POSITION else turn * root)

    @cached_property
    def unit_scale(self):
        """(these orbitals at unit scale, ln c), c the coordinate scale.

        A coordinate of these tables is c times that of the unit tables,
        and each density of k coordinates is c^-k times the unit one at
        the unit coordinates: c is L in box position, 1/L in box momentum,
        omega^(-1/2) in oscillator position and omega^(1/2) in oscillator
        momentum.  So an entropy of k coordinates is the unit tables' plus
        k ln c, and no correlation measure depends on c.  The unit box has
        L = 1 in the same space; the unit oscillator has omega = 1 in
        position space, whose factors are the momentum ones at omega = 1
        bit for bit (``orbitals.ho_factor``), as are its domain and
        parities.
        """
        p, sign = self.params, 1.0 if self.space == POSITION else -1.0
        if p.kind == "box":
            return replace(self, params=ModelParams.box(1.0)), sign * math.log(p.L)
        return (replace(self, params=ModelParams.oscillator(1.0), space=POSITION),
                -0.5 * sign * math.log(p.omega))

    @cached_property
    def node_planes(self):
        """The points kL/n, 0 < k < n, inside [0, L] where orbital n vanishes.

        Sorted and each once, over every orbital n: the planes on which a
        box position density's factors vanish, and so the panel edges of
        the 3D rule (``tabulated_rules``).  No other axis has any.
        """
        if self.params.kind != "box" or self.space != POSITION:
            return ()
        # k / n is correctly rounded, so equal fractions give one float
        fractions = {k / n for n in self.orbitals for k in range(1, n)}
        return tuple(self.params.L * f for f in sorted(fractions))

    @cached_property
    def parities(self):
        """Each orbital's parity about the domain centre (``orbital_parity``)."""
        return tuple(orbital_parity(self.params, n) for n in self.orbitals)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.stack([np.asarray(orbital_factor(self.params, n, self.space, x))
                         for n in self.orbitals], axis=-1)


def _abs2(a):
    """a^2 of a fresh real array, squared in place."""
    a *= a
    return a


def density_grid(terms, tables):
    """sum_t Psi_t^2 on the tensor grid of real per-axis orbital tables."""
    total = None
    for c in terms:
        for t in tables:  # sum C_ab.. t0[i, a] t1[j, b] ..., one axis at a time
            c = np.tensordot(c, t, axes=([0], [1]))
        d = _abs2(c)
        total = d if total is None else np.add(total, d, out=total)
    return total


def slab_folds(terms, symmetric, parities):
    """Axes that ``entropy_grid`` runs on their first half only.

    ``parities`` holds the parity (+1 or -1) of each orbital of the terms'
    tensors about the domain centre.  Reflecting a set of axes multiplies
    each entry C_abc by the product of its orbitals' parities over them,
    so it leaves |Psi_t|^2 invariant when that product is the same on all
    nonzero entries of C_t; each sample of a stacked tensor counts as a
    term of its own, so a fold holds for every sample.  Axis 0 is the slab
    axis.  For the sorted sector of an exchange-symmetric density
    (``symmetric``) the region is (0,) when the inversion of all three
    axes is such a reflection, else ().  Otherwise it is ``fold_axes``:
    one axis per independent reflection.
    """
    p = np.asarray(parities)
    # per sample: the orbitals' parities of each nonzero entry, one column per axis
    rows = [p[np.argwhere(c)] for cs in terms
            for c in np.reshape(cs, (-1,) + np.shape(cs)[-3:])]
    if symmetric:
        return (0,) if _invariant(rows, (0, 1, 2)) else ()
    return fold_axes(rows, 3)


def marginal_folds(kmats, parities):
    """The kept axes a marginal's entropy runs on the first half of.

    ``kmats`` holds a group's reduced density matrices (``density_matrix``),
    member s at index s, and ``parities`` the orbitals' parities.  An
    orbital product phi_a phi_c has parity p_a p_c, so the folds are
    ``fold_axes`` of those parities at the nonzero entries of every
    member's matrix.  They depend on nothing else, so each (parities,
    nonzero pattern) is folded once for the process (``_pattern_folds``)
    and every later report with the same two only looks its folds up.
    """
    nonzero = np.any(kmats, axis=0)
    return _pattern_folds(tuple(parities), nonzero.shape, nonzero.tobytes())


@functools.lru_cache(maxsize=256)
def _pattern_folds(parities, shape, nonzero):
    """``marginal_folds`` of one nonzero pattern, given as the bytes of its mask."""
    pp = np.outer(parities, parities).ravel()
    mask = np.frombuffer(nonzero, dtype=bool).reshape(shape)
    return fold_axes([pp[np.argwhere(mask)]], len(shape))


def _invariant(rows, axes):
    """True when each row array has one parity product over ``axes``."""
    return all(np.unique(r[:, axes].prod(axis=1)).size == 1 for r in rows)


def fold_axes(rows, naxes):
    """The lowest axis of each reflection that leaves a density invariant.

    ``rows`` holds arrays of parities, one row per nonzero entry of a
    tensor and one column per axis; reflecting a set of axes leaves the
    density invariant when the product of the parities over them is the
    same on all rows.  Those sets form a group, and the lowest axes of
    its elements are the pivots of a basis of it: one axis per
    independent reflection, each of which a rule mirror-symmetric about
    the centre can run on its first half.
    """
    return tuple(sorted({axes[0] for k in range(1, naxes + 1)
                         for axes in itertools.combinations(range(naxes), k)
                         if _invariant(rows, axes)}))


def trim_rule(table, weights, arity):
    """The rule without the end nodes that no entropy of ``arity`` needs.

    ``table`` holds the values of r orthonormal orbitals at the nodes of a
    rule with ``weights``.  A k-particle density (k = ``arity``) of any
    normalized state over them, or of any mixture of such states, is at
    most delta(x) = r^k B(x)^2 B_max^(2(k-1)) at a node with one
    coordinate x, by Cauchy-Schwarz on C (sum |C|^2 = 1): here
    B(x) = max_a |phi_a(x)| and B_max is the largest B at the nodes.
    While delta <= 1/e, -d ln d <= -delta ln delta, so leaving out the
    nodes D of the rule changes the entropy on the k-fold tensor rule by
    at most k W^(k-1) sum_{i in D} w_i (-delta_i ln delta_i), W = sum w.
    Returns the table and weights without the largest equal number of
    nodes at each end that keeps this bound at or below ``TRIM_BOUND``,
    and the bound; at least one node stays.  Slices of a mirror-symmetric
    rule stay mirror-symmetric, so ``slab_folds`` holds on them.
    """
    b2 = np.max(np.abs(table), axis=1) ** 2
    delta = table.shape[1] ** arity * b2 * b2.max() ** (arity - 1)
    # -delta ln delta per node, infinite where it would not bound -d ln d
    g = np.full(len(delta), np.inf)
    small = delta <= 1.0 / math.e
    d = delta[small]
    g[small] = -d * np.log(np.where(d > 0.0, d, 1.0))
    g *= weights
    n = len(weights)
    bounds = arity * np.sum(weights) ** (arity - 1) \
        * np.cumsum((g + g[::-1])[:(n - 1) // 2])
    m = int(np.searchsorted(bounds, TRIM_BOUND, side="right"))
    return table[m:n - m], weights[m:n - m], float(bounds[m - 1]) if m else 0.0


class Rule(namedtuple("Rule", "x table q w")):
    """An axis rule as ``tabulated_rules`` keeps it for k coordinates.

    The kept nodes x, the orbital table there, its ``orbital_products`` q
    and the weights w, each read-only.  ``plan(symmetric, folds,
    samples)`` is the s3 kernel's ``SlabPlan`` on the rule (``slab_plan``),
    built on its first call for each key and kept with the rule.
    """


# s3 kernel plans kept per rule: a rule meets at most five keys in one
# scan (an S/A curve's interior group and endpoints, a D curve each way)
_PLANS_PER_RULE = 16


@functools.lru_cache(maxsize=64)
def tabulated_rules(t, scheme):
    """``rule(k)``, the ``Rule`` of the orbital tables ``t`` on ``scheme``.

    ``rule(k)`` holds the nodes that ``trim_rule`` keeps for an entropy
    of k coordinates on the axis ``t.domain``.  Only ``rule(3)`` has a
    panel edge on each of ``t.node_planes``.  Each rule, and the table
    of each (panels, planes), is built once: a 1D and a 2D rule of equal
    panel counts (``--panels``) share one table, and a 3D rule keeps its
    own.  The memo is this function's ``lru_cache``, keyed by (t,
    scheme), so it carries the nodes per panel as well as every panel
    count, and each key's rules and tables last as long as it: a state's
    reports, and the reports of every state over the same unit-scale
    tables, such as the S and A cells of one table row, share them.
    Each rule keeps its s3 kernel plans beside it (``Rule.plan``, the
    last ``_PLANS_PER_RULE`` keys), so they are built once per (rule,
    symmetric, folds, samples) and ``cache_clear`` drops them with it.
    Every array of a ``Rule`` and of a plan is read-only.  No other code
    builds a rule for the orbital tables.
    """
    tables, rules = {}, {}

    def rule(k):
        if k not in rules:
            planes = t.node_planes if k == 3 else ()
            x, w = axis_rule(t.domain, scheme, k, planes)
            key = (scheme.panels_for(t.domain, k), planes)
            if key not in tables:
                tables[key] = _read_only(t(x))
            table, w = trim_rule(tables[key], w, k)[:2]
            x = x[(len(x) - len(w)) // 2:][:len(w)]  # the kept nodes, as trimmed
            rules[k] = Rule(x, table, _read_only(orbital_products(table)), w)
            rules[k].plan = functools.lru_cache(maxsize=_PLANS_PER_RULE)(
                lambda *key: slab_plan(table, w, *key))
        return rules[k]

    return rule


def _read_only(a):
    a.flags.writeable = False
    return a


def folded_weights(weights):
    """Weights of the first ceil(n/2) nodes, carrying their mirror nodes'."""
    n = len(weights)
    h = (n + 1) // 2
    w = weights[:h] + weights[::-1][:h]
    if n % 2:
        w[-1] = weights[h - 1]  # the middle node is its own mirror image
    return w


def entropy_grid(terms, rule, symmetric, folds):
    """-sum w_i w_j w_k d ln d for d = sum_t Psi_t^2, N = 3.

    Real only: ``rule`` is the 3D ``Rule`` of ``tabulated_rules``, whose
    table holds the real orbital factors at the nodes of one axis rule,
    used on all three axes, and every term is a real C, so each slab
    product is real and squared in place.  The terms may all carry a
    leading axis of S samples, such as the c1^2 samples of a scan; the
    kernel then returns s3 of every sample, (S,), from one pass over the
    slabs, and a float for terms without it.  Each sample's terms must
    have sum_t |C_t|^2 = 1, as every state's do, for the product bound
    below to hold.  The density is built and consumed one slab at a
    time, so no 3D array exists, and -d ln d is evaluated once per
    distinct value the state's symmetries leave, the region ``folds``
    (``slab_folds``; () for the whole grid) sets:

    - ``symmetric``: the density must be invariant under particle
      exchange (S/A states, their superpositions and mixtures).  Slab j
      of the middle coordinate covers the sorted sector i <= j <= k, one
      rectangle of rows i <= j and columns k >= j, with multiplicity 6
      inside, 3 on the row i = j and the column k = j, and 1 at their
      corner: n(n+1)(n+2)/6 nodes.  With folds (0,), when the inversion
      of all three axes leaves every term invariant, it maps slab j onto
      slab n-1-j, so only the first ceil(n/2) slabs run, carrying their
      mirror slabs' weights: half the sector.
    - otherwise, every axis in ``folds`` (the orbitals' parities about
      the centre of a mirror-symmetric rule tell which) keeps its first
      ceil(n/2) nodes with the mirror nodes' weights added.

    Where the density is too small to matter, the plan cuts each slab's
    rectangle further (``slab_plan``): by at most ``TRIM_BOUND`` nats in
    all, for any state over the orbitals.

    Everything that depends on the rule, the symmetry, the folds and the
    sample count alone is the plan, ``rule.plan(symmetric, folds, S)``,
    built once and kept with the rule, so a call computes only the
    state's values.  The slab contraction M is built once for all
    samples.  Each slab runs its samples in blocks of at most n^2 values,
    laid out as (rows, samples, cols), so that every product is a 2D
    matrix product and a plain state keeps a rows x cols slab.  The
    plan packs consecutive blocks into chunks of at most n^2 values, so
    that a single state's small slabs, from n values up, share their
    calls: each term's products of a chunk are squared at once, and
    d ln d (``d_ln_d``) runs once per chunk.  It is reduced to one value
    per slab and sample from each block's slice, with the sorted
    sector's multiplicities in the row and column weights, and the
    outer weights and the sign are applied once at the end.
    """
    samples = math.prod(np.shape(terms[0])[:-3])
    plan = rule.plan(symmetric, folds, samples)
    n, r = rule.table.shape
    slabs = []  # M_i[x, (s y)] of each term
    for c in terms:
        c = np.reshape(c, (samples,) + np.shape(c)[-3:])
        m = np.tensordot(plan.t0, c, axes=([1], [plan.contracted]))
        m = np.ascontiguousarray(m.transpose(0, 2, 1, 3))
        slabs.append(m.reshape(len(m), r, -1))
    vals = np.zeros((len(plan.outer), samples))
    corners = np.zeros_like(vals)  # -d ln d at i = j = k, symmetric only
    bufs = np.empty((3, n * n))  # d, the square of a further term, d ln d
    for size, pieces in plan.chunks:
        d, a, e = bufs[:, :size]
        for t, m in enumerate(slabs):
            out = a if t else d
            for lo, hi, i, _, _, m0, m1, rows, cols_t, _, _ in pieces:
                np.matmul((rows @ m[i, :, m0:m1]).reshape(-1, r), cols_t,
                          out=out[lo:hi].reshape(-1, cols_t.shape[1]))
            _abs2(out)
            if t:
                d += a
        d_ln_d(d, e)
        for lo, hi, i, s0, s1, _, _, _, _, vr, vc in pieces:
            piece = e[lo:hi].reshape(len(vr), -1, len(vc))
            vals[i, s0:s1] = (vr @ piece.reshape(len(vr), -1)).reshape(-1, len(vc)) @ vc
            if symmetric:
                corners[i, s0:s1] = piece[-1, :, 0]
    if symmetric:
        vals -= plan.corner * corners
    s3 = -(plan.outer @ vals)
    return s3 if np.ndim(terms[0]) == 4 else float(s3[0])


# The s3 kernel's layout on one rule (``slab_plan``): the table t0 of the
# slab contraction and the axis of C it contracts, each slab's outer
# weight, the corner weights (symmetric only), the chunks, the [start,
# stop) of each slab's kept rows and columns, and the cutoff on the
# product bound that kept them.
SlabPlan = namedtuple("SlabPlan", "t0 contracted outer corner chunks region cutoff")


def slab_plan(table, weights, symmetric, folds, samples):
    """The ``SlabPlan`` of ``entropy_grid`` on one rule for S samples.

    Each slab's region is cut to a rectangle of rows and columns by the
    product bound: by Cauchy-Schwarz on C (sum_t |C_t|^2 = 1), a density
    of any state or mixture over the orbitals is at most
    delta = P(x_i) P(x_j) P(x_k) at a node, P(x) = sum_a phi_a(x)^2.  A
    slab keeps the smallest rectangle, anchored at the diagonal when
    ``symmetric``, that holds every node where delta is at least a
    cutoff; a slab with no such node runs none.  While delta <= 1/e,
    -d ln d <= -delta ln delta, so the nodes left out change s3 by at
    most their sum of w (-delta ln delta), with the weights the kernel
    applies, sorted-sector multiplicities and folds included.  That sum
    factorizes over the three axes (-delta ln delta is a sum of three
    products), so it costs O(n) per cutoff, and the cutoff is the
    largest, found by bisection in ln, that keeps it at or below
    ``TRIM_BOUND``.  P is even about the centre of a mirror-symmetric
    rule, so the cut region is mirror-symmetric too and the folds hold.
    Oscillator rules keep about two thirds of their nodes; box position
    rules keep every node, and box momentum rules all but a few hundred
    far-tail corner nodes, which left every box s3 tried unchanged to the
    bit.

    Each kept rectangle runs its samples in blocks of at most n^2
    values, packed in order into chunks of at most n^2 (``_chunks``); a
    piece of a chunk is (start, stop, slab, first and last sample, their
    columns of M, row table, transposed column table, row and column
    weights).  Every array of the plan is read-only.
    """
    n, r = table.shape
    p = np.sum(table * table, axis=1)
    if symmetric:
        t0, contracted = table, 2
        outer = _read_only(folded_weights(weights)) if folds else weights
        corner = _read_only(0.5 * weights[:len(outer), None] ** 2)
        region, cutoff = _largest_cut(_sector_cut(p, weights, outer))
        slabs = []
        for j, (r0, r1, c0, c1) in enumerate(region):
            if r0 < r1:
                # rows i < j weigh 2 w_i, columns k > j 3 w_k; on the diagonal
                # 1 and 1.5, so the corner counts 1.5 times and half comes off
                vr, vc = 2.0 * weights[r0:r1], 3.0 * weights[c0:c1]
                vr[-1], vc[0] = weights[j], 1.5 * weights[j]
                slabs.append((j, table[r0:r1], table[c0:c1].T, vr, vc))
    else:
        half = _read_only(folded_weights(weights))
        (t0, outer), (t1, w1), (t2, w2) = (
            (table[:len(half)], half) if ax in folds else (table, weights)
            for ax in range(3))
        contracted, corner = 1, None
        region, cutoff = _largest_cut(_grid_cut(p, outer, w1, w2))
        slabs = [(i, t1[r0:r1], t2[c0:c1].T, w1[r0:r1], w2[c0:c1])
                 for i, (r0, r1, c0, c1) in enumerate(region) if r0 < r1]
    pieces = [(len(vr) * len(blk) * len(vc), i, blk, rows, cols_t,
               _read_only(vr), _read_only(vc))
              for i, rows, cols_t, vr, vc in slabs
              for step in [max(1, n * n // (len(vr) * len(vc)))]
              for s0 in range(0, samples, step)
              for blk in [range(s0, min(s0 + step, samples))]]
    chunks = tuple((run[-1][1], tuple(
        (lo, hi, i, blk.start, blk.stop, blk.start * r, blk.stop * r, rows, cols_t, vr, vc)
        for lo, hi, (_, i, blk, rows, cols_t, vr, vc) in run))
        for run in _chunks(pieces, n * n))
    return SlabPlan(t0, contracted, outer, corner, chunks, _read_only(region), cutoff)


def _largest_cut(cut):
    """(region, cutoff) of the largest cutoff whose bound is <= ``TRIM_BOUND``.

    ``cut(eps)`` gives (bound, region) at cutoff eps; a larger cutoff
    drops more nodes.  Bisection in ln eps over (e^-700, 1/e], from the
    uncut region at eps = 0, to 4e-5 in ln eps.
    """
    lo, hi, best = -700.0, -1.0, (cut(0.0)[1], 0.0)
    for _ in range(24):
        mid = 0.5 * (lo + hi)
        bound, region = cut(math.exp(mid))
        if bound <= TRIM_BOUND:
            lo, best = mid, (region, math.exp(mid))
        else:
            hi = mid
    return best


def _sector_cut(p, weights, outer):
    """``cut(eps)`` of the sorted sector's slabs j < len(outer).

    Slab j keeps rows [lo, j] and columns [j, hi]: row i has a node with
    delta >= eps if P_i >= eps / (P_j max_{k>=j} P_k), column k if
    P_k >= eps / (P_j max_{i<=j} P_i).  The bound sums the rows below
    lo over all columns, then the columns above hi over the kept rows.
    """
    m = len(outer)
    j = np.arange(m)
    pl = _xlogx(p)
    pj, lj, wj = p[:m], pl[:m], weights[:m]
    a, al = _prefix(2.0 * weights * p), _prefix(2.0 * weights * pl)
    b, bl = _suffix(3.0 * weights * p), _suffix(3.0 * weights * pl)
    # slab j's whole column range, and its diagonal row
    bc, blc = 1.5 * wj * pj + b[j + 1], 1.5 * wj * lj + bl[j + 1]
    ad, ald = wj * pj + a[j], wj * lj + al[j]
    up = np.maximum.accumulate(p)  # max over i' <= i
    down = np.maximum.accumulate(p[::-1])[::-1]  # max over k' >= k

    def cut(eps):
        lo = np.searchsorted(up, _over(eps, pj * down[:m]))
        keep = lo <= j
        lo = np.minimum(lo, j)
        hi = np.maximum(np.searchsorted(-down, -_over(eps, pj * up[:m]), side="right"),
                        j + 1)
        ai, ali = ad - a[lo], ald - al[lo]
        s = np.where(keep, a[lo] * bc + ai * b[hi], ad * bc)
        t = np.where(keep, al[lo] * bc + a[lo] * blc + ali * b[hi] + ai * bl[hi],
                     ald * bc + ad * blc)
        region = np.where(keep[:, None], np.stack([lo, j + 1, j, hi], axis=1), 0)
        return -(outer @ (lj * s + pj * t)), region

    return cut


def _grid_cut(p, outer, w1, w2):
    """``cut(eps)`` of slabs i < len(outer) over rows w1 and columns w2.

    Slab i keeps the rows j with P_j >= eps / (P_i max P_k) and the
    columns k with P_k >= eps / (P_i max P_j), first to last.  The bound
    sums the rows outside over all columns, then the columns outside
    over the kept rows.
    """
    pl = _xlogx(p)
    p0, l0 = p[:len(outer)], pl[:len(outer)]
    axes = []
    for w in (w1, w2):
        q, ql = p[:len(w)], pl[:len(w)]
        axes.append((q.max(), np.maximum.accumulate(q),
                     -np.maximum.accumulate(q[::-1])[::-1],
                     _prefix(w * q), _prefix(w * ql), _suffix(w * q), _suffix(w * ql)))

    def span(eps, ax, other):
        c = _over(eps, p0 * other[0])
        return np.searchsorted(ax[1], c), np.searchsorted(ax[2], -c, side="right")

    def cut(eps):
        (r0, r1), (c0, c1) = span(eps, *axes), span(eps, *axes[::-1])
        keep = (r0 < r1) & (c0 < c1)
        r0, r1, c0, c1 = (np.where(keep, v, 0) for v in (r0, r1, c0, c1))
        (*_, a, al, sa, sal), (*_, b, bl, sb, sbl) = axes
        aout, alout = a[r0] + sa[r1], al[r0] + sal[r1]
        ain, alin = a[r1] - a[r0], al[r1] - al[r0]
        bout, blout = b[c0] + sb[c1], bl[c0] + sbl[c1]
        s = aout * b[-1] + ain * bout
        t = alout * b[-1] + aout * bl[-1] + alin * bout + ain * blout
        return -(outer @ (l0 * s + p0 * t)), np.stack([r0, r1, c0, c1], axis=1)

    return cut


def _xlogx(p):
    """p ln p, 0 where p is 0."""
    return p * np.log(np.where(p > 0.0, p, 1.0))


def _prefix(v):
    """Sums of the first i entries, i = 0..len(v)."""
    return np.concatenate(([0.0], np.cumsum(v)))


def _suffix(v):
    """Sums of the entries from i on, i = 0..len(v), each summed from the end."""
    return np.concatenate((np.cumsum(v[::-1])[::-1], [0.0]))


def _over(eps, den):
    """eps / den, infinite where den is 0."""
    return np.divide(eps, den, out=np.full(len(den), np.inf), where=den > 0.0)


def _chunks(pieces, cap):
    """Runs of consecutive pieces of at most ``cap`` values together.

    Each piece holds at most ``cap`` values, its size first; each run
    lists (start, stop, piece), the piece's slice of the run's values.
    """
    run, used = [], 0
    for piece in pieces:
        if used + piece[0] > cap:
            yield run
            run, used = [], 0
        run.append((used, used + piece[0], piece))
        used += piece[0]
    if run:
        yield run


def orbital_products(table):
    """q(x) = phi(x) (x) phi(x) of a real orbital table, (..., r * r)."""
    return (table[..., :, None] * table[..., None, :]).reshape(table.shape[:-1] + (-1,))


def density_matrix(terms, keep):
    """Reduced density matrices of the kept coordinates, one per sample.

    Every real term carries a leading axis of S samples, (S, r, .., r).
    D_s = sum_t tr_rest(C_st C_st), D[a1.., c1..], is laid out as
    K_s[(a1 c1), (a2 c2), ...], so that the marginal density is K_s
    contracted with q(x) = ``orbital_products`` on each kept axis.
    Returns (S, r^2, ..), one r^2 axis per kept coordinate.
    """
    k = len(keep)
    d = 0.0
    for c in terms:
        s, r = c.shape[:2]
        x = np.moveaxis(c, [a + 1 for a in keep], range(1, k + 1)).reshape(s, r**k, -1)
        d = d + x @ x.transpose(0, 2, 1)
    order = [0] + [1 + i for pair in zip(range(k), range(k, 2 * k)) for i in pair]
    return d.reshape((s,) + (r,) * (2 * k)).transpose(order).reshape((s,) + (r * r,) * k)


def reduced_density(terms, keep, products):
    """Marginal density of the kept coordinates at broadcastable points.

    ``density_matrix`` of the terms contracted with q(x) on each kept
    axis; ``products`` holds ``orbital_products`` of the tables at the
    kept coordinates.
    """
    kmat = density_matrix([c[None] for c in terms], keep)[0]
    rr = len(kmat)
    vals = products[0] @ kmat.reshape(rr, -1)
    for q in products[1:]:
        vals = np.einsum("...pq,...p->...q",
                         vals.reshape(vals.shape[:-1] + (rr, -1)), q)
    return vals[..., 0]


def marginal_tables(state, scheme, k, *keeps):
    """The ``Rule`` of the unit tables for k coordinates, then each keep's density.

    The rule is ``tabulated_rules`` of ``state.tables.unit_scale`` on
    ``scheme``, the default ``QuadratureScheme`` where it is None.  The
    density of one kept coordinate there is rho = Q K, of two
    Gamma = Q K Q^T, K their ``density_matrix`` and Q the rule's q,
    as every entropy of a report contracts it: the unit-scale table of
    ``densities.reduce_numerical`` and of the validation integrals.
    """
    scheme = scheme or QuadratureScheme()
    rule = tabulated_rules(state.tables.unit_scale[0], scheme)(k)
    q, stacked = rule.q, [c[None] for c in state.terms]
    kmats = (density_matrix(stacked, keep)[0] for keep in keeps)
    return (rule,) + tuple(q @ m if m.ndim == 1 else q @ m @ q.T for m in kmats)


def build(config):
    """The normalized wavefunction of a configuration: the configuration itself."""
    return config


def eval_density(wf, point):
    """|Psi|^2 at a single N-coordinate point."""
    return float(wf.density(*point))


def exchange_symmetry_check(wf, point):
    """(Psi(point), Psi(point with first two coordinates swapped)).

    Equal for symmetric states, negated for antisymmetric ones, and
    generally unrelated for distinguishable products.
    """
    swapped = (point[1], point[0]) + tuple(point[2:])
    return complex(wf.amplitude(*point)), complex(wf.amplitude(*swapped))
