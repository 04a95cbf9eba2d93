"""Seeded random states: no fold of the s3 kernel or of a marginal moves an entropy.

Each state is S, A or D, of two or three particles, with one or two
random real terms of random sparsity over one to five of the first
eight orbitals, in either model and either space.  S and A terms are
exchange-symmetrized; a term that symmetrizes to zero, such as an A
term over fewer orbitals than particles, is dropped, since normalizing
it would inflate its round-off into garbage.  The rules have 18 and 27
nodes per axis, so every check runs on the whole grid as well.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from symcorr import information, wavefunction
from symcorr.information import compute_reports
from symcorr.orbitals import MOMENTUM, POSITION, ModelParams
from symcorr.quadrature import QuadratureScheme, entropy_from_values
from symcorr.wavefunction import (
    ANTISYMMETRIC,
    DISTINGUISHABLE,
    SYMMETRIC,
    OrbitalTables,
    density_grid,
    entropy_grid,
    slab_folds,
)

# every panel count at 2 or 3 panels of 9 nodes; no tolerance, since a
# rule this coarse gives I_pair < 0 for many states, and both sides of
# each check share the rule
SCHEMES = [QuadratureScheme(*(panels,) * 4, nodes_per_panel=9, target_abs_tol=math.inf)
           for panels in (2, 3)]
MODELS = (ModelParams.box(1.0), ModelParams.oscillator(1.0))
SYMMETRIES = (SYMMETRIC, ANTISYMMETRIC, DISTINGUISHABLE)


def _symmetrized(c, symmetry):
    """c summed over the exchanges of its axes, signed for A; D as it is."""
    if symmetry == DISTINGUISHABLE:
        return c
    total = np.zeros_like(c)
    for perm in itertools.permutations(range(c.ndim)):
        odd = sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
        total += (-1.0 if odd and symmetry == ANTISYMMETRIC else 1.0) * c.transpose(perm)
    # entries that cancel exactly in exact arithmetic are exactly 0
    total[np.abs(total) <= 1e-12 * np.abs(c).max()] = 0.0
    return total


def _random_states(seed, count):
    rng = np.random.default_rng(seed)
    states = []
    while len(states) < count:
        params = MODELS[rng.integers(2)]
        space = (POSITION, MOMENTUM)[rng.integers(2)]
        symmetry = SYMMETRIES[rng.integers(3)]
        nparticles = int(rng.integers(2, 4))
        first = 1 if params.kind == "box" else 0
        picked = rng.choice(8, size=rng.integers(1, 6), replace=False)
        orbitals = tuple(sorted(int(n) + first for n in picked))
        shape = (len(orbitals),) * nparticles
        terms = []
        for _ in range(rng.integers(1, 3)):
            raw = rng.standard_normal(shape) * (rng.random(shape) < rng.random())
            if raw.any():
                c = _symmetrized(raw, symmetry)
                if c.any():
                    terms.append(c)
        if not terms:
            continue
        norm = np.sqrt(sum(np.sum(c * c) for c in terms))
        states.append(SimpleNamespace(
            terms=tuple(c / norm for c in terms), symmetry=symmetry, space=space,
            nparticles=nparticles, tables=OrbitalTables(params, space, orbitals),
            label=f"{params.kind} {space} {symmetry} {orbitals} seed {seed}"))
    return states


STATES = _random_states(2016, 300)


def _rule3(st, scheme):
    return wavefunction.tabulated_rules(st.tables.unit_scale[0], scheme)(3)


@pytest.mark.parametrize("scheme", SCHEMES, ids=["18", "27"])
def test_folded_s3_kernel_matches_the_full_grid(scheme):
    checked = 0
    for st in STATES:
        if st.nparticles != 3:
            continue
        rule = _rule3(st, scheme)
        _, table, _, w = rule
        symmetric = st.symmetry != DISTINGUISHABLE
        folds = slab_folds(st.terms, symmetric, st.tables.parities)
        got = entropy_grid(st.terms, rule, symmetric, folds)
        want = entropy_from_values(density_grid(st.terms, [table] * 3), [w] * 3)
        assert abs(got - want) <= 1e-13, st.label
        checked += 1
    assert checked > 100


@pytest.mark.filterwarnings("ignore:pair mutual information clamped")
@pytest.mark.parametrize("scheme", SCHEMES, ids=["18", "27"])
def test_folds_change_no_entropy(scheme, monkeypatch, fresh_folds):
    folded = compute_reports(STATES, scheme, with_error=False)
    monkeypatch.setattr(wavefunction, "fold_axes", lambda rows, naxes: ())
    wavefunction._pattern_folds.cache_clear()  # folds are memoised
    monkeypatch.setattr(information, "slab_folds", lambda *args: ())
    whole = compute_reports(STATES, scheme, with_error=False)
    for st, a, b in zip(STATES, folded, whole):
        for key in ("s1", "s2", "s3"):
            x, y = getattr(a.entropies, key), getattr(b.entropies, key)
            assert (x is None) == (y is None) and abs((x or 0.0) - (y or 0.0)) <= 1e-13, \
                (st.label, key)
