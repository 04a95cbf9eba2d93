"""Momentum states on real terms and real tables, against complex references.

A state's terms are real coefficient tensors over the orbitals' real
factors: a configuration drops its global phase, and a superposition
keeps only the phase of its second component relative to the first
(``superposition._CachedMixture``).  The references here share nothing
with that representation: |Psi|^2 is the pointwise ``density`` of the
complex orbitals (``eval_orbital``), and rho, Gamma and the cumulant
moments contract the coefficient tensors of the components, with no
phase taken out, with those orbitals.
"""

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
    SuperpositionSpec,
    build,
    build_superposition,
    cumulant3,
)
from symcorr import information, wavefunction
from symcorr.cli import main
from symcorr.orbitals import MOMENTUM, eval_orbital
from symcorr.quadrature import axis_rule
from symcorr.wavefunction import (
    coefficient_tensor,
    density_grid,
    orbital_products,
    reduced_density,
)

# 21 nodes per axis on every rule
SCHEME = QuadratureScheme(panels=3, panels_3d=3, line_panels=3,
                          line_panels_3d=3, nodes_per_panel=7)
RTOL = 1e-12


def _states():
    box, ho = ModelParams.box(1.0), ModelParams.oscillator(1.0)
    cases = [(f"{p.kind}-{sym[0]}{''.join(map(str, ns))}",
              build(Configuration(p, ns, sym, MOMENTUM)))
             for p, n3, n2 in ((box, (1, 2, 3), (1, 2)), (ho, (0, 1, 2), (0, 3)))
             for sym in (SYMMETRIC, ANTISYMMETRIC, DISTINGUISHABLE)
             for ns in (n3, n2)]
    cases.append(("box-s112", build(Configuration(box, (1, 1, 2), SYMMETRIC, MOMENTUM))))
    # phase products -i and 1 (box A), i and 1 (oscillator D): the two
    # components become the two real terms; equal products (box S, -i and
    # -i; oscillator A, i and i) keep one real term that interferes; -i and
    # i (box S over (1, 2, 5)) keep one that interferes with its sign flipped
    for params, sym, ns_a, ns_b, suffix in (
            (box, ANTISYMMETRIC, (1, 2, 3), (4, 5, 6), ""),
            (ho, DISTINGUISHABLE, (0, 1, 2), (3, 4, 5), ""),
            (box, SYMMETRIC, (1, 2, 3), (1, 2, 7), ""),
            (ho, ANTISYMMETRIC, (0, 1, 2), (0, 1, 6), ""),
            (box, SYMMETRIC, (1, 2, 3), (1, 2, 5), "-s125")):
        for interference in (True, False):
            spec = SuperpositionSpec(Configuration(params, ns_a, sym, MOMENTUM),
                                     Configuration(params, ns_b, sym, MOMENTUM),
                                     math.sqrt(0.4), interference)
            tag = "superposition" if interference else "mixture"
            cases.append((f"{params.kind}-{sym[0]}-{tag}{suffix}",
                          build_superposition(spec)))
    return cases


STATES = _states()
IDS = [c[0] for c in STATES]


def _reference_terms(st):
    """The state's C tensors over the complex orbitals, densities adding."""
    orbitals = st.tables.orbitals
    if not hasattr(st, "spec"):
        return [coefficient_tensor(st, orbitals)]
    ca = coefficient_tensor(st.spec.state_a, orbitals)
    cb = coefficient_tensor(st.spec.state_b, orbitals)
    if st.interference:
        return [(st.c1 * ca + st.c2 * cb) / math.sqrt(st.norm_sq)]
    return [st.c1 * ca, st.c2 * cb]


def _orbitals(st, x):
    """Complex orbital values at x, orbital index last."""
    t = st.tables
    return np.stack([eval_orbital(t.params, n, t.space, x) for n in t.orbitals], axis=-1)


def _keeps(st):
    n = st.nparticles
    if st.symmetry == DISTINGUISHABLE:
        return [(k,) for k in range(n)], [(0, 1), (0, 2), (1, 2)][:1 if n == 2 else 3]
    return [(0,)], [(0, 1)]


def _reference_marginal(st, keep, phis):
    """sum_t sum conj(C_t) C_t conj(phi) phi over the complex orbitals."""
    total = 0.0
    for c in _reference_terms(st):
        ck = np.moveaxis(c, keep, range(len(keep)))
        rest = list(range(len(keep), c.ndim))
        d = np.tensordot(np.conj(ck), ck, (rest, rest))
        if len(keep) == 1:
            val = np.einsum("ac,ia,ic->i", d, np.conj(phis[0]), phis[0])
        else:
            val = np.einsum("abcd,ia,jb,ic,jd->ij", d, np.conj(phis[0]),
                            np.conj(phis[1]), phis[0], phis[1])
        total = total + val.real
    return total


def _close(got, want):
    scale = np.max(np.abs(want))
    assert scale > 0
    assert np.max(np.abs(got - want)) <= RTOL * scale


@pytest.mark.parametrize("name,st", STATES, ids=IDS)
def test_terms_and_tables_are_real(name, st):
    x, _ = axis_rule(st.tables.domain, SCHEME, 1)
    assert not np.iscomplexobj(st.tables(x))
    assert all(not np.iscomplexobj(c) and np.any(c) for c in st.terms)
    if not hasattr(st, "spec"):
        # one configuration: its phase product is the same on every entry
        assert len(st.terms) == 1


@pytest.mark.parametrize("name,st", STATES, ids=IDS)
def test_density_matches_pointwise_complex_density(name, st):
    n = st.nparticles
    x, _ = axis_rule(st.tables.domain, SCHEME, n)
    got = density_grid(st.terms, [st.tables(x)] * n)
    want = st.density(*np.meshgrid(*[x] * n, indexing="ij"))
    _close(got, want)


@pytest.mark.parametrize("name,st", STATES, ids=IDS)
def test_reduced_densities_match_complex_contraction(name, st):
    ones, pairs = _keeps(st)
    for keeps in (ones, pairs):
        k = len(keeps[0])
        x, _ = axis_rule(st.tables.domain, SCHEME, k)
        q = orbital_products(st.tables(x))
        phi = _orbitals(st, x)
        products = [q] if k == 1 else [q[:, None], q[None, :]]
        for keep in keeps:
            want = _reference_marginal(st, keep, [phi] * k)
            _close(reduced_density(st.terms, keep, products), want)
            # the pointwise marginal takes the same real path
            coords = [x] if k == 1 else [x[:, None], x[None, :]]
            _close(st.marginal_values(keep, coords), want)


THREE = [c for c in STATES if c[1].nparticles == 3]


@pytest.mark.parametrize("name,st", THREE, ids=[c[0] for c in THREE])
def test_cumulant3_matches_complex_moments(name, st):
    x, w = axis_rule(st.tables.domain, SCHEME, 3)
    ones, pairs = _keeps(st)

    def cumulant(t, x, conj, terms):
        xmat = (conj(t).T * (w * x)) @ t
        eye = np.eye(len(xmat))

        def moment(keeps):
            return float(np.mean([
                sum(np.einsum("abc,ad,be,cf,def->", conj(c),
                              *[xmat if k in keep else eye for k in range(3)],
                              c).real
                    for c in terms)
                for keep in keeps]))

        m1, m2, m3 = (moment(ks) for ks in (ones, pairs, [(0, 1, 2)]))
        return m3 - 3.0 * m2 * m1 + 2.0 * m1**3, abs(m3) + 3.0 * abs(m2 * m1) \
            + 2.0 * abs(m1) ** 3

    phi, terms = _orbitals(st, x), _reference_terms(st)
    want = cumulant(phi, x, np.conj, terms)[0]
    # momentum densities are inversion symmetric, so the cumulant is
    # round-off: compare on the scale of the moments' summands, the same
    # sums over absolute values
    scale = cumulant(np.abs(phi), np.abs(x), np.abs,
                     [np.abs(c) for c in terms])[1]
    assert abs(cumulant3(st, SCHEME) - want) <= RTOL * scale


@pytest.fixture
def real_only(monkeypatch):
    """Fail on any complex array at the s3 slab products or at the reduced
    densities of a group (``wavefunction.marginal_entropies``)."""
    calls = {"slabs": 0, "reduced": 0}
    square, reduce = wavefunction._abs2, information.marginal_entropies

    def checked_square(a):
        assert not np.iscomplexobj(a), "complex slab product"
        calls["slabs"] += 1
        return square(a)

    def checked_reduce(forms, rule):
        assert not any(np.iscomplexobj(matrices) for matrices, _ in forms), \
            "complex density matrix"
        assert not np.iscomplexobj(rule.q), "complex table"
        calls["reduced"] += 1
        return reduce(forms, rule)

    monkeypatch.setattr(wavefunction, "_abs2", checked_square)
    monkeypatch.setattr(information, "marginal_entropies", checked_reduce)
    return calls


@pytest.mark.parametrize("argv", [
    ["report", "--model", "box", "--space", "momentum", "--n", "1,2,3", "--sym", "a"],
    ["report", "--model", "box", "--space", "momentum", "--n", "1,1,2", "--sym", "s"],
    ["report", "--model", "ho", "--space", "momentum", "--n", "0,1,2", "--sym", "s"],
    ["scan-superposition", "--space", "momentum", "--sym", "a",
     "--c1sq-grid", "0.3,0.5,0.7"],
    ["scan-superposition", "--model", "ho", "--space", "momentum", "--n", "0,1,2",
     "--n-second", "3,4,5", "--sym", "d", "--c1sq-grid", "0.3,0.5,0.7"],
], ids=["box-a", "box-s112", "ho-s", "box-scan-a", "ho-scan-d"])
def test_momentum_runs_take_no_complex_array(argv, real_only, capsys):
    assert main(argv) == 0
    capsys.readouterr()
    assert real_only["slabs"] > 0 and real_only["reduced"] > 0
