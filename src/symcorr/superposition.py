"""Two-configuration superposition states and mixing-coefficient scans.

A superposition c1*Psi_A + c2*Psi_B (real coefficients, c1^2 + c2^2 = 1)
adds quantum-interference cross terms 2 c1 c2 Re(Psi_A* Psi_B) to the
density.  The ``interference`` flag drops those cross terms, which models
a classical mixture of the two configuration densities (that mixture is
normalized by construction, so no renormalization is needed; with
interference on and non-orthogonal components the density is divided by
1 + 2 c1 c2 Re<A|B>).

Both components are written as real coefficient tensors on the union
of their orbitals, so a state is one or two real terms whose densities
add, and densities and reductions take the same path as a single
configuration.  A component's global phase drops out; what stays is
the phase of B relative to A, a power of i in momentum space and 1 in
position space (``orbitals.orbital_phase``).  With interference and a
relative phase of +-1 the state is the one tensor
(c1 C_A +- c2 C_B) / sqrt(norm); otherwise it is the pair c1 C_A,
c2 C_B.  The integration domain is set by the union of orbitals, so it
does not depend on which component is named first.  ``scan_coefficient``
computes the whole curve in one ``compute_reports`` call: s1, s2 and s3
of every sample take the orbital tables evaluated once per rule, and
s3 of the samples with one nonzero pattern of C, all but the
endpoints, comes from one pass over the slabs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .information import compute_reports
from .orbitals import orbital_phase
from .quadrature import QuadratureScheme
from .reference_tables import ROW_KEYS
from .wavefunction import (
    Configuration,
    OrbitalTables,
    coefficient_tensor,
    density_grid,
    orbital_products,
    reduced_density,
)

__all__ = [
    "SuperpositionSpec",
    "SuperposedWaveFunction",
    "ScanResult",
    "build_superposition",
    "scan_coefficient",
    "DEFAULT_C1SQ_GRID",
]

# resolves the extremum near c1^2 = 0.5 at plot resolution
DEFAULT_C1SQ_GRID = tuple(round(0.05 * i, 2) for i in range(21))


@dataclass(frozen=True)
class SuperpositionSpec:
    """Two 3-particle configurations, a mixing coefficient, the interference flag."""

    state_a: Configuration
    state_b: Configuration
    c1: float
    interference: bool = True

    def __post_init__(self):
        if not -1.0 <= self.c1 <= 1.0:
            raise ValueError("c1 must lie in [-1, 1]")
        a, b = self.state_a, self.state_b
        if a.nparticles != 3 or b.nparticles != 3:
            raise ValueError("superposition scans are for 3-particle states")
        if a.params != b.params or a.space != b.space or a.symmetry != b.symmetry:
            raise ValueError(
                "superposed configurations must share model, space and "
                "symmetry class")

    @property
    def c2(self):
        return math.sqrt(max(0.0, 1.0 - self.c1 * self.c1))


class _CachedMixture:
    """c1*Psi_A + c2*Psi_B as coefficient tensors over the union orbitals.

    rel = P_B conj(P_A), for P the product of the orbitals' phases of a
    configuration, is +-1 or +-i.  With interference and rel = +-1,
    ``terms`` is the single tensor (c1 C_A + rel c2 C_B) / sqrt(norm).
    Otherwise it is the pair (c1 C_A, c2 C_B), without a zero tensor:
    without interference, and also for rel = +-i, whose cross terms are
    imaginary and so vanish from every density.  ``overlap`` is
    <Psi_A|Psi_B>, exact from the two tensors: an entry of C_A and one
    of C_B over the same orbitals carry the same phase product, so the
    tensors share an entry only where rel = 1, and the overlap and
    norm - 1 are 0 otherwise.  Pointwise ``amplitude`` and ``density``
    expand the two components directly, independent of the coefficient
    tensors.
    """

    def __init__(self, spec):
        self.spec = spec
        a, b = spec.state_a, spec.state_b
        self.c1 = float(spec.c1)
        self.c2 = float(spec.c2)
        self.interference = bool(spec.interference)
        orbitals = tuple(sorted(set(a.ns) | set(b.ns)))
        self.tables = OrbitalTables(a.params, a.space, orbitals)
        ca = coefficient_tensor(a, self.tables.orbitals)
        cb = coefficient_tensor(b, self.tables.orbitals)
        self.overlap = float(np.vdot(ca, cb))
        self.norm_sq = 1.0 + 2.0 * self.c1 * self.c2 * self.overlap \
            if self.interference else 1.0
        if self.norm_sq <= 0:
            raise ValueError("superposition has vanishing norm")
        pa, pb = (math.prod(orbital_phase(s.params, n, s.space) for n in s.ns)
                  for s in (a, b))
        rel = pb * np.conj(pa)
        if self.interference and rel.imag == 0:
            terms = ((self.c1 * ca + rel.real * self.c2 * cb) / math.sqrt(self.norm_sq),)
        else:
            terms = (self.c1 * ca, self.c2 * cb)
        self.terms = tuple(c for c in terms if c.any())

    @property
    def nparticles(self):
        return self.spec.state_a.nparticles

    @property
    def space(self):
        return self.spec.state_a.space

    @property
    def symmetry(self):
        return self.spec.state_a.symmetry

    @property
    def label(self):
        s = self.spec
        tag = "" if self.interference else ", no interference"
        return (f"superposition c1^2={self.c1**2:.3f} of ns={s.state_a.ns} "
                f"and ns={s.state_b.ns} ({self.symmetry}{tag})")

    def amplitude(self, *coords):
        if not self.interference:
            raise ValueError("an interference-free mixture has no amplitude")
        a, b = self.spec.state_a, self.spec.state_b
        return (self.c1 * a.amplitude(*coords)
                + self.c2 * b.amplitude(*coords)) / math.sqrt(self.norm_sq)

    def density(self, *coords):
        a, b = self.spec.state_a, self.spec.state_b
        out = self.c1**2 * a.density(*coords) + self.c2**2 * b.density(*coords)
        if self.interference:
            cross = np.real(np.conj(a.amplitude(*coords)) * b.amplitude(*coords))
            out = (out + 2.0 * self.c1 * self.c2 * cross) / self.norm_sq
        return out

    def density_tensor(self, axes):
        """|Psi|^2 (or the mixture density) on a tensor grid."""
        return density_grid(self.terms, [self.tables(ax) for ax in axes])

    def marginal_values(self, keep, coords):
        """Reduced density of the kept coordinates at broadcastable points."""
        return reduced_density(self.terms, keep,
                               [orbital_products(self.tables(c)) for c in coords])


SuperposedWaveFunction = _CachedMixture


def build_superposition(spec):
    return _CachedMixture(spec)


@dataclass(frozen=True)
class ScanResult:
    """One information report per sample of the mixing coefficient c1^2."""

    samples: tuple  # of (c1sq, InformationReport)
    spec: SuperpositionSpec
    scheme: QuadratureScheme

    CSV_HEADER = ",".join(("c1sq",) + ROW_KEYS)

    def to_csv(self):
        lines = [self.CSV_HEADER]
        for c1sq, rep in self.samples:
            row = rep.as_dict()
            values = [c1sq] + [row[k] for k in ROW_KEYS]
            lines.append(",".join(f"{v:.12g}" for v in values))
        return "\n".join(lines) + "\n"

    def argmax_higher(self):
        """c1^2 sample with the largest higher-order measure I^3.

        This is a grid sample: it locates the continuous maximum only to
        within one grid step, and need not be the sample nearest to it.
        """
        return max(self.samples, key=lambda s: s[1].i_higher)[0]

    def argmin_higher(self):
        """c1^2 sample with the smallest higher-order measure I^3.

        This is a grid sample: it locates the continuous minimum only to
        within one grid step, and need not be the sample nearest to it.
        """
        return min(self.samples, key=lambda s: s[1].i_higher)[0]


def scan_coefficient(spec_template, c1sq_samples=DEFAULT_C1SQ_GRID,
                     scheme=None):
    """Scan c1^2 over the given samples, one InformationReport each.

    Every sample builds its coefficient tensor from the two components,
    and all samples are reported together (``compute_reports``), so the
    orbital table of each rule is evaluated once for the whole curve,
    whatever the number of samples.  A failing sample fails the scan:
    a numerical failure raises ``NonConvergenceError``.  No coarse error
    run: each report's ``error_estimate`` is None.
    """
    scheme = scheme or QuadratureScheme()
    samples = sorted(float(c) for c in c1sq_samples)
    if len(samples) < 3:
        raise ValueError("a coefficient scan needs at least 3 samples")
    if not all(0.0 <= c <= 1.0 for c in samples) or len(set(samples)) != len(samples):
        raise ValueError("c1^2 samples must be distinct values in [0, 1]")

    a, b = spec_template.state_a, spec_template.state_b
    mixes = [_CachedMixture(SuperpositionSpec(a, b, math.sqrt(c1sq),
                                              spec_template.interference))
             for c1sq in samples]
    reports = compute_reports(mixes, scheme, with_error=False)
    return ScanResult(samples=tuple(zip(samples, reports)),
                      spec=spec_template, scheme=scheme)
