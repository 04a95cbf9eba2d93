"""Entropy and mutual-information analysis of few-particle model systems.

Builds symmetric (permanent), antisymmetric (Slater determinant) and
distinguishable (Hartree product) wavefunctions for two or three
non-interacting spinless particles in a 1D box or harmonic trap, in
position and momentum space, and computes Shannon entropies together
with the full pair / three-variable / higher-order mutual-information
hierarchy, including superposition-of-states scans.
"""

from .orbitals import (
    MOMENTUM,
    POSITION,
    ModelParams,
    eval_box_momentum,
    eval_box_position,
    eval_ho,
    eval_orbital,
)
from .quadrature import (
    IntegralResult,
    Interval,
    NonConvergenceError,
    QuadratureScheme,
    RealLine,
    integrate,
)
from .wavefunction import (
    ANTISYMMETRIC,
    DISTINGUISHABLE,
    SYMMETRIC,
    Configuration,
    WaveFunction,
    build,
    eval_density,
    exchange_symmetry_check,
    parse_symmetry,
)
from .densities import (
    ReducedDensity,
    export_density_grid,
    reduce_numerical,
    reduce_to_one,
    reduce_to_pair,
)
from .information import (
    ENTROPIC_BOUND,
    EntropyTriple,
    InformationReport,
    compute_report,
    compute_reports,
    cumulant3,
    entropy,
    entropy_sum_check,
    mutual_information_higher_direct,
    mutual_information_pair_direct,
)
from .superposition import (
    DEFAULT_C1SQ_GRID,
    ScanResult,
    SuperposedWaveFunction,
    SuperpositionSpec,
    build_superposition,
    scan_coefficient,
)

__version__ = "0.1.0"
