import resource
import sys

import numpy as np
import pytest

from symcorr import ModelParams, QuadratureScheme, wavefunction
from symcorr.quadrature import gauss_panels


def pytest_terminal_summary(terminalreporter):
    """Report the suite's peak resident set size after the test summary."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    mib = peak / 2**20 if sys.platform == "darwin" else peak / 2**10  # bytes / KiB
    terminalreporter.write_line(f"peak RSS of the test process: {mib:.0f} MiB")


@pytest.fixture
def fresh_rules():
    """An empty ``tabulated_rules`` memo, emptied again after the test.

    Rules are memoised for the process, so a test that patches what a
    rule is built from must neither find rules built before it nor leave
    its own behind.
    """
    wavefunction.tabulated_rules.cache_clear()
    yield
    wavefunction.tabulated_rules.cache_clear()


@pytest.fixture
def fresh_folds():
    """An empty ``marginal_folds`` memo, emptied again after the test.

    Marginal folds are memoised for the process by (parities, nonzero
    pattern), so a test that patches ``fold_axes`` must neither find
    folds made before it nor leave its own behind.
    """
    wavefunction._pattern_folds.cache_clear()
    yield
    wavefunction._pattern_folds.cache_clear()


@pytest.fixture(scope="session")
def box():
    return ModelParams.box(1.0)


@pytest.fixture(scope="session")
def ho():
    return ModelParams.oscillator(1.0)


@pytest.fixture(scope="session")
def scheme():
    return QuadratureScheme()


def dense_rule(a, b, panel_width=0.5, nodes=10):
    """High-resolution composite GL rule, independent of the engine schemes."""
    panels = max(8, int(np.ceil((b - a) / panel_width)))
    return gauss_panels(a, b, panels, nodes)


def fourier_orbital(params, n, p, rule=None):
    """Momentum orbital from its defining integral (oracle path).

    (1/sqrt(2 pi)) * integral e^{-ipx} psi_n(x) dx over the position support.
    """
    from symcorr.orbitals import POSITION, eval_orbital

    if params.kind == "box":
        x, w = rule or dense_rule(0.0, params.L, panel_width=params.L / 64)
    else:
        half = (np.sqrt(2 * n + 1) + 10.0) / np.sqrt(params.omega)
        x, w = rule or dense_rule(-half, half, panel_width=0.25 / np.sqrt(params.omega))
    psi = eval_orbital(params, n, POSITION, x)
    p = np.atleast_1d(np.asarray(p, dtype=float))
    kern = np.exp(-1j * np.outer(p, x))
    return (kern @ (w * psi)) / np.sqrt(2.0 * np.pi)
