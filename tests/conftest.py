import contextlib

import numpy as np
import pytest

from qteleport import phases


def feasible_spectrum(rng: np.random.Generator, n: int, cap: float) -> np.ndarray:
    """Random spectrum with p_max <= cap, blending toward uniform when needed."""
    p = rng.random(n)
    p /= p.sum()
    if p.max() > cap:
        t = (p.max() - cap) / (p.max() - 1.0 / n)
        p = (1 - t) * p + t / n
    return p


@contextlib.contextmanager
def search_settings(restarts: int, max_nfev: int):
    """Run the phase search with restarts and max_nfev in place of its constants
    SEARCH_RESTARTS and SEARCH_MAX_NFEV, restored on exit: a test looping over
    many spectra bounds the search's cost this way."""
    saved = phases.SEARCH_RESTARTS, phases.SEARCH_MAX_NFEV
    phases.SEARCH_RESTARTS, phases.SEARCH_MAX_NFEV = restarts, max_nfev
    try:
        yield
    finally:
        phases.SEARCH_RESTARTS, phases.SEARCH_MAX_NFEV = saved


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


# Phase matrix for the uniform 1/6 x 6 spectrum at d = 3: the partition solution
# solve_general returns, moved along the direction that maximises
# (lambda_max - 1) / max(max|C - I|, 1 - lambda_min) over the angles theta[1:, 1:],
# by a step scaled to max|C - I| = 9.5e-11.  Entrywise its phase Gram C is within
# CONDITION_TOL of I, but its eigenvalues run from 1 - 9.5e-11 to 1 + 1.9e-10
STRETCHED_SPECTRUM = ["1/6"] * 6
STRETCHED_THETA = [
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [2.0943951023931953, 2.094395102132334, 4.1887902050909895, 4.188790204878718,
     1.27428520301335e-10, 6.283185307120031],
    [4.1887902047863905, 4.1887902047421575, 2.094395102565665, 2.0943951025058003,
     6.2831853068881465, 6.283185307097922],
]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)
