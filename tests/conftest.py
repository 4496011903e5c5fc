import numpy as np
import pytest

from oracles import CENTER_DENSITY
from spacinglab import (
    EnsembleSpec,
    SamplerState,
    default_window,
    gap_curves,
    integrate_sigma,
    rescale_localize,
    sample_tridiagonal,
    universal_cdf,
)


@pytest.fixture(scope="session")
def traj():
    return integrate_sigma()


@pytest.fixture(scope="session")
def curves(traj):
    return {beta: gap_curves(traj, beta, 10.0) for beta in (1, 2, 4)}


@pytest.fixture(scope="session")
def cdfs(curves):
    return {beta: universal_cdf(curves[beta], 100) for beta in (1, 2, 4)}


@pytest.fixture(scope="session")
def cdf2_m50(curves):
    return universal_cdf(curves[2], 50)


def gue_window(n, seed=0, stream=0, delta_exponent=-0.6):
    """One sampled GUE spectrum localized in the default center window."""
    spec = EnsembleSpec(beta=2, n=n)
    values = sample_tridiagonal(spec, SamplerState(seed=seed, stream=stream))
    window = default_window(n, psi_a=CENTER_DENSITY, delta_exponent=delta_exponent)
    return rescale_localize(values, window)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
