import numpy as np
import pytest

from causalbox import SystemParams, build_spectrum, profile_spectrum


@pytest.fixture(scope="session")
def spectrum_lam5():
    """Default-tolerance spectrum for the workhorse Lambda = 5 box."""
    return build_spectrum(5.0, tol=1e-10)


@pytest.fixture(scope="session")
def profile_lam5():
    """The Lambda = 5 spectrum with the sup-norm cut profiles take."""
    return profile_spectrum(5.0)


@pytest.fixture(scope="session")
def params_s02():
    return SystemParams(s=0.2, lambda_factor=5.0)


@pytest.fixture(scope="session")
def params_s01():
    return SystemParams(s=0.1, lambda_factor=5.0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20160212)
