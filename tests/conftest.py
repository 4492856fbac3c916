import numpy as np
import pytest

from zetasums.datasets import CACHE_ENV, default_dataset
from zetasums.special import FunctionId
from zetasums.sumrules import sigma_series_derivative


@pytest.fixture(scope="session", autouse=True)
def hermetic_cache(tmp_path_factory):
    """One fresh dataset cache for the session: the tests never read or write
    the user's cache, and always build with the current kernel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(CACHE_ENV, str(tmp_path_factory.mktemp("cache")))
        yield


@pytest.fixture(scope="session")
def ds_xi():
    return default_dataset(FunctionId.XI)


@pytest.fixture(scope="session")
def ds_tplus():
    return default_dataset(FunctionId.T_PLUS)


@pytest.fixture(scope="session")
def ds_tminus():
    return default_dataset(FunctionId.T_MINUS)


@pytest.fixture(scope="session")
def ds_l4():
    return default_dataset(FunctionId.L4_COMPLETED)


@pytest.fixture(scope="session")
def sig_der():
    """Derivative-route sigma series to order 52 for all four functions."""
    return {
        f: sigma_series_derivative(f, 52)
        for f in (
            FunctionId.XI,
            FunctionId.T_PLUS_TILDE,
            FunctionId.T_MINUS_TILDE,
            FunctionId.L4_COMPLETED,
        )
    }


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260826)
