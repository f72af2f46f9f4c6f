import numpy as np
import pytest
from hypothesis import settings

from cmc_hyp import build_grid, make_params

# CI runs with --hypothesis-profile=ci, so a property failure there replays
# locally with the same examples; local runs keep the default profile
settings.register_profile("ci", derandomize=True)


@pytest.fixture(scope="session")
def grid16():
    return build_grid(16)


@pytest.fixture(scope="session")
def grid24():
    return build_grid(24)


@pytest.fixture(scope="session")
def params2():
    return make_params(2.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
