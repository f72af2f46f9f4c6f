import numpy as np
import pytest
from hypothesis import settings

from cmc_hyp import build_grid, make_params

# CI runs with --hypothesis-profile=ci, so a property failure there replays
# locally with the same examples; local runs keep the default profile
settings.register_profile("ci", derandomize=True)

# phi designs whose blocked samples must keep the raw walk's bits: a bump,
# a constant, a bare coordinate and two bumps
BLOCK_DESIGNS = ("exp(-hypdist(0.1, -0.05, 1.1)^2)", "2.5", "p1",
                 "exp(-hypdist(0.05, 0.15, 1.25)^2)"
                 " + 0.2*exp(-hypdist(-0.2, 0, 0.95)^2)")


def selfadjoint_defect(system, rng):
    """Worst asymmetry of the system's modal form on random normalized
    vectors."""
    worst = 0.0
    for _ in range(10):
        a = rng.standard_normal(system.size)
        b = rng.standard_normal(system.size)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        Aa, Ab = system.apply_modal(np.stack([a, b], axis=1)).T
        worst = max(worst, abs(a @ Ab - b @ Aa))
    return worst


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
