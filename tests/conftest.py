import numpy as np
import pytest
from hypothesis import settings

from gammashock.config import default_config

# Every run draws the same examples, and none is timed or stored.
settings.register_profile("reproducible", derandomize=True, database=None, deadline=None)
settings.load_profile("reproducible")


@pytest.fixture(scope="session")
def cfg():
    return default_config()


@pytest.fixture(scope="session")
def system(cfg):
    return cfg.system


@pytest.fixture(scope="session")
def costs(cfg):
    return cfg.costs


@pytest.fixture(scope="session")
def half_levels(system):
    """u = 0.5 * H, a moderately worn state for the reference system."""
    return np.asarray([0.5 * c.soft_threshold for c in system.components])
