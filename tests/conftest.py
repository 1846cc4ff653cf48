import numpy as np
import pytest
from hypothesis import settings

from dyntarget import EnvStrip, SensorGeometry

# long-running property tests share one profile; no deadline because the
# first call often pays a one-off index-build cost
settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def geom_small():
    """Footprint radius 2, lookahead 5: big enough to exercise every
    code path, small enough for brute force."""
    return SensorGeometry.from_pixels(2, 5)


@pytest.fixture
def make_uniform():
    def build(height, length, cls):
        return EnvStrip(np.full((height, length), int(cls), dtype=np.uint8))

    return build
