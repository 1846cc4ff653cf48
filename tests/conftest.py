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


@pytest.fixture
def bench_calls(monkeypatch):
    """Counts of the benchmark's learner trainings and learner file loads."""
    from dyntarget import bench

    calls = dict.fromkeys(("train_dp_sweep", "train_bc", "load_qtable", "load_model"), 0)
    for name in calls:
        def counted(*args, _name=name, _real=getattr(bench, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(bench, name, counted)
    return calls
