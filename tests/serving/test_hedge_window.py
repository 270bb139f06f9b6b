"""The sorted hedge window ≡ ``np.percentile`` over the deque it replaced.

:class:`~repro.serving.degrade.HedgeWindow` keeps the last ``window``
batch durations twice — in arrival order for eviction and sorted for the
percentile — and reproduces NumPy's ``linear`` percentile arithmetic
instead of partitioning the window on every primary dispatch. These tests
pin it to ``np.percentile`` on arbitrary streams, run the engine with
hedging armed from the first full window against the spec data plane
(which still calls ``np.percentile`` on the window), and restore a hedging
run from a snapshot taken after the window evicted.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import (
    DegradeConfig,
    HedgeConfig,
    ServingEngine,
    SimulatedCrash,
    assert_serving_logs_equal,
    read_snapshot,
)
from repro.serving.degrade import HedgeWindow
from repro.serving.log import PRIMARY
from tests.serving._spec import SpecEngine
from tests.serving.test_data_plane_equivalence import (
    CONFIG,
    POOL,
    assert_logs_equal,
    outages,
    platform,
    trace,
)

pytestmark = [pytest.mark.serving, pytest.mark.outage]

#: Durations drawn from a small pool, so streams carry many duplicates, or
#: spread over six decades.
durations = st.one_of(
    st.sampled_from([0.0, 1e-3, 0.05, 0.05, 0.25, 1.0, 7.5]),
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
)
#: (0, 100]: 100 itself, values near 0, and anything between.
percentiles = st.one_of(
    st.sampled_from([100.0, 99.0, 95.0, 90.0, 50.0, 1e-9, 5e-324]),
    st.floats(min_value=0.0, max_value=100.0, exclude_min=True),
)


def filled(size: int, values) -> HedgeWindow:
    window = HedgeWindow(size)
    for value in values:
        window.append(value)
    return window


@settings(max_examples=300, deadline=None)
@given(size=st.integers(1, 200),
       values=st.lists(durations, min_size=1, max_size=450),
       q=percentiles)
def test_percentile_matches_numpy(size, values, q):
    window = filled(size, values)
    kept = values[-size:]
    assert list(window) == kept and len(window) == len(kept)
    assert window.percentile(q) == np.percentile(kept, q)
    # The executable spec hands the window object itself to NumPy.
    assert np.percentile(window, q) == np.percentile(kept, q)


@settings(max_examples=100, deadline=None)
@given(size=st.integers(1, 40),
       values=st.lists(durations, min_size=1, max_size=120),
       q=percentiles)
def test_every_append_across_the_eviction_boundary(size, values, q):
    window = HedgeWindow(size)
    for i, value in enumerate(values):
        window.append(value)
        kept = values[max(0, i + 1 - size):i + 1]
        assert window.percentile(q) == np.percentile(kept, q)


@pytest.mark.parametrize("size", [1, 2, 16])
def test_armed_on_the_first_full_window_matches_spec(size):
    """``min_observations == window``: every hedge delay is read off a
    full window, the first one right before the first eviction."""
    hedge = HedgeConfig(percentile=50.0, multiplier=1.0,
                        min_observations=size, window=size)
    ts = trace()

    def run(cls):
        return cls(CONFIG, pool=POOL, platform=platform(faults=0.35),
                   outages=outages(straggler=True),
                   degrade=DegradeConfig(hedge=hedge)).run(
            ts, record_trace=True)

    new, spec = run(ServingEngine), run(SpecEngine)
    assert new.hedges > 0
    assert_logs_equal(new, spec)


def test_restore_after_the_window_evicted(tmp_path):
    hedge = HedgeConfig(percentile=90.0, multiplier=1.2,
                        min_observations=8, window=16)
    ts = trace(n=3000, horizon=20.0)

    def engine():
        return ServingEngine(CONFIG, pool=POOL, platform=platform(faults=0.2),
                             outages=outages(window=True, crash=True,
                                             straggler=True),
                             degrade=DegradeConfig(hedge=hedge))

    clean = engine().run(ts, record_trace=True)
    assert clean.hedges > 0
    path = tmp_path / "hedge.ckpt"
    with pytest.raises(SimulatedCrash):
        engine().run(ts, record_trace=True, checkpoint_path=path,
                     checkpoint_every=64, crash_after_events=clean.n_events // 2)
    state = read_snapshot(path)["state"]
    window = state.hedge_obs
    primaries = int((state.batches.arrays()[7] == PRIMARY).sum())
    # The snapshot holds a full window that has already evicted, and its
    # arrival order survives the pickle.
    assert len(window) == hedge.window and primaries > 2 * hedge.window
    assert sorted(window) == window._sorted
    restored = engine().restore(path)
    assert_serving_logs_equal(clean, restored)
