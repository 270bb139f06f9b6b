"""The engine's observation window ≡ a deque over ``[history; ts]``.

The engine derives every window it hands out — the chooser's history,
the drift detector's window, the retrain hook's history, the prewarm
forecaster's window and the fleet scheduler's histories — from the served
timestamps and the pre-run history tail, with no per-arrival bookkeeping.
The specification is the obvious one: a ``deque(maxlen=history_tail + 1)``
seeded with ``history`` and appended with every arrival. These tests pin
the derived window to it exactly, in both drive loops and for a history
shorter than, equal to, and longer than ``history_tail``.
"""

from collections import deque

import numpy as np
import pytest

from repro.batching.config import BatchConfig
from repro.core.types import Decision
from repro.serverless.platform import ServerlessPlatform
from repro.serving import ServingEngine, WarmPoolConfig
from repro.telemetry.metrics import MetricsRegistry, use_registry

pytestmark = pytest.mark.serving

CONFIG = BatchConfig(memory_mb=1024.0, batch_size=4, timeout=0.05)
TAIL = 50


class RecordingChooser:
    """Keeps a copy of every history the engine passes; never reconfigures."""

    def __init__(self):
        self.histories = []

    def choose(self, history, slo):
        self.histories.append(np.array(history, copy=True))
        return Decision(config=CONFIG, decision_time=0.0)


def arrivals(n=600, rate=200.0, seed=3):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1.0 / rate, size=n))


def pre_run_history(length, seed=4):
    rng = np.random.default_rng(seed)
    return -np.cumsum(rng.exponential(1.0 / 200.0, size=length))[::-1]


def deque_spec(history, ts, now, tail=TAIL):
    """The window a per-arrival deque holds when a decision fires at ``now``."""
    window = deque(history, maxlen=tail + 1)
    window.extend(ts[ts < now])
    return np.diff(np.asarray(window, dtype=float))


def run(history, stepwise):
    chooser = RecordingChooser()
    engine = ServingEngine(
        CONFIG, platform=ServerlessPlatform(seed=0), chooser=chooser,
        pool=WarmPoolConfig(keep_alive_s=5.0, max_containers=16),
        decision_interval_s=0.02, history_tail=TAIL, min_history=1,
    )
    ts = arrivals()
    if stepwise:  # telemetry on forces the stepwise loop
        with use_registry(MetricsRegistry()):
            log = engine.run(ts, history=history)
    else:
        log = engine.run(ts, history=history)
    return ts, log, chooser.histories


@pytest.mark.parametrize("stepwise", [False, True], ids=["fast", "stepwise"])
@pytest.mark.parametrize(
    "length", [0, 10, TAIL, TAIL + 1, 3 * TAIL],
    ids=["none", "shorter", "equal", "full-window", "longer"],
)
def test_chooser_history_matches_deque_spec(length, stepwise):
    history = pre_run_history(length)
    ts, log, seen = run(history if length else None, stepwise)
    times = np.array([d.time for d in log.decisions])
    assert not np.isin(times, ts).any()  # no arrival/decision ties to order
    assert len(seen) == len(log.decisions) > 100
    # The run crosses from "history tail + first arrivals" to "all served".
    assert np.sum(ts < times[0]) < TAIL + 1 < np.sum(ts < times[-1])
    for got, now in zip(seen, times):
        want = deque_spec(history, ts, now)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("length", [0, 7, TAIL + 1, 4 * TAIL])
def test_recent_ts_matches_deque_spec_for_every_k(length):
    """The helper behind the drift/prewarm readers, at every arrival
    count and window length (including lengths past the cap)."""
    engine = ServingEngine(CONFIG, history_tail=TAIL)
    history = pre_run_history(length)
    ts = arrivals(n=3 * TAIL)
    st = engine._init_state(ts, "serving", "trace",
                            history if length else None, False)
    window = deque(history, maxlen=TAIL + 1)
    for ptr in range(ts.size + 1):
        st.arrival_ptr = ptr
        for k in (1, 2, 9, TAIL, TAIL + 1, 2 * TAIL):
            want = np.asarray(window, dtype=float)[-k:]
            assert np.array_equal(engine._recent_ts(st, k), want)
        assert np.array_equal(engine._recent_ts(st),
                              np.asarray(window, dtype=float))
        if ptr < ts.size:
            window.append(ts[ptr])
