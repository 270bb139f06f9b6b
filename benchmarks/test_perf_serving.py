"""Microbenchmarks of the live serving loop → ``BENCH_serving.json``.

Three measurements anchor the serving-side speed pass (PR 7), plus a
prewarm-overhead guard (PR 8) and a continuous-batching guard (PR 9):

* **Engine** — the reference trace (60k Poisson arrivals through a finite
  keep-alive pool) on the optimized engine (fast drive loop, heap pool,
  memoized service/cost, chunked batch columns) vs the pre-speed-pass
  behaviour (stepwise loop, linear-scan :class:`ReferenceWarmPool`, no
  memoization). Acceptance bar: **≥ 3× events/sec**, outputs bit-identical.
* **Pool** — raw acquire/release churn on the heap-backed
  :class:`WarmPool` vs the linear-scan reference, identical op sequences,
  identical leases/stats asserted first.
* **Fleet** — an 8-endpoint fleet on the lane-key-heap loop
  (``FleetEngine._drive_lanes``) vs the scan-every-lane specification
  (``ScanFleetEngine``), logs bit-identical.
* **Prewarm** — the same reference trace with the predictive prewarmer
  ticking at 4 Hz vs prewarm-off. Acceptance bar: **≤ 50% overhead** —
  the forecaster and pool provisioning must not give back the speed pass.
* **Generation** — continuous batching (token-streaming, every
  prefill/decode iteration a heap event) vs the request-level engine on
  the same arrivals. Acceptance bar: the *event-processing* rate stays
  **≥ 0.15×** the request-level engine's — a collapse means the genstep
  path fell off the fast drive loop.
* **Outage** — a run passing disabled outage/degradation configs (PR 10)
  vs one passing none. Acceptance bar: bit-identical outputs and **≤ 10%
  overhead** — the defaults-off fault layer must stay free. The full
  stack enabled must take **≤ 3×** the disabled run's time.
* **Decision** — one DeepBAT ``choose()`` (window → surrogate forward over
  the candidate grid → SLO-aware search) on the graph-free ``infer`` path
  vs the Tensor-based inference spec in ``tests/core/_spec.py``, on a
  small in-test surrogate. Acceptance bar: bit-identical predictions and
  decisions, and **≥ 2×** faster.

Every "before" implementation is an executable specification kept in
``tests/`` (``ReferenceWarmPool`` and ``ScanFleetEngine`` in
``tests/serving/_spec.py``, the Tensor inference spec in
``tests/core/_spec.py``) or the engine's own stepwise ``_step`` loop, so
the comparison stays honest as the code evolves.

Run via ``make bench-serving`` (or ``make bench-perf`` for all perf
benchmarks); results land in ``BENCH_serving.json`` at the repo root.
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.batching.config import BatchConfig
from repro.serverless.platform import ServerlessPlatform
from repro.serving.engine import ServingEngine
from repro.serving.fleet import EndpointSpec, FleetEngine
from repro.serving.pool import WarmPool, WarmPoolConfig
from tests.serving._spec import ReferenceWarmPool, ScanFleetEngine

RESULT_PATH = Path(__file__).parent.parent / "BENCH_serving.json"

pytestmark = pytest.mark.perf

REFERENCE_CONFIG = BatchConfig(memory_mb=2048.0, batch_size=8, timeout=0.05)
REFERENCE_POOL = WarmPoolConfig(keep_alive_s=30.0, max_containers=64)


def _reference_trace(n: int = 60_000, rate: float = 2000.0,
                     seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1.0 / rate, size=n))


def _best_of_pair(before_fn, after_fn, repeats: int = 3):
    """Best wall-clock for each side over interleaved runs.

    Interleaving (before, after, before, after, …) and collecting garbage
    outside the timed region keeps both sides exposed to the same ambient
    noise — this file runs after other benchmarks inside one pytest
    process, so allocator and GC state are anything but pristine.
    """
    best = {"before": (float("inf"), None), "after": (float("inf"), None)}
    was_enabled = gc.isenabled()
    try:
        for _ in range(repeats):
            for side, fn in (("before", before_fn), ("after", after_fn)):
                gc.collect()
                gc.disable()
                t0 = time.perf_counter()
                result = fn()
                elapsed = time.perf_counter() - t0
                if was_enabled:
                    gc.enable()
                if elapsed < best[side][0]:
                    best[side] = (elapsed, result)
    finally:
        if was_enabled:
            gc.enable()
    return best["before"], best["after"]


def _merge_results(section: str, payload: dict) -> None:
    data = {}
    if RESULT_PATH.exists():
        data = json.loads(RESULT_PATH.read_text())
    data[section] = payload
    data["cpu_count"] = os.cpu_count()
    RESULT_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _assert_logs_identical(a, b) -> None:
    np.testing.assert_array_equal(a.latencies, b.latencies)
    np.testing.assert_array_equal(a.shed, b.shed)
    np.testing.assert_array_equal(a.failed, b.failed)
    np.testing.assert_array_equal(a.dispatch_times, b.dispatch_times)
    np.testing.assert_array_equal(a.start_times, b.start_times)
    np.testing.assert_array_equal(a.batch_sizes, b.batch_sizes)
    np.testing.assert_array_equal(a.batch_costs, b.batch_costs)
    np.testing.assert_array_equal(a.batch_cold, b.batch_cold)
    np.testing.assert_array_equal(a.batch_memory, b.batch_memory)
    np.testing.assert_array_equal(a.batch_retries, b.batch_retries)
    assert a.n_events == b.n_events
    assert (a.cold_starts, a.warm_starts, a.expired_containers,
            a.evicted_containers) == (b.cold_starts, b.warm_starts,
                                      b.expired_containers,
                                      b.evicted_containers)


class _NoCache(dict):
    """A cache that never hits and never stores (the pre-memoization path)."""

    def get(self, key, default=None):  # noqa: ARG002 - dict signature
        return None

    def __setitem__(self, key, value):
        pass


class _ReferenceEngine(ServingEngine):
    """Pre-speed-pass behaviour: stepwise event loop, linear-scan pool,
    and a fresh service-time/cost computation for every batch."""

    def _make_pool(self) -> WarmPool:
        return ReferenceWarmPool(self.pool_config, self.platform.cold_start)

    def _drive(self, st, ctx):
        ctx.service_cache = _NoCache()
        ctx.cost_cache = _NoCache()
        while self._step(st, ctx):
            st.events_processed += 1
        return self._finish(st)


def test_engine_throughput_floor():
    """Reference trace: optimized engine ≥ 3× events/sec over the
    pre-speed-pass path, outputs bit-identical."""
    ts = _reference_trace()

    def run(engine_cls):
        return engine_cls(
            REFERENCE_CONFIG, platform=ServerlessPlatform(),
            pool=REFERENCE_POOL,
        ).run(ts)

    (before_s, before), (after_s, after) = _best_of_pair(
        lambda: run(_ReferenceEngine), lambda: run(ServingEngine)
    )

    # Equivalence first — a fast wrong answer is no speedup.
    _assert_logs_identical(before, after)

    speedup = before_s / after_s
    payload = {
        "n_requests": int(ts.size),
        "n_events": int(after.n_events),
        "before_seconds": round(before_s, 4),
        "after_seconds": round(after_s, 4),
        "speedup": round(speedup, 2),
        "events_per_sec_before": round(after.n_events / before_s),
        "events_per_sec_after": round(after.n_events / after_s),
        "requests_per_sec_before": round(ts.size / before_s),
        "requests_per_sec_after": round(ts.size / after_s),
    }
    _merge_results("engine", payload)
    print(f"\nengine: {json.dumps(payload)}")
    assert speedup >= 3.0, (
        f"serving fast path only {speedup:.2f}x over the reference trace"
    )


def test_prewarm_overhead_bounded():
    """PR 8 guard: the predictive prewarmer must not give back the PR 7
    speed pass. A prewarm-on run (empirical forecaster, 4 Hz ticks) pays
    for periodic forecasts and pool provisioning on top of the fast drive
    loop; that overhead has to stay a fraction of the baseline, not a
    multiple of it."""
    from repro.serving.config import PrewarmConfig
    from repro.serving.prewarm import EmpiricalRateForecaster

    ts = _reference_trace()
    prewarm = PrewarmConfig(forecaster=EmpiricalRateForecaster(),
                            interval_s=0.25, headroom=2.0, window=256)

    def run(cfg):
        return ServingEngine(
            REFERENCE_CONFIG, platform=ServerlessPlatform(),
            pool=REFERENCE_POOL, prewarm=cfg,
        ).run(ts)

    (off_s, off), (on_s, on) = _best_of_pair(
        lambda: run(None), lambda: run(prewarm)
    )

    assert on.prewarm_ticks > 0  # the policy genuinely ran
    overhead = on_s / off_s - 1.0
    payload = {
        "n_requests": int(ts.size),
        "interval_s": prewarm.interval_s,
        "ticks": int(on.prewarm_ticks),
        "prewarmed_containers": int(on.prewarmed_containers),
        "off_seconds": round(off_s, 4),
        "on_seconds": round(on_s, 4),
        "overhead_pct": round(100.0 * overhead, 1),
        "requests_per_sec_off": round(ts.size / off_s),
        "requests_per_sec_on": round(ts.size / on_s),
    }
    _merge_results("prewarm", payload)
    print(f"\nprewarm: {json.dumps(payload)}")
    assert overhead <= 0.5, (
        f"prewarming costs {100 * overhead:.0f}% of engine throughput"
    )


def test_generation_throughput_floor():
    """PR 9 guard: continuous batching must stay in the fast lane.

    Token streaming multiplies the event count — every prefill/decode
    iteration is a heap event — so requests/sec inevitably drops, but the
    *event-processing* rate must remain within a constant factor of the
    request-level engine's. A collapse here would mean the genstep path
    fell off the fast drive loop (e.g. per-iteration allocation or a
    missed memoization), which is invisible to correctness tests."""
    from repro.serving.config import GenerationConfig

    ts = _reference_trace(n=20_000)
    generation = GenerationConfig(dispatcher="continuous")

    def run(gen):
        return ServingEngine(
            REFERENCE_CONFIG, platform=ServerlessPlatform(),
            pool=REFERENCE_POOL, generation=gen,
        ).run(ts)

    (plain_s, plain), (gen_s, gen) = _best_of_pair(
        lambda: run(None), lambda: run(generation)
    )

    assert gen.gen_decode_iterations > 0  # token streaming genuinely ran
    plain_eps = plain.n_events / plain_s
    gen_eps = gen.n_events / gen_s
    ratio = gen_eps / plain_eps
    payload = {
        "n_requests": int(ts.size),
        "plain_events": int(plain.n_events),
        "gen_events": int(gen.n_events),
        "gen_sessions": int(gen.gen_sessions),
        "gen_tokens": int(gen.gen_tokens),
        "plain_seconds": round(plain_s, 4),
        "gen_seconds": round(gen_s, 4),
        "events_per_sec_plain": round(plain_eps),
        "events_per_sec_gen": round(gen_eps),
        "events_per_sec_ratio": round(ratio, 2),
    }
    _merge_results("generation", payload)
    print(f"\ngeneration: {json.dumps(payload)}")
    assert ratio >= 0.15, (
        f"continuous-batching loop processes events at only {ratio:.2f}x "
        "the request-level engine's rate"
    )


def test_outage_disabled_overhead_bounded():
    """The fault layer costs nothing when off and bounded time when on.

    Disabled outage/degradation configs are normalized to ``None`` at
    construction, so a run that passes them must stay on the exact same
    data plane as one that never heard of the feature — bit-identical
    outputs and at most measurement noise in wall-clock. A regression here
    means a hot-path branch started keying off non-``None`` state.

    A full-stack run (outage window, crashes, stragglers, cold-start
    backoff, hedging) is timed against the disabled run, best of five
    interleaved pairs: it must take at most 3× as long."""
    from repro.serverless.faults import RetryPolicy
    from repro.serverless.outages import (
        CrashHazard, OutageModel, OutageWindow, StragglerModel,
    )
    from repro.serving.degrade import DegradeConfig, HedgeConfig

    ts = _reference_trace()

    def run(outages, degrade):
        return ServingEngine(
            REFERENCE_CONFIG, platform=ServerlessPlatform(),
            pool=REFERENCE_POOL, outages=outages, degrade=degrade,
        ).run(ts)

    (off_s, off), (disabled_s, disabled) = _best_of_pair(
        lambda: run(None, None),
        lambda: run(OutageModel(), DegradeConfig()),
    )
    _assert_logs_identical(off, disabled)

    horizon = float(ts[-1])
    enabled = OutageModel(
        windows=(OutageWindow(horizon / 3, horizon / 2),),
        crash=CrashHazard(rate=0.002, outage_rate=0.02),
        straggler=StragglerModel(rate=0.1, slowdown=3.0),
        seed=5,
    )
    stack = DegradeConfig(
        backoff=RetryPolicy(max_attempts=3, base_backoff_s=0.05,
                            max_total_delay_s=2.0),
        hedge=HedgeConfig(percentile=95.0, multiplier=1.5),
    )
    (paired_disabled_s, _), (enabled_s, full) = _best_of_pair(
        lambda: run(OutageModel(), DegradeConfig()),
        lambda: run(enabled, stack),
        repeats=5,
    )
    assert full.hedges > 0 and full.crashed_containers > 0
    enabled_over_disabled = enabled_s / paired_disabled_s

    overhead = disabled_s / off_s - 1.0
    payload = {
        "n_requests": int(ts.size),
        "off_seconds": round(off_s, 4),
        "disabled_seconds": round(disabled_s, 4),
        "disabled_overhead_pct": round(100.0 * overhead, 1),
        "requests_per_sec_off": round(ts.size / off_s),
        "requests_per_sec_disabled": round(ts.size / disabled_s),
        "enabled_seconds": round(enabled_s, 4),
        "enabled_over_disabled": round(enabled_over_disabled, 2),
        "enabled_events_per_sec": round(full.n_events / enabled_s),
        "enabled_crashes": int(full.crashed_containers),
        "enabled_hedges": int(full.hedges),
        "enabled_cold_retries": int(full.cold_retries),
    }
    _merge_results("outage", payload)
    print(f"\noutage: {json.dumps(payload)}")
    assert overhead <= 0.1, (
        f"disabled outage/degrade configs cost {100 * overhead:.0f}% of "
        "engine throughput — the defaults-off path is no longer free"
    )
    assert enabled_over_disabled <= 3.0, (
        f"the full outage/degradation stack makes a run "
        f"{enabled_over_disabled:.2f}x slower than the disabled one "
        "(gate: 3x)"
    )


def test_pool_churn_throughput():
    """Raw warm-pool churn: heap pool vs linear-scan reference on one
    deterministic acquire/release sequence."""
    n_ops = 60_000
    tiers = (512.0, 1024.0, 2048.0, 4096.0)
    cfg = WarmPoolConfig(keep_alive_s=5.0, max_containers=256)
    rng = np.random.default_rng(11)
    ops = rng.random(n_ops).tolist()
    gaps = (rng.random(n_ops) * 0.02).tolist()

    def churn(pool_cls):
        pool = pool_cls(cfg)
        leases: list[int] = []
        trail = []
        now = 0.0
        for op, gap in zip(ops, gaps):
            now += gap
            if op < 0.6 or not leases:
                lease = pool.acquire(now, tiers[int(op * 1e4) % len(tiers)])
                if lease is not None:
                    leases.append(lease.container_id)
                    trail.append(lease.container_id)
                else:
                    trail.append(-1)
            else:
                cid = leases.pop()
                pool.release(cid, now)
        s = pool.stats
        return trail, (s.cold_starts, s.warm_starts, s.expired, s.evicted)

    (before_s, before), (after_s, after) = _best_of_pair(
        lambda: churn(ReferenceWarmPool), lambda: churn(WarmPool)
    )
    assert before == after  # identical leases and stats

    payload = {
        "n_ops": n_ops,
        "max_containers": cfg.max_containers,
        "before_seconds": round(before_s, 4),
        "after_seconds": round(after_s, 4),
        "speedup": round(before_s / after_s, 2),
        "ops_per_sec_before": round(n_ops / before_s),
        "ops_per_sec_after": round(n_ops / after_s),
    }
    _merge_results("pool", payload)
    print(f"\npool: {json.dumps(payload)}")


def test_fleet_throughput():
    """8-endpoint fleet: lane-key heap vs scan-every-lane, bit-identical."""
    n_lanes = 8
    endpoints = [
        EndpointSpec(
            name=f"ep{i}",
            config=BatchConfig(memory_mb=1024.0 * (1 + i % 3),
                               batch_size=4, timeout=0.04),
            slo=0.2,
            share=1.0 / n_lanes,
            pool=WarmPoolConfig(keep_alive_s=20.0, max_containers=16),
        )
        for i in range(n_lanes)
    ]
    ts = _reference_trace(n=40_000, rate=600.0, seed=3)

    def run(fleet_cls):
        return fleet_cls(endpoints).run(ts, name="bench")

    (before_s, before), (after_s, after) = _best_of_pair(
        lambda: run(ScanFleetEngine), lambda: run(FleetEngine)
    )

    for spec in endpoints:
        _assert_logs_identical(before[spec.name], after[spec.name])

    n_events = sum(after[s.name].n_events for s in endpoints)
    payload = {
        "n_endpoints": n_lanes,
        "n_requests": int(ts.size),
        "n_events": int(n_events),
        "before_seconds": round(before_s, 4),
        "after_seconds": round(after_s, 4),
        "speedup": round(before_s / after_s, 2),
        "events_per_sec_before": round(n_events / before_s),
        "events_per_sec_after": round(n_events / after_s),
    }
    _merge_results("fleet", payload)
    print(f"\nfleet: {json.dumps(payload)}")


def test_decision_speedup_floor():
    """DeepBAT decisions: graph-free ``infer`` ≥ 2× the Tensor spec path,
    predictions and chosen configurations bit-identical."""
    from repro.batching.config import config_grid
    from repro.core.controller import DeepBATController
    from repro.core.dataset import generate_dataset
    from repro.core.surrogate import DeepBATSurrogate
    from repro.core.training import TrainConfig, TrainedSurrogate, train_surrogate
    from tests.core._spec import spec_predict

    class SpecSurrogate(DeepBATSurrogate):
        """The surrogate with inference through the Tensor forward."""

        def predict(self, sequence, features):
            return spec_predict(self, sequence, features)

    seq_len = 32
    grid = config_grid()
    ts = _reference_trace(n=12_000, rate=400.0, seed=5)
    gaps = np.diff(ts)
    dataset = generate_dataset(gaps, n_samples=200, seq_len=seq_len,
                               configs=grid, seed=0)
    trained = train_surrogate(
        dataset,
        model=DeepBATSurrogate(seq_len=seq_len, d_model=8, num_heads=2,
                               ff_hidden=16, num_layers=1, seed=0),
        config=TrainConfig(epochs=2, batch_size=32, patience=None, seed=0),
    )
    spec_model = SpecSurrogate(**trained.model.hyperparameters, seed=0)
    spec_model.load_state_dict(trained.model.state_dict())
    spec = TrainedSurrogate(model=spec_model, pipeline=trained.pipeline,
                            history=trained.history)
    slo = 0.1
    # The engine's view: a growing history tail, one decision per window.
    windows = [gaps[max(0, end - 4096):end] for end in range(64, gaps.size, 40)]

    def decide(surrogate):
        ctrl = DeepBATController(surrogate, configs=grid)
        return [ctrl.choose(w, slo) for w in windows]

    (spec_s, before), (infer_s, after) = _best_of_pair(
        lambda: decide(spec), lambda: decide(trained), repeats=5
    )

    # Equivalence first — a fast wrong answer is no speedup.
    for a, b in zip(before, after):
        assert np.array_equal(a.predictions, b.predictions)
        assert a.config == b.config
    n = len(windows)
    speedup = spec_s / infer_s
    payload = {
        "n_decisions": n,
        "n_configs": len(grid),
        "seq_len": seq_len,
        "spec_seconds": round(spec_s, 4),
        "infer_seconds": round(infer_s, 4),
        "spec_ms_per_choose": round(1e3 * spec_s / n, 4),
        "infer_ms_per_choose": round(1e3 * infer_s / n, 4),
        "speedup": round(speedup, 2),
        "predictions_bit_identical": True,
    }
    _merge_results("decision", payload)
    print(f"\ndecision: {json.dumps(payload)}")
    assert speedup >= 2.0, (
        f"graph-free DeepBAT decisions only {speedup:.2f}x over the Tensor path"
    )
