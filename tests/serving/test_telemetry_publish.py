"""Serving telemetry is published from the run's log, once, at the end.

The engine keeps one count of a run — its :class:`ServingLog` — and
:func:`repro.serving.log.publish_telemetry` maps a finished log onto the
``serving.*`` counters and histograms. These tests pin that mapping
field by field over every data-plane cell, the ``fleet_outage`` fleet
shape, continuous generation, prewarming, the guardrail and a failing
controller, the buffer's ``buffer.*`` histograms and ``DispatchEvent``\\ s
included; pin that a restored run (a restore of a restore included)
publishes what the uninterrupted run does; and lint the engine so no
per-event registry tally grows back beside the log.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.batching.config import BatchConfig
from repro.core.types import Decision
from repro.serverless.generation import TokenLengthModel
from repro.serving import (
    BrownoutConfig,
    DegradeConfig,
    FailoverConfig,
    FleetEngine,
    GenerationConfig,
    GuardrailConfig,
    PrewarmConfig,
    ServingEngine,
    WarmPoolConfig,
    run_with_crashes,
)
from repro.serving import engine as engine_module
from repro.serving import fleet as fleet_module
from repro.serving.checkpoint import SimulatedCrash
from repro.serving.log import FAILOVER, HEDGE
from repro.serving.prewarm import EmpiricalRateForecaster
from repro.telemetry.metrics import MetricsRegistry, use_registry
from tests.serving.test_data_plane_equivalence import (
    BACKOFF,
    CELLS,
    CONFIG,
    HEDGE as HEDGE_CONFIG,
    POOL,
    fleet_outage_endpoints,
    outages,
    platform,
    trace,
)

pytestmark = pytest.mark.serving

#: Published counter (after ``<prefix>.``) -> the log quantity it equals.
COUNTERS = {
    "requests": lambda log: log.n_requests,
    "batches": lambda log: log.batch_sizes.size,
    # Batch rows started cold/warm, failover and hedge rows included.
    "cold_starts": lambda log: int(log.batch_cold.sum()),
    "warm_starts": lambda log: int((~log.batch_cold).sum()),
    "queued_batches": lambda log: log.queued_batches,
    "shed_requests": lambda log: log.n_shed - log.brownout_shed,
    "shed_batches": lambda log: log.shed_batches,
    "decisions": lambda log: sum(d.reason != "guardrail"
                                 for d in log.decisions),
    "decision_errors": lambda log: log.decision_errors,
    "reconfigurations": lambda log: log.reconfigurations,
    "drift_triggers": lambda log: log.drift_triggers,
    "prediction_drift_triggers": lambda log: log.prediction_drift_triggers,
    "retrains": lambda log: log.retrains,
    "prewarm.ticks": lambda log: log.prewarm_ticks,
    "prewarm.provisioned": lambda log: log.prewarmed_containers,
    "prewarm.cost": lambda log: log.prewarm_cost,
    "prewarm.retired": lambda log: log.prewarm_retired,
    "outage.crashes": lambda log: log.crashed_containers,
    "outage.crash_requeued": lambda log: log.crash_requeued,
    "outage.straggler_batches": lambda log: log.straggler_batches,
    "degrade.cold_retries": lambda log: log.cold_retries,
    "degrade.retry_exhausted": lambda log: log.cold_retry_exhausted,
    "degrade.hedges": lambda log: log.hedges,
    "degrade.hedge_wins": lambda log: log.hedge_wins,
    "degrade.hedge_cost": lambda log: log.hedge_cost,
    "degrade.hedge_denied": lambda log: log.hedge_denied,
    "degrade.failover": lambda log: log.failover_batches,
    "degrade.brownout_shed": lambda log: log.brownout_shed,
}
#: Generation runs only.
GEN_COUNTERS = {
    "gen.requests": lambda log: log.n_served + log.gen_shed,
    "gen.shed": lambda log: log.gen_shed,
    "gen.sessions": lambda log: log.gen_sessions,
    "gen.tokens": lambda log: log.gen_tokens,
    "gen.prefill_iterations": lambda log: log.gen_prefill_iterations,
    "gen.decode_iterations": lambda log: log.gen_decode_iterations,
}
#: Unprefixed histograms, summed over a fleet's lanes: the buffer's
#: batches and the wait of every request they held.
SHARED_HISTOGRAM_COUNTS = {
    "buffer.batch_size": lambda log: log.buffer_dispatch_sizes.size,
    "buffer.wait": lambda log: int(log.buffer_dispatch_sizes.sum()),
}
#: Unprefixed counters, summed over a fleet's lanes.
SHARED_COUNTERS = {
    "guardrail.tripped": lambda log: log.guardrail_trips,
    "guardrail.probe": lambda log: log.guardrail_probes,
    "guardrail.restored": lambda log: log.guardrail_restores,
    "guardrail.suppressed_decisions": lambda log: log.guardrail_suppressed,
    "checkpoint.snapshots": lambda log: log.checkpoints,
}
#: Published histogram -> its observation count from the log.
HISTOGRAM_COUNTS = {
    "latency": lambda log: log.n_served,
    # Primaries that ran to completion: every row except the crashed
    # ones, hedges, failovers and sessions.
    "queue_delay": lambda log: (log.batch_sizes.size - log.crashed_containers
                                - log.hedges - log.failover_batches
                                - log.gen_sessions),
    # Cold starts this lane's own pool made for its own dispatches.
    "cold_delay": lambda log: int((log.batch_cold & ~np.isin(
        log.batch_kinds, (FAILOVER, HEDGE))).sum()),
}
GEN_HISTOGRAM_COUNTS = {
    "ttft": lambda log: log.n_served,
    "gen.session_seconds": lambda log: log.gen_sessions,
}


def instruments(registry: MetricsRegistry) -> tuple[dict, dict]:
    """``({counter: value}, {histogram: record})`` without stage timers."""
    counters, histograms = {}, {}
    for record in registry.records():
        if ".perf." in record.get("name", ".perf."):
            continue
        if record["type"] == "counter":
            counters[record["name"]] = record["value"]
        elif record["type"] == "histogram":
            histograms[record["name"]] = record
    return counters, histograms


def dispatch_events(registry: MetricsRegistry) -> list[dict]:
    """The ``DispatchEvent`` records, without their emission offsets."""
    return [{k: v for k, v in record.items() if k != "t"}
            for record in registry.records()
            if record.get("kind") == "dispatch"]


def assert_published(registry: MetricsRegistry, logs: dict) -> None:
    """Every instrument in ``registry`` equals its log quantity, and every
    nonzero quantity is published; ``logs`` maps prefix -> lane log."""
    counters, histograms = instruments(registry)
    expected_counters, expected_counts = {}, {}
    for prefix, log in logs.items():
        tables = (COUNTERS, HISTOGRAM_COUNTS)
        if log.is_generation:
            tables = ({**COUNTERS, **GEN_COUNTERS},
                      {**HISTOGRAM_COUNTS, **GEN_HISTOGRAM_COUNTS})
        for suffix, value in tables[0].items():
            expected_counters[f"{prefix}.{suffix}"] = value(log)
        for suffix, count in tables[1].items():
            expected_counts[f"{prefix}.{suffix}"] = count(log)
        for name, value in SHARED_COUNTERS.items():
            expected_counters[name] = (expected_counters.get(name, 0)
                                       + value(log))
        for name, count in SHARED_HISTOGRAM_COUNTS.items():
            expected_counts[name] = expected_counts.get(name, 0) + count(log)
    expected_counters = {k: v for k, v in expected_counters.items() if v}
    expected_counts = {k: v for k, v in expected_counts.items() if v}
    counters.pop("fleet.scheduler_plans", None)
    assert counters == pytest.approx(expected_counters, rel=1e-12)
    assert ({name: record["count"] for name, record in histograms.items()}
            == expected_counts)
    assert len(dispatch_events(registry)) == sum(
        log.buffer_dispatch_sizes.size for log in logs.values())


# ------------------------------------------------------------ publication
class FailingChooser:
    def choose(self, history, slo):
        raise RuntimeError("controller down")


class BadChooser:
    """Keeps deploying an SLO-breaking configuration."""

    def choose(self, history, slo):
        return Decision(config=BatchConfig(2048.0, 64, 0.5),
                        decision_time=0.0,
                        diagnostics={"predicted_p95": slo / 2})


#: Beyond the data-plane cells: name -> (engine kwargs factory, the
#: ServingLog fields that must be engaged).
EXTRA_CELLS = {
    "continuous": (lambda: dict(
        platform=platform(),
        pool=WarmPoolConfig(keep_alive_s=0.5, max_containers=2),
        generation=GenerationConfig(
            dispatcher="continuous", max_waiting=4,
            length_model=TokenLengthModel(prompt_mean=64.0,
                                          output_mean=16.0)),
    ), ("gen_sessions", "gen_shed", "gen_decode_iterations")),
    "prewarm": (lambda: dict(
        platform=platform(),
        pool=WarmPoolConfig(keep_alive_s=0.5),
        prewarm=PrewarmConfig(forecaster=EmpiricalRateForecaster(),
                              interval_s=0.25, headroom=4.0, window=64,
                              retire=True),
    ), ("prewarm_ticks", "prewarmed_containers")),
    "guardrail": (lambda: dict(
        platform=platform(), chooser=BadChooser(), decision_interval_s=1.0,
        guardrail=GuardrailConfig(window=32, k=2, cooldown_s=2.0),
    ), ("guardrail_trips", "guardrail_suppressed", "reconfigurations")),
    "decision_errors": (lambda: dict(
        platform=platform(), chooser=FailingChooser(),
        decision_interval_s=0.5, min_history=16,
    ), ("decision_errors", "queued_batches")),
}


@pytest.mark.parametrize("cell", sorted(CELLS) + sorted(EXTRA_CELLS))
def test_engine_publishes_its_log(cell):
    kwargs, engaged = {**CELLS, **EXTRA_CELLS}[cell]
    registry = MetricsRegistry()
    with use_registry(registry):
        log = ServingEngine(CONFIG, **{"pool": POOL, **kwargs()}).run(trace())
    for name in engaged:
        assert getattr(log, name) > 0, name
    assert_published(registry, {"serving": log})


def test_fleet_publishes_every_lane():
    rng = np.random.default_rng(2)
    traffic = {"gold": np.sort(rng.uniform(0.0, 10.0, 2500)),
               "bulk": np.sort(rng.uniform(0.0, 10.0, 2000))}
    registry = MetricsRegistry()
    with use_registry(registry):
        fleet = FleetEngine(
            fleet_outage_endpoints(), max_containers=6,
            brownout=BrownoutConfig(max_total_queued=10),
            failover=FailoverConfig(min_queue=1),
        ).run(traffic)
    gold = fleet["gold"]
    # A failover row runs in the donor's pool: the lane's batch-row cold
    # count is not its pool's cold-start count.
    assert int(gold.batch_cold.sum()) != gold.cold_starts
    assert gold.failover_batches + fleet["bulk"].failover_batches > 0
    assert_published(registry, {f"serving.{lane}": log
                                for lane, log in fleet.logs.items()})


def test_runs_into_one_registry_add_up():
    registry = MetricsRegistry()
    engine = ServingEngine(CONFIG, pool=POOL, platform=platform())
    with use_registry(registry):
        a = engine.run(trace(seed=1, n=500))
        b = engine.run(trace(seed=2, n=700))
    counters, histograms = instruments(registry)
    assert counters["serving.requests"] == 1200
    assert counters["serving.batches"] == (a.batch_sizes.size
                                           + b.batch_sizes.size)
    assert histograms["serving.latency"]["count"] == 1200


def test_disabled_registry_publishes_nothing(monkeypatch):
    def poisoned(*args, **kwargs):
        raise AssertionError("published with telemetry off")

    monkeypatch.setattr(engine_module, "publish_telemetry", poisoned)
    monkeypatch.setattr(fleet_module, "publish_telemetry", poisoned)
    ServingEngine(CONFIG, pool=POOL, platform=platform()).run(trace(n=300))
    FleetEngine(fleet_outage_endpoints()).run(
        {"gold": trace(n=300), "bulk": trace(seed=6, n=300)})


# ------------------------------------------------------------------ restore
def restore_engine():
    return ServingEngine(
        CONFIG, pool=POOL, platform=platform(faults=0.2),
        outages=outages(window=True, crash=True, straggler=True),
        degrade=DegradeConfig(backoff=BACKOFF, hedge=HEDGE_CONFIG),
    )


#: The restore's own one-shot counters; everything else must match.
RESTORE_ONLY = ("checkpoint.restores", "checkpoint.replayed_events")


def published(registry: MetricsRegistry) -> tuple[dict, dict, list]:
    """The engine's instruments and its buffer's ``DispatchEvent``\\ s."""
    counters, histograms = instruments(registry)
    for name in RESTORE_ONLY:
        counters.pop(name, None)
    extremes = {name: (h["count"], h["min"], h["max"])
                for name, h in histograms.items()}
    return counters, extremes, dispatch_events(registry)


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    ts = trace(n=4000, horizon=20.0)
    registry = MetricsRegistry()
    with use_registry(registry):
        log = restore_engine().run(
            ts, checkpoint_path=tmp_path_factory.mktemp("ck") / "a.ckpt",
            checkpoint_every=64)
    return ts, log, registry


def test_restored_run_publishes_the_uninterrupted_telemetry(
        uninterrupted, tmp_path):
    ts, log, clean = uninterrupted
    path = tmp_path / "b.ckpt"
    with pytest.raises(SimulatedCrash):
        restore_engine().run(ts, checkpoint_path=path, checkpoint_every=64,
                             crash_after_events=log.n_events // 2)
    registry = MetricsRegistry()
    with use_registry(registry):
        restored = restore_engine().restore(path)
    assert restored.checkpoints == log.checkpoints
    assert published(registry) == published(clean)
    counters, histograms = instruments(registry)
    assert counters["checkpoint.restores"] == 1
    assert counters["serving.requests"] == 4000
    # Every buffer dispatch of the whole run, the crashed leg's included.
    dispatches = log.buffer_dispatch_sizes.size
    assert histograms["buffer.batch_size"]["count"] == dispatches
    assert len(dispatch_events(registry)) == dispatches


def test_chaos_restores_publish_the_uninterrupted_telemetry(
        uninterrupted, tmp_path):
    ts, log, clean = uninterrupted
    registry = MetricsRegistry()
    with use_registry(registry):
        final, kills = run_with_crashes(
            restore_engine, ts, tmp_path / "c.ckpt", n_crashes=3, seed=4,
            checkpoint_every=64, max_events=log.n_events)
    assert len(kills) == 3  # a restore of a restore of a restore
    assert published(registry) == published(clean)
    counters, histograms = instruments(registry)
    assert counters["checkpoint.restores"] == 3
    # The replayed stretches of the killed legs are not counted twice.
    dispatches = log.buffer_dispatch_sizes.size
    assert histograms["buffer.batch_size"]["count"] == dispatches
    assert len(dispatch_events(registry)) == dispatches


# --------------------------------------------------------------------- lint
SERVING_SRC = Path(engine_module.__file__).parent
#: The only registry instruments the engine touches itself: the restore's
#: one-shot counters, in ``ServingEngine.restore``.
ALLOWED = {("restore", "checkpoint.restores"),
           ("restore", "checkpoint.replayed_events")}


def registry_calls(source: str) -> list[tuple[str, str]]:
    """``(enclosing function, instrument name)`` of every
    ``<...>registry.counter/histogram(...)`` call in ``source``."""
    calls = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("counter", "histogram")):
            owner = node.func.value
            name = (owner.id if isinstance(owner, ast.Name)
                    else getattr(owner, "attr", ""))
            if name.endswith("registry"):
                arg = node.args[0] if node.args else None
                calls.append((function, arg.value
                              if isinstance(arg, ast.Constant)
                              else ast.unparse(arg) if arg else ""))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return calls


@pytest.mark.parametrize("module", ["engine.py", "fleet.py"])
def test_no_per_event_registry_tally(module):
    calls = registry_calls((SERVING_SRC / module).read_text())
    stray = [call for call in calls if call not in ALLOWED]
    assert not stray, (
        f"{module} counts into the registry per event: {stray}; count in "
        "the run state and let publish_telemetry derive the instrument")


def test_lint_sees_a_registry_call():
    source = ("def f(ctx, registry):\n"
              "    ctx.registry.counter(f'{p}.x').inc()\n"
              "    registry.histogram('y').observe(1.0)\n"
              "    ctx.timers.counter('z')\n")
    assert registry_calls(source) == [("f", "f'{p}.x'"), ("f", "y")]
