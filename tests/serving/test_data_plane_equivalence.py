"""One ``_execute`` and one handler table ≡ the data plane they replaced.

The engine used to run each batch through one of five near-copies of the
batch-start logic and dispatch events through two copies of an if-chain.
Those bodies are kept verbatim in ``tests/serving/_spec.py``
(:class:`SpecEngine`, :class:`SpecFleetEngine`). Every cell below runs the
same workload on the production engine and on the spec, in the fast drive
loop and in the stepwise loop with telemetry on, and requires every
:class:`ServingLog` field — the event trace included — to be identical.

The spec counts telemetry per event; the engine publishes it once from the
finished log. Their registries must agree on every non-``perf``
instrument: counters and histogram counts, extremes and percentiles
exactly (every cell stays inside the histogram reservoir, so percentiles
see the same samples), histogram sums up to float summation order, and
the telemetry events in order. The instruments in :data:`REDEFINED` are
where the per-event tally disagreed with the log; they are checked against
the log instead.

The cells cover every stage of ``_execute`` and every event kind: plain
and faulted batches, stragglers, crashes with and without faults, hedges,
outage windows with cold-start backoff, the generation buffer with one-
and many-token outputs, a chooser reconfiguring the deployment, and the
``fleet_outage`` fleet shape (shared budget, failover, brownout).
"""

import dataclasses

import numpy as np
import pytest

from repro.batching.config import BatchConfig
from repro.core.types import Decision
from repro.serverless.faults import FaultModel, RetryPolicy
from repro.serverless.generation import TokenLengthModel
from repro.serverless.outages import (
    CrashHazard,
    OutageModel,
    OutageWindow,
    StragglerModel,
)
from repro.serverless.platform import ServerlessPlatform
from repro.serverless.service_profile import ColdStartModel
from repro.serving import (
    BrownoutConfig,
    DegradeConfig,
    EndpointSpec,
    FailoverConfig,
    FleetEngine,
    GenerationConfig,
    HedgeConfig,
    ServingEngine,
    ServingLog,
    WarmPoolConfig,
)
from repro.telemetry.metrics import MetricsRegistry, use_registry
from tests.serving._spec import SpecEngine, SpecFleetEngine

pytestmark = pytest.mark.serving

CONFIG = BatchConfig(memory_mb=2048.0, batch_size=8, timeout=0.05)
OTHER = BatchConfig(memory_mb=4096.0, batch_size=4, timeout=0.02)
POOL = WarmPoolConfig(keep_alive_s=2.0, max_containers=4,
                      max_queued_batches=8)


class FlipFlopChooser:
    def __init__(self):
        self.calls = 0

    def choose(self, history, slo):
        self.calls += 1
        config = OTHER if self.calls % 2 else CONFIG
        return Decision(config=config, decision_time=1e-3,
                        diagnostics={"predicted_p95": 0.08})


def trace(seed=5, n=1500, horizon=12.0):
    rng = np.random.default_rng(seed)
    return np.sort(rng.uniform(0.0, horizon, n))


def platform(faults=0.0, seed=11):
    return ServerlessPlatform(
        seed=seed, cold_start=ColdStartModel(),
        faults=FaultModel(failure_rate=faults) if faults else None,
    )


def outages(window=False, crash=False, straggler=False):
    return OutageModel(
        windows=(OutageWindow(4.0, 7.0),) if window else (),
        crash=CrashHazard(rate=0.02, outage_rate=0.1) if crash else None,
        straggler=(StragglerModel(rate=0.25, slowdown=3.0)
                   if straggler else None),
        seed=3,
    )


BACKOFF = RetryPolicy(max_attempts=4, base_backoff_s=0.2,
                      max_total_delay_s=3.0)
HEDGE = HedgeConfig(percentile=80.0, multiplier=1.2)
#: Hedges early enough to win over primaries whose retries all failed.
EAGER_HEDGE = HedgeConfig(percentile=50.0, multiplier=1.0)

#: name -> (ServingEngine kwargs factory, {ServingLog field: must be > 0}).
CELLS = {
    "plain": (lambda: dict(platform=platform()), ("cold_starts",)),
    "faults": (lambda: dict(platform=platform(faults=0.2)),
               ("n_retries", "n_failed")),
    "straggler": (lambda: dict(platform=platform(),
                               outages=outages(straggler=True)),
                  ("straggler_batches",)),
    "crash": (lambda: dict(platform=platform(),
                           outages=outages(window=True, crash=True)),
              ("crashed_containers",)),
    "crash_faults": (lambda: dict(platform=platform(faults=0.2),
                                  outages=outages(window=True, crash=True,
                                                  straggler=True)),
                     ("crashed_containers", "n_retries")),
    "hedge": (lambda: dict(platform=platform(faults=0.35),
                           outages=outages(straggler=True),
                           degrade=DegradeConfig(hedge=EAGER_HEDGE)),
              ("hedges", "hedge_wins", "n_failed")),
    # A short keep-alive: containers go cold between batches, so the
    # outage window denies provisioning and the backoff engages.
    "outage_backoff": (lambda: dict(
        platform=platform(), outages=outages(window=True),
        degrade=DegradeConfig(backoff=BACKOFF),
        pool=WarmPoolConfig(keep_alive_s=0.05, max_containers=4,
                            max_queued_batches=8),
    ), ("outage_denied", "cold_retries", "cold_retry_exhausted")),
    "gen_single_token": (lambda: dict(platform=platform(), generation=(
        GenerationConfig(dispatcher="buffer", length_model=TokenLengthModel(
            output_mean=1.0, output_max=1)))), ("gen_prefill_iterations",)),
    "gen_multi_token": (lambda: dict(platform=platform(), generation=(
        GenerationConfig(dispatcher="buffer", length_model=TokenLengthModel(
            output_mean=8.0)))), ("gen_decode_iterations",)),
    "reconfiguring": (lambda: dict(
        platform=platform(faults=0.2), chooser=FlipFlopChooser(),
        deploy_delay_s=0.25, decision_interval_s=0.5, min_history=16,
        outages=outages(straggler=True), degrade=DegradeConfig(hedge=HEDGE),
    ), ("reconfigurations", "hedges")),
}


def assert_logs_equal(a: ServingLog, b: ServingLog) -> None:
    """Every field of the two logs, arrays bitwise (NaN == NaN)."""
    for f in dataclasses.fields(ServingLog):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            assert x is not None and y is not None, f.name
            assert x.shape == y.shape and np.array_equal(
                x, y, equal_nan=x.dtype.kind == "f"), f.name
        else:
            assert x == y, f.name


#: Instruments whose per-event count was wrong, by name suffix -> the
#: ServingLog field they now publish: the spec's straggler counter skipped
#: stragglers that crashed, and its generation-buffer path never counted
#: prefill/decode iterations.
REDEFINED = {
    "outage.straggler_batches": "straggler_batches",
    "gen.prefill_iterations": "gen_prefill_iterations",
    "gen.decode_iterations": "gen_decode_iterations",
}


def telemetry(registry: MetricsRegistry) -> tuple[dict, list]:
    """``({name: record}, [event records])`` without the wall-clock parts:
    the ``*.perf.*`` stage timers and the events' emission offsets."""
    instruments, events = {}, []
    for record in registry.records():
        if "name" not in record:
            record.pop("t", None)
            events.append(record)
        elif ".perf." not in record["name"]:
            instruments[record["name"]] = record
    return instruments, events


def assert_telemetry_matches(new, spec, logs: dict) -> None:
    """The published registry ``new`` against the spec's per-event
    ``spec``; ``logs`` maps each metrics prefix to its lane's log."""
    (new_inst, new_events), (spec_inst, spec_events) = new, spec
    assert new_events == spec_events
    redefined = {f"{prefix}.{suffix}": (log, field)
                 for prefix, log in logs.items()
                 for suffix, field in REDEFINED.items()}
    for name, (log, field) in redefined.items():
        spec_inst.pop(name, None)
        value = getattr(log, field)
        if value:
            assert new_inst.pop(name)["value"] == value, name
        else:
            assert name not in new_inst, name
    assert sorted(new_inst) == sorted(spec_inst)
    published = tuple(f"{prefix}." for prefix in logs)
    for name, record in new_inst.items():
        want = spec_inst[name]
        # The buffer's histograms are still observed per event, in the
        # same order on both sides, so they match exactly.
        if record["type"] == "histogram" and name.startswith(published):
            assert record["count"] <= 4096, name
            assert record["sum"] == pytest.approx(want["sum"], rel=1e-12)
            record, want = dict(record), dict(want)
            for key in ("sum", "mean"):
                record.pop(key), want.pop(key)
        assert record == want, name


def run_both(run):
    """``run(spec)`` on the production (``spec=False``) and the spec
    data plane, telemetry off (a single engine takes the fast loop) and
    on (the stepwise loop); returns the four logs and the two
    :func:`telemetry` views."""
    logs, records = {}, {}
    for side, spec in (("new", False), ("spec", True)):
        logs[side, "fast"] = run(spec)
        registry = MetricsRegistry()
        with use_registry(registry):
            logs[side, "step"] = run(spec)
        records[side] = telemetry(registry)
    return logs, records


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_engine_matches_spec(cell):
    kwargs, engaged = CELLS[cell]
    ts = trace()

    def run(spec):
        cls = SpecEngine if spec else ServingEngine
        return cls(CONFIG, **{"pool": POOL, **kwargs()}).run(
            ts, record_trace=True)

    logs, records = run_both(run)
    for loop in ("fast", "step"):
        assert_logs_equal(logs["new", loop], logs["spec", loop])
    assert_logs_equal(logs["new", "fast"], logs["new", "step"])
    assert_telemetry_matches(records["new"], records["spec"],
                             {"serving": logs["new", "step"]})
    assert records["new"][0], "telemetry must record the stepwise run"
    for name in engaged:
        assert getattr(logs["new", "fast"], name) > 0, name


def fleet_outage_endpoints():
    """The ``fleet_outage`` benchmark's shape, shrunk."""
    gold_outages = OutageModel(
        windows=(OutageWindow(3.0, 5.0),),
        crash=CrashHazard(rate=0.005, outage_rate=0.08),
        straggler=StragglerModel(rate=0.15, slowdown=3.0),
        seed=5,
    )
    degrade = DegradeConfig(
        backoff=RetryPolicy(max_attempts=2, base_backoff_s=0.05,
                            max_total_delay_s=0.5),
        hedge=HedgeConfig(percentile=90.0, multiplier=1.5),
    )
    # A short keep-alive (the benchmark keeps containers for 1 s) makes
    # many failovers land on cold donor containers.
    pool = WarmPoolConfig(max_containers=4, max_queued_batches=12,
                          keep_alive_s=0.05)
    return [
        EndpointSpec(
            name="gold", config=BatchConfig(2048.0, 4, 0.01), slo=0.25,
            priority=1, pool=pool,
            platform=ServerlessPlatform(seed=17, cold_start=ColdStartModel()),
            outages=gold_outages, degrade=degrade,
        ),
        EndpointSpec(
            name="bulk", config=BatchConfig(2048.0, 8, 0.05), slo=0.5,
            priority=0, pool=pool,
            platform=ServerlessPlatform(
                seed=18, cold_start=ColdStartModel(),
                faults=FaultModel(failure_rate=0.02),
            ),
        ),
    ]


def test_fleet_outage_shape_matches_spec():
    rng = np.random.default_rng(2)
    traffic = {"gold": np.sort(rng.uniform(0.0, 10.0, 2500)),
               "bulk": np.sort(rng.uniform(0.0, 10.0, 2000))}
    kw = dict(max_containers=6, brownout=BrownoutConfig(max_total_queued=10),
              failover=FailoverConfig(min_queue=1))

    def run(spec):
        cls = SpecFleetEngine if spec else FleetEngine
        return cls(fleet_outage_endpoints(), **kw).run(traffic,
                                                       record_trace=True)

    logs, records = run_both(run)
    for key in logs:
        logs[key] = logs[key].logs
    for loop in ("fast", "step"):
        for lane in ("gold", "bulk"):
            assert_logs_equal(logs["new", loop][lane],
                              logs["spec", loop][lane])
    assert_telemetry_matches(
        records["new"], records["spec"],
        {f"serving.{lane}": log
         for lane, log in logs["new", "step"].items()})
    gold, bulk = logs["new", "fast"]["gold"], logs["new", "fast"]["bulk"]
    for name in ("hedges", "cold_retries", "crashed_containers",
                 "straggler_batches"):
        assert getattr(gold, name) > 0, name
    assert gold.failover_batches + bulk.failover_batches > 0
    assert gold.brownout_shed + bulk.brownout_shed > 0
    assert bulk.n_retries > 0
