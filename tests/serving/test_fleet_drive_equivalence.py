"""Heap-merged fleet loop ≡ scan-every-lane specification, bit-for-bit.

The speed pass replaced the fleet's O(lanes)-per-event selection scan with
a lane-key heap (:meth:`FleetEngine._drive_lanes`), which also skips the
cross-lane drain, failover and brownout passes while every lane's queue
is empty; the original loop, running the passes after every step, is kept
verbatim as ``ScanFleetEngine`` in ``tests/serving/_spec.py``. These
tests run both over the same fleets — shared budget, per-lane choosers,
faults, scheduler ticks, and the degradation passes at the edges of that
gate — and require identical logs, event traces included.
"""

import numpy as np
import pytest

from repro.batching.config import BatchConfig
from repro.core.types import Decision
from repro.serverless.faults import FaultModel
from repro.serverless.platform import ServerlessPlatform
from repro.serving import (
    BrownoutConfig,
    FailoverConfig,
    ServingLog,
    WarmPoolConfig,
)
from repro.serving.fleet import EndpointSpec, FleetEngine, FleetScheduler
from repro.telemetry.metrics import MetricsRegistry, use_registry
from tests.serving._spec import ScanFleetEngine as _ScanFleet
from tests.serving.test_data_plane_equivalence import assert_logs_equal

pytestmark = pytest.mark.fleet

CONFIG = BatchConfig(memory_mb=2048.0, batch_size=8, timeout=0.05)
OTHER = BatchConfig(memory_mb=1024.0, batch_size=4, timeout=0.02)


class StubChooser:
    def __init__(self, configs):
        self.configs = list(configs)
        self.calls = 0

    def choose(self, history, slo):
        config = self.configs[min(self.calls, len(self.configs) - 1)]
        self.calls += 1
        return Decision(config=config, decision_time=1e-3)


def poisson_trace(lam, n, seed):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1.0 / lam, size=n))


def assert_logs_identical(a: ServingLog, b: ServingLog):
    np.testing.assert_array_equal(a.latencies, b.latencies)
    np.testing.assert_array_equal(a.shed, b.shed)
    np.testing.assert_array_equal(a.failed, b.failed)
    np.testing.assert_array_equal(a.dispatch_times, b.dispatch_times)
    np.testing.assert_array_equal(a.batch_costs, b.batch_costs)
    np.testing.assert_array_equal(a.batch_sizes, b.batch_sizes)
    assert a.event_trace == b.event_trace
    assert a.n_events == b.n_events
    assert len(a.decisions) == len(b.decisions)
    assert (a.cold_starts, a.warm_starts, a.expired_containers,
            a.evicted_containers, a.n_retries, a.n_failed) == (
        b.cold_starts, b.warm_starts, b.expired_containers,
        b.evicted_containers, b.n_retries, b.n_failed)


def make_specs(faults=False, choosers=False):
    def platform(seed):
        return ServerlessPlatform(
            faults=FaultModel(failure_rate=0.15) if faults else None,
            seed=seed,
        )

    return [
        EndpointSpec(
            name=f"ep{i}",
            config=CONFIG if i % 2 else OTHER,
            slo=0.1 * (1 + i),
            platform=platform(seed=10 + i),
            chooser=StubChooser([OTHER, CONFIG]) if choosers else None,
            decision_interval_s=0.5 if choosers else None,
            min_history=16,
            pool=WarmPoolConfig(keep_alive_s=2.0, max_containers=4,
                                max_queued_batches=3),
        )
        for i in range(4)
    ]


def make_traffic(seed0=20, lam=150.0, n=900):
    return {
        f"ep{i}": poisson_trace(lam, n, seed=seed0 + i) for i in range(4)
    }


def compare(fleet_kwargs, faults=False, choosers=False):
    traffic = make_traffic()
    heap_log = FleetEngine(
        make_specs(faults, choosers), **fleet_kwargs
    ).run(traffic, record_trace=True)
    scan_log = _ScanFleet(
        make_specs(faults, choosers), **fleet_kwargs
    ).run(traffic, record_trace=True)
    assert heap_log.fleet_decisions == scan_log.fleet_decisions
    for name in heap_log.endpoints:
        assert_logs_identical(heap_log[name], scan_log[name])
    return heap_log


class TestHeapEqualsScan:
    def test_independent_lanes(self):
        compare({})

    def test_with_faults_and_choosers(self):
        compare({}, faults=True, choosers=True)

    def test_with_binding_budget(self):
        # A tight shared budget exercises the cross-lane drain pass, whose
        # changed-lane set feeds the heap's re-keying.
        log = compare({"max_containers": 3}, faults=True)
        assert sum(log[n].evicted_containers for n in log.endpoints) > 0

    def test_with_scheduler_ticks(self):
        scheduler = FleetScheduler(
            memories=(1024.0, 2048.0), batch_sizes=(1, 2, 4, 8),
            timeouts=(0.0, 0.02, 0.05), min_history=32,
        )
        log = compare({
            "scheduler": scheduler, "scheduler_interval_s": 2.0,
        })
        assert log.fleet_decisions >= 1


#: Degradation passes where queues form but the passes mostly idle: the
#: gate opens on any queued batch, and each pass must then act exactly as
#: the scan loop's unconditional one. name -> (fleet kwargs, arrival rate,
#: {ServingLog field: must be engaged (> 0) in some lane}).
GATE_CELLS = {
    # Every queued batch is shed at once: queues never outlive a step.
    "brownout_cap_zero": (dict(brownout=BrownoutConfig(max_total_queued=0)),
                          150.0, ("queued_batches", "brownout_shed")),
    # Queues one or two deep never reach the failover threshold.
    "failover_min_queue_3": (dict(failover=FailoverConfig(min_queue=3)),
                             150.0, ("queued_batches",)),
    # Degrading without a shared budget: no drain pass, only the other two.
    "no_shared_budget": (dict(brownout=BrownoutConfig(max_total_queued=4),
                              failover=FailoverConfig(min_queue=1)),
                         400.0, ("failover_batches", "brownout_shed")),
}


@pytest.mark.parametrize("cell", sorted(GATE_CELLS))
def test_gated_passes_match_scan(cell):
    kwargs, lam, engaged = GATE_CELLS[cell]
    traffic = make_traffic(lam=lam)

    def run(cls, telemetry):
        engine = cls(make_specs(faults=True), **kwargs)
        if not telemetry:
            return engine.run(traffic, record_trace=True)
        with use_registry(MetricsRegistry()):
            return engine.run(traffic, record_trace=True)

    logs = {(cls, telemetry): run(cls, telemetry)
            for cls in (FleetEngine, _ScanFleet) for telemetry in (False, True)}
    reference = logs[FleetEngine, False]
    for log in logs.values():
        for name in reference.endpoints:
            assert_logs_equal(log[name], reference[name])
    lanes = reference.logs.values()
    for field in engaged:
        assert any(getattr(lane, field) > 0 for lane in lanes), field
    if cell == "failover_min_queue_3":
        assert not any(lane.failover_batches for lane in lanes)
