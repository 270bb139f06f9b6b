"""Executable specifications of the serving runtime.

Each class below is an earlier implementation kept verbatim, so the
production code can be pinned to it bit for bit and benchmarked against
it:

* :class:`ReferenceWarmPool` — the linear-scan warm pool that
  :class:`~repro.serving.pool.WarmPool` replaced with heaps;
* :class:`ScanFleetEngine` — the fleet on its original
  scan-every-lane selection loop, which ``FleetEngine._drive_lanes``
  replaced with a lane-key heap;
* :class:`SpecDataPlane` — the engine's data plane before it became one
  ``_execute`` and one handler table: the five batch-start methods
  (``_start_batch``, ``_start_batch_outage``, ``_start_batch_foreign``,
  ``_start_batch_gen`` and the duplicate half of ``_on_hedge``), the
  callers routing into them (``_dispatch``, ``_on_cold_retry``,
  ``_on_completion``), and the two event-dispatch chains (``_drive_fast``,
  and ``_step`` with ``_on_arrival`` and ``_handle_heap_event``).
  :class:`SpecEngine` and :class:`SpecFleetEngine` run it. Two known
  defects are part of the spec: a generation-buffer lane that fails over
  raises ``TypeError``, and a hedge that beats a faulted primary leaves
  the ``n_failed`` counter high (the log derives ``n_failed`` from the
  ``failed`` mask, so only the first shows in a ``ServingLog``).

  The spec also keeps the engine's earlier second tally: per-event
  ``registry.counter``/``registry.histogram`` calls, in its data plane and
  in the handlers the data-plane cells reach (``_on_crash``,
  ``_enqueue_or_shed``, ``_inject_decision``, ``_on_decision``,
  ``_on_reconfigure``, and the fleet's ``_brownout_pass``). The engine now
  publishes its telemetry once, from the finished log
  (:func:`repro.serving.log.publish_telemetry`); the spec engines publish
  only the buffer's dispatch telemetry from theirs, so their registry
  holds the per-event tally it is compared against. Two counters of that
  tally disagree with the log by design: ``outage.straggler_batches``
  skips crashed stragglers, and a generation-buffer run never counts
  prefill/decode iterations.

The method bodies are the originals, plus the per-batch row kind and end
time and the ``queued_batches``/``decision_errors`` counters that the log
now carries. The class scaffolding supplies what they read that the engine
no longer has: the ``drift_check_every`` and ``_degrade_mode`` attributes,
the ``n_failed`` run-state counter, and ``_on_retrain``/``_on_prewarm``
callable without a payload.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from unittest import mock

import numpy as np

from repro.batching.buffer import Batch, publish_dispatch_telemetry
from repro.batching.config import BatchConfig
from repro.serverless.faults import inject_faults
from repro.serving import engine as engine_module
from repro.serving import fleet as fleet_module
from repro.serving.engine import (
    _INF,
    _K_ARRIVAL,
    _K_COLD_RETRY,
    _K_COMPLETION,
    _K_CRASH,
    _K_DECISION,
    _K_GENSTEP,
    _K_HEDGE,
    _K_PREWARM,
    _K_RECONFIGURE,
    _K_RETRAIN,
    _K_TIMER,
    _P_ARRIVAL,
    _P_COLD_RETRY,
    _P_COMPLETION,
    _P_CRASH,
    _P_DECISION,
    _P_HEDGE,
    _P_RECONFIGURE,
    _P_TIMER,
    ServingEngine,
    _RunContext,
    _RunState,
)
from repro.serving.fleet import FleetEngine, _LaneEngine
from repro.serving.guardrail import OPEN
from repro.serving.log import (
    CRASHED,
    FAILOVER,
    HEDGE,
    PRIMARY,
    FleetLog,
    ServingDecision,
)
from repro.serving.pool import Lease, WarmPool, _Container
from repro.telemetry.events import ReconfigureEvent, ShedEvent


def _publish_dispatches(log, registry, prefix: str = "serving") -> None:
    """Stands in for ``publish_telemetry`` in the spec engines, so their
    registry holds only the per-event tally plus the buffer's dispatch
    telemetry. That telemetry never belonged to the spec's data plane:
    the buffer both sides share records its dispatches, and they are
    published from the log at the end of the run."""
    for lane in (log.logs.values() if isinstance(log, FleetLog) else [log]):
        publish_dispatch_telemetry(registry, lane.buffer_dispatch_times,
                                   lane.buffer_dispatch_sizes,
                                   lane.arrival_times)


# --------------------------------------------------------------- warm pool
class ReferenceWarmPool(WarmPool):
    """The original linear-scan pool.

    Every acquire rescans the container dict (expiry sweep, warm-match
    scan, eviction-victim scan). ``tests/serving/test_pool_equivalence.py``
    drives this and :class:`WarmPool` through identical operation
    sequences and asserts bit-identical behaviour;
    ``benchmarks/test_perf_serving.py`` uses it as the "before"
    implementation when measuring the serving speedup.
    """

    def _expire(self, now: float) -> None:
        keep = self.config.keep_alive_s
        if math.isinf(keep):
            return
        dead = [
            cid
            for cid, c in self._containers.items()
            if c.free_at <= now and now - c.free_at > keep
        ]
        for cid in dead:
            del self._containers[cid]
        self.stats.expired += len(dead)

    def acquire(self, now: float, memory_mb: float) -> Lease | None:
        self._expire(now)
        warm = [
            c
            for c in self._containers.values()
            if c.free_at <= now and c.memory_mb == memory_mb
        ]
        if warm:
            chosen = max(warm, key=lambda c: (c.free_at, c.container_id))
            chosen.free_at = math.inf
            self.stats.warm_starts += 1
            return Lease(chosen.container_id, cold=False, cold_delay=0.0)

        if self.outage is not None and self.outage.active(now):
            self.stats.outage_denied += 1
            return None

        cap = self.config.max_containers
        if cap is not None and len(self._containers) >= cap:
            idle = [c for c in self._containers.values() if c.free_at <= now]
            if not idle:
                return None
            victim = min(idle, key=lambda c: (c.free_at, c.container_id))
            del self._containers[victim.container_id]
            self.stats.evicted += 1

        if not self._admit_cold(now):
            return None
        container = _Container(self._next_id, memory_mb, free_at=math.inf)
        self._next_id += 1
        self._containers[container.container_id] = container
        self.stats.cold_starts += 1
        return Lease(container.container_id, cold=True,
                     cold_delay=self.cold_delay(memory_mb))

    def release(self, container_id: int, now: float) -> None:
        container = self._containers.get(container_id)
        if container is None:
            return
        container.free_at = now


# ------------------------------------------------------------------- fleet
class ScanFleetEngine(FleetEngine):
    """The fleet on the scan-every-lane selection loop."""

    def _drive_lanes(self, lanes, budget, next_tick) -> int:
        """The original O(lanes)-per-event selection loop."""
        fleet_decisions = 0
        while True:
            best = None  # ((time, priority, lane), lane_index)
            for i, (eng, st, _ctx) in enumerate(lanes):
                key = eng._next_event_key(st)
                if key is not None:
                    ranked = (key[0], key[1], i)
                    if best is None or ranked < best[0]:
                        best = (ranked, i)
            if next_tick is not None and (
                best is None or (next_tick, _P_DECISION) <= best[0][:2]
            ):
                fleet_decisions += self._scheduler_tick(lanes, next_tick)
                next_tick = (
                    next_tick + self.scheduler_interval_s
                    if any(st.arrival_ptr < st.n for _, st, _ in lanes)
                    else None
                )
                continue
            if best is None:
                break
            eng, st, ctx = lanes[best[1]]
            eng._step(st, ctx)
            st.events_processed += 1
            now = float(st.clock)
            if budget is not None:
                self._drain_queues(lanes, now)
            if self.failover is not None:
                self._failover_pass(lanes, now)
            if self.brownout is not None:
                self._brownout_pass(lanes, now)
        return fleet_decisions


# -------------------------------------------------------------- data plane
class SpecDataPlane:
    """Mixin: the engine's data plane and dispatch chains as they were.

    Put it ahead of :class:`ServingEngine` (or a subclass) in the bases.
    """

    @property
    def drift_check_every(self) -> int:
        return self.drift_config.check_every

    @property
    def _degrade_mode(self) -> bool:
        return (self._crash_hazard or self._straggler
                or self._hedge is not None)

    def _init_state(self, *args, **kwargs) -> _RunState:
        st = super()._init_state(*args, **kwargs)
        st.counters["n_failed"] = 0
        return st

    # The dispatch chains call these two without the payload argument.
    def _on_retrain(self, st, ctx, now, payload=None) -> None:
        super()._on_retrain(st, ctx, now, payload)

    def _on_prewarm(self, st, ctx, now, payload=None) -> None:
        super()._on_prewarm(st, ctx, now, payload)

    def _drive_fast(self, st: _RunState, ctx: _RunContext) -> None:
        """The uninstrumented hot loop: same events, same order, less work.

        Differences from driving :meth:`_step` in a loop — none of them
        observable in the outputs:

        * arrivals are consumed in **contiguous runs**: the heap head is
          read once per run and refreshed only after a handler actually
          pushed an event, instead of two tuple constructions and a heap
          peek for every single arrival;
        * timestamps come from one bulk ``ndarray.tolist()`` conversion
          instead of a ``float(st.ts[i])`` numpy-scalar unboxing each;
        * the ``("arrival", ...)`` trace tuple is only built when a trace
          is being recorded.

        Runs that checkpoint, journal, chaos-crash, or emit telemetry keep
        the stepwise loop: snapshots cut at exact event boundaries and the
        journal wants one entry per event.
        """
        ts = st.ts.tolist()
        n = st.n
        heap = st.heap
        buffer = st.buffer
        timers = st.timers
        trace = st.trace
        drift_every = self.drift_check_every
        check_drift = self._drift_enabled
        continuous = self._gen_continuous
        events = st.events_processed
        while True:
            if heap:
                head = heap[0]
                head_time = head[0]
                head_prio = head[1]
            else:
                head_time = _INF
                head_prio = _P_ARRIVAL
            ptr = st.arrival_ptr
            while ptr < n:
                t = ts[ptr]
                if t > head_time or (t == head_time and head_prio < _P_ARRIVAL):
                    break
                st.clock = t
                st.arrival_ptr = ptr = ptr + 1
                st.arrivals_seen += 1
                if trace is not None:
                    trace.append(("arrival", t, ptr - 1))
                before = len(heap)
                if continuous:
                    # Token-streaming arrivals bypass the buffer: they wait
                    # in the generation queue and join a running session at
                    # its next iteration boundary.
                    self._gen_arrival(st, ctx, t, ptr - 1)
                else:
                    for batch in buffer.observe(t):
                        self._dispatch(st, ctx, batch, t)
                    deadline = buffer.next_deadline()
                    if deadline is not None and deadline not in timers:
                        timers.add(deadline)
                        heappush(heap, (deadline, _P_TIMER, st.seq, _K_TIMER,
                                        deadline))
                        st.seq += 1
                if check_drift and st.arrivals_seen % drift_every == 0:
                    self._check_drift(st, ctx, t)
                events += 1
                if len(heap) != before:
                    if heap:
                        head = heap[0]
                        head_time = head[0]
                        head_prio = head[1]
                    else:  # pragma: no cover - handlers only push
                        head_time = _INF
                        head_prio = _P_ARRIVAL
            if not heap:
                break
            item = heappop(heap)
            now = item[0]
            kind = item[3]
            st.clock = now
            if kind == _K_COMPLETION:
                self._on_completion(st, ctx, now, item[4])
            elif kind == _K_TIMER:
                timers.discard(item[4])
                for batch in buffer.poll(now):
                    self._dispatch(st, ctx, batch, now)
                self._arm_timer(st)
            elif kind == _K_RECONFIGURE:
                self._on_reconfigure(st, ctx, now, item[4])
            elif kind == _K_DECISION:
                self._on_decision(st, ctx, now, item[4])
            elif kind == _K_RETRAIN:
                self._on_retrain(st, ctx, now)
            elif kind == _K_PREWARM:
                self._on_prewarm(st, ctx, now)
            elif kind == _K_GENSTEP:
                self._on_gen_step(st, ctx, now, item[4])
            elif kind == _K_CRASH:
                self._on_crash(st, ctx, now, item[4])
            elif kind == _K_COLD_RETRY:
                self._on_cold_retry(st, ctx, now, item[4])
            elif kind == _K_HEDGE:
                self._on_hedge(st, ctx, now, item[4])
            events += 1
        st.events_processed = events


    def _step(self, st: _RunState, ctx: _RunContext) -> bool:
        """Process exactly one event (arrival or heap pop); False when done.

        This is the stepwise (checkpointable, instrumentable) path; plain
        runs take :meth:`_drive_fast` instead. With ``ctx.timers`` enabled
        every event is accumulated into a ``serving.perf.*`` stage named
        after its kind — the disabled branch never touches the clock.
        """
        if st.arrival_ptr >= st.n and not st.heap:
            return False
        take_arrival = st.arrival_ptr < st.n and (
            not st.heap
            or (st.ts[st.arrival_ptr], _P_ARRIVAL) < (st.heap[0][0], st.heap[0][1])
        )
        timers = ctx.timers
        if take_arrival:
            if timers.enabled:
                with timers.stage(_K_ARRIVAL):
                    self._on_arrival(st, ctx)
            else:
                self._on_arrival(st, ctx)
            return True
        now, _priority, _seq, kind, payload = heappop(st.heap)
        st.clock = now
        if timers.enabled:
            with timers.stage(kind):
                self._handle_heap_event(st, ctx, now, kind, payload)
        else:
            self._handle_heap_event(st, ctx, now, kind, payload)
        return True


    def _on_arrival(self, st: _RunState, ctx: _RunContext) -> None:
        i = st.arrival_ptr
        now = float(st.ts[i])
        st.clock = now
        st.arrival_ptr += 1
        st.arrivals_seen += 1
        if st.trace is not None or ctx.journal is not None:
            self._emit(st, ctx, ("arrival", now, i))
        registry = ctx.registry
        if registry.enabled:
            registry.counter(f"{self.metrics_prefix}.requests").inc()
        if self._gen_continuous:
            self._gen_arrival(st, ctx, now, i)
            if self._drift_enabled and st.arrivals_seen % self.drift_check_every == 0:
                self._check_drift(st, ctx, now)
            return
        released = st.buffer.observe(now)
        if released:
            timers = ctx.timers
            if timers.enabled:
                # Nested stage: dispatch time shows up inside "arrival"
                # and on its own row.
                with timers.stage("dispatch"):
                    for batch in released:
                        self._dispatch(st, ctx, batch, now)
            else:
                for batch in released:
                    self._dispatch(st, ctx, batch, now)
        self._arm_timer(st)
        if self._drift_enabled and st.arrivals_seen % self.drift_check_every == 0:
            self._check_drift(st, ctx, now)


    def _handle_heap_event(self, st: _RunState, ctx: _RunContext, now: float,
                           kind: str, payload) -> None:
        if kind == _K_COMPLETION:
            self._on_completion(st, ctx, now, payload)
        elif kind == _K_TIMER:
            st.timers.discard(payload)
            for batch in st.buffer.poll(now):
                self._dispatch(st, ctx, batch, now)
            self._arm_timer(st)
        elif kind == _K_RECONFIGURE:
            self._on_reconfigure(st, ctx, now, payload)
        elif kind == _K_DECISION:
            self._on_decision(st, ctx, now, payload)
        elif kind == _K_RETRAIN:
            self._on_retrain(st, ctx, now)
        elif kind == _K_PREWARM:
            self._on_prewarm(st, ctx, now)
        elif kind == _K_GENSTEP:
            self._on_gen_step(st, ctx, now, payload)
        elif kind == _K_CRASH:
            self._on_crash(st, ctx, now, payload)
        elif kind == _K_COLD_RETRY:
            self._on_cold_retry(st, ctx, now, payload)
        elif kind == _K_HEDGE:
            self._on_hedge(st, ctx, now, payload)


    def _start_batch(self, st: _RunState, ctx: _RunContext, batch: Batch,
                     memory_mb: float, cold_delay: float, cold: bool,
                     container_id: int, start: float) -> None:
        if self._gen_buffer:
            self._start_batch_gen(st, ctx, batch, memory_mb, cold_delay,
                                  cold, container_id, start)
            return
        if self._degrade_mode:
            self._start_batch_outage(st, ctx, batch, memory_mb, cold_delay,
                                     cold, container_id, start)
            return
        size = batch.size
        if self.platform.faults_active:
            key = (memory_mb, size)
            service = ctx.service_cache.get(key)
            if service is None:
                service = float(
                    self.platform.profile.service_time(memory_mb, size)
                )
                ctx.service_cache[key] = service
            # Fixed-draw-count child generator per dispatched batch:
            # randomness is a function of the batch index, never of
            # event interleaving (repro.serverless.faults discipline).
            rng = self.platform.spawn_rng(len(st.batches))
            outcome = inject_faults(
                np.asarray([cold_delay + service]), memory_mb,
                self.platform.pricing,
                self.platform.faults, self.platform.retry_policy, rng,
            )
            fault_delay = float(outcome.fault_delays[0])
            cost = float(outcome.costs[0])
            retries = int(outcome.attempts[0]) - 1
            batch_failed = bool(outcome.failed[0])
        else:
            # service_time and invocation_cost are pure functions of the
            # key, so the memoized floats are the exact values a fresh
            # call would produce — bit-identity is free.
            key = (memory_mb, size, cold_delay)
            hit = ctx.cost_cache.get(key)
            if hit is None:
                service = float(
                    self.platform.profile.service_time(memory_mb, size)
                )
                cost = float(self.platform.pricing.invocation_cost(
                    memory_mb, cold_delay + service
                ))
                ctx.cost_cache[key] = (service, cost)
            else:
                service, cost = hit
            fault_delay = 0.0
            retries = 0
            batch_failed = False
        # Same association as BatchExecution.completion_times, so the
        # static-config equivalence is bitwise, not merely close.
        completion = start + cold_delay + service + fault_delay
        st.batches.append(batch.dispatch_time, start, size, cost, cold,
                          memory_mb, retries, PRIMARY, completion)
        if retries:
            st.counters["n_retries"] += retries
        i0 = batch.first_index
        stop = i0 + size
        st.latencies[i0:stop] = completion - batch.arrival_times
        if batch_failed:
            st.failed[i0:stop] = True
            st.counters["n_failed"] += size
        self._push(st, completion, _P_COMPLETION, _K_COMPLETION,
                   (container_id, i0, size))
        registry = ctx.registry
        if registry.enabled:
            registry.counter(f"{self.metrics_prefix}.batches").inc()
            registry.counter(
                f"{self.metrics_prefix}.cold_starts" if cold else f"{self.metrics_prefix}.warm_starts"
            ).inc()
            registry.histogram(f"{self.metrics_prefix}.queue_delay").observe(
                start - batch.dispatch_time
            )
        if st.trace is not None or ctx.journal is not None:
            self._emit(st, ctx, ("start", start, container_id, size, cold,
                                 memory_mb, completion))


    def _start_batch_outage(self, st: _RunState, ctx: _RunContext,
                            batch: Batch, memory_mb: float, cold_delay: float,
                            cold: bool, container_id: int,
                            start: float) -> None:
        """Request-level batch start under the infrastructure-fault layer.

        Semantics of :meth:`_start_batch` plus three hazards, each drawn
        with fixed counts from per-batch generator children so outcomes
        are a function of the batch row index, never of event order:

        * the container's straggler factor stretches the clean service
          time (drawn from ``(seed, container_id)``, not from the stream);
        * per-attempt request faults run on the stretched duration,
          exactly as on the plain fault path;
        * the crash hazard (child key ``(row, 1)``, two draws: the coin
          and the crash point) may kill the container partway through —
          the batch bills its partial run, its requests re-enter the
          queue at the crash, and no completion event is pushed.

        Non-crashed dispatches register in ``st.inflight`` and, with
        hedging on, schedule a hedge check at the percentile delay.
        """
        size = batch.size
        row = len(st.batches)
        key = (memory_mb, size)
        service = ctx.service_cache.get(key)
        if service is None:
            service = float(
                self.platform.profile.service_time(memory_mb, size)
            )
            ctx.service_cache[key] = service
        slowdown = self._straggler_factor(ctx, container_id)
        if slowdown != 1.0:
            st.counters["straggler_batches"] += 1
        eff_service = service * slowdown
        if self.platform.faults_active:
            rng = self.platform.spawn_rng(row)
            outcome = inject_faults(
                np.asarray([cold_delay + eff_service]), memory_mb,
                self.platform.pricing,
                self.platform.faults, self.platform.retry_policy, rng,
            )
            fault_delay = float(outcome.fault_delays[0])
            cost = float(outcome.costs[0])
            retries = int(outcome.attempts[0]) - 1
            batch_failed = bool(outcome.failed[0])
        else:
            fault_delay = 0.0
            cost = float(self.platform.pricing.invocation_cost(
                memory_mb, cold_delay + eff_service
            ))
            retries = 0
            batch_failed = False
        duration = cold_delay + eff_service + fault_delay
        completion = start + duration
        registry = ctx.registry
        if self._crash_hazard:
            u = self.platform.spawn_rng(row, 1).random(2)
            if float(u[0]) < self.outage_config.crash_probability(start):
                # The container dies a uniform fraction into the run: bill
                # the partial invocation, requeue the requests at the
                # crash. No completion, no latency, no hedge.
                crash_time = start + float(u[1]) * duration
                partial = float(self.platform.pricing.invocation_cost(
                    memory_mb, crash_time - start
                ))
                st.batches.append(batch.dispatch_time, start, size, partial,
                                  cold, memory_mb, 0, CRASHED, crash_time)
                self._push(st, crash_time, _P_CRASH, _K_CRASH,
                           (container_id, batch))
                if registry.enabled:
                    prefix = self.metrics_prefix
                    registry.counter(f"{prefix}.batches").inc()
                    registry.counter(
                        f"{prefix}.cold_starts" if cold
                        else f"{prefix}.warm_starts"
                    ).inc()
                if st.trace is not None or ctx.journal is not None:
                    self._emit(st, ctx, ("start", start, container_id, size,
                                         cold, memory_mb, completion))
                return
        st.batches.append(batch.dispatch_time, start, size, cost, cold,
                          memory_mb, retries, PRIMARY, completion)
        if retries:
            st.counters["n_retries"] += retries
        i0 = batch.first_index
        stop = i0 + size
        st.latencies[i0:stop] = completion - batch.arrival_times
        if batch_failed:
            st.failed[i0:stop] = True
            st.counters["n_failed"] += size
        if st.inflight is not None:
            st.inflight[container_id] = (completion, batch)
        hedge = self._hedge
        if hedge is not None:
            obs = st.hedge_obs
            if len(obs) >= hedge.min_observations:
                delay = hedge.multiplier * float(
                    np.percentile(obs, hedge.percentile)
                )
                hedge_at = start + delay
                if hedge_at < completion:
                    self._push(st, hedge_at, _P_HEDGE, _K_HEDGE,
                               container_id)
            # The current batch joins the window only after the delay is
            # computed: a hedge judges against *previous* dispatches.
            obs.append(duration)
        self._push(st, completion, _P_COMPLETION, _K_COMPLETION,
                   (container_id, i0, size))
        if registry.enabled:
            prefix = self.metrics_prefix
            registry.counter(f"{prefix}.batches").inc()
            registry.counter(
                f"{prefix}.cold_starts" if cold else f"{prefix}.warm_starts"
            ).inc()
            registry.histogram(f"{prefix}.queue_delay").observe(
                start - batch.dispatch_time
            )
            if slowdown != 1.0:
                registry.counter(f"{prefix}.outage.straggler_batches").inc()
        if st.trace is not None or ctx.journal is not None:
            self._emit(st, ctx, ("start", start, container_id, size, cold,
                                 memory_mb, completion))


    def _start_batch_foreign(self, st: _RunState, ctx: _RunContext,
                             batch: Batch, memory_mb: float, lease,
                             now: float, donor: int,
                             slowdown: float) -> None:
        """Run one failed-over batch on a donor lane's container.

        The owner keeps the accounting — latencies, fault draws (its own
        batch-row generator children), billing — while the donor's pool
        hosts the container; the completion payload carries the donor
        index so the release goes back to the right pool. Failed-over
        batches are never crash-checked or hedged (they are already the
        recovery path), but the donor container's straggler factor
        (computed by the donor's engine and passed in) does apply.
        """
        size = batch.size
        key = (memory_mb, size)
        service = ctx.service_cache.get(key)
        if service is None:
            service = float(
                self.platform.profile.service_time(memory_mb, size)
            )
            ctx.service_cache[key] = service
        eff_service = service * slowdown
        cold_delay = lease.cold_delay
        if self.platform.faults_active:
            rng = self.platform.spawn_rng(len(st.batches))
            outcome = inject_faults(
                np.asarray([cold_delay + eff_service]), memory_mb,
                self.platform.pricing,
                self.platform.faults, self.platform.retry_policy, rng,
            )
            fault_delay = float(outcome.fault_delays[0])
            cost = float(outcome.costs[0])
            retries = int(outcome.attempts[0]) - 1
            batch_failed = bool(outcome.failed[0])
        else:
            fault_delay = 0.0
            cost = float(self.platform.pricing.invocation_cost(
                memory_mb, cold_delay + eff_service
            ))
            retries = 0
            batch_failed = False
        completion = now + cold_delay + eff_service + fault_delay
        st.batches.append(batch.dispatch_time, now, size, cost, lease.cold,
                          memory_mb, retries, FAILOVER, completion)
        if retries:
            st.counters["n_retries"] += retries
        i0 = batch.first_index
        stop = i0 + size
        st.latencies[i0:stop] = completion - batch.arrival_times
        if batch_failed:
            st.failed[i0:stop] = True
            st.counters["n_failed"] += size
        if st.failed_over is not None:
            st.failed_over[i0:stop] = True
        st.counters["failover_batches"] = (
            st.counters.get("failover_batches", 0) + 1
        )
        self._push(st, completion, _P_COMPLETION, _K_COMPLETION,
                   (lease.container_id, i0, size, donor))
        registry = ctx.registry
        if registry.enabled:
            prefix = self.metrics_prefix
            registry.counter(f"{prefix}.batches").inc()
            registry.counter(f"{prefix}.degrade.failover").inc()
            registry.counter(
                f"{prefix}.cold_starts" if lease.cold
                else f"{prefix}.warm_starts"
            ).inc()
        if st.trace is not None or ctx.journal is not None:
            self._emit(st, ctx, ("failover", now, donor, lease.container_id,
                                 size))


    def _on_cold_retry(self, st: _RunState, ctx: _RunContext, now: float,
                       payload) -> None:
        """One fired cold-start backoff: retry the acquire; on another
        denial take the next scheduled backoff, and after the last one
        fall back to the ordinary queue-or-shed admission path."""
        if self.degrade_config is None:
            return  # a restored pre-degrade heap cannot carry this kind
        batch, attempt, sched = payload
        memory_mb = st.active.memory_mb
        lease = st.pool.acquire(now, memory_mb)
        registry = ctx.registry
        if lease is not None:
            if registry.enabled and lease.cold:
                registry.histogram(
                    f"{self.metrics_prefix}.cold_delay"
                ).observe(lease.cold_delay)
            self._start_batch(st, ctx, batch, memory_mb, lease.cold_delay,
                              lease.cold, lease.container_id, start=now)
            return
        if attempt < len(sched):
            st.counters["cold_retries"] += 1
            if registry.enabled:
                registry.counter(
                    f"{self.metrics_prefix}.degrade.cold_retries"
                ).inc()
            if st.trace is not None or ctx.journal is not None:
                self._emit(st, ctx, ("cold_retry", now, batch.size,
                                     attempt + 1))
            self._push(st, now + sched[attempt], _P_COLD_RETRY, _K_COLD_RETRY,
                       (batch, attempt + 1, sched))
            return
        st.counters["cold_retry_exhausted"] += 1
        if registry.enabled:
            registry.counter(
                f"{self.metrics_prefix}.degrade.retry_exhausted"
            ).inc()
        self._enqueue_or_shed(st, ctx, batch, now)


    def _on_hedge(self, st: _RunState, ctx: _RunContext, now: float,
                  container_id: int) -> None:
        """The hedge delay elapsed and the primary is still in flight:
        dispatch a duplicate to a fresh container. The first completion
        wins the latency; both invocations bill (the hedging economics).
        The duplicate is never crash-checked, fault-injected, or itself
        hedged — it is the recovery path — but its own container's
        straggler factor applies.
        """
        hedge = self._hedge
        if hedge is None:
            return  # a restored pre-degrade heap cannot carry this kind
        rec = st.inflight.get(container_id) if st.inflight is not None else None
        if rec is None:
            return  # completed (or crashed) before the hedge fired
        completion, batch = rec
        memory_mb = st.active.memory_mb
        lease = st.pool.acquire(now, memory_mb)
        registry = ctx.registry
        if lease is None:
            # No capacity for speculation — the primary keeps running.
            st.counters["hedge_denied"] += 1
            if registry.enabled:
                registry.counter(
                    f"{self.metrics_prefix}.degrade.hedge_denied"
                ).inc()
            return
        size = batch.size
        key = (memory_mb, size)
        service = ctx.service_cache.get(key)
        if service is None:
            service = float(
                self.platform.profile.service_time(memory_mb, size)
            )
            ctx.service_cache[key] = service
        slowdown = self._straggler_factor(ctx, lease.container_id)
        duration = lease.cold_delay + service * slowdown
        dup_completion = now + duration
        cost = float(self.platform.pricing.invocation_cost(
            memory_mb, duration
        ))
        st.batches.append(batch.dispatch_time, now, size, cost, lease.cold,
                          memory_mb, 0, HEDGE, dup_completion)
        st.counters["hedges"] += 1
        st.counters["hedge_cost"] += cost
        i0 = batch.first_index
        stop = i0 + size
        st.hedged[i0:stop] = True
        if dup_completion < completion:
            # The duplicate wins: overwrite the primary's latencies (and
            # clear any fault verdict — the winning attempt is clean).
            st.latencies[i0:stop] = dup_completion - batch.arrival_times
            st.failed[i0:stop] = False
            st.counters["hedge_wins"] += 1
        # Size-0 completion payload: release the duplicate's container at
        # its own finish time without re-touching any request slice.
        self._push(st, dup_completion, _P_COMPLETION, _K_COMPLETION,
                   (lease.container_id, i0, 0))
        if registry.enabled:
            prefix = self.metrics_prefix
            registry.counter(f"{prefix}.batches").inc()
            registry.counter(f"{prefix}.degrade.hedges").inc()
            registry.counter(f"{prefix}.degrade.hedge_cost").inc(cost)
            if dup_completion < completion:
                registry.counter(f"{prefix}.degrade.hedge_wins").inc()
            registry.counter(
                f"{prefix}.cold_starts" if lease.cold
                else f"{prefix}.warm_starts"
            ).inc()
        if st.trace is not None or ctx.journal is not None:
            self._emit(st, ctx, ("hedge", now, container_id,
                                 lease.container_id, size))


    def _start_batch_gen(self, st: _RunState, ctx: _RunContext, batch: Batch,
                         memory_mb: float, cold_delay: float, cold: bool,
                         container_id: int, start: float) -> None:
        """Size/timeout batch under generation timing.

        The batch prefills together (``ttft(M, B)``) and then decodes in
        lockstep; each member's own completion lands after its output
        length, but the container is held — and billed — until the
        *longest* decode in the batch finishes. With every
        ``output_tokens == 1`` this is exactly the request-level
        :meth:`_start_batch`: same service time, same cost, same events.
        """
        gen = self.generation_config
        size = batch.size
        # ttft/tpot are pure functions of (M, B); reuse the service memo.
        key = (memory_mb, size)
        pair = ctx.service_cache.get(key)
        if pair is None:
            pair = (
                float(gen.token_profile.ttft(memory_mb, size)),
                float(gen.token_profile.tpot(memory_mb, size)),
            )
            ctx.service_cache[key] = pair
        ttft, tpot = pair
        i0 = batch.first_index
        stop = i0 + size
        out = st.output_tokens[i0:stop]
        max_out = int(out.max())
        duration = cold_delay + ttft + (max_out - 1) * tpot
        completion = start + duration
        cost = float(self.platform.pricing.invocation_cost(memory_mb, duration))
        st.batches.append(batch.dispatch_time, start, size, cost, cold,
                          memory_mb, 0, PRIMARY, completion)
        first_token = start + cold_delay + ttft
        st.ttft[i0:stop] = first_token - batch.arrival_times
        st.latencies[i0:stop] = (
            first_token + (out - 1) * tpot - batch.arrival_times
        )
        st.tpot[i0:stop] = np.where(out > 1, tpot, np.nan)
        st.counters["gen_prefill_iterations"] += 1
        st.counters["gen_decode_iterations"] += max_out - 1
        st.counters["gen_tokens"] += int(out.sum())
        self._push(st, completion, _P_COMPLETION, _K_COMPLETION,
                   (container_id, i0, size))
        registry = ctx.registry
        if registry.enabled:
            prefix = self.metrics_prefix
            registry.counter(f"{prefix}.batches").inc()
            registry.counter(
                f"{prefix}.cold_starts" if cold else f"{prefix}.warm_starts"
            ).inc()
            registry.histogram(f"{prefix}.queue_delay").observe(
                start - batch.dispatch_time
            )
            registry.counter(f"{prefix}.gen.requests").inc(size)
            registry.counter(f"{prefix}.gen.tokens").inc(int(out.sum()))
            registry.histogram(f"{prefix}.ttft").observe_many(
                st.ttft[i0:stop]
            )
        if st.trace is not None or ctx.journal is not None:
            self._emit(st, ctx, ("start", start, container_id, size, cold,
                                 memory_mb, completion))


    def _dispatch(self, st: _RunState, ctx: _RunContext, batch: Batch,
                  now: float) -> None:
        memory_mb = st.active.memory_mb
        lease = st.pool.acquire(now, memory_mb)
        registry = ctx.registry
        if lease is not None:
            if registry.enabled and lease.cold:
                registry.histogram(f"{self.metrics_prefix}.cold_delay").observe(
                    lease.cold_delay
                )
            self._start_batch(st, ctx, batch, memory_mb, lease.cold_delay,
                              lease.cold, lease.container_id, start=now)
            return
        backoff = self._backoff
        if (backoff is not None and st.pool.outage is not None
                and st.pool.outage.active(now)):
            # Capacity-unavailable during an outage window: retry the cold
            # start on a capped exponential backoff schedule instead of
            # parking in the queue. The whole jittered schedule is drawn
            # up front from a per-batch generator child (key: first request
            # index) so draws are order-independent and checkpoint-safe.
            rng = self.platform.spawn_rng(batch.first_index, 2)
            sched = backoff.backoff_matrix(1, rng)[:, 0]
            if backoff.max_total_delay_s is not None:
                keep = int(
                    (np.cumsum(sched) <= backoff.max_total_delay_s).sum()
                )
                sched = sched[:keep]
            if sched.size:
                st.counters["cold_retries"] += 1
                if registry.enabled:
                    registry.counter(
                        f"{self.metrics_prefix}.degrade.cold_retries"
                    ).inc()
                if st.trace is not None or ctx.journal is not None:
                    self._emit(st, ctx, ("cold_retry", now, batch.size, 1))
                self._push(st, now + float(sched[0]), _P_COLD_RETRY,
                           _K_COLD_RETRY,
                           (batch, 1, tuple(float(x) for x in sched)))
                return
        self._enqueue_or_shed(st, ctx, batch, now)


    def _on_completion(self, st: _RunState, ctx: _RunContext, now: float,
                       payload) -> None:
        foreign = None
        if len(payload) == 3:
            container_id, i0, size = payload
            lat = st.latencies[i0:i0 + size]
            # Generation mode breaks on TTFT windows, not end-of-decode
            # latency — first-token time is the streaming SLO.
            guard_obs = st.ttft[i0:i0 + size] if self._gen_buffer else lat
        elif len(payload) == 4:
            # Failed-over batch: the donor lane's pool hosted the
            # container, so release goes there, and this lane's own queue
            # is left to the fleet's drain pass (popping it here would
            # reorder admissions).
            container_id, i0, size, foreign = payload
            lat = st.latencies[i0:i0 + size]
            guard_obs = lat
        else:
            # A pre-speed-pass snapshot's heap carries (id, indices-array)
            # payloads; honor them so old checkpoints keep restoring.
            container_id, indices = payload
            lat = st.latencies[indices]
            guard_obs = lat
        if st.inflight is not None:
            st.inflight.pop(container_id, None)
        if foreign is None:
            st.pool.release(container_id, now)
        else:
            self._donor_pools[foreign].release(container_id, now)
        if self._track_latencies:
            st.recent_latencies.extend(lat.tolist())
        registry = ctx.registry
        if registry.enabled:
            registry.histogram(f"{self.metrics_prefix}.latency").observe_many(
                lat
            )
        if st.trace is not None or ctx.journal is not None:
            self._emit(st, ctx, ("completion", now, container_id))
        if foreign is None and st.queue:
            self._dispatch(st, ctx, st.queue.popleft(), now)
        if st.guardrail is not None:
            for action, observed in st.guardrail.observe(
                guard_obs, now, st.active
            ):
                self._on_guardrail_action(st, ctx, now, action, observed)


    def _on_crash(self, st: _RunState, ctx: _RunContext, now: float,
                  payload) -> None:
        """A container died mid-batch: it leaves the pool immediately
        (freeing any fleet-shared budget), and the batch re-enters the
        dispatch path — a fresh batch row, hence fresh fault/crash draws."""
        container_id, batch = payload
        st.inflight.pop(container_id, None)
        st.pool.kill(container_id)
        st.counters["crashed_containers"] += 1
        st.counters["crash_requeued"] += batch.size
        registry = ctx.registry
        if registry.enabled:
            prefix = self.metrics_prefix
            registry.counter(f"{prefix}.outage.crashes").inc()
            registry.counter(f"{prefix}.outage.crash_requeued").inc(
                batch.size
            )
        if st.trace is not None or ctx.journal is not None:
            self._emit(st, ctx, ("crash", now, container_id, batch.size))
        self._dispatch(st, ctx, batch, now)


    def _enqueue_or_shed(self, st: _RunState, ctx: _RunContext, batch: Batch,
                         now: float) -> None:
        """No capacity (and no retry budget left): queue, or shed at the
        queue cap. The tail of the historical ``_dispatch``, split out so
        the cold-retry path can fall back to it after exhaustion."""
        registry = ctx.registry
        limit = self.pool_config.max_queued_batches
        if limit is not None and len(st.queue) >= limit:
            st.shed[batch.first_index:batch.first_index + batch.size] = True
            st.counters["shed_batches"] += 1
            if registry.enabled:
                registry.counter(f"{self.metrics_prefix}.shed_requests").inc(batch.size)
                registry.counter(f"{self.metrics_prefix}.shed_batches").inc()
                registry.record_event(ShedEvent(
                    time=now, requests=batch.size,
                    queued_batches=len(st.queue),
                ))
            if st.trace is not None or ctx.journal is not None:
                self._emit(st, ctx, ("shed", now, batch.size))
            return
        st.queue.append(batch)
        st.counters["queued_batches"] += 1
        if registry.enabled:
            registry.counter(f"{self.metrics_prefix}.queued_batches").inc()
        if st.trace is not None or ctx.journal is not None:
            self._emit(st, ctx, ("queued", now, batch.size))


    def _inject_decision(self, st: _RunState, ctx: _RunContext, now: float,
                         config: BatchConfig, reason: str,
                         decision_time: float = 0.0,
                         predicted_p95: float | None = None,
                         degraded: bool = False) -> None:
        registry = ctx.registry
        record = ServingDecision(
            time=now,
            reason=reason,
            config=config,
            decision_time=float(decision_time),
            degraded=degraded,
            predicted_p95=predicted_p95,
        )
        st.decisions.append(record)
        if registry.enabled:
            registry.counter(f"{self.metrics_prefix}.decisions").inc()
        self._emit(st, ctx, ("decision", now, reason, str(config)))
        if config != st.target:
            st.target = config
            st.reconfig_gen += 1
            self._push(st, now + self.deploy_delay_s, _P_RECONFIGURE,
                       _K_RECONFIGURE, (st.reconfig_gen, record, now, reason))


    def _on_decision(self, st: _RunState, ctx: _RunContext, now: float,
                     reason: str) -> None:
        registry = ctx.registry
        if self.chooser is None:
            return
        suppressed = st.guardrail is not None and st.guardrail.state == OPEN
        hist = np.diff(self._recent_ts(st))
        if suppressed:
            # The breaker is open: the fallback configuration stays pinned
            # and the learned controller does not get to reconfigure until
            # the half-open probe re-admits it.
            st.counters["guardrail_suppressed"] += 1
            if registry.enabled:
                registry.counter("guardrail.suppressed_decisions").inc()
            self._emit(st, ctx, ("decision_suppressed", now, reason))
        elif hist.size >= self.min_history:
            try:
                decision = self.chooser.choose(hist, self.slo)
            except Exception:
                # Live serving must survive a controller crash with no
                # fallback decision; keep the active configuration.
                st.counters["decision_errors"] += 1
                if registry.enabled:
                    registry.counter(f"{self.metrics_prefix}.decision_errors").inc()
                self._emit(st, ctx, ("decision_error", now, reason))
                decision = None
            if decision is not None:
                self._inject_decision(
                    st, ctx, now, decision.config, reason,
                    decision_time=float(decision.decision_time),
                    predicted_p95=self._extract_predicted_p95(decision),
                    degraded=decision.degraded,
                )
        if (
            reason == "interval"
            and self.decision_interval_s is not None
            and st.arrival_ptr < st.n
        ):
            self._push(st, now + self.decision_interval_s, _P_DECISION,
                       _K_DECISION, "interval")


    def _on_reconfigure(self, st: _RunState, ctx: _RunContext, now: float,
                        payload) -> None:
        gen, record, decided_at, reason = payload
        if gen != st.reconfig_gen:  # superseded by a newer decision
            return
        old = st.active
        released = st.buffer.reconfigure(record.config, now=now)
        st.active = record.config
        record.applied_at = now
        st.counters["reconfigurations"] += 1
        st.pred_p95 = record.predicted_p95
        st.recent_latencies.clear()
        registry = ctx.registry
        if registry.enabled:
            registry.counter(f"{self.metrics_prefix}.reconfigurations").inc()
            registry.record_event(ReconfigureEvent(
                time=now, reason=reason,
                memory_mb=st.active.memory_mb,
                batch_size=st.active.batch_size, timeout=st.active.timeout,
                old_memory_mb=old.memory_mb,
                old_batch_size=old.batch_size, old_timeout=old.timeout,
                lag=now - decided_at,
            ))
        self._emit(st, ctx, ("reconfigure", now, str(st.active), reason))
        for batch in released:
            self._dispatch(st, ctx, batch, now)
        self._arm_timer(st)


class SpecEngine(SpecDataPlane, ServingEngine):
    """A single engine on the spec data plane."""

    def run(self, *args, **kwargs):
        with mock.patch.object(engine_module, "publish_telemetry",
                               _publish_dispatches):
            return super().run(*args, **kwargs)

    def restore(self, *args, **kwargs):
        with mock.patch.object(engine_module, "publish_telemetry",
                               _publish_dispatches):
            return super().restore(*args, **kwargs)


class SpecLaneEngine(SpecDataPlane, _LaneEngine):
    """A fleet lane on the spec data plane."""


class SpecFleetEngine(FleetEngine):
    """A fleet whose lanes run the spec data plane, with the drain,
    failover and brownout passes that routed into it."""

    def run(self, *args, **kwargs):
        with mock.patch.object(fleet_module, "_LaneEngine", SpecLaneEngine), \
                mock.patch.object(fleet_module, "publish_telemetry",
                                  _publish_dispatches):
            return super().run(*args, **kwargs)

    @staticmethod
    def _drain_queues(lanes, now: float) -> set[int]:
        """Start queued batches anywhere the shared budget now allows.

        Without this pass a lane whose only pending work is queued
        batches would deadlock: it has no completion events of its own,
        so nothing inside the lane would ever retry the pool. Returns the
        indices of lanes that started at least one batch — their
        next-event key may have changed, so the heap-merged loop re-keys
        exactly those.
        """
        changed: set[int] = set()
        for lane, (eng, st, ctx) in enumerate(lanes):
            while st.queue:
                memory_mb = st.active.memory_mb
                lease = st.pool.acquire(now, memory_mb)
                if lease is None:
                    break
                batch = st.queue.popleft()
                registry = ctx.registry
                if registry.enabled and lease.cold:
                    registry.histogram(
                        f"{eng.metrics_prefix}.cold_delay"
                    ).observe(lease.cold_delay)
                eng._start_batch(
                    st, ctx, batch, memory_mb, lease.cold_delay,
                    lease.cold, lease.container_id, start=now,
                )
                changed.add(lane)
        return changed


    def _failover_pass(self, lanes, now: float) -> set[int]:
        """Drain starved lanes onto idle compatible donor lanes.

        Owners (queue at least ``min_queue`` deep) are served highest
        priority first (ties: lane order); donors are lanes at the same
        active memory tier with an empty queue of their own, tried in
        lane order. The owner keeps all accounting — its latencies, its
        fault draws, its bill — while the donor's pool hosts the
        container (see ``ServingEngine._start_batch_foreign``). Returns
        the owner lanes that dispatched (their event heap changed).
        """
        min_queue = self.failover.min_queue
        changed: set[int] = set()
        owners = sorted(
            (i for i, (_eng, st, _ctx) in enumerate(lanes)
             if len(st.queue) >= min_queue),
            key=lambda i: (-self.endpoints[i].priority, i),
        )
        for o in owners:
            o_eng, o_st, o_ctx = lanes[o]
            memory_mb = o_st.active.memory_mb
            for d, (d_eng, d_st, d_ctx) in enumerate(lanes):
                if d == o or d_st.queue:
                    continue
                if d_st.active.memory_mb != memory_mb:
                    continue
                while o_st.queue:
                    lease = d_st.pool.acquire(now, memory_mb)
                    if lease is None:
                        break
                    batch = o_st.queue.popleft()
                    o_eng._start_batch_foreign(
                        o_st, o_ctx, batch, memory_mb, lease, now, d,
                        d_eng._straggler_factor(d_ctx, lease.container_id),
                    )
                    changed.add(o)
                if not o_st.queue:
                    break
        return changed


    def _brownout_pass(self, lanes, now: float) -> set[int]:
        """Shed the fleet's backlog down to the brownout cap.

        While the total queued-batch count exceeds ``max_total_queued``,
        drop the *newest* queued batch (LIFO — the oldest waiters keep
        their place) from the lowest-priority backlogged lane (ties:
        later lane first). Shedding never changes a lane's event heap, so
        the returned set only matters for bookkeeping symmetry.
        """
        cap = self.brownout.max_total_queued
        total = sum(len(st.queue) for _eng, st, _ctx in lanes)
        changed: set[int] = set()
        while total > cap:
            victim = max(
                (i for i, (_eng, st, _ctx) in enumerate(lanes) if st.queue),
                key=lambda i: (-self.endpoints[i].priority, i),
            )
            eng, st, ctx = lanes[victim]
            batch = st.queue.pop()
            i0 = batch.first_index
            st.shed[i0:i0 + batch.size] = True
            st.counters["brownout_shed"] += batch.size
            registry = ctx.registry
            if registry.enabled:
                prefix = eng.metrics_prefix
                registry.counter(f"{prefix}.degrade.brownout_shed").inc(
                    batch.size
                )
                registry.record_event(ShedEvent(
                    time=now, requests=batch.size,
                    queued_batches=len(st.queue),
                ))
            if st.trace is not None or ctx.journal is not None:
                eng._emit(st, ctx, ("brownout_shed", now, batch.size))
            changed.add(victim)
            total -= 1
        return changed
