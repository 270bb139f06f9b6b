"""The discrete-event serving runtime (`repro serve`).

Everything else in the repo replays *fixed* segments offline; this engine
runs the same components — :class:`BatchingBuffer`,
:class:`ServerlessPlatform`, any ``Chooser`` — as a **live system** in which
arrivals, batch timeouts, invocation completions, controller decisions, and
reconfigurations interleave in simulated time on one event heap:

========================  ====================================================
event                     what happens
========================  ====================================================
``Arrival``               a request enters the buffer; may release batches
``BatchDispatch``         a buffer timeout fires (the (B, T) policy's timer)
``Completion``            an invocation finishes; its container goes warm and
                          the head of the admission queue starts
``DecisionTick``          the controller re-optimizes (periodic or
                          drift-triggered)
``Reconfigure``           a decided ``(M, B, T)`` takes effect after the
                          deploy lag; in-flight batches finish under the old
                          configuration
``RetrainComplete``       a drift-triggered fine-tune lands; the drift
                          envelope is refit on recent traffic
``PrewarmTick``           the predictive prewarmer forecasts the near-future
                          arrival rate and provisions/retires warm
                          containers ahead of demand
``GenStep``               a continuous-batching session reaches an iteration
                          boundary: finished decodes leave, waiting requests
                          join, the next prefill/decode step is planned
========================  ====================================================

The engine adds the state the offline path cannot express — a warm-pool
keep-alive model (:mod:`repro.serving.pool`), reconfiguration lag, and
admission control — while keeping the **equivalence property** that anchors
its correctness: with a static configuration, infinite keep-alive, zero
deploy lag, and no shedding, per-request latencies and per-batch costs match
:func:`repro.batching.simulator.simulate` bit-for-bit (with and without a
concurrency limit). The offline simulator is a special case of the runtime.

Determinism: the heap orders events by ``(time, priority, sequence)``; the
pool draws no randomness; fault draws use one fixed-draw-count child
generator per dispatched batch (``platform.spawn_rng(batch_index)``, the
discipline of :mod:`repro.serverless.faults`), so two runs with the same
seed produce identical event traces and :class:`ServingLog`\\ s.

Crash safety (PR 5): the entire mutable state of a run lives in one
picklable :class:`_RunState`, so the engine can snapshot itself at any
event boundary (:mod:`repro.serving.checkpoint`) and
:meth:`ServingEngine.restore` continues a killed run **bit-identically** to
one that never crashed — the determinism property above is what makes the
resumed event stream exact, and the journal-replay check enforces it. An
optional SLO guardrail (:mod:`repro.serving.guardrail`) watches completed
latencies and circuit-breaks to a safe configuration when the learned
controller's predictions go wrong at runtime. Both features are off by
default, and when off every output is bit-identical to the pre-checkpoint
build.
"""

from __future__ import annotations

import os
import pickle
import sys
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np

from repro.batching.buffer import Batch, RecordingBuffer
from repro.batching.config import BatchConfig
from repro.batching.continuous import ContinuousSession, GenRequest
from repro.core.drift import prediction_drift
from repro.core.types import Decision
from repro.evaluation.harness import Chooser, _resolve_sequence_length
from repro.serverless.faults import inject_faults
from repro.serverless.outages import OutageModel
from repro.serverless.platform import ServerlessPlatform
from repro.serving.config import (
    DriftConfig,
    GenerationConfig,
    PredictionDriftConfig,
    PrewarmConfig,
)
from repro.serving.checkpoint import (
    CheckpointError,
    Journal,
    JournalReplayError,
    SimulatedCrash,
    journal_path,
    jsonable,
    read_snapshot,
    write_snapshot,
)
from repro.serving.degrade import DegradeConfig, HedgeWindow
from repro.serving.guardrail import OPEN, GuardrailConfig, SLOGuardrail
from repro.serving.log import (
    CRASHED,
    FAILOVER,
    HEDGE,
    PRIMARY,
    SESSION,
    BatchColumns,
    ServingDecision,
    ServingLog,
    publish_telemetry,
)
from repro.serving.pool import WarmPool, WarmPoolConfig
from repro.serving.prewarm import PrewarmPolicy
from repro.telemetry.events import (
    CheckpointEvent,
    DriftEvent,
    GuardrailEvent,
    ReconfigureEvent,
    ShedEvent,
)
from repro.telemetry.metrics import get_registry
from repro.telemetry.timing import NULL_TIMERS, StageTimers, stage_timers
from repro.utils.validation import check_sorted

# Heap tie-break priorities: completions free containers before anything
# else at the same instant; reconfigurations land before the arrivals of
# that instant; arrivals join a batch whose deadline falls on their own
# timestamp (closed-interval semantics), so they precede the timer.
_P_COMPLETION = 0
_P_RECONFIGURE = 1
_P_ARRIVAL = 2
_P_TIMER = 3
_P_DECISION = 4
_P_RETRAIN = 5
_P_PREWARM = 6
_P_GENSTEP = 7
# PR 10 (outages & degradation): a crash vacates its container like a
# completion, so it ranks with completions; cold-start retries and hedge
# checks are background work that defers to everything else at an instant.
_P_CRASH = _P_COMPLETION
_P_COLD_RETRY = 8
_P_HEDGE = 9

# Event-kind strings, interned once: every heap entry carries the same
# string object, so the handler-table lookup matches on identity instead
# of comparing characters. (Plain equality is still the semantics — a heap
# restored from a pickle looks its kinds up by value.)
_K_ARRIVAL = sys.intern("arrival")
_K_COMPLETION = sys.intern("completion")
_K_TIMER = sys.intern("timer")
_K_RECONFIGURE = sys.intern("reconfigure")
_K_DECISION = sys.intern("decision")
_K_RETRAIN = sys.intern("retrain")
_K_PREWARM = sys.intern("prewarm")
_K_GENSTEP = sys.intern("genstep")
_K_CRASH = sys.intern("crash")
_K_COLD_RETRY = sys.intern("cold_retry")
_K_HEDGE = sys.intern("hedge")

_INF = float("inf")


@dataclass
class _RunState:
    """The complete mutable state of one engine run.

    Everything here pickles, and everything mutable about a run lives here
    (the engine object itself only holds immutable policy) — that is the
    invariant checkpoint/restore rests on: snapshot this object and the run
    can continue in another process, bit-identically.
    """

    name: str
    trace_name: str
    ts: np.ndarray
    n: int
    buffer: RecordingBuffer
    pool: WarmPool
    heap: list
    seq: int
    queue: deque
    timers: set
    #: The last ``history_tail + 1`` pre-run timestamps (the ``history``
    #: argument of :meth:`ServingEngine.run`); with ``ts[:arrival_ptr]``
    #: it forms the controller's observation window (``_recent_ts``).
    history: np.ndarray
    active: BatchConfig
    target: BatchConfig
    reconfig_gen: int = 0
    arrivals_seen: int = 0
    arrival_ptr: int = 0
    cooldown_until: float = -np.inf
    retrain_pending: bool = False
    pred_p95: float | None = None
    recent_latencies: list = field(default_factory=list)
    guardrail: SLOGuardrail | None = None
    clock: float = -np.inf
    events_processed: int = 0
    # Generation mode (None unless a GenerationConfig is set).
    prompt_tokens: np.ndarray | None = None
    output_tokens: np.ndarray | None = None
    ttft: np.ndarray | None = None
    tpot: np.ndarray | None = None
    gen_queue: deque | None = None
    gen_sessions: dict | None = None
    gen_session_meta: dict | None = None
    # Infrastructure faults & degradation (None unless an
    # OutageModel/DegradeConfig or fleet failover needs them).
    inflight: dict | None = None
    hedge_obs: HedgeWindow | None = None
    hedged: np.ndarray | None = None
    failed_over: np.ndarray | None = None
    # Outputs.
    latencies: np.ndarray = None
    shed: np.ndarray = None
    failed: np.ndarray = None
    batches: BatchColumns = field(default_factory=BatchColumns)
    decisions: list = field(default_factory=list)
    trace: list | None = None
    counters: dict = field(default_factory=dict)


@dataclass
class _RunContext:
    """Transient per-drive plumbing that must NOT be checkpointed:
    the live telemetry registry (events as they happen, instruments from
    the finished log), the open journal handle, the snapshot
    cadence, the chaos hook, the journal-replay expectation, the stage
    timers, and the service/cost memo caches (pure-function caches — a
    restore rebuilds them from scratch with identical values)."""

    registry: object
    journal: Journal | None = None
    snapshot_path: str | None = None
    checkpoint_every: int = 256
    crash_after: int | None = None
    replay_expect: list | None = None
    replay_pos: int = 0
    timers: StageTimers = NULL_TIMERS
    #: ``(memory_mb, size) -> service_time`` (request-level batches).
    service_cache: dict = field(default_factory=dict)
    #: ``(memory_mb, size) -> (ttft, tpot)`` (generation-buffer batches);
    #: its own dict, so token timings never alias a service time.
    token_cache: dict = field(default_factory=dict)
    #: ``(memory_mb, billed_seconds) -> invocation cost``.
    cost_cache: dict = field(default_factory=dict)
    #: ``container_id -> straggler slowdown`` — a pure function of the
    #: outage model's seed and the id, so restores rebuild it exactly.
    straggler_cache: dict = field(default_factory=dict)


class ServingEngine:
    """Seeded, deterministic online serving loop over an arrival stream.

    Parameters
    ----------
    config:
        The initial ``(M, B, T)`` deployment.
    platform:
        Service-time, pricing, cold-start, and fault models. The platform's
        ``concurrency_limit`` becomes the pool's ``max_containers`` default;
        its queueing throttle itself is *not* used — the warm pool is the
        concurrency model here.
    chooser:
        Optional controller re-deciding at ``decision_interval_s`` and on
        drift triggers; ``None`` serves the static ``config`` forever.
    pool:
        Warm-pool keep-alive and admission parameters. The default is the
        offline simulator's implicit platform: infinite keep-alive,
        ``max_containers`` from the platform's concurrency limit, unbounded
        queueing (no shedding).
    deploy_delay_s:
        Lag between a decision and the new configuration taking effect.
    drift:
        :class:`~repro.serving.config.DriftConfig` grouping the workload
        drift trigger: the fitted :class:`WorkloadDriftDetector`, the check
        cadence/cooldown, and the optional delayed retrain. When a live
        window falls outside the training envelope, an out-of-band
        ``DecisionTick`` fires (§III-D's OOD trigger, run against live
        traffic). The default ``DriftConfig()`` carries no detector.
    prediction:
        :class:`~repro.serving.config.PredictionDriftConfig` enabling the
        second §III-D trigger via :func:`prediction_drift`: when the
        relative error between the active decision's predicted p95 and the
        observed p95 exceeds ``tolerance × baseline_error``, the controller
        re-decides. ``None`` disables it.
    guardrail:
        Optional :class:`GuardrailConfig` enabling the SLO circuit breaker:
        a sliding monitor over completed-request latencies that trips to a
        safe fallback configuration after ``k`` consecutive violation
        windows, suppresses learned reconfigurations while open, and
        half-open-probes the controller back in after a cooldown. ``None``
        (the default) changes nothing.
    prewarm:
        Optional :class:`~repro.serving.config.PrewarmConfig` enabling
        predictive warm-pool prewarming: a deterministic periodic
        ``PrewarmTick`` forecasts the near-future arrival rate
        (:mod:`repro.serving.prewarm`), sizes the active tier's warm
        target, and provisions or retires containers ahead of demand.
        ``None`` (the default) changes nothing — runs stay bit-identical
        to the purely reactive pool.
    generation:
        Optional :class:`~repro.serving.config.GenerationConfig` switching
        the workload to token-streaming generation: per-request
        ``(prompt, output)`` token lengths from the seeded length model,
        prefill/decode timing from the
        :class:`~repro.serverless.generation.TokenServiceProfile`, and the
        dispatcher it names — ``"buffer"`` keeps the size/timeout
        :class:`BatchingBuffer` (each batch holds its container for the
        longest decode), ``"continuous"`` runs iteration-level sessions
        where requests join and leave a running batch at token boundaries
        (:mod:`repro.batching.continuous`). The guardrail, when present,
        watches TTFT windows against ``ttft_slo``. ``None`` (the default)
        changes nothing — runs stay bit-identical to the request-level
        engine. Incompatible with active fault injection.
    outages:
        Optional :class:`~repro.serverless.outages.OutageModel` enabling
        the infrastructure-fault layer: scheduled outage windows during
        which the pool denies cold-start provisioning
        (capacity-unavailable), a per-batch container-crash hazard whose
        victims fail mid-batch and re-enter the queue, and a seeded
        straggler model stretching a slow container's service times.
        ``None`` (and a disabled model, which is treated identically)
        changes nothing — runs stay bit-identical to the fault-free tree.
        Incompatible with generation mode (like fault injection).
    degrade:
        Optional :class:`~repro.serving.degrade.DegradeConfig` enabling
        the graceful-degradation stack on top of the fault layer: a
        cold-start retry policy (capacity-denied dispatches back off with
        capped exponential delays instead of parking in the queue) and
        request hedging (a batch in flight past a percentile of recent
        batch durations gets a duplicate dispatch; first completion wins
        the latency, both bill). ``None`` changes nothing.
    metrics_prefix:
        Namespace for the engine's telemetry (counters/histograms, published
        from the finished log when a registry is enabled). The default
        ``"serving"`` keeps the historical names; the fleet runs each
        endpoint under ``serving.<endpoint>`` so two endpoints never share
        a counter.
    """

    #: Fleet-failover wiring, set per lane by ``FleetEngine.run`` (the
    #: donor pools a foreign completion releases into). The base engine
    #: never fails over.
    _failover_enabled = False
    _donor_pools: list | None = None

    def __init__(
        self,
        config: BatchConfig,
        platform: ServerlessPlatform | None = None,
        chooser: Chooser | None = None,
        slo: float = 0.1,
        pool: WarmPoolConfig | None = None,
        deploy_delay_s: float = 0.0,
        decision_interval_s: float | None = None,
        history_tail: int = 4096,
        min_history: int = 32,
        drift: DriftConfig | None = None,
        prediction: PredictionDriftConfig | None = None,
        sequence_length: int | None = None,
        guardrail: GuardrailConfig | None = None,
        prewarm: PrewarmConfig | None = None,
        generation: GenerationConfig | None = None,
        outages: OutageModel | None = None,
        degrade: DegradeConfig | None = None,
        metrics_prefix: str = "serving",
    ) -> None:
        if slo <= 0:
            raise ValueError(f"slo must be > 0, got {slo}")
        if deploy_delay_s < 0:
            raise ValueError(f"deploy_delay_s must be >= 0, got {deploy_delay_s}")
        if decision_interval_s is not None and decision_interval_s <= 0:
            raise ValueError("decision_interval_s must be > 0 or None")
        if history_tail < 1:
            raise ValueError(f"history_tail must be >= 1, got {history_tail}")
        if not metrics_prefix:
            raise ValueError("metrics_prefix must be non-empty")
        self.initial_config = config
        self.platform = platform if platform is not None else ServerlessPlatform()
        self.chooser = chooser
        self.slo = slo
        self.pool_config = (
            pool
            if pool is not None
            else WarmPoolConfig(max_containers=self.platform.concurrency_limit)
        )
        self.deploy_delay_s = deploy_delay_s
        self.decision_interval_s = decision_interval_s
        self.history_tail = history_tail
        self.min_history = min_history
        self.drift_config = drift if drift is not None else DriftConfig()
        self.prediction_config = prediction
        self.sequence_length = _resolve_sequence_length(chooser, sequence_length)
        self.guardrail_config = guardrail
        self.prewarm_config = prewarm
        self._prewarm_policy = (
            PrewarmPolicy(prewarm) if prewarm is not None else None
        )
        self.generation_config = generation
        # Disabled configs are normalized to None — "disabled" and "absent"
        # are one state, so fingerprints, state layout, and the defaults-off
        # bit-identity contract all collapse to the None checks below.
        self.outage_config = (
            outages if outages is not None and outages.enabled else None
        )
        self.degrade_config = (
            degrade if degrade is not None and degrade.enabled else None
        )
        if generation is not None and (
            self.outage_config is not None or self.degrade_config is not None
        ):
            # Crash/hedge draws are a function of the *batch index* with a
            # fixed draw count per batch; token-level sessions have no such
            # index discipline (same reasoning as fault injection below).
            raise ValueError(
                "generation mode does not support outages or degradation; "
                "drop the outages/degrade configs"
            )
        if generation is not None and self.platform.faults_active:
            # Fault draws are a function of the *batch index* with a fixed
            # draw count per batch; token-level sessions have no such index
            # discipline, so combining the two would silently break the
            # seeded-fault determinism contract. Refuse loudly instead.
            raise ValueError(
                "generation mode does not support fault injection; "
                "use a platform without active faults"
            )
        # Hoisted mode flags: the hot loops branch once on these instead of
        # re-deriving the dispatcher per event.
        self._gen_continuous = (
            generation is not None and generation.dispatcher == "continuous"
        )
        self._gen_buffer = (
            generation is not None and generation.dispatcher == "buffer"
        )
        # The SLO that defines goodput (and feeds the guardrail) in
        # generation mode is time-to-first-token, not end-to-end latency.
        self._gen_ttft_slo = (
            (generation.ttft_slo if generation.ttft_slo is not None else slo)
            if generation is not None else None
        )
        # Hoisted outage/degrade flags: the data plane branches once on
        # these per batch instead of unpacking the configs per event.
        oc = self.outage_config
        dc = self.degrade_config
        self._crash_hazard = (
            oc is not None and oc.crash is not None and oc.crash.enabled
        )
        self._straggler = (
            oc is not None and oc.straggler is not None
            and oc.straggler.enabled
        )
        self._outage_windows = oc is not None and bool(oc.windows)
        self._hedge = dc.hedge if dc is not None else None
        self._backoff = dc.backoff if dc is not None else None
        # A primary batch completes at ``start + duration`` under the
        # fault layer's hazards and in buffer generation mode, and at
        # ``start + cold + service + fault`` otherwise — the association
        # of BatchExecution.completion_times, which keeps the static
        # engine bitwise equal to the offline simulator. A windows-only
        # outage model keeps the plain association (windows affect only
        # pool admission and the cold-start backoff).
        self._by_duration = (
            self._crash_hazard or self._straggler or self._hedge is not None
            or self._gen_buffer
        )
        self.metrics_prefix = metrics_prefix
        # Hot-path flags hoisted out of the event loop: with neither drift
        # trigger configured the cadence check never fires (output-identical
        # — an unconfigured _check_drift is a no-op), and completion
        # latencies only accumulate when the prediction trigger reads them.
        self._drift_enabled = (
            self.drift_config.detector is not None or prediction is not None
        )
        self._track_latencies = prediction is not None
        # The one event-dispatch table: both drive loops look every event
        # kind up here, and every handler takes ``(st, ctx, now, payload)``.
        self._handlers = {
            _K_ARRIVAL: self._on_arrival,
            _K_COMPLETION: self._on_completion,
            _K_TIMER: self._on_timer,
            _K_RECONFIGURE: self._on_reconfigure,
            _K_DECISION: self._on_decision,
            _K_RETRAIN: self._on_retrain,
            _K_PREWARM: self._on_prewarm,
            _K_GENSTEP: self._on_gen_step,
            _K_CRASH: self._on_crash,
            _K_COLD_RETRY: self._on_cold_retry,
            _K_HEDGE: self._on_hedge,
        }

    # ------------------------------------------------------------------- run
    def run(
        self,
        timestamps: np.ndarray,
        name: str = "serving",
        trace_name: str = "trace",
        history: np.ndarray | None = None,
        record_trace: bool = False,
        checkpoint_path: str | os.PathLike | None = None,
        checkpoint_every: int = 256,
        crash_after_events: int | None = None,
    ) -> ServingLog:
        """Serve ``timestamps`` (absolute, sorted) and return the log.

        ``history`` optionally supplies earlier arrival timestamps that seed
        the controller's observation window and the drift detector's live
        window without being served themselves.

        With ``checkpoint_path`` set, the run becomes crash-safe: the full
        state is snapshotted atomically every ``checkpoint_every`` processed
        events (plus once at the start), and every emitted event is appended
        to ``<checkpoint_path>.journal``. :meth:`restore` continues a killed
        run from those files, bit-identically. ``crash_after_events`` is the
        chaos-testing hook: the engine raises :class:`SimulatedCrash` after
        processing that many events, exactly as a process death at an event
        boundary would.
        """
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        if crash_after_events is not None and crash_after_events < 1:
            raise ValueError("crash_after_events must be >= 1 or None")
        ts = check_sorted(np.asarray(timestamps, dtype=float), "timestamps")
        st = self._init_state(ts, name, trace_name, history, record_trace)
        ctx = _RunContext(
            registry=get_registry(),
            snapshot_path=(
                os.fspath(checkpoint_path) if checkpoint_path is not None else None
            ),
            checkpoint_every=checkpoint_every,
            crash_after=crash_after_events,
        )
        if ctx.snapshot_path is not None:
            ctx.journal = Journal(journal_path(ctx.snapshot_path)).open()
            # Event-0 snapshot: a crash before the first cadence boundary
            # must still be restorable.
            self._write_snapshot(st, ctx)
        try:
            return self._drive(st, ctx)
        finally:
            if ctx.journal is not None:
                ctx.journal.close()

    def _init_state(
        self,
        ts: np.ndarray,
        name: str,
        trace_name: str,
        history: np.ndarray | None,
        record_trace: bool,
    ) -> _RunState:
        n = ts.size
        history = (
            np.asarray(history, dtype=float)[-(self.history_tail + 1):].copy()
            if history is not None else np.empty(0)
        )
        st = _RunState(
            name=name,
            trace_name=trace_name,
            ts=ts,
            n=n,
            buffer=RecordingBuffer(self.initial_config),
            pool=self._make_pool(),
            heap=[],
            seq=0,
            queue=deque(),
            timers=set(),
            history=history,
            active=self.initial_config,
            target=self.initial_config,
            latencies=np.full(n, np.nan),
            shed=np.zeros(n, dtype=bool),
            failed=np.zeros(n, dtype=bool),
            trace=[] if record_trace else None,
            # Every counter is the ServingLog field of the same name.
            counters={
                "reconfigurations": 0, "drift_triggers": 0,
                "prediction_drift_triggers": 0, "retrains": 0,
                "shed_batches": 0, "queued_batches": 0, "n_retries": 0,
                "decision_errors": 0,
                "guardrail_trips": 0, "guardrail_restores": 0,
                "guardrail_probes": 0, "guardrail_suppressed": 0,
                "checkpoints": 0, "prewarm_ticks": 0, "prewarm_cost": 0.0,
                "gen_sessions": 0, "gen_prefill_iterations": 0,
                "gen_decode_iterations": 0, "gen_tokens": 0, "gen_shed": 0,
                "crashed_containers": 0, "crash_requeued": 0,
                "straggler_batches": 0, "cold_retries": 0,
                "cold_retry_exhausted": 0, "hedges": 0, "hedge_wins": 0,
                "hedge_denied": 0, "hedge_cost": 0.0, "brownout_shed": 0,
                "failover_batches": 0,
            },
        )
        if self.guardrail_config is not None:
            # In generation mode the breaker watches TTFT windows: the
            # user-facing promise for streaming is first-token time, not
            # end-of-decode latency.
            st.guardrail = SLOGuardrail(
                config=self.guardrail_config,
                slo=(self._gen_ttft_slo if self.generation_config is not None
                     else self.slo),
            )
        gen = self.generation_config
        if gen is not None:
            st.prompt_tokens, st.output_tokens = gen.length_model.sample(
                n, gen.seed
            )
            st.ttft = np.full(n, np.nan)
            st.tpot = np.full(n, np.nan)
            if self._gen_continuous:
                st.gen_queue = deque()
                st.gen_sessions = {}
                st.gen_session_meta = {}
        if self._crash_hazard or self._hedge is not None:
            # container_id -> (expected completion, Batch) of the primary
            # dispatch; a crash or hedge check looks its victim up here.
            st.inflight = {}
        if self._hedge is not None:
            st.hedge_obs = HedgeWindow(self._hedge.window)
            st.hedged = np.zeros(n, dtype=bool)
        if self._failover_enabled:
            st.failed_over = np.zeros(n, dtype=bool)
        if n and self.chooser is not None and self.decision_interval_s:
            self._push(st, float(ts[0]) + self.decision_interval_s, _P_DECISION,
                       _K_DECISION, "interval")
        if n and self.prewarm_config is not None:
            # First tick at the trace start: with warmup ``history`` seeding
            # the window the forecaster can cover the opening burst front.
            self._push(st, float(ts[0]), _P_PREWARM, _K_PREWARM, None)
        return st

    def _make_pool(self) -> WarmPool:
        """Pool factory; the fleet overrides it to share a container budget."""
        return WarmPool(self.pool_config, self.platform.cold_start,
                        outage=self.outage_config)

    # --------------------------------------------------------------- restore
    def restore(
        self,
        path: str | os.PathLike,
        verify_journal: bool = True,
        crash_after_events: int | None = None,
    ) -> ServingLog:
        """Resume a checkpointed run and drive it to completion.

        The engine must be constructed with the same parameters as the one
        that wrote the checkpoint (a fingerprint mismatch raises
        :class:`CheckpointError`). The snapshot restores the run state, the
        chooser's internal state, the drift detector's envelope, and the
        platform's bit-generator state; the journal is truncated back to
        the snapshot boundary and — with ``verify_journal`` — the entries
        beyond it (events the crashed run emitted after its last snapshot)
        become a replay assertion: the resumed run must regenerate them
        verbatim, or :class:`JournalReplayError` is raised. Checkpointing
        continues to the same files at the cadence of the original run, so
        a restore can itself be crashed and restored (the chaos harness
        does exactly that via ``crash_after_events``).

        Because the engine is deterministic, the returned
        :class:`ServingLog` is bit-identical to the log of an uninterrupted
        run — that equivalence is this subsystem's keystone property — and
        so is its telemetry, plus ``checkpoint.restores``/``replayed_events``.
        """
        payload = read_snapshot(path)
        theirs = payload["fingerprint"]
        ours = self._fingerprint()
        mismatched = sorted(
            k for k in set(theirs) | set(ours) if theirs.get(k) != ours.get(k)
        )
        if mismatched:
            raise CheckpointError(
                f"checkpoint {os.fspath(path)!r} was written by a differently-"
                f"configured engine; mismatched parameters: {mismatched}"
            )
        st: _RunState = payload["state"]
        if payload["chooser"] is not None:
            self.chooser = pickle.loads(payload["chooser"])
        detector = self.drift_config.detector
        if payload["detector"] is not None and detector is not None:
            detector.set_state(payload["detector"])
        self.platform._rng.bit_generator.state = payload["rng_state"]

        journal = Journal(journal_path(path))
        entries_on_disk = journal.read()
        keep = int(payload["journal_entries"])
        replay_expect = entries_on_disk[keep:] if verify_journal else None
        journal.open(truncate_to=keep)

        registry = get_registry()
        ctx = _RunContext(
            registry=registry,
            journal=journal,
            snapshot_path=os.fspath(path),
            checkpoint_every=int(payload["checkpoint_every"]),
            crash_after=crash_after_events,
            replay_expect=replay_expect,
        )
        if registry.enabled:
            registry.counter("checkpoint.restores").inc()
            if replay_expect:
                registry.counter("checkpoint.replayed_events").inc(
                    len(replay_expect)
                )
        try:
            return self._drive(st, ctx)
        finally:
            ctx.journal.close()

    def _fingerprint(self) -> dict:
        """Engine parameters a checkpoint must agree on to be resumable."""
        drift = self.drift_config
        return {
            "initial_config": self.initial_config,
            "slo": self.slo,
            "pool": self.pool_config,
            "deploy_delay_s": self.deploy_delay_s,
            "decision_interval_s": self.decision_interval_s,
            "history_tail": self.history_tail,
            "min_history": self.min_history,
            # The drift policy's scalars (the detector and the retrain hook
            # are objects that never compare equal across processes; like
            # the prewarm forecaster below, they are restored by
            # constructing the engine identically).
            "drift": (drift.window, drift.check_every, drift.cooldown_s,
                      drift.retrain_delay_s),
            "prediction": self.prediction_config,
            "sequence_length": self.sequence_length,
            "guardrail": self.guardrail_config,
            # Disabled features fingerprint as None.
            "prewarm": (
                self.prewarm_config.fingerprint()
                if self.prewarm_config is not None else None
            ),
            "generation": (
                self.generation_config.fingerprint()
                if self.generation_config is not None else None
            ),
            "outages": (
                self.outage_config.fingerprint()
                if self.outage_config is not None else None
            ),
            "degrade": (
                self.degrade_config.fingerprint()
                if self.degrade_config is not None else None
            ),
            "platform_seed": self.platform.seed,
            "platform_faults": self.platform.faults,
            "platform_retry": self.platform.retry_policy,
            "platform_concurrency": self.platform.concurrency_limit,
        }

    def _write_snapshot(self, st: _RunState, ctx: _RunContext) -> None:
        try:
            chooser_blob = (
                pickle.dumps(self.chooser, protocol=pickle.HIGHEST_PROTOCOL)
                if self.chooser is not None else None
            )
        except Exception:
            # An unpicklable chooser degrades gracefully: the restore keeps
            # the engine's own chooser instance instead.
            chooser_blob = None
        ctx.journal.sync()  # the snapshot must never reference journal
        # entries the disk does not have
        # Counted before the state is pickled, so a run restored from this
        # snapshot reports the same total as one that never crashed.
        st.counters["checkpoints"] += 1
        write_snapshot(ctx.snapshot_path, {
            "fingerprint": self._fingerprint(),
            "state": st,
            "chooser": chooser_blob,
            "detector": (
                self.drift_config.detector.get_state()
                if self.drift_config.detector is not None else None
            ),
            "rng_state": self.platform._rng.bit_generator.state,
            "journal_entries": ctx.journal.entries,
            "checkpoint_every": ctx.checkpoint_every,
        })
        if ctx.registry.enabled:
            ctx.registry.record_event(CheckpointEvent(
                time=float(st.clock),
                events_processed=st.events_processed,
                journal_entries=ctx.journal.entries,
            ))

    # ------------------------------------------------------------ event loop
    def _drive(self, st: _RunState, ctx: _RunContext) -> ServingLog:
        """Run to completion, then publish the finished log's telemetry
        (when a registry is enabled) and return the log."""
        if (
            ctx.journal is None
            and ctx.snapshot_path is None
            and ctx.crash_after is None
            and not ctx.registry.enabled
        ):
            # Nothing observes individual events: no journal entries, no
            # snapshot cadence, no chaos hook, no per-event telemetry. The
            # tight loop processes the same events in the same order and
            # its outputs are bit-identical — the checkpoint/chaos suites
            # pin that by comparing it against the stepwise path below.
            self._drive_fast(st, ctx)
            return self._finish(st)
        timers = ctx.timers
        if timers is NULL_TIMERS:
            timers = ctx.timers = stage_timers(f"{self.metrics_prefix}.perf")
        try:
            while self._step(st, ctx):
                st.events_processed += 1
                if (
                    ctx.snapshot_path is not None
                    and st.events_processed % ctx.checkpoint_every == 0
                ):
                    self._write_snapshot(st, ctx)
                if ctx.crash_after is not None and st.events_processed >= ctx.crash_after:
                    raise SimulatedCrash(
                        f"chaos hook: killed after {st.events_processed} events"
                    )
        finally:
            timers.flush()
        log = self._finish(st)
        if ctx.registry.enabled:
            publish_telemetry(log, ctx.registry, self.metrics_prefix)
        return log

    def _drive_fast(self, st: _RunState, ctx: _RunContext) -> None:
        """The uninstrumented hot loop: same events, same order, less work.

        It dispatches through the same handler table as :meth:`_step`;
        its only per-event difference is how it picks the next event.
        Arrivals are consumed in **contiguous runs**: the heap head is
        read once per run and refreshed only after a handler actually
        pushed an event, and timestamps come from one bulk
        ``ndarray.tolist()`` conversion instead of a numpy-scalar
        unboxing each — none of it observable in the outputs.

        Runs that checkpoint, journal, chaos-crash, or emit telemetry keep
        the stepwise loop: snapshots cut at exact event boundaries and the
        journal wants one entry per event.
        """
        ts = st.ts.tolist()
        n = st.n
        heap = st.heap
        handlers = self._handlers
        on_arrival = self._on_arrival
        events = st.events_processed
        while True:
            if heap:
                head_time, head_prio = heap[0][0], heap[0][1]
            else:
                head_time, head_prio = _INF, _P_ARRIVAL
            ptr = st.arrival_ptr
            while ptr < n:
                t = ts[ptr]
                if t > head_time or (t == head_time and head_prio < _P_ARRIVAL):
                    break
                before = len(heap)
                on_arrival(st, ctx, t, ptr)
                ptr += 1
                events += 1
                if len(heap) != before:
                    head_time, head_prio = heap[0][0], heap[0][1]
            if not heap:
                break
            now, _priority, _seq, kind, payload = heappop(heap)
            st.clock = now
            handlers[kind](st, ctx, now, payload)
            events += 1
        st.events_processed = events

    def _next_event_key(self, st: _RunState) -> tuple[float, int] | None:
        """``(time, priority)`` of the event :meth:`_step` would process
        next, or ``None`` when the run is finished. The fleet merges lanes
        on this key, so it must rank exactly as ``_step`` chooses: on a
        tie the heap event wins (arrival priority is unique to arrivals,
        so ties never actually cross the two sources)."""
        arrival = (
            (float(st.ts[st.arrival_ptr]), _P_ARRIVAL)
            if st.arrival_ptr < st.n else None
        )
        head = (st.heap[0][0], st.heap[0][1]) if st.heap else None
        if arrival is None:
            return head
        if head is None or arrival < head:
            return arrival
        return head

    def _step(self, st: _RunState, ctx: _RunContext) -> bool:
        """Process exactly one event (arrival or heap pop); False when done.

        This is the stepwise (checkpointable, instrumentable) path; plain
        runs take :meth:`_drive_fast` instead. With ``ctx.timers`` enabled
        every event is accumulated into a ``serving.perf.*`` stage named
        after its kind — the disabled branch never touches the clock.
        """
        heap = st.heap
        i = st.arrival_ptr
        if i < st.n and (
            not heap or (st.ts[i], _P_ARRIVAL) < (heap[0][0], heap[0][1])
        ):
            now, kind, payload = float(st.ts[i]), _K_ARRIVAL, i
        elif heap:
            now, _priority, _seq, kind, payload = heappop(heap)
            st.clock = now
        else:
            return False
        handler = self._handlers[kind]
        timers = ctx.timers
        if timers.enabled:
            with timers.stage(kind):
                handler(st, ctx, now, payload)
        else:
            handler(st, ctx, now, payload)
        return True

    def _on_arrival(self, st: _RunState, ctx: _RunContext, now: float,
                    i: int) -> None:
        """Request ``i`` arrives: it joins the buffer (or, in continuous
        generation mode, the session queue) and may release batches."""
        st.clock = now
        st.arrival_ptr = i + 1
        st.arrivals_seen += 1
        if st.trace is not None or ctx.journal is not None:
            self._emit(st, ctx, ("arrival", now, i))
        if self._gen_continuous:
            self._gen_arrival(st, ctx, now, i)
        else:
            released = st.buffer.observe(now)
            if released:
                timers = ctx.timers
                if timers.enabled:
                    # Nested stage: dispatch time shows up inside
                    # "arrival" and on its own row.
                    with timers.stage("dispatch"):
                        for batch in released:
                            self._dispatch(st, ctx, batch, now)
                else:
                    for batch in released:
                        self._dispatch(st, ctx, batch, now)
            self._arm_timer(st)
        if (self._drift_enabled
                and st.arrivals_seen % self.drift_config.check_every == 0):
            self._check_drift(st, ctx, now)

    def _on_timer(self, st: _RunState, ctx: _RunContext, now: float,
                  deadline: float) -> None:
        """A buffer timeout fires: release the expired batches."""
        st.timers.discard(deadline)
        for batch in st.buffer.poll(now):
            self._dispatch(st, ctx, batch, now)
        self._arm_timer(st)

    # ------------------------------------------------------------- plumbing
    def _push(self, st: _RunState, time: float, priority: int, kind: str,
              payload) -> None:
        heappush(st.heap, (time, priority, st.seq, kind, payload))
        st.seq += 1

    def _emit(self, st: _RunState, ctx: _RunContext, event: tuple) -> None:
        """Record one event in the trace (opt-in) and the journal (when
        checkpointing), verifying journal replay on a restore."""
        if st.trace is not None:
            st.trace.append(event)
        if ctx.journal is not None:
            if (
                ctx.replay_expect is not None
                and ctx.replay_pos < len(ctx.replay_expect)
            ):
                expected = ctx.replay_expect[ctx.replay_pos]
                got = jsonable(event)
                if got != expected:
                    raise JournalReplayError(
                        f"resumed run diverged from the journal at entry "
                        f"{ctx.journal.entries}: expected {expected!r}, "
                        f"regenerated {got!r}"
                    )
                ctx.replay_pos += 1
            ctx.journal.append(event)

    def _arm_timer(self, st: _RunState) -> None:
        # After any observe/poll/reconfigure the head deadline is
        # strictly in the future, so a timer armed here never fires
        # late; the set dedupes repeat arming of the same deadline.
        deadline = st.buffer.next_deadline()
        if deadline is not None and deadline not in st.timers:
            st.timers.add(deadline)
            self._push(st, deadline, _P_TIMER, _K_TIMER, deadline)

    # ----------------------------------------------------------- data plane
    def _execute(self, st: _RunState, ctx: _RunContext, batch: Batch,
                 now: float, mode: int = PRIMARY, lease=None,
                 donor: int | None = None, slowdown: float | None = None,
                 primary: tuple | None = None) -> bool:
        """Run ``batch`` on a container from ``now``: the one data plane.

        ``lease`` is the container; without one, a container of the active
        tier is acquired from this lane's pool, and ``False`` — nothing
        started — is returned when the pool denies. A primary runs every stage below; a failed-over
        batch skips the crash hazard and hedging; a hedge duplicate also
        skips per-attempt faults. Then, in order:

        1. service: ``s(M, B)``, or in buffer generation mode the batch's
           ``(ttft, tpot)`` and its longest decode (the container is held,
           and billed, until the longest output finishes);
        2. straggler: the container's slowdown stretches the service time
           (on failover the donor's factor, passed as ``slowdown``);
        3. per-attempt request faults, primary and failover only, drawn
           from the child generator ``spawn_rng(row)``;
        4. crash hazard, primary only, two draws from ``spawn_rng(row, 1)``:
           the container dies a uniform fraction into the run, the batch
           bills the partial run and re-enters dispatch at the crash;
        5. bookkeeping: batch row (its kind is ``mode``, or ``CRASHED``),
           latency/TTFT/TPOT slices, failed mask, counters; a hedge
           duplicate (``primary`` = the primary's ``(container_id,
           completion)``) overwrites the latencies only when it finishes
           first;
        6. in-flight registration and hedge scheduling, primary only;
        7. completion push and the trace/journal emit.

        ``row`` is ``len(st.batches)`` on entry, the batch row this call
        appends, so every draw is a function of the row index, never of
        event order. ``mode`` is ``PRIMARY``, ``FAILOVER`` (``donor`` =
        the lane whose pool hosts the container) or ``HEDGE``.
        """
        if lease is None:
            lease = st.pool.acquire(now, st.active.memory_mb)
            if lease is None:
                return False
        platform = self.platform
        counters = st.counters
        memory_mb = st.active.memory_mb
        size = batch.size
        cid = lease.container_id
        cold = lease.cold
        cold_delay = lease.cold_delay
        i0 = batch.first_index
        stop = i0 + size
        gen = self._gen_buffer
        # 1. Service time (pure functions of (M, B), memoized).
        key = (memory_mb, size)
        if gen:
            times = ctx.token_cache.get(key)
            if times is None:
                profile = self.generation_config.token_profile
                times = (float(profile.ttft(memory_mb, size)),
                         float(profile.tpot(memory_mb, size)))
                ctx.token_cache[key] = times
            lead, tpot = times
            out = st.output_tokens[i0:stop]
            max_out = int(out.max())
        else:
            lead = ctx.service_cache.get(key)
            if lead is None:
                lead = float(platform.profile.service_time(memory_mb, size))
                ctx.service_cache[key] = lead
        # 2. Straggler stretch.
        if slowdown is None:
            slowdown = self._straggler_factor(ctx, cid)
        if slowdown != 1.0:
            lead *= slowdown
            if gen:
                tpot *= slowdown
            if mode == PRIMARY:
                counters["straggler_batches"] += 1
        # 3. Per-attempt faults; ``tail`` is what runs after the lead: the
        # fault delay, or the decode steps of the longest output.
        retries = 0
        batch_failed = False
        cost = None
        if gen:
            tail = (max_out - 1) * tpot
        elif mode != HEDGE and platform.faults_active:
            outcome = inject_faults(
                np.asarray([cold_delay + lead]), memory_mb, platform.pricing,
                platform.faults, platform.retry_policy,
                platform.spawn_rng(len(st.batches)),
            )
            tail = float(outcome.fault_delays[0])
            cost = float(outcome.costs[0])
            retries = int(outcome.attempts[0]) - 1
            batch_failed = bool(outcome.failed[0])
        else:
            tail = 0.0
        duration = cold_delay + lead + tail
        if self._by_duration and mode != FAILOVER:
            completion = now + duration
        else:
            completion = now + cold_delay + lead + tail
        if cost is None:
            key = (memory_mb, duration)
            cost = ctx.cost_cache.get(key)
            if cost is None:
                cost = float(platform.pricing.invocation_cost(memory_mb,
                                                              duration))
                ctx.cost_cache[key] = cost
        tracing = st.trace is not None or ctx.journal is not None
        # 4. Crash hazard: no completion, no latency, no hedge.
        if mode == PRIMARY and self._crash_hazard:
            u = platform.spawn_rng(len(st.batches), 1).random(2)
            if float(u[0]) < self.outage_config.crash_probability(now):
                crash_time = now + float(u[1]) * duration
                partial = float(platform.pricing.invocation_cost(
                    memory_mb, crash_time - now
                ))
                st.batches.append(batch.dispatch_time, now, size, partial,
                                  cold, memory_mb, 0, CRASHED, crash_time)
                self._push(st, crash_time, _P_CRASH, _K_CRASH, (cid, batch))
                if tracing:
                    self._emit(st, ctx, ("start", now, cid, size, cold,
                                         memory_mb, completion))
                return True
        # 5. Bookkeeping.
        st.batches.append(batch.dispatch_time, now, size, cost, cold,
                          memory_mb, retries, mode, completion)
        if retries:
            counters["n_retries"] += retries
        arrivals = batch.arrival_times
        if mode == HEDGE:
            counters["hedges"] += 1
            counters["hedge_cost"] += cost
            st.hedged[i0:stop] = True
            if completion < primary[1]:
                # The winning attempt is clean: clear any fault verdict.
                st.latencies[i0:stop] = completion - arrivals
                st.failed[i0:stop] = False
                counters["hedge_wins"] += 1
        elif gen:
            first_token = now + cold_delay + lead
            st.ttft[i0:stop] = first_token - arrivals
            st.latencies[i0:stop] = first_token + (out - 1) * tpot - arrivals
            st.tpot[i0:stop] = np.where(out > 1, tpot, np.nan)
            counters["gen_prefill_iterations"] += 1
            counters["gen_decode_iterations"] += max_out - 1
            counters["gen_tokens"] += int(out.sum())
        else:
            st.latencies[i0:stop] = completion - arrivals
        if batch_failed:
            st.failed[i0:stop] = True
        if mode == FAILOVER:
            st.failed_over[i0:stop] = True
            counters["failover_batches"] += 1
        # 6. In-flight registration and hedge scheduling.
        if mode == PRIMARY:
            if st.inflight is not None:
                st.inflight[cid] = (completion, batch)
            hedge = self._hedge
            if hedge is not None:
                obs = st.hedge_obs
                if len(obs) >= hedge.min_observations:
                    hedge_at = now + hedge.multiplier * obs.percentile(
                        hedge.percentile)
                    if hedge_at < completion:
                        self._push(st, hedge_at, _P_HEDGE, _K_HEDGE, cid)
                # The current batch joins the window only after the delay
                # is computed: a hedge judges against *previous* dispatches.
                obs.append(duration)
        # 7. Completion, emit. A hedge's size-0 payload releases its
        # container without re-touching the request slice.
        self._push(st, completion, _P_COMPLETION, _K_COMPLETION,
                   (cid, i0, 0 if mode == HEDGE else size, donor))
        if tracing:
            if mode == PRIMARY:
                event = ("start", now, cid, size, cold, memory_mb, completion)
            elif mode == FAILOVER:
                event = ("failover", now, donor, cid, size)
            else:
                event = ("hedge", now, primary[0], cid, size)
            self._emit(st, ctx, event)
        return True

    def _straggler_factor(self, ctx: _RunContext, container_id: int) -> float:
        """Memoized per-container slowdown (1.0 when stragglers are off)."""
        if not self._straggler:
            return 1.0
        factor = ctx.straggler_cache.get(container_id)
        if factor is None:
            factor = self.outage_config.straggler_factor(container_id)
            ctx.straggler_cache[container_id] = factor
        return factor

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
        if st.trace is not None or ctx.journal is not None:
            self._emit(st, ctx, ("crash", now, container_id, batch.size))
        self._dispatch(st, ctx, batch, now)

    def _on_cold_retry(self, st: _RunState, ctx: _RunContext, now: float,
                       payload) -> None:
        """One fired cold-start backoff: retry the acquire; on another
        denial take the next scheduled backoff, and after the last one
        fall back to the ordinary queue-or-shed admission path."""
        batch, attempt, sched = payload
        if self._execute(st, ctx, batch, now):
            return
        if attempt < len(sched):
            st.counters["cold_retries"] += 1
            if st.trace is not None or ctx.journal is not None:
                self._emit(st, ctx, ("cold_retry", now, batch.size,
                                     attempt + 1))
            self._push(st, now + sched[attempt], _P_COLD_RETRY, _K_COLD_RETRY,
                       (batch, attempt + 1, sched))
            return
        st.counters["cold_retry_exhausted"] += 1
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
        rec = st.inflight.get(container_id)
        if rec is None:
            return  # completed (or crashed) before the hedge fired
        completion, batch = rec
        if self._execute(st, ctx, batch, now, HEDGE,
                         primary=(container_id, completion)):
            return
        # No capacity for speculation — the primary keeps running.
        st.counters["hedge_denied"] += 1

    # ------------------------------------------------- continuous batching
    def _gen_arrival(self, st: _RunState, ctx: _RunContext, now: float,
                     i: int) -> None:
        """A token-streaming arrival: queue it, and open a new session when
        no running session could take it at its next boundary."""
        gen = self.generation_config
        req = GenRequest(
            index=i, arrival=now,
            prompt_tokens=int(st.prompt_tokens[i]),
            output_tokens=int(st.output_tokens[i]),
        )
        for sess in st.gen_sessions.values():
            if sess.can_accept(req):
                st.gen_queue.append(req)
                return
        lease = st.pool.acquire(now, st.active.memory_mb)
        if lease is None:
            if (
                gen.max_waiting is not None
                and len(st.gen_queue) >= gen.max_waiting
            ):
                # Admission control: a full pool plus a full wait queue
                # sheds the arrival; it counts against goodput as a miss.
                st.shed[i] = True
                st.counters["gen_shed"] += 1
                if ctx.registry.enabled:
                    ctx.registry.record_event(ShedEvent(
                        time=now, requests=1,
                        queued_batches=len(st.gen_queue),
                    ))
                if st.trace is not None or ctx.journal is not None:
                    self._emit(st, ctx, ("shed", now, 1))
                return
            st.gen_queue.append(req)
            return
        st.gen_queue.append(req)
        self._open_session(st, ctx, lease, now)

    def _open_session(self, st: _RunState, ctx: _RunContext, lease,
                      now: float) -> None:
        gen = self.generation_config
        cid = lease.container_id
        sess = ContinuousSession(
            profile=gen.token_profile,
            memory_mb=st.active.memory_mb,
            batch_size=st.active.batch_size,
            max_batch_tokens=gen.max_batch_tokens,
        )
        # The opening step admits from the (non-empty) queue and plans the
        # first prefill; the cold start delays its boundary.
        res = sess.step(st.gen_queue)
        st.gen_sessions[cid] = sess
        st.gen_session_meta[cid] = (now, lease.cold, lease.cold_delay)
        st.counters["gen_sessions"] += 1
        if st.trace is not None or ctx.journal is not None:
            self._emit(st, ctx, ("gen_session", now, cid, lease.cold,
                                 sess.memory_mb))
        self._push(st, now + lease.cold_delay + res.next_duration,
                   _P_GENSTEP, _K_GENSTEP, cid)

    def _on_gen_step(self, st: _RunState, ctx: _RunContext, now: float,
                     cid: int) -> None:
        """One iteration boundary of a continuous-batching session."""
        sess = st.gen_sessions.get(cid)
        if sess is None:  # pragma: no cover - defensive
            return
        res = sess.step(st.gen_queue)
        for req in res.prefilled:
            st.ttft[req.index] = now - req.arrival
        for req in res.finished:
            latency = now - req.arrival
            st.latencies[req.index] = latency
            if req.output_tokens > 1:
                st.tpot[req.index] = (
                    (latency - st.ttft[req.index]) / (req.output_tokens - 1)
                )
            st.counters["gen_tokens"] += req.output_tokens
        if st.guardrail is not None and res.prefilled:
            ttfts = st.ttft[[r.index for r in res.prefilled]]
            for action, observed in st.guardrail.observe(ttfts, now,
                                                         st.active):
                self._on_guardrail_action(st, ctx, now, action, observed)
        if res.next_duration is not None:
            self._push(st, now + res.next_duration, _P_GENSTEP, _K_GENSTEP,
                       cid)
        else:
            self._close_session(st, ctx, cid, now)

    def _close_session(self, st: _RunState, ctx: _RunContext, cid: int,
                       now: float) -> None:
        """The session drained: bill the container hold, release it."""
        sess = st.gen_sessions.pop(cid)
        start, cold, _cold_delay = st.gen_session_meta.pop(cid)
        duration = now - start
        cost = float(
            self.platform.pricing.invocation_cost(sess.memory_mb, duration)
        )
        # One batch row per session: the whole container hold, all the
        # requests it served, one invocation fee — the continuous win the
        # cost model surfaces.
        st.batches.append(start, start, sess.n_served, cost, cold,
                          sess.memory_mb, 0, SESSION, now)
        st.counters["gen_prefill_iterations"] += sess.n_prefills
        st.counters["gen_decode_iterations"] += sess.n_decodes
        st.pool.release(cid, now)
        if st.trace is not None or ctx.journal is not None:
            self._emit(st, ctx, ("gen_release", now, cid, sess.n_served))

    def _dispatch(self, st: _RunState, ctx: _RunContext, batch: Batch,
                  now: float) -> None:
        if self._execute(st, ctx, batch, now):
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
                if st.trace is not None or ctx.journal is not None:
                    self._emit(st, ctx, ("cold_retry", now, batch.size, 1))
                self._push(st, now + float(sched[0]), _P_COLD_RETRY,
                           _K_COLD_RETRY,
                           (batch, 1, tuple(float(x) for x in sched)))
                return
        self._enqueue_or_shed(st, ctx, batch, now)

    def _enqueue_or_shed(self, st: _RunState, ctx: _RunContext, batch: Batch,
                         now: float) -> None:
        """No capacity (and no retry budget left): queue, or shed at the
        queue cap. The tail of the historical ``_dispatch``, split out so
        the cold-retry path can fall back to it after exhaustion."""
        limit = self.pool_config.max_queued_batches
        if limit is not None and len(st.queue) >= limit:
            st.shed[batch.first_index:batch.first_index + batch.size] = True
            st.counters["shed_batches"] += 1
            if ctx.registry.enabled:
                ctx.registry.record_event(ShedEvent(
                    time=now, requests=batch.size,
                    queued_batches=len(st.queue),
                ))
            if st.trace is not None or ctx.journal is not None:
                self._emit(st, ctx, ("shed", now, batch.size))
            return
        st.queue.append(batch)
        st.counters["queued_batches"] += 1
        if st.trace is not None or ctx.journal is not None:
            self._emit(st, ctx, ("queued", now, batch.size))

    def _on_completion(self, st: _RunState, ctx: _RunContext, now: float,
                       payload) -> None:
        # ``donor`` is set for a failed-over batch: the donor lane's pool
        # hosted the container, so release goes there, and this lane's own
        # queue is left to the fleet's drain pass (popping it here would
        # reorder admissions).
        container_id, i0, size, donor = payload
        lat = st.latencies[i0:i0 + size]
        if st.inflight is not None:
            st.inflight.pop(container_id, None)
        if donor is None:
            st.pool.release(container_id, now)
        else:
            self._donor_pools[donor].release(container_id, now)
        if self._track_latencies:
            st.recent_latencies.extend(lat.tolist())
        if st.trace is not None or ctx.journal is not None:
            self._emit(st, ctx, ("completion", now, container_id))
        if donor is None and st.queue:
            self._dispatch(st, ctx, st.queue.popleft(), now)
        if st.guardrail is not None:
            # Generation mode breaks on TTFT windows, not end-of-decode
            # latency — first-token time is the streaming SLO.
            guard_obs = st.ttft[i0:i0 + size] if self._gen_buffer else lat
            for action, observed in st.guardrail.observe(
                guard_obs, now, st.active
            ):
                self._on_guardrail_action(st, ctx, now, action, observed)

    # --------------------------------------------------------- control plane
    @staticmethod
    def _extract_predicted_p95(decision: Decision) -> float | None:
        opt = getattr(decision, "optimization", None)
        pred = getattr(opt, "predicted_latency", None)
        if pred is None and decision.diagnostics:
            pred = decision.diagnostics.get("predicted_p95")
        return float(pred) if pred is not None else None

    def _inject_decision(self, st: _RunState, ctx: _RunContext, now: float,
                         config: BatchConfig, reason: str,
                         decision_time: float = 0.0,
                         predicted_p95: float | None = None,
                         degraded: bool = False) -> None:
        """Record an externally supplied decision and schedule its rollout.

        The fleet scheduler uses this to push an arbitrated ``(M, B, T)``
        into a lane; ``_on_decision`` funnels chooser output through the
        same path so both produce identical event sequences.
        """
        record = ServingDecision(
            time=now,
            reason=reason,
            config=config,
            decision_time=float(decision_time),
            degraded=degraded,
            predicted_p95=predicted_p95,
        )
        st.decisions.append(record)
        self._emit(st, ctx, ("decision", now, reason, str(config)))
        if config != st.target:
            st.target = config
            st.reconfig_gen += 1
            self._push(st, now + self.deploy_delay_s, _P_RECONFIGURE,
                       _K_RECONFIGURE, (st.reconfig_gen, record, now, reason))

    def _recent_ts(self, st: _RunState, k: int | None = None) -> np.ndarray:
        """The last ``k`` arrival timestamps observed so far (default and
        cap: ``history_tail + 1``): the pre-run history tail followed by
        ``ts[:arrival_ptr]``. Once the run has served ``k`` arrivals this
        is a view of ``st.ts`` — no per-arrival bookkeeping, no copy;
        only at the start of a run is the history tail concatenated."""
        cap = self.history_tail + 1
        k = cap if k is None else min(k, cap)
        ptr = st.arrival_ptr
        if ptr >= k:
            return st.ts[ptr - k:ptr]
        return np.concatenate((st.history[ptr - k:], st.ts[:ptr]))

    def _on_decision(self, st: _RunState, ctx: _RunContext, now: float,
                     reason: str) -> None:
        if self.chooser is None:
            return
        suppressed = st.guardrail is not None and st.guardrail.state == OPEN
        hist = np.diff(self._recent_ts(st))
        if suppressed:
            # The breaker is open: the fallback configuration stays pinned
            # and the learned controller does not get to reconfigure until
            # the half-open probe re-admits it.
            st.counters["guardrail_suppressed"] += 1
            self._emit(st, ctx, ("decision_suppressed", now, reason))
        elif hist.size >= self.min_history:
            try:
                decision = self.chooser.choose(hist, self.slo)
            except Exception:
                # Live serving must survive a controller crash with no
                # fallback decision; keep the active configuration.
                st.counters["decision_errors"] += 1
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
        if ctx.registry.enabled:
            ctx.registry.record_event(ReconfigureEvent(
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

    def _on_guardrail_action(self, st: _RunState, ctx: _RunContext,
                             now: float, action: str, observed: float) -> None:
        guard = st.guardrail
        if action == "tripped":
            fallback = guard.fallback_config(st.active)
            st.counters["guardrail_trips"] += 1
            record = ServingDecision(
                time=now, reason="guardrail", config=fallback,
                decision_time=0.0,
            )
            st.decisions.append(record)
            if fallback != st.target:
                # The reactive path deploys immediately (no planner lag):
                # the breaker exists precisely because waiting is the
                # failure mode. A pending learned reconfiguration is
                # superseded by the generation bump.
                st.target = fallback
                st.reconfig_gen += 1
                self._push(st, now, _P_RECONFIGURE, _K_RECONFIGURE,
                           (st.reconfig_gen, record, now, "guardrail"))
            event_config = fallback
        elif action == "probe":
            st.counters["guardrail_probes"] += 1
            self._push(st, now, _P_DECISION, _K_DECISION, "guardrail-probe")
            event_config = st.active
        else:  # "restored"
            st.counters["guardrail_restores"] += 1
            event_config = st.active
        if ctx.registry.enabled:
            ctx.registry.record_event(GuardrailEvent(
                time=now, action=action, state=guard.state,
                observed_p=float(observed), slo=self.slo,
                memory_mb=event_config.memory_mb,
                batch_size=event_config.batch_size,
                timeout=event_config.timeout,
            ))
        self._emit(st, ctx, ("guardrail", now, action, guard.state))

    def _check_drift(self, st: _RunState, ctx: _RunContext, now: float) -> None:
        if now < st.cooldown_until:
            return
        registry = ctx.registry
        drift = self.drift_config
        detector = drift.detector
        recent = self._recent_ts(st, drift.window + 1)
        if (
            detector is not None
            and detector.lo_ is not None
            and recent.size > drift.window
        ):
            score = detector.score(np.diff(recent))
            if score >= detector.threshold:
                st.counters["drift_triggers"] += 1
                st.cooldown_until = now + drift.cooldown_s
                if registry.enabled:
                    registry.record_event(DriftEvent(
                        time=now, detector="workload", score=score
                    ))
                self._emit(st, ctx, ("drift", now, "workload", round(score, 9)))
                self._push(st, now, _P_DECISION, _K_DECISION, "drift")
                if (drift.retrain_delay_s is not None
                        and not st.retrain_pending):
                    st.retrain_pending = True
                    self._push(st, now + drift.retrain_delay_s, _P_RETRAIN,
                               _K_RETRAIN, None)
                return
        pred = self.prediction_config
        if (
            pred is not None
            and st.pred_p95 is not None
            and len(st.recent_latencies) >= pred.min_samples
        ):
            observed = float(np.percentile(st.recent_latencies, 95.0))
            if observed > 0:
                error = abs(st.pred_p95 - observed) / observed
                if prediction_drift(error, pred.baseline_error,
                                    pred.tolerance):
                    st.counters["prediction_drift_triggers"] += 1
                    st.cooldown_until = now + drift.cooldown_s
                    if registry.enabled:
                        registry.record_event(DriftEvent(
                            time=now, detector="prediction", score=error
                        ))
                    self._emit(st, ctx, ("drift", now, "prediction",
                                         round(error, 9)))
                    self._push(st, now, _P_DECISION, _K_DECISION,
                               "prediction-drift")

    def _on_retrain(self, st: _RunState, ctx: _RunContext, now: float,
                    _payload) -> None:
        st.retrain_pending = False
        st.counters["retrains"] += 1
        recent = np.diff(self._recent_ts(st))
        drift = self.drift_config
        if drift.detector is not None:
            try:
                drift.detector.fit(recent, drift.window)
            except ValueError:
                pass  # not enough recent traffic to refit the envelope
        if drift.on_retrain is not None:
            drift.on_retrain(recent)
            # The retrain hook may refit the platform's models in place;
            # drop the memoized timing/cost values so later batches see it.
            ctx.service_cache.clear()
            ctx.token_cache.clear()
            ctx.cost_cache.clear()
        self._emit(st, ctx, ("retrain", now))

    def _on_prewarm(self, st: _RunState, ctx: _RunContext, now: float,
                    _payload) -> None:
        """One predictive-prewarm tick: forecast, size, provision/retire.

        Deterministic and checkpoint-safe by construction: the next tick
        is an ordinary heap event, the counters live in ``st.counters``,
        and the forecaster is stateless — so a restore resumes the tick
        cadence bit-identically without any dedicated policy state.
        """
        pw = self.prewarm_config
        st.counters["prewarm_ticks"] += 1
        tier = st.active.memory_mb
        cold_delay = st.pool.cold_delay(tier)
        # Default horizon: the next tick plus the spin-up the prewarm is
        # replacing — the window demand must be covered ahead of.
        horizon = (
            pw.horizon_s if pw.horizon_s is not None
            else pw.interval_s + cold_delay
        )
        recent = np.diff(self._recent_ts(st, pw.window + 1))
        service = float(
            self.platform.profile.service_time(tier, st.active.batch_size)
        )
        plan = self._prewarm_policy.plan(
            recent, now, horizon,
            batch_size=st.active.batch_size,
            service_time=service,
            live=st.pool.live_containers(now, tier),
            idle=st.pool.warm_containers(now, tier),
        )
        provisioned = retired = 0
        cost = 0.0
        if plan.provision:
            provisioned = st.pool.prewarm(now, tier, plan.provision)
            if provisioned:
                # Each speculative container bills its cold start off the
                # request path — the trade-off the telemetry surfaces.
                cost = provisioned * float(
                    self.platform.pricing.invocation_cost(tier, cold_delay)
                )
                st.counters["prewarm_cost"] += cost
        if plan.retire:
            retired = st.pool.retire_idle(now, tier, plan.retire)
        if st.trace is not None or ctx.journal is not None:
            self._emit(st, ctx, ("prewarm", now, round(plan.rate, 9),
                                 plan.target, provisioned, retired))
        if st.arrival_ptr < st.n:
            self._push(st, now + pw.interval_s, _P_PREWARM, _K_PREWARM, None)

    # ---------------------------------------------------------------- finish
    def _finish(self, st: _RunState) -> ServingLog:
        stats = st.pool.stats
        (b_dispatch, b_start, b_sizes, b_costs, b_cold, b_memory,
         b_retries, b_kinds, b_ends) = st.batches.arrays()
        buffer_times, buffer_sizes = st.buffer.dispatches()
        counts = dict(st.counters)
        # The failed mask is the one source of truth: a hedge that beats a
        # faulted primary clears its requests' verdict.
        counts["n_failed"] = int(st.failed.sum())
        gen = self.generation_config
        return ServingLog(
            name=st.name, trace=st.trace_name, slo=self.slo,
            arrival_times=st.ts,
            latencies=st.latencies,
            shed=st.shed,
            failed=st.failed,
            dispatch_times=b_dispatch,
            start_times=b_start,
            batch_sizes=b_sizes,
            batch_costs=b_costs,
            batch_cold=b_cold,
            batch_memory=b_memory,
            batch_retries=b_retries,
            batch_kinds=b_kinds,
            end_times=b_ends,
            cold_delays={
                float(m): st.pool.cold_delay(m)
                for m in np.unique(b_memory[b_cold])
            },
            buffer_dispatch_times=buffer_times,
            buffer_dispatch_sizes=buffer_sizes,
            decisions=st.decisions,
            cold_starts=stats.cold_starts,
            warm_starts=stats.warm_starts,
            expired_containers=stats.expired,
            evicted_containers=stats.evicted,
            prewarmed_containers=stats.prewarmed,
            prewarm_retired=stats.retired,
            outage_denied=stats.outage_denied,
            sequence_length=self.sequence_length,
            event_trace=st.trace,
            n_events=st.events_processed,
            guardrail_state=(
                st.guardrail.state if st.guardrail is not None else None
            ),
            ttft=st.ttft,
            tpot=st.tpot,
            prompt_tokens=st.prompt_tokens,
            output_tokens=st.output_tokens,
            ttft_slo=self._gen_ttft_slo,
            tpot_slo=gen.tpot_slo if gen is not None else None,
            hedged=st.hedged,
            failed_over=st.failed_over,
            **counts,
        )
