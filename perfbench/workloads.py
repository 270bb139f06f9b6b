"""The three benchmark workloads and the BATCH decision probe, built only
from the program's public API.

Each workload is a set of ``n_traces`` open-loop arrival schedules in
*simulated* time, drawn from the workload seed by :mod:`repro.arrival.traces`
(:func:`trace_seeds`); the program sees only the generated timestamps and
configs. ``setup`` does everything a deployment does once (traces, labeling
and training, controllers) and ``serve`` is one replay of one of the traces
through ``ServingEngine.run``/``FleetEngine.run``. A tail percentile of one
trace moves with the trace's few cold-start bursts; pooled over several
independent traces it is a steady property of the seed. Short traces also
give a run many replays to take a median over.
Why each workload exists, and which layers it stresses or bypasses, is
written down in ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.arrival.traces import alibaba_like, azure_like, twitter_like
from repro.baseline.controller import BATCHController
from repro.batching.config import BatchConfig, config_grid
from repro.core import (
    DeepBATController,
    DeepBATSurrogate,
    TrainConfig,
    estimate_gamma,
    generate_dataset,
    train_surrogate,
)
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
    WarmPoolConfig,
)

from tracing import TimedChooser, Tracer, maybe_span

#: The surrogate is trained once on a fixed Azure-like history, as the
#: paper trains once on Azure's first hours; ``--seed`` draws the served
#: trace only, so every seed is served by the same model.
TRAIN_SEED = 2025
SLO_S = 0.1
SEGMENT_S = 30.0
#: Eq. 11's request-sequence length.
VCR_SEQUENCE_LENGTH = 256
#: The candidate grid DeepBAT and the BATCH probe search (84
#: configurations): the paper's axes, thinned so that one BATCH decision
#: takes well under a second.
GRID = config_grid(memories=(512.0, 1024.0, 1792.0, 3008.0),
                   batch_sizes=(1, 4, 8, 16, 32),
                   timeouts=(0.0, 0.025, 0.05, 0.1, 0.2))
AZURE_POOL = WarmPoolConfig(keep_alive_s=10.0, max_containers=64)
INITIAL_CONFIG = BatchConfig(memory_mb=1024.0, batch_size=8, timeout=0.05)


def _azure_platform() -> ServerlessPlatform:
    return ServerlessPlatform(seed=11, cold_start=ColdStartModel())


@dataclass
class Served:
    """One replay: the per-lane logs, the wrapped chooser, ``run()`` time."""

    logs: list
    chooser: TimedChooser | None
    run_s: float
    lanes: int = 0


def trace_seeds(seed: int, n: int) -> list[int]:
    """Seeds of a run's ``n`` traces: disjoint for distinct run seeds."""
    return [seed * n + k for k in range(n)]


def digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _split_history(trace):
    """Segment 0 seeds the controller's window; the rest is served."""
    ts = trace.timestamps
    cut = int(np.searchsorted(ts, trace.segment_duration))
    return ts[cut:], ts[:cut]


def _replay(engine, tracer: Tracer | None, *args, **kwargs):
    with maybe_span(tracer, "engine.run"):
        t0 = perf_counter()
        result = engine.run(*args, **kwargs)
        return result, perf_counter() - t0


class DeepBATAzure:
    """DeepBAT re-deciding every 0.2 s of simulated time over 8 served
    30 s Azure-like segments (segment 0 only seeds the history), on each
    of eight traces."""

    name = "deepbat_azure"
    decision_interval_s = 0.2
    n_traces = 8
    n_segments = 9
    n_samples = 1000
    epochs = 5

    def setup(self, seed: int, tracer: Tracer | None) -> dict:
        with maybe_span(tracer, "arrival.trace"):
            train = azure_like(seed=TRAIN_SEED, n_segments=4,
                               segment_duration=SEGMENT_S)
            traces = [azure_like(seed=s, n_segments=self.n_segments,
                                 segment_duration=SEGMENT_S)
                      for s in trace_seeds(seed, self.n_traces)]
        with maybe_span(tracer, "dataset.label"):
            history = np.diff(train.timestamps)
            dataset = generate_dataset(
                history, n_samples=self.n_samples, seq_len=32,
                configs=GRID, seed=TRAIN_SEED,
            )
        with maybe_span(tracer, "training.fit"):
            model = DeepBATSurrogate(seq_len=32, d_model=8, num_heads=2,
                                     ff_hidden=16, num_layers=1,
                                     seed=TRAIN_SEED)
            trained = train_surrogate(dataset, model=model, config=TrainConfig(
                epochs=self.epochs, batch_size=32, lr=3e-3, patience=None,
                seed=TRAIN_SEED,
            ))
        with maybe_span(tracer, "training.gamma"):
            # §III-D's SLO margin: the small surrogate under-predicts the
            # tail, and without the margin it picks infeasible configs.
            gamma = estimate_gamma(trained, history, GRID, seed=TRAIN_SEED,
                                   slo=SLO_S)
        with maybe_span(tracer, "controller.build"):
            controller = DeepBATController(trained, configs=GRID, gamma=gamma)
        weights = [p.data for p in trained.model.parameters()]
        return {
            "traces": traces,
            "controller": controller,
            "labels": len(dataset),
            "epochs": len(trained.history.train_loss),
            "digest": digest(*(t.timestamps for t in traces), dataset.targets,
                             np.array([gamma]), *weights),
        }

    def serve(self, prep: dict, k: int, tracer: Tracer | None) -> Served:
        chooser = TimedChooser(prep["controller"], "deepbat.choose", tracer)
        engine = ServingEngine(
            INITIAL_CONFIG, platform=_azure_platform(), chooser=chooser,
            slo=SLO_S, pool=AZURE_POOL,
            decision_interval_s=self.decision_interval_s,
            sequence_length=VCR_SEQUENCE_LENGTH,
        )
        served, history = _split_history(prep["traces"][k])
        log, run_s = _replay(engine, tracer, served, name=self.name,
                             history=history)
        return Served([log], chooser, run_s)


def batch_decision_probe(prep: dict, tracer: Tracer | None,
                         windows: int = 5) -> TimedChooser:
    """``BATCHController.choose`` on the windows BATCH would see at the
    first segment boundaries of a DeepBAT trace (§IV-B: a MAP re-fit and
    an analytic re-solve per segment), timed: the numerator of the
    decision-time speedup (§IV-F) and the baseline's fit/solve split."""
    trace = prep["traces"][0]
    chooser = TimedChooser(BATCHController(configs=GRID), "batch.choose",
                           tracer)
    for k in range(1, 1 + windows):
        lo, hi = np.searchsorted(trace.timestamps,
                                 [(k - 1) * SEGMENT_S, k * SEGMENT_S])
        chooser.choose(np.diff(trace.timestamps[lo:hi]), SLO_S)
    return chooser


class FleetOutage:
    """A gold and a bulk lane under a shared container budget, static
    configs, through a mid-run outage with the whole degradation stack,
    on each of eight traces."""

    name = "fleet_outage"
    n_traces = 8
    # Many short segments: each may switch the heavy-tailed rate regime,
    # and enough regimes per run keep volume and cost steady across seeds.
    n_segments = 240
    segment_s = 0.5
    base_rate = 150.0

    def setup(self, seed: int, tracer: Tracer | None) -> dict:
        seeds = trace_seeds(seed, self.n_traces)
        with maybe_span(tracer, "arrival.trace"):
            traces = [alibaba_like(seed=s, n_segments=self.n_segments,
                                   segment_duration=self.segment_s,
                                   base_rate=self.base_rate)
                      for s in seeds]
        with maybe_span(tracer, "controller.build"):
            endpoints = [self._endpoints(t.duration) for t in traces]
        return {"traces": traces, "endpoints": endpoints, "seeds": seeds,
                "digest": digest(*(t.timestamps for t in traces))}

    @staticmethod
    def _endpoints(horizon: float) -> list[EndpointSpec]:
        outages = OutageModel(
            windows=(OutageWindow(0.40 * horizon, 0.55 * horizon),),
            crash=CrashHazard(rate=0.005, outage_rate=0.08),
            straggler=StragglerModel(rate=0.15, slowdown=3.0),
            seed=5,
        )
        degrade = DegradeConfig(
            backoff=RetryPolicy(max_attempts=2, base_backoff_s=0.05,
                                max_total_delay_s=0.5),
            hedge=HedgeConfig(percentile=90.0, multiplier=1.5),
        )
        pool = WarmPoolConfig(max_containers=8, max_queued_batches=12,
                              keep_alive_s=1.0)
        return [
            EndpointSpec(
                name="gold", config=BatchConfig(2048.0, 4, 0.01),
                slo=0.25, priority=1, share=0.6, pool=pool,
                platform=ServerlessPlatform(seed=17,
                                            cold_start=ColdStartModel()),
                outages=outages, degrade=degrade,
            ),
            EndpointSpec(
                name="bulk", config=BatchConfig(2048.0, 8, 0.05),
                slo=0.5, priority=0, share=0.4, pool=pool,
                platform=ServerlessPlatform(
                    seed=18, cold_start=ColdStartModel(),
                    faults=FaultModel(failure_rate=0.02),
                ),
            ),
        ]

    def serve(self, prep: dict, k: int, tracer: Tracer | None) -> Served:
        engine = FleetEngine(
            prep["endpoints"][k], max_containers=14,
            split_seed=prep["seeds"][k],
            brownout=BrownoutConfig(max_total_queued=10),
            failover=FailoverConfig(min_queue=1),
        )
        fleet, run_s = _replay(engine, tracer, prep["traces"][k].timestamps,
                               name=self.name)
        return Served(list(fleet.logs.values()), None, run_s,
                      lanes=len(fleet.logs))


class GenContinuous:
    """Token streaming with iteration-level continuous batching on one
    engine, loaded so that requests wait for session slots: 4 containers
    of 8 slots each, and arrivals beyond 16 waiting requests are shed; on
    each of twelve traces."""

    name = "gen_continuous"
    n_traces = 12
    n_segments = 24
    segment_s = 5.0

    def setup(self, seed: int, tracer: Tracer | None) -> dict:
        seeds = trace_seeds(seed, self.n_traces)
        with maybe_span(tracer, "arrival.trace"):
            traces = [twitter_like(seed=s, n_segments=self.n_segments,
                                   segment_duration=self.segment_s)
                      for s in seeds]
        with maybe_span(tracer, "controller.build"):
            generation = [GenerationConfig(
                dispatcher="continuous",
                length_model=TokenLengthModel(output_mean=16.0),
                max_waiting=16, ttft_slo=0.05, seed=s,
            ) for s in seeds]
        return {"traces": traces, "generation": generation,
                "digest": digest(*(t.timestamps for t in traces))}

    def serve(self, prep: dict, k: int, tracer: Tracer | None) -> Served:
        engine = ServingEngine(
            BatchConfig(2048.0, 8, 0.0), platform=ServerlessPlatform(),
            pool=WarmPoolConfig(keep_alive_s=30.0, max_containers=4),
            generation=prep["generation"][k],
        )
        log, run_s = _replay(engine, tracer, prep["traces"][k].timestamps,
                             name=self.name)
        return Served([log], None, run_s)


WORKLOADS = {w.name: w for w in (DeepBATAzure(), FleetOutage(),
                                 GenContinuous())}
