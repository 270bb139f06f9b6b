"""Benchmark of the DeepBAT serving stack, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload deepbat_azure --seed 0 --seconds 10 --trace 0

One run sets the workload up at least three times (reporting the median),
replays its first trace once as an untimed warm-up, then replays its traces
in turn until each has been timed and ``--seconds`` of host time are spent.
Simulated metrics are pooled over the run's traces; host rates are medians
over the timed replays, scaled to a reference machine speed
(:class:`HostClock`). ``--trace 1`` replays each trace untraced, then traced,
and reports the per-layer metrics instead of the end-to-end ones. The last
line of standard output is one JSON object; the lines before it print every
metric by name with its unit and sample count. A failed output check ends
the run with exit code 1 and no result. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups per run: at least 3, and more while they have taken less than
#: ``SETUP_SECONDS`` (up to 10), so a cheap set-up is timed often enough.
SETUP_SECONDS = 2.5
#: p99 is reported only when at least 10 samples lie beyond it.
MIN_SAMPLES_P99 = 1010
SPAN_DIR = Path(".perfbench")
#: Seconds one :func:`calibrate` call takes on the reference machine (a
#: 2-vCPU 2.0 GHz Xeon VM in its fast state). See :class:`HostClock`.
CALIBRATION_REF_S = 0.030
_CAL = np.random.default_rng(0)
_CAL_X = _CAL.standard_normal((84, 32, 8))
_CAL_W = _CAL.standard_normal((8, 8))


class CheckFailed(Exception):
    pass


def calibrate() -> float:
    """Host seconds of a fixed numpy kernel like the program's own work —
    small batched matrix products, a softmax, reductions. It never calls
    the program, so no change to the program can move it."""
    t0 = perf_counter()
    for _ in range(25):
        scores = (_CAL_X @ _CAL_W) @ (_CAL_X @ _CAL_W.T).transpose(0, 2, 1)
        scores = np.exp(scores - scores.max(axis=-1, keepdims=True))
        scores /= scores.sum(axis=-1, keepdims=True)
        np.tanh(scores @ _CAL_X).mean(axis=1)
    return perf_counter() - t0


class HostClock:
    """Turns host seconds into seconds at the reference machine's speed.

    The shared machines this runs on flip between a fast and a 1.7x slower
    state every few seconds and drift over minutes. The calibration kernel
    slows down with them, so each timed interval is divided by the
    calibration timed right before and right after it (the faster of two
    calls each) and multiplied by :data:`CALIBRATION_REF_S`; a run reports
    the median over its repetitions.
    """

    def __init__(self) -> None:
        self.calibrations = [self._calibrate()]

    def _calibrate(self) -> float:
        return min(calibrate(), calibrate())

    def scale(self, seconds: float) -> float:
        """``seconds`` just elapsed, at reference speed."""
        before = self.calibrations[-1]
        self.calibrations.append(self._calibrate())
        return seconds * CALIBRATION_REF_S / (0.5 * (before + self.calibrations[-1]))


def _percentile(values, q: float) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.percentile(values, q)) if values.size else 0.0


def _sum_logs(served, attr) -> float:
    return sum(getattr(log, attr) for log in served.logs)


# ------------------------------------------------------------ sim outcome
def outcome(served) -> dict:
    """Simulated metrics of a run, pooled over the logs of one replay of
    each of its traces: exact functions of the seed.

    Latency is time to first token on generation logs. Shed and failed
    requests count as SLO misses; cost is billed cost (hedge duplicates
    included) per million served requests.
    """
    logs = served.logs
    gen = logs[0].is_generation
    attempted = sum(log.n_requests for log in logs)
    ok_latency, met, lost, cost = [], 0, 0, 0.0
    for log in logs:
        ok = ~log.shed & ~log.failed
        lat = (log.ttft if gen else log.latencies)[ok]
        ok_latency.append(lat)
        met += int((lat <= (log.ttft_slo if gen else log.slo)).sum())
        lost += log.n_requests - int(ok.sum())
        cost += log.total_cost
    lat = np.concatenate(ok_latency)
    out = {
        "requests": attempted,
        "served": attempted - lost,
        "latency_p50_ms": _percentile(lat, 50) * 1e3,
        "latency_p99_ms": _percentile(lat, 99) * 1e3,
        "slo_attainment_pct": 100.0 * met / attempted,
        "cost_per_million_usd": cost / (attempted - lost) * 1e6,
        "failed_pct": 100.0 * lost / attempted,
        "vcr_pct": 0.0,
        "tpot_ms_p50": 0.0,
        "tpot_ms_p99": 0.0,
        "digest": replay_digest(logs),
    }
    if gen:
        tpot = np.concatenate([log.tpot for log in logs])
        tpot = tpot[np.isfinite(tpot)]
        out["tpot_ms_p50"] = _percentile(tpot, 50) * 1e3
        out["tpot_ms_p99"] = _percentile(tpot, 99) * 1e3
    else:
        out["vcr_pct"] = sum(log.vcr() * log.n_requests for log in logs) / attempted
    return out


def replay_digest(logs) -> str:
    from workloads import digest

    arrays = []
    for log in logs:
        arrays += [log.latencies, log.shed, log.failed, log.batch_costs]
        if log.is_generation:
            arrays += [log.ttft, log.tpot]
    return digest(*arrays)


def check_outputs(name: str, served) -> list[str]:
    """Output checks on one replay; each string names one violated
    property."""
    problems = []
    for log in served.logs:
        lane = log.name
        if not log.latencies.size == log.shed.size == log.failed.size == log.n_requests:
            problems.append(f"{lane}: per-request arrays disagree in length")
            continue
        # Every request ends exactly once: served, shed or failed.
        if np.any(log.shed & log.failed):
            problems.append(f"{lane}: {int((log.shed & log.failed).sum())} "
                            "requests both shed and failed")
        nan = np.isnan(log.latencies)
        if not np.array_equal(nan, log.shed):
            problems.append(f"{lane}: latency NaN on {int((nan != log.shed).sum())} "
                            "requests it should not be (NaN exactly where shed)")
        if log.is_generation and not np.array_equal(np.isnan(log.ttft), log.shed):
            problems.append(f"{lane}: TTFT is not NaN exactly where shed")
        lat = log.latencies[~log.shed]
        if not (np.all(np.isfinite(lat)) and np.all(lat > 0)):
            problems.append(f"{lane}: a served latency is not positive and finite")
        costs = log.batch_costs
        if not (np.all(np.isfinite(costs)) and np.all(costs > 0)):
            problems.append(f"{lane}: a batch cost is not positive and finite")
    chooser = served.chooser
    if chooser is not None and chooser.nonfinite_predictions:
        problems.append(f"{chooser.nonfinite_predictions} decisions carried "
                        "non-finite surrogate predictions")
    if name == "deepbat_azure" and len(chooser.durations) < MIN_SAMPLES_P99:
        problems.append(f"only {len(chooser.durations)} decisions; "
                        f"p99 needs {MIN_SAMPLES_P99}")
    return problems


def check_run(name: str, pooled) -> list[str]:
    """Checks that the workload did what it is for, on the logs of all
    of the run's traces."""
    problems = []
    if name == "fleet_outage":
        for counter in ("hedges", "cold_retries", "failover_batches"):
            if _sum_logs(pooled, counter) == 0:
                problems.append(f"outage stack did not engage: {counter} == 0")
    if name == "gen_continuous":
        met = sum(int((log.ttft <= log.ttft_slo).sum()) for log in pooled.logs)
        if met == sum(log.n_requests for log in pooled.logs):
            problems.append("TTFT attainment is 100%: no request waited for a slot")
    return problems


# ---------------------------------------------------------------- replays
def replay(workload, prep, k: int, tracer, expect_digest: str | None):
    """One replay of trace ``k``: its outputs, its host-side record, and
    the determinism guard (every replay of a trace must give the outputs
    of its first replay)."""
    from tracing import maybe_span

    gc.collect()
    root = len(tracer.spans) if tracer is not None else None
    with maybe_span(tracer, "rep"):
        served = workload.serve(prep, k, tracer)
        digest = replay_digest(served.logs)
    if expect_digest is not None and digest != expect_digest:
        raise CheckFailed(f"trace {k}: replay digest {digest} != first "
                          f"replay's {expect_digest}: one input, two outputs")
    c = served.chooser
    rec = {
        "trace": k,
        "digest": digest,
        "run_s": served.run_s,
        "requests": sum(log.n_requests for log in served.logs),
        "decisions_s": list(c.durations) if c is not None else [],
        "inference_s": c.inference_time if c is not None else 0.0,
        "search_s": c.decision_time - c.inference_time if c is not None else 0.0,
    }
    if tracer is not None:
        rec["self"] = tracer.self_times(root)
        rec["wall"] = tracer.spans[root][2] - tracer.spans[root][1]
        rec["spans"] = len(tracer.spans) - root
    return served, rec


def first_replay(name: str, served, rec, first: dict) -> None:
    """Checks the outputs of a trace's first replay and keeps them as the
    reference its later replays must reproduce."""
    problems = check_outputs(name, served)
    if problems:
        raise CheckFailed(f"trace {rec['trace']}: " + "; ".join(problems))
    first[rec["trace"]] = (served, rec["digest"])


def timed_replays(workload, prep, seconds: float, tracer, first: dict,
                  clock: HostClock):
    """Replays the traces in turn (1, 2, ..., K-1, 0, 1, ...) until every
    one has been timed and the next replay would overrun ``seconds`` of
    host time; with a tracer, each trace is replayed untraced, then traced."""
    n = workload.n_traces
    plain, traced = [], []
    start = perf_counter()
    for i in itertools.count():
        use_tracer = tracer is not None and i % 2 == 1
        k = (1 + (i // 2 if tracer is not None else i)) % n
        ref = first.get(k)
        t0 = perf_counter()
        served, rec = replay(workload, prep, k, tracer if use_tracer else None,
                             ref[1] if ref else None)
        rec["ref_s"] = clock.scale(rec["run_s"])
        if ref is None:
            first_replay(workload.name, served, rec, first)
        rec["cycle_s"] = perf_counter() - t0
        (traced if use_tracer else plain).append(rec)
        estimate = statistics.median(r["cycle_s"] for r in plain + traced)
        enough = len(plain) >= n and (tracer is None or len(traced) == len(plain))
        if enough and perf_counter() - start + estimate > seconds:
            return plain, traced


# ---------------------------------------------------------------- metrics
def _median(records, key) -> float:
    return statistics.median(r[key] for r in records)


def _total(records, get) -> float:
    """Sum over the traces in ``records`` of the median, over each trace's
    replays, of ``get(record)`` (or of ``record[get]``): one replay of
    every trace, whatever the number of replays host speed allowed."""
    if isinstance(get, str):
        key, get = get, lambda r: r[key]
    traces = sorted({r["trace"] for r in records})
    return sum(statistics.median(get(r) for r in records if r["trace"] == k)
               for k in traces)


def decision_stats(records) -> dict:
    """Per-``choose()`` host time in ms, pooled over replays."""
    samples = [d * 1e3 for r in records for d in r["decisions_s"]]
    return {
        "n": len(samples),
        "p50": _percentile(samples, 50),
        "p99": _percentile(samples, 99) if len(samples) >= MIN_SAMPLES_P99 else 0.0,
    }


def sim_rate(records) -> float:
    """Simulated requests per reference-speed host second of ``run()``:
    the median over ``records`` of each replay's rate. A replay slowed by
    the shared machine is an outlier the median ignores."""
    return statistics.median(r["requests"] / r["ref_s"] for r in records)


def end_to_end(setup_s, plain, sim) -> dict:
    return {
        "setup_s": statistics.median(setup_s),
        "sim_requests_per_s": sim_rate(plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "latency_p50_ms": sim["latency_p50_ms"],
        "latency_p99_ms": sim["latency_p99_ms"],
        "slo_attainment_pct": sim["slo_attainment_pct"],
        "cost_per_million_usd": sim["cost_per_million_usd"],
    }


def headline(pooled, n_traces, setup_s, plain, sim, values) -> dict:
    """Every end-to-end metric the workload defines, with its sample count:
    the scored ones plus the workload-specific ones (decision time, TPOT,
    VCR, failed share)."""
    n_req = (f"{sim['served']} served of {sim['requests']} requests "
             f"on {n_traces} traces")
    counts = {
        "setup_s": f"median of {len(setup_s)} set-ups",
        "sim_requests_per_s": f"{len(plain)} timed replays of {n_traces} traces",
        "peak_rss_mb": "process maximum",
        "latency_p50_ms": n_req,
        "latency_p99_ms": n_req,
        "slo_attainment_pct": f"{sim['requests']} attempted",
        "cost_per_million_usd": n_req,
    }
    report = {k: (v, counts[k]) for k, v in values.items()}
    if plain[0]["decisions_s"]:
        d = decision_stats(plain)
        report["decision_ms_p50"] = (d["p50"], f"{d['n']} decisions")
        if d["p99"]:
            report["decision_ms_p99"] = (d["p99"], f"{d['n']} decisions")
    if pooled.logs[0].is_generation:
        report["tpot_ms_p50"] = (sim["tpot_ms_p50"], n_req)
        report["tpot_ms_p99"] = (sim["tpot_ms_p99"], n_req)
    else:
        report["vcr_pct"] = (sim["vcr_pct"], n_req)
    report["failed_pct"] = (sim["failed_pct"], f"{sim['requests']} attempted")
    return report


def per_layer(prep, setup_self, firsts, pooled, warm, plain, traced, sim,
              probe, clock: HostClock) -> dict:
    """Layer metrics over one replay of each of the run's traces: times
    from the traced replays' spans, counts from the logs, decision times
    from the untraced replays of the same run."""
    logs = pooled.logs
    choosers = [s.chooser for s in firsts if s.chooser is not None]
    calls = sum(len(c.durations) for c in choosers)
    span = lambda key: _total(traced, lambda r: r["self"].get(key, 0.0))
    engine_self = span("engine.run")
    events = _sum_logs(pooled, "n_events")
    batches = sum(log.batch_sizes.size for log in logs)
    waits = np.concatenate([log.start_times - log.dispatch_times for log in logs])
    cold = _sum_logs(pooled, "cold_starts")
    starts = cold + _sum_logs(pooled, "warm_starts")
    hedges = _sum_logs(pooled, "hedges")
    label_s = setup_self.get("dataset.label", 0.0)
    tokens = _sum_logs(pooled, "gen_tokens")
    decode = _sum_logs(pooled, "gen_decode_iterations")
    decisions = decision_stats(plain)
    untraced_rate = sim_rate(plain)
    traced_rate = sim_rate(traced)
    deepbat_p50 = decisions["p50"] if probe else 0.0
    batch_p50 = _percentile(probe.durations, 50) * 1e3 if probe else 0.0
    return {
        "arrival.trace_s": setup_self.get("arrival.trace", 0.0),
        "arrival.window_calls": calls,
        "dataset.label_s": label_s,
        "dataset.labels_per_s": prep.get("labels", 0) / label_s if label_s else 0.0,
        "training.fit_s": setup_self.get("training.fit", 0.0),
        "training.epochs": prep.get("epochs", 0),
        "training.gamma_s": setup_self.get("training.gamma", 0.0),
        "controller.build_s": setup_self.get("controller.build", 0.0),
        "deepbat.choose_calls": calls,
        "deepbat.choose_s": span("deepbat.choose"),
        "deepbat.forward_s": _total(traced, "inference_s") if choosers else 0.0,
        "deepbat.search_s": _total(traced, "search_s") if choosers else 0.0,
        "deepbat.degraded": sum(c.degraded for c in choosers),
        "batch.choose_calls": len(probe.durations) if probe else 0,
        "batch.fit_s": probe.fit_time if probe else 0.0,
        "batch.solve_s": probe.solve_time if probe else 0.0,
        "decision_ms_p50": decisions["p50"],
        "decision_ms_p99": decisions["p99"],
        "decision_speedup_batch_over_deepbat": batch_p50 / deepbat_p50 if probe else 0.0,
        "decision_speedup.batch_ms_p50": batch_p50,
        "decision_speedup.deepbat_ms_p50": deepbat_p50,
        "engine.self_s": engine_self,
        "engine.events": events,
        "engine.events_per_s": events / engine_self,
        "engine.reconfigurations": _sum_logs(pooled, "reconfigurations"),
        "engine.decisions": sum(len(log.decisions) for log in logs),
        "buffer.batches": batches,
        "buffer.mean_batch_size": (
            sum(int(log.batch_sizes.sum()) for log in logs) / batches
            if batches else 0.0),
        "queue.wait_ms_p50": _percentile(waits, 50) * 1e3,
        "queue.wait_ms_p99": _percentile(waits, 99) * 1e3,
        "pool.cold_starts": cold,
        "pool.warm_hit_ratio": (starts - cold) / starts if starts else 0.0,
        "pool.expired": _sum_logs(pooled, "expired_containers"),
        "pool.evicted": _sum_logs(pooled, "evicted_containers"),
        "platform.retries": _sum_logs(pooled, "n_retries"),
        "platform.failed": _sum_logs(pooled, "n_failed"),
        "outage.denied": _sum_logs(pooled, "outage_denied"),
        "outage.crashes": _sum_logs(pooled, "crashed_containers"),
        "outage.crash_requeued": _sum_logs(pooled, "crash_requeued"),
        "outage.stragglers": _sum_logs(pooled, "straggler_batches"),
        "degrade.cold_retries": _sum_logs(pooled, "cold_retries"),
        "degrade.cold_retry_exhausted": _sum_logs(pooled, "cold_retry_exhausted"),
        "degrade.hedges": hedges,
        "degrade.hedge_win_ratio": _sum_logs(pooled, "hedge_wins") / hedges if hedges else 0.0,
        "degrade.hedge_cost_share": _sum_logs(pooled, "hedge_cost") / _sum_logs(pooled, "total_cost"),
        "degrade.brownout_shed": _sum_logs(pooled, "brownout_shed"),
        "degrade.failover_batches": _sum_logs(pooled, "failover_batches"),
        "fleet.lanes": pooled.lanes,
        "fleet.events_per_lane": events / pooled.lanes if pooled.lanes else 0.0,
        "gen.sessions": _sum_logs(pooled, "gen_sessions"),
        "gen.prefill_iterations": _sum_logs(pooled, "gen_prefill_iterations"),
        "gen.decode_iterations": decode,
        "gen.tokens": tokens,
        "gen.tokens_per_host_s": tokens / _total(plain, "run_s"),
        "gen.tokens_per_decode_iteration": tokens / decode if decode else 0.0,
        "tpot_ms_p50": sim["tpot_ms_p50"],
        "tpot_ms_p99": sim["tpot_ms_p99"],
        "vcr_pct": sim["vcr_pct"],
        "failed_pct": sim["failed_pct"],
        # The warm-up replays trace 0; so do some of the timed replays.
        "warmup.run_s": warm["run_s"],
        "timed.run_s": _median([r for r in plain if r["trace"] == 0], "run_s"),
        "host.calibration_ms": statistics.median(clock.calibrations) * 1e3,
        "trace.sim_requests_per_s_untraced": untraced_rate,
        "trace.sim_requests_per_s_traced": traced_rate,
        "trace.overhead_pct": 100.0 * (untraced_rate / traced_rate - 1.0),
        # Share of a traced replay's wall time inside a named layer span
        # rather than the benchmark's own glue (the "rep" root's self time).
        "trace.attributed_pct": statistics.median(
            100.0 * (1.0 - r["self"]["rep"] / r["wall"]) for r in traced),
        "trace.spans_per_run": _median(traced, "spans"),
    }


# ------------------------------------------------------------------- main
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from src/: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        result = measure(workloads, args, spec)
    except CheckFailed as exc:
        print(f"perfbench: {args.workload} seed {args.seed}: CHECK FAILED: {exc}",
              file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


def measure(workloads, args, spec) -> dict:
    from tracing import Tracer, maybe_span

    name = args.workload
    workload = workloads.WORKLOADS[name]
    tracer = Tracer() if args.trace else None
    clock = HostClock()
    setup_s, raw, prep, setup_root = [], [], None, None
    for k in range(10):
        if k >= 3 and sum(raw) >= SETUP_SECONDS:
            break
        gc.collect()
        t = tracer if k == 0 else None
        if t is not None:
            setup_root = len(t.spans)
        t0 = perf_counter()
        with maybe_span(t, "setup"):
            p = workload.setup(args.seed, t)
        raw.append(perf_counter() - t0)
        setup_s.append(clock.scale(raw[-1]))
        if prep is None:
            prep = p
        elif p["digest"] != prep["digest"]:
            raise CheckFailed("two set-ups from one seed differ "
                              f"({p['digest']} != {prep['digest']})")

    first = {}
    served, warm = replay(workload, prep, 0, None, None)
    warm["ref_s"] = clock.scale(warm["run_s"])
    first_replay(name, served, warm, first)
    print(f"{name} seed={args.seed}: warm-up replay of trace 0 "
          f"{warm['run_s']:.3f} host s, {sim_rate([warm]):.0f} sim requests/s "
          f"at reference speed (not in the timed figures); output checks "
          f"passed; digest {warm['digest']}")

    plain, traced = timed_replays(workload, prep, args.seconds, tracer,
                                  first, clock)
    firsts = [first[k][0] for k in range(workload.n_traces)]
    pooled = workloads.Served([log for s in firsts for log in s.logs], None,
                              sum(s.run_s for s in firsts), firsts[0].lanes)
    problems = check_run(name, pooled)
    if problems:
        raise CheckFailed("; ".join(problems))
    sim = outcome(pooled)
    print(f"{name} seed={args.seed}: {workload.n_traces} traces, output "
          f"checks passed; digest {sim['digest']}")
    if tracer is None:
        section = "end_to_end"
        values = end_to_end(setup_s, plain, sim)
        report = headline(pooled, workload.n_traces, setup_s, plain, sim,
                          values)
    else:
        section = "per_layer"
        probe = None
        if name == "deepbat_azure":
            with tracer.span("probe.batch"):
                probe = workloads.batch_decision_probe(prep, tracer)
        values = per_layer(prep, tracer.self_times(setup_root), firsts,
                           pooled, warm, plain, traced, sim, probe, clock)
        report = {k: (v, "") for k, v in values.items()}
        SPAN_DIR.mkdir(exist_ok=True)
        tracer.write(SPAN_DIR / f"spans-{name}-seed{args.seed}.json")
    unit = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for key, (value, count) in report.items():
        print(f"  {name} {key} = {value:.6g} {unit[key]}"
              + (f" ({count})" if count else ""))
    return {
        "correct": True,
        "attempted": len(plain) + len(traced),
        "failed": 0,
        "metrics": {m["name"]: {"value": float(values[m["name"]]),
                                "unit": m["unit"]} for m in spec[section]},
    }


if __name__ == "__main__":
    sys.exit(main())
