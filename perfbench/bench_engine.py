"""The two engine workloads: ``engine_dense`` and ``case_study_scan``.

Both are closed loops with one caller in the benchmark process.  Their
inputs are fixed pools whose answers are committed under ``goldens/``;
the seed permutes the order in which the pool is run.  A run makes one
whole pass over the pool and goes on around it until ``--seconds`` have
elapsed, so every input is measured at least once.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import bench_layers
import bench_probe
import bench_trace
from bench_stats import frac, low_quartile, median, tail

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens"
OUT = HERE.parent / ".perfbench-out"


class SetupError(RuntimeError):
    """The inputs do not match the committed goldens."""


def same_answer(got: tuple, want: tuple) -> bool:
    """Density and flow within 1e-9 (relative), the interval exactly."""
    density, interval, flow = got
    want_density, want_interval, want_flow = want
    return (
        math.isclose(density, want_density, rel_tol=1e-9, abs_tol=1e-9)
        and math.isclose(flow, want_flow, rel_tol=1e-9, abs_tol=1e-9)
        and (None if interval is None else list(interval))
        == (None if want_interval is None else list(want_interval))
    )


def answer_of(result) -> tuple:
    return (result.density, result.interval, result.flow_value)


def load_golden(name: str) -> dict[str, Any]:
    with (GOLDENS / f"{name}.json").open(encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def engine_dense_inputs(cfg: dict):
    """The prosper replica and the paper's query selector's pool."""
    from repro.datasets import generate_queries, make_dataset

    network = make_dataset(cfg["dataset"], scale=cfg["scale"])
    workload = generate_queries(
        network, count=cfg["queries"], seed=cfg["query_seed"]
    )
    delta = workload.delta_for(cfg["delta_fraction"])
    return network, [(s, t, delta) for s, t in workload.pairs]


def case_study_inputs(cfg: dict):
    """The Table-3 network, the S and T lists and the delta sweep."""
    from repro.datasets import make_case_study

    dataset = make_case_study(scale=cfg["scale"])
    horizon = dataset.network.num_timestamps
    deltas = [max(1, round(horizon * f)) for f in cfg["delta_fractions"]]
    benign = cfg["benign"]
    sources = dataset.suspicious_sources + dataset.benign_sources[:benign]
    sinks = dataset.suspicious_sinks + dataset.benign_sinks[:benign]
    suspect = (dataset.suspicious_sources[0], dataset.suspicious_sinks[0])
    return dataset.network, sources, sinks, deltas, suspect


def _check_pool(golden: dict, queries: list) -> dict[tuple, tuple]:
    pool = [tuple(row[:3]) for row in golden["answers"]]
    if pool != [tuple(q) for q in queries]:
        raise SetupError(
            "the generated query pool differs from the committed goldens; "
            "regenerate them with perfbench/make_goldens.py"
        )
    return {tuple(row[:3]): tuple(row[3:]) for row in golden["answers"]}


def _timed_setups(build: Callable[[], Any], cfg: dict) -> tuple[Any, float]:
    """Run ``build`` ``setup_repeats`` times between reference probes.

    Returns the last value and the median wall time in seconds at the
    reference host speed (see ``bench_probe``).
    """
    times = []
    value = None
    probes = bench_probe.ProbeChain()
    for _ in range(cfg["setup_repeats"]):
        probes.start()
        start = time.perf_counter()
        value = build()
        wall = time.perf_counter() - start
        times.append(wall / probes.end()[0])
    return value, median(times) * cfg["probe_reference_ms"]["full"] / 1000.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass(slots=True)
class Call:
    """One timed call: which input it ran, its wall and CPU seconds, and
    the mean wall and CPU seconds of the reference probes run right
    before and right after it."""

    key: Any
    wall: float
    cpu: float
    probe_wall: float
    probe_cpu: float


class Timer:
    """Times calls between reference probes (``bench_probe.ProbeChain``)."""

    def __init__(self) -> None:
        self.calls: list[Call] = []
        self.probes = bench_probe.ProbeChain()

    @contextmanager
    def timed(self, key: Any):
        self.probes.start()
        cpu = time.process_time()
        start = time.perf_counter()
        yield
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu
        self.calls.append(Call(key, wall, cpu, *self.probes.end()))


def _best(calls: list[Call], field: str) -> dict[Any, float]:
    """Each input's fastest repeat in this run (printed, not bounded)."""
    best: dict[Any, float] = {}
    for call in calls:
        value = getattr(call, field)
        best[call.key] = min(value, best.get(call.key, value))
    return best


def _reference_ms(calls: list[Call], field: str, cfg: dict, per_op: int) -> float:
    """Milliseconds per query at the reference host speed.

    Each call's time is divided by the mean time of the probes run right
    before and after it.  An input's ratio is the lower quartile over its
    repeats: interference only ever slows a call down, and the probes
    catch sustained slowdowns but not every short one inside a call.
    Every input counts as many repeats as the least-repeated one (the
    first ones), so an unfinished pass does not favour the inputs it
    reached.  The run's ratio is the mean over inputs, scaled by the
    probe's quiet-host time.
    """
    ratios: dict[Any, list[float]] = {}
    for call in calls:
        ratios.setdefault(call.key, []).append(
            getattr(call, field) / getattr(call, f"probe_{field}")
        )
    repeats = min(len(values) for values in ratios.values())
    mean = sum(
        low_quartile(values[:repeats]) for values in ratios.values()
    ) / len(ratios)
    return mean * cfg["probe_reference_ms"]["full"] / per_op


# ----------------------------------------------------------------------
# engine_dense
# ----------------------------------------------------------------------
def engine_dense(cfg: dict, args) -> dict[str, Any]:
    import repro.core.engine as engine
    from repro.core.query import BurstingFlowQuery

    golden = load_golden("engine_dense")

    def setup():
        network, queries = engine_dense_inputs(cfg)
        expected = _check_pool(golden, queries)
        # Warm-up: one query, so lazy indexes are built before timing.
        engine.find_bursting_flow(
            network, BurstingFlowQuery(*queries[0]), algorithm=cfg["algorithm"]
        )
        return network, queries, expected

    (network, queries, expected), setup_s = _timed_setups(setup, cfg)
    # The timed pool is the first ``timed_queries`` of the selector's pool,
    # few enough that a run repeats each of them.
    order = list(range(cfg["tiny_queries"] if args.tiny else cfg["timed_queries"]))
    random.Random(args.seed).shuffle(order)
    limit = cfg["latency_limit_ms"] / 1000.0

    def phase():
        timer = Timer()
        wrong = 0
        began = time.perf_counter()
        # One whole pass, then on around the pool until time is up.
        for position in itertools.count():
            if position >= len(order) and (
                args.tiny or time.perf_counter() - began >= args.seconds
            ):
                break
            query = queries[order[position % len(order)]]
            with timer.timed(order[position % len(order)]):
                result = engine.find_bursting_flow(
                    network, BurstingFlowQuery(*query), algorithm=cfg["algorithm"]
                )
            got = answer_of(result)
            if args.corrupt and len(timer.calls) == 1:
                got = (got[0] * 1.5 + 1.0, got[1], got[2])
            if not same_answer(got, expected[tuple(query)]):
                wrong += 1
        return timer.calls, wrong

    return _closed_loop_report(
        "engine_dense", cfg, args, phase, setup_s, limit, per_op=1,
        sizes={
            "dataset": f"{cfg['dataset']} x{cfg['scale']}",
            "nodes": network.num_nodes,
            "edges": network.num_edges,
            "timestamps": network.num_timestamps,
            "pool": len(queries),
            "timed": len(order),
            "delta": queries[0][2],
        },
    )


# ----------------------------------------------------------------------
# case_study_scan
# ----------------------------------------------------------------------
def case_study_scan(cfg: dict, args) -> dict[str, Any]:
    from repro.anomaly import BurstDetector

    golden = load_golden("case_study_scan")

    def setup():
        network, sources, sinks, deltas, suspect = case_study_inputs(cfg)
        queries = [
            (s, t, d) for s in sources for t in sinks if s != t for d in deltas
        ]
        expected = _check_pool(golden, queries)
        detector = BurstDetector(network)
        detector.scan(sources[:1], sinks[:1], deltas[:1])  # warm-up
        return network, sources, sinks, deltas, suspect, expected, detector

    built, setup_s = _timed_setups(setup, cfg)
    network, sources, sinks, deltas, suspect, expected, detector = built
    rng = random.Random(args.seed)
    limit = cfg["latency_limit_ms"] / 1000.0
    per_sweep = len(expected)

    def phase():
        timer = Timer()
        wrong = 0
        began = time.perf_counter()
        while True:
            # The seed orders the sweep: S, T and the deltas are shuffled.
            s_order, t_order, d_order = list(sources), list(sinks), list(deltas)
            for items in (s_order, t_order, d_order):
                rng.shuffle(items)
            with timer.timed("sweep"):
                report = detector.scan(s_order, t_order, d_order)
            findings = {
                (f.source, f.sink, f.delta): (f.density, f.interval, f.flow_value)
                for f in report.findings
            }
            if args.corrupt and len(timer.calls) == 1:
                key = next(iter(findings))
                density, interval, flow = findings[key]
                findings[key] = (density * 1.5 + 1.0, interval, flow)
            for key, want in expected.items():
                got = findings.get(key)
                if got is None or not same_answer(got, want):
                    wrong += 1
            top = report.flagged[0] if report.flagged else None
            if top is None or (top.source, top.sink) != suspect:
                wrong += 1
            if args.tiny or time.perf_counter() - began >= args.seconds:
                break
        return timer.calls, wrong

    return _closed_loop_report(
        "case_study_scan", cfg, args, phase, setup_s, limit, per_op=per_sweep,
        sizes={
            "dataset": f"case_study x{cfg['scale']}",
            "nodes": network.num_nodes,
            "edges": network.num_edges,
            "timestamps": network.num_timestamps,
            "queries_per_sweep": per_sweep,
            "deltas": deltas,
        },
    )


# ----------------------------------------------------------------------
# Shared closed-loop reporting
# ----------------------------------------------------------------------
def _closed_loop_report(
    name: str,
    cfg: dict,
    args,
    phase: Callable[[], tuple[list[Call], int]],
    setup_s: float,
    limit: float,
    *,
    per_op: int,
    sizes: dict,
) -> dict[str, Any]:
    """Measure ``phase`` untraced and, for ``--trace 1``, once more traced.

    ``per_op`` is the number of queries one timed call answers (a sweep
    answers many); times are reported per query.
    """
    calls, wrong = phase()
    per_query = [call.wall / per_op for call in calls]
    attempted = len(calls) * per_op
    within = sum(per_op for call in calls if call.wall <= limit)
    failed = min(attempted, wrong)
    tail_s, tail_pct, count = tail(per_query)
    query_ms = _reference_ms(calls, "wall", cfg, per_op)
    best_wall = _best(calls, "wall")
    probe_ms = median([call.probe_wall for call in calls]) * 1000.0
    reference_ms = cfg["probe_reference_ms"]["full"]
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(),
        "query_ms": query_ms,
        "goodput_frac": max(0, within - failed) / attempted,
    }
    human = [
        f"workload {name}: closed loop, 1 caller, {len(calls)} timed calls "
        f"over {len(best_wall)} distinct inputs",
        f"sizes: {json.dumps(sizes)}",
        f"  query_ms       {query_ms:.3f} ms (at the reference host speed: "
        f"wall time over the probe's, times {reference_ms:g} ms)",
        f"  probe_ms       {probe_ms:.3f} ms (the probe's median here, "
        f"{reference_ms:g} ms on the reference host)",
        f"  query_raw_ms   {median(list(best_wall.values())) * 1000.0 / per_op:.3f} ms "
        f"(median over inputs of each input's fastest repeat, per query)",
        f"  cpu_ms_per_op  {_reference_ms(calls, 'cpu', cfg, per_op):.3f} ms "
        f"(at the reference host speed, CPU time over the probe's)",
        f"  query_p50_ms   {median(per_query) * 1000.0:.3f} ms (n={count})",
        f"  query_tail_ms  {tail_s * 1000.0:.3f} ms (p{tail_pct:.1f}, n={count})",
        f"  queries_per_s  {frac(attempted, sum(c.wall for c in calls)):.3f} 1/s",
        f"  error_frac     {frac(failed, attempted):.4f} frac "
        f"({failed} of {attempted})",
    ]
    result = {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "metrics": metrics,
        "human": human,
    }
    if args.trace:
        tracer = bench_trace.Tracer()
        bench_trace.install(tracer)
        traced, _ = phase()
        traced_ms = _reference_ms(traced, "wall", cfg, per_op)
        analysis = bench_trace.analyze(tracer.spans)
        layers = bench_layers.layer_metrics(analysis)
        layers["trace.overhead_frac"] = traced_ms / query_ms - 1.0
        result["per_layer"] = layers
        result["human"] += bench_trace.format_table(analysis, name)
        result["human"].append(
            f"tracing overhead: query_ms {query_ms:.3f} untraced vs "
            f"{traced_ms:.3f} traced ({layers['trace.overhead_frac']:+.1%})"
        )
        tracer.dump(OUT / f"{name}-seed{args.seed}-spans.jsonl")
    return result

