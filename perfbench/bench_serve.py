"""The two serve workloads: ``serve_mixed`` and ``cluster_mixed``.

The server runs in its own child process (``bench_child.py``), so it
never shares the load generator's interpreter lock.  The generator is an
open loop: a seeded Poisson schedule at a constant rate, fired by at most
``connections`` threads with one blocking connection each.  A request
that finds every connection busy is sent late, and that send lag is
recorded; every latency is measured from the scheduled time.  All
samples are kept raw.

Afterwards a seeded sample of query and batch replies is solved again
sequentially, on the seed edges plus every acknowledged append up to the
reply's epoch, and compared with what the server answered.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import bench_layers
import bench_probe
import bench_trace
from bench_engine import same_answer
from bench_stats import frac, median, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"

#: Request shapes (the defaults of ``repro.loadgen``'s trace builder).
BATCH_SIZE = 4
TOPK_PAIRS = 4
TOPK_K = 5
SCAN_TOP = 4
ZIPF_S = 1.1


class UnsteadyRun(RuntimeError):
    """The generator fell behind its own schedule more and more."""


@dataclass(slots=True)
class Outcome:
    index: int
    op: str
    scheduled: float
    sent: float
    done: float
    reply: Any
    error: str | None
    query: tuple | None = None
    queries: tuple | None = None
    edges: tuple | None = None
    probe: tuple[float, float] = (0.0, 0.0)

    @property
    def latency(self) -> float:
        return self.done - self.scheduled


# ----------------------------------------------------------------------
# The server child
# ----------------------------------------------------------------------
class Child:
    """One ``bench_child.py`` process; always stopped by :meth:`stop`."""

    def __init__(self, cfg: dict, workdir: Path, spans: Path | None) -> None:
        cmd = [
            sys.executable, str(HERE / "bench_child.py"),
            "--target", cfg["target"],
            "--dataset", cfg["dataset"],
            "--scale", str(cfg["scale"]),
            "--workdir", str(workdir),
            "--replicas", str(cfg.get("replicas", 2)),
        ]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(HERE)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True
        )
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("the server child exited before it served")
        announced = json.loads(line)
        self.host, self.port = announced["host"], announced["port"]

    def cpu_s(self) -> float:
        """User+sys CPU seconds of the child so far."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as handle:
            stat = handle.read()
        fields = stat[stat.rfind(")") + 2:].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


# ----------------------------------------------------------------------
# The open-loop generator
# ----------------------------------------------------------------------
def _request_for(event, request_id: str):
    from repro.service.protocol import (
        AppendRequest,
        BatchRequest,
        QueryRequest,
        ScanRequest,
        TopKRequest,
    )

    if event.op == "query":
        return QueryRequest(request_id, event.source, event.sink, event.delta)
    if event.op == "append":
        return AppendRequest(request_id, event.edges)
    if event.op == "batch":
        return BatchRequest(request_id, event.queries, plan="shared")
    if event.op == "topk":
        return TopKRequest(request_id, event.pairs, event.delta, k=event.k)
    return ScanRequest(request_id, event.delta, top=event.top)


def drive(host: str, port: int, events, connections: int) -> list[Outcome]:
    """Fire ``events`` on schedule from ``connections`` threads.

    After each reply a thread runs the small reference probe and keeps
    its ``(wall, cpu)`` seconds in the outcome.
    """
    from repro.service.client import ServiceClient

    outcomes: list[Outcome | None] = [None] * len(events)
    counter = itertools.count()
    began = time.perf_counter() + 0.1

    def worker() -> None:
        client = None
        try:
            while True:
                index = next(counter)
                if index >= len(events):
                    return
                event = events[index]
                scheduled = began + event.at
                delay = scheduled - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                reply, error = None, None
                try:
                    if client is None:
                        client = ServiceClient(host, port, timeout=60.0)
                    reply = client.request(_request_for(event, f"r{index}"))
                except Exception as exc:  # every failure kind is counted
                    error = type(exc).__name__
                    if isinstance(exc, OSError) and client is not None:
                        client.close()
                        client = None
                done = time.perf_counter()
                outcomes[index] = Outcome(
                    index, event.op, scheduled, sent, done, reply, error,
                    probe=bench_probe.timed_probe("small"),
                )
        finally:
            if client is not None:
                client.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


def check_steady(outcomes: list[Outcome]) -> tuple[float, float]:
    """Raise :class:`UnsteadyRun` when send lag grows across the run.

    Returns the median lag (seconds) of the first and last thirds.
    """
    lags = [o.sent - o.scheduled for o in outcomes]
    third = max(1, len(lags) // 3)
    first, last = median(lags[:third]), median(lags[-third:])
    if last > max(0.05, 3.0 * first):
        raise UnsteadyRun(
            f"send lag grew from {first * 1e3:.1f} ms to {last * 1e3:.1f} ms "
            f"(median of the first and last thirds): a growing backlog"
        )
    return first, last


def build_events(network, pairs, delta: int, cfg: dict, seed: int, seconds: float):
    """The seeded open-loop schedule of one run.

    The run holds ``round(rate * seconds)`` requests.  Their send times
    are a Poisson process at the configured rate conditioned on that
    count (sorted uniform draws over the run), drawn from ``seed``.  Op
    kinds and (source, sink) pairs come in exact proportions — the op
    mix, and Zipf(1.1) popularity over the pairs — in an order drawn from
    the fixed ``sequence_seed``, as are the appended edges: which queries
    find the cache purged by an append depends on that order, and with a
    per-run order it moved the median latency more than the host did.
    Appends add one fresh edge between pair endpoints beyond the horizon.
    """
    from repro.loadgen.trace import ArrivalEvent

    total = max(1, round(cfg["rate_per_s"] * seconds))
    arrivals = random.Random(seed)
    times = sorted(arrivals.uniform(0.0, seconds) for _ in range(total))
    rng = random.Random(cfg["sequence_seed"])
    ops = _apportion(cfg["mix"], total)
    rng.shuffle(ops)
    needed = sum(
        {"query": 1, "batch": BATCH_SIZE, "topk": TOPK_PAIRS}.get(op, 0) for op in ops
    )
    weights = {pair: 1.0 / (rank + 1) ** ZIPF_S for rank, pair in enumerate(pairs)}
    draws = _apportion(weights, needed)
    rng.shuffle(draws)
    stream = iter(draws)
    nodes = sorted({str(node) for pair in pairs for node in pair})
    next_tau = network.num_timestamps + 1
    events = []
    for at, op in zip(times, ops):
        if op == "query":
            source, sink = next(stream)
            events.append(ArrivalEvent(at, op, source=source, sink=sink, delta=delta))
        elif op == "batch":
            queries = tuple((*next(stream), delta) for _ in range(BATCH_SIZE))
            events.append(ArrivalEvent(at, op, queries=queries))
        elif op == "topk":
            chosen = {next(stream) for _ in range(TOPK_PAIRS)}
            events.append(ArrivalEvent(
                at, op, pairs=tuple(p for p in pairs if p in chosen),
                delta=delta, k=TOPK_K,
            ))
        elif op == "append":
            u, v = rng.sample(nodes, 2)
            capacity = round(rng.uniform(0.5, 5.0), 3)
            events.append(ArrivalEvent(at, op, edges=((u, v, next_tau, capacity),)))
            next_tau += 1
        else:
            events.append(ArrivalEvent(at, op, delta=delta, top=SCAN_TOP))
    return events


def _apportion(weights: dict, total: int) -> list:
    """``total`` items split over ``weights`` by largest remainder."""
    norm = sum(weights.values())
    shares = {key: total * weight / norm for key, weight in weights.items()}
    counts = {key: int(share) for key, share in shares.items()}
    by_remainder = sorted(shares, key=lambda key: counts[key] - shares[key])
    for key in by_remainder[: total - sum(counts.values())]:
        counts[key] += 1
    return [key for key, count in counts.items() for _ in range(count)]


# ----------------------------------------------------------------------
# Verification at the reply's epoch
# ----------------------------------------------------------------------
def verify(network, outcomes: list[Outcome], cfg: dict, seed: int, corrupt: bool) -> tuple[int, int]:
    """Re-solve a seeded sample of query and batch replies.

    Returns ``(checked, wrong)``.
    """
    from repro import BurstingFlowQuery, find_bursting_flow
    from repro.cluster.replication import network_edges
    from repro.temporal.network import TemporalFlowNetwork

    seed_edges = network_edges(network)
    appends = sorted(
        (o.reply.epoch, o.index) for o in outcomes if o.op == "append" and o.error is None
    )
    events_by_index = {o.index: o for o in outcomes}
    rng = random.Random(seed * 7919 + 17)
    sample = {}
    for op, count in cfg["verify_sample"].items():
        candidates = [o for o in outcomes if o.op == op and o.error is None]
        sample[op] = rng.sample(candidates, min(count, len(candidates)))

    networks: dict[int, Any] = {}
    solved: dict[tuple, tuple] = {}

    def expected(epoch: int, query: tuple) -> tuple:
        included = sum(1 for e, _ in appends if e <= epoch)
        key = (included, *query)
        if key not in solved:
            if included not in networks:
                edges = list(seed_edges)
                for _, index in appends[:included]:
                    edges.extend(events_by_index[index].edges)
                networks[included] = TemporalFlowNetwork.from_tuples(edges)
            result = find_bursting_flow(networks[included], BurstingFlowQuery(*query))
            solved[key] = (result.density, result.interval, result.flow_value)
        return solved[key]

    checked = wrong = 0
    for position, outcome in enumerate(sample.get("query", [])):
        reply = outcome.reply
        got = (reply.density, reply.interval, reply.flow_value)
        if corrupt and position == 0:
            got = (got[0] * 1.5 + 1.0, got[1], got[2])
        checked += 1
        wrong += not same_answer(got, expected(reply.epoch, outcome.query))
    for outcome in sample.get("batch", []):
        reply = outcome.reply
        for query, answer in zip(outcome.queries, reply.results):
            got = (answer.density, answer.interval, answer.flow_value)
            checked += 1
            wrong += not same_answer(got, expected(reply.epoch, query))
    return checked, wrong


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def _boot(cfg: dict, workdir: Path, spans: Path | None, delta: int, pair) -> Child:
    """Boot a child and make its first request plus one warm-up query."""
    from repro.service.client import ServiceClient

    child = Child(cfg, workdir, spans)
    try:
        with ServiceClient(child.host, child.port, timeout=60.0) as client:
            client.ping()
            client.query(pair[0], pair[1], delta)
    except BaseException:
        child.stop()
        raise
    return child


def serve_workload(name: str, cfg: dict, args) -> dict[str, Any]:
    from repro.datasets.registry import make_dataset
    from repro.loadgen.trace import derive_pairs

    run_dir = WORK / f"{name}-{os.getpid()}"
    children: list[Child] = []
    try:
        setup_times = []
        probes = bench_probe.ProbeChain()
        for attempt in range(cfg["setup_repeats"]):
            probes.start()
            start = time.perf_counter()
            network = make_dataset(cfg["dataset"], scale=cfg["scale"])
            pairs = derive_pairs(network, count=cfg["pairs"], seed=cfg["pair_seed"])
            delta = max(1, int(round(network.num_timestamps * cfg["delta_fraction"])))
            child = _boot(cfg, run_dir / f"boot{attempt}", None, delta, pairs[0])
            wall = time.perf_counter() - start
            children.append(child)
            setup_times.append(
                wall / probes.end()[0] * cfg["probe_reference_ms"]["full"] / 1000.0
            )
            if attempt + 1 < cfg["setup_repeats"]:
                child.stop()
        seconds = cfg["tiny_seconds"] if args.tiny else args.seconds
        events = build_events(network, pairs, delta, cfg, args.seed, seconds)

        def phase(child: Child):
            cpu0 = child.cpu_s()
            outcomes = drive(child.host, child.port, events, cfg["connections"])
            cpu = child.cpu_s() - cpu0
            for outcome, event in zip(outcomes, events):
                outcome.query = (event.source, event.sink, event.delta)
                outcome.queries = event.queries
                outcome.edges = event.edges
            return outcomes, cpu, Speed(cfg, [o.probe for o in outcomes])

        outcomes, cpu, speed = phase(children[-1])
        rss = children[-1].peak_rss_mb()
        children[-1].stop()
        lag_first, lag_last = check_steady(outcomes)
        checked, wrong = verify(network, outcomes, cfg, args.seed, args.corrupt)
        result = _report(
            name, cfg, outcomes, cpu, rss, median(setup_times), checked, wrong,
            network, delta, speed,
        )
        if args.trace:
            spans_path = OUT / f"{name}-seed{args.seed}-server-spans.jsonl"
            child = _boot(cfg, run_dir / "traced", spans_path, delta, pairs[0])
            children.append(child)
            tracer = bench_trace.Tracer()
            traced, _, traced_speed = phase(child)
            from repro.service.client import ServiceClient

            with ServiceClient(child.host, child.port, timeout=60.0) as client:
                snapshot = client.metrics()
            child.stop()
            for o in traced:
                tracer.record(f"client.{o.op}", o.sent, o.done, rid=f"r{o.index}")
            tracer.dump(OUT / f"{name}-seed{args.seed}-client-spans.jsonl")
            spans = tracer.spans + bench_trace.load_spans(spans_path)
            analysis = bench_trace.analyze(spans, root_prefix="client.")
            layers = bench_layers.layer_metrics(analysis)
            layers.update(_reply_layers(traced, snapshot))
            untraced_p50 = result["metrics"]["query_ms"]
            traced_p50 = traced_speed.query_ms(traced)
            layers["trace.overhead_frac"] = traced_p50 / untraced_p50 - 1.0
            result["per_layer"] = layers
            result["human"] += bench_trace.format_table(analysis, name)
            result["human"].append(
                f"tracing overhead: query_ms {untraced_p50:.3f} untraced vs "
                f"{traced_p50:.3f} traced ({layers['trace.overhead_frac']:+.1%})"
            )
        result["human"].append(
            f"send lag median: first third {lag_first * 1e3:.2f} ms, "
            f"last third {lag_last * 1e3:.2f} ms (steady)"
        )
        return result
    finally:
        for child in children:
            child.stop()
        shutil.rmtree(run_dir, ignore_errors=True)


def _reply_layers(outcomes: list[Outcome], snapshot: dict) -> dict[str, float]:
    ok = [o for o in outcomes if o.error is None]
    queries = [o for o in ok if o.op == "query"]
    appends = [o for o in ok if o.op == "append"]
    lags = [o.sent - o.scheduled for o in outcomes]
    lag_tail, _, _ = tail(lags)
    if "coordinator" in snapshot:
        shed = snapshot["coordinator"]["counters"]["shed"] + sum(
            replica.get("admission", {}).get("shed_total", 0)
            for replica in snapshot["replicas"].values()
        )
    else:
        shed = snapshot["admission"]["shed_total"]
    return {
        "cache.hit_frac": frac(sum(o.reply.cached for o in queries), len(queries)),
        "cache.invalidated_per_append": frac(
            sum(o.reply.invalidated for o in appends), len(appends)
        ),
        "admission.shed": shed,
        "driver.lag_p50_ms": median(lags) * 1000.0,
        "driver.lag_tail_ms": lag_tail * 1000.0,
    }


class Speed:
    """The host's speed during one phase, from the small reference probe
    each sender runs after every reply (see ``bench_probe``)."""

    def __init__(self, cfg: dict, probes: list[tuple[float, float]]) -> None:
        self.reference_ms = cfg["probe_reference_ms"]["small"]
        self.probe_wall = median([wall for wall, _ in probes])
        self.probe_cpu = median([cpu for _, cpu in probes])

    def query_ms(self, outcomes: list[Outcome]) -> float:
        """The median query latency at the reference host speed: each
        latency over the probe run right after its reply."""
        return median([
            o.latency / o.probe[0]
            for o in outcomes if o.op == "query" and o.error is None
        ]) * self.reference_ms

    def cpu_ms(self, seconds: float) -> float:
        """``seconds`` of CPU time in ms at the reference host speed."""
        return seconds / self.probe_cpu * self.reference_ms


def _report(name, cfg, outcomes, cpu, rss, setup_s, checked, wrong, network, delta, speed):
    attempted = len(outcomes)
    errors = sum(1 for o in outcomes if o.error is not None)
    failed = errors + wrong
    limit = cfg["latency_limit_ms"] / 1000.0
    ok = [o for o in outcomes if o.error is None]

    def latencies(*ops):
        return [o.latency for o in ok if o.op in ops]

    query = latencies("query")
    q_tail, q_pct, q_n = tail(query)
    append = latencies("append")
    a_tail, a_pct, a_n = tail(append)
    batch = latencies("batch", "topk")
    within = sum(1 for o in ok if o.latency <= limit)
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "query_ms": speed.query_ms(outcomes),
        "goodput_frac": max(0, within - wrong) / attempted,
    }
    counts: dict[str, int] = {}
    for o in outcomes:
        counts[o.op] = counts.get(o.op, 0) + 1
    human = [
        f"workload {name}: open loop, {cfg['rate_per_s']:g} req/s Poisson, "
        f"{cfg['connections']} connections, target {cfg['target']} in a child process",
        "sizes: " + json.dumps({
            "dataset": f"{cfg['dataset']} x{cfg['scale']}",
            "nodes": network.num_nodes,
            "edges": network.num_edges,
            "timestamps": network.num_timestamps,
            "pairs": cfg["pairs"],
            "delta": delta,
            "scheduled": counts,
        }),
        f"  query_ms       {metrics['query_ms']:.3f} ms (query_p50_ms at the "
        f"reference host speed, n={q_n})",
        f"  probe_ms       {speed.probe_wall * 1000.0:.3f} ms (median of the small "
        f"probes after each reply, {speed.reference_ms:g} ms on the reference host)",
        f"  query_p50_ms   {median(query) * 1000.0:.3f} ms (as measured, n={q_n})",
        f"  cpu_ms_per_op  {speed.cpu_ms(cpu / max(1, len(ok))):.3f} ms (server "
        f"child CPU per completed request, over the probes' CPU; "
        f"{cpu * 1000.0 / max(1, len(ok)):.3f} ms as measured)",
        f"  query_tail_ms  {q_tail * 1000.0:.3f} ms (p{q_pct:.1f}, n={q_n})",
        f"  append_p50_ms  {median(append) * 1000.0:.3f} ms (n={a_n})",
        f"  append_tail_ms {a_tail * 1000.0:.3f} ms (p{a_pct:.1f}, n={a_n})",
        f"  batch_p50_ms   {median(batch) * 1000.0:.3f} ms (n={len(batch)}, batch+topk)",
        f"  goodput_frac   {metrics['goodput_frac']:.4f} frac "
        f"(limit {cfg['latency_limit_ms']} ms from the scheduled time)",
        f"  error_frac     {frac(failed, attempted):.4f} frac "
        f"({errors} failed or refused, {wrong} wrong of {checked} re-solved, "
        f"{attempted} attempted)",
    ]
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "metrics": metrics,
        "human": human,
    }
