"""Per-layer metrics of a traced run, computed from its spans.

Every traced run reports every name in :data:`PER_LAYER`; a layer the
workload never crosses reads 0.  Times are seconds summed over the
traced measurement phase and are *self* times (children excluded)
unless the definition in ``workloads.json`` says otherwise.
"""

from __future__ import annotations

from bench_stats import frac
from bench_trace import KERNELS, Analysis

OPS = ("query", "batch", "topk", "append", "scan")
SOLVE_OPS = ("query", "batch", "topk", "scan")

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("intervals.candidates", "count"),
    ("skeleton.compiles", "count"),
    ("skeleton.s", "s"),
    ("incremental.s", "s"),
    ("incremental.insertions", "count"),
    ("incremental.deletions", "count"),
    ("maxflow.runs", "count"),
    ("maxflow.s", "s"),
    ("maxflow.augmenting_paths", "count"),
    *((f"maxflow.runs.{kernel}", "count") for kernel in KERNELS),
    ("prune.pruned_frac", "frac"),
    ("prune.s", "s"),
    ("engine.unattributed_s", "s"),
    ("planner.skeletons_compiled", "count"),
    ("planner.windows_total", "count"),
    ("planner.windows_solved", "count"),
    ("planner.reuse_frac", "frac"),
    ("detector.self_s", "s"),
    ("detector.flagged", "count"),
    ("protocol.parse_s", "s"),
    ("protocol.encode_s", "s"),
    ("wire.overhead_s", "s"),
    ("cache.hit_frac", "frac"),
    ("cache.invalidated_per_append", "count"),
    *((f"server.handle_s.{op}", "s") for op in OPS),
    *((f"server.pre_solve_wait_s.{op}", "s") for op in SOLVE_OPS),
    ("server.write_lock_wait_s", "s"),
    ("admission.shed", "count"),
    ("workers.busy_s", "s"),
    ("workers.queue_wait_s", "s"),
    ("network.apply_s", "s"),
    ("mining.sync_s", "s"),
    ("mining.scan_s", "s"),
    *((f"coordinator.self_s.{op}", "s") for op in OPS),
    ("coordinator.append_wait_s", "s"),
    ("log.append_s", "s"),
    ("log.flushes", "count"),
    ("log.bytes_per_user_byte", "ratio"),
    ("replication.apply_s", "s"),
    ("replica.cache_hit_frac", "frac"),
    ("cluster.unattributed_s", "s"),
    ("driver.lag_p50_ms", "ms"),
    ("driver.lag_tail_ms", "ms"),
    ("trace.overhead_frac", "frac"),
)

UNITS = dict(PER_LAYER)


def layer_metrics(analysis: Analysis) -> dict[str, float]:
    """Everything the spans alone determine; other names read 0."""
    a = analysis
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    candidates = a.attr_sum("engine.query", "candidates")
    metrics.update({
        "intervals.candidates": candidates,
        "skeleton.compiles": a.count("skeleton.compile"),
        "skeleton.s": a.self_sum("skeleton"),
        "incremental.s": a.self_sum("incremental"),
        "incremental.insertions": a.attr_sum("engine.query", "insertions"),
        "incremental.deletions": a.attr_sum("engine.query", "deletions"),
        "maxflow.runs": a.attr_sum("engine.query", "maxflow_runs"),
        "maxflow.s": a.self_sum("maxflow"),
        "maxflow.augmenting_paths": a.attr_sum("engine.query", "augmenting_paths"),
        "prune.pruned_frac": frac(a.attr_sum("engine.query", "pruned"), candidates),
        "prune.s": a.self_sum("prune"),
        "engine.unattributed_s": a.self_sum("engine.query"),
        "planner.skeletons_compiled": a.attr_sum("planner.answer", "skeletons_compiled"),
        "planner.windows_total": a.attr_sum("planner.answer", "windows_total"),
        "planner.windows_solved": a.attr_sum("planner.answer", "windows_solved"),
        "planner.reuse_frac": frac(
            a.attr_sum("planner.answer", "windows_reused"),
            a.attr_sum("planner.answer", "windows_total"),
        ),
        "detector.self_s": a.self_sum("detector.scan"),
        "detector.flagged": a.attr_sum("detector.scan", "flagged"),
        "protocol.parse_s": a.self_sum("protocol.parse"),
        "protocol.encode_s": a.self_sum("protocol.encode"),
        "wire.overhead_s": a.self_sum("client"),
        "server.write_lock_wait_s": a.wait_before_first_child("server.handle", "append"),
        "workers.busy_s": a.total("workers.run"),
        "workers.queue_wait_s": a.attr_sum("workers.run", "queue_wait"),
        "network.apply_s": a.self_sum("network.apply"),
        "mining.sync_s": a.self_sum("mining.sync"),
        "mining.scan_s": a.self_sum("mining.scan"),
        "coordinator.append_wait_s": a.wait_before_first_child(
            "coordinator.handle", "append"
        ),
        "log.append_s": a.self_sum("log"),
        "log.flushes": a.count("log.flush"),
        "log.bytes_per_user_byte": frac(
            a.attr_sum("log.append", "bytes"), a.attr_sum("log.append", "user_bytes")
        ),
        "replication.apply_s": a.self_sum("replication.apply"),
        "replica.cache_hit_frac": frac(
            a.attr_sum("cache.get", "hit"), a.count("cache.get")
        ),
        "cluster.unattributed_s": a.self_sum("coordinator.handle"),
    })
    for span in a.named("engine.query"):
        for kernel, runs in ((span.attrs or {}).get("kernel_runs") or {}).items():
            key = f"maxflow.runs.{kernel}"
            if key in metrics:
                metrics[key] += runs
    for op in OPS:
        metrics[f"server.handle_s.{op}"] = a.total("server.handle", op)
        metrics[f"coordinator.self_s.{op}"] = _coordinator_self(a, op)
    for op in SOLVE_OPS:
        metrics[f"server.pre_solve_wait_s.{op}"] = a.wait_before_first_child(
            "server.handle", op
        )
    return metrics


def _coordinator_self(a: Analysis, op: str) -> float:
    """The coordinator's own time for one op: its handler's self time
    plus the self time of the forwarding hops it made."""
    seconds = 0.0
    for span in a.named("coordinator.handle"):
        if (span.attrs or {}).get("op") != op:
            continue
        seconds += a.self_time[span.sid]
        stack = list(a.children.get(span.sid, ()))
        while stack:
            child = stack.pop()
            if child.name == "coordinator.forward":
                seconds += a.self_time[child.sid]
            elif child.name.startswith("coordinator") or child.name.startswith("protocol"):
                stack.extend(a.children.get(child.sid, ()))
    return seconds
