"""Command-line interface.

The subcommands mirror the library's main entry points::

    repro-bfq stats      edges.csv
    repro-bfq query      edges.csv --source alice --sink dave --delta 3
    repro-bfq scan       edges.csv --sources a,b --sinks x,y --delta-fractions 0.03,0.06
    repro-bfq trail      edges.csv --source alice --sink dave --delta 3
    repro-bfq profile    edges.csv --source alice --sink dave
    repro-bfq hunt       edges.csv --delta 10
    repro-bfq topk       edges.csv --pairs a:x,b:y --delta 10 --k 5
    repro-bfq mine       edges.csv --store patterns/ --delta 10
    repro-bfq fuzz       --trials 200 --seed 0
    repro-bfq serve      edges.csv --port 7461 --processes 4
    repro-bfq cluster    edges.csv --replicas 2 --log edges.cluster.log
    repro-bfq loadgen    --scenario query_heavy,failover_chaos --profile smoke
    repro-bfq self-check

Edge lists are CSV/TSV (``u,v,tau,capacity``, header optional) or JSON
lines; ``--compact-timestamps`` renumbers raw event times into dense
sequence numbers (results are translated back on output).

Installed as the ``repro-bfq`` console script; also runnable as
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

from repro.anomaly import BurstDetector, format_finding_interval
from repro.core import BurstingFlowQuery, find_bursting_flow
from repro.exceptions import ReproError
from repro.temporal import (
    format_stats_table,
    load_edge_list,
    load_jsonl,
    network_stats,
)


def _int_at_least(minimum: int):
    """argparse ``type=`` factory: an integer >= ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {minimum}, got {text!r}"
            )
        return value

    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


def _positive_int_list(text: str) -> list[int]:
    """argparse ``type=``: comma-separated integers >= 1."""
    return [_positive_int(part) for part in text.split(",")]


def _positive_float_list(text: str) -> list[float]:
    """argparse ``type=``: comma-separated finite numbers > 0."""
    values = []
    for part in text.split(","):
        try:
            value = float(part)
        except ValueError:
            value = math.nan
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(
                f"expected a positive number, got {part!r}"
            )
        values.append(value)
    return values


def build_parser() -> argparse.ArgumentParser:
    """Build the repro-bfq argument parser (one sub-parser per command)."""
    parser = argparse.ArgumentParser(
        prog="repro-bfq",
        description="delta-bursting-flow queries on temporal flow networks",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_input_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("edges", type=Path, help="edge list (CSV/TSV/JSONL)")
        sub.add_argument(
            "--compact-timestamps",
            action="store_true",
            help="renumber raw event times into dense sequence numbers",
        )

    stats = subparsers.add_parser("stats", help="print Table-2 statistics")
    add_input_arguments(stats)

    query = subparsers.add_parser("query", help="answer one delta-BFlow query")
    add_input_arguments(query)
    query.add_argument("--source", required=True)
    query.add_argument("--sink", required=True)
    query.add_argument("--delta", type=int, required=True)
    query.add_argument(
        "--algorithm",
        default="bfq*",
        choices=["bfq", "bfq+", "bfq*"],
        help="which solution to run (default: bfq*)",
    )
    query.add_argument(
        "--profile",
        action="store_true",
        help="print the transform/maxflow/prune phase breakdown",
    )

    scan = subparsers.add_parser(
        "scan", help="sweep queries over source/sink sets (case-study mode)"
    )
    add_input_arguments(scan)
    scan.add_argument("--sources", required=True, help="comma-separated node ids")
    scan.add_argument("--sinks", required=True, help="comma-separated node ids")
    scan.add_argument(
        "--delta-fractions",
        type=_positive_float_list,
        default="0.03,0.06,0.09",
        help="deltas as fractions of |T| (default: the paper's 3%%/6%%/9%%)",
    )
    scan.add_argument(
        "--top", type=_positive_int, default=10, help="findings to print"
    )
    scan.add_argument(
        "--profile",
        action="store_true",
        help="print the sweep's transform/maxflow/prune phase breakdown",
    )

    trail = subparsers.add_parser(
        "trail", help="decompose the bursting flow into transfer trails"
    )
    add_input_arguments(trail)
    trail.add_argument("--source", required=True)
    trail.add_argument("--sink", required=True)
    trail.add_argument("--delta", type=int, required=True)
    trail.add_argument(
        "--top", type=_positive_int, default=10, help="trails to print"
    )

    profile = subparsers.add_parser(
        "profile", help="delta sensitivity: density vs minimum duration"
    )
    add_input_arguments(profile)
    profile.add_argument("--source", required=True)
    profile.add_argument("--sink", required=True)
    profile.add_argument(
        "--deltas", type=_positive_int_list, default=None,
        help="comma-separated deltas (default: geometric ladder 1,2,4,...)",
    )

    hunt = subparsers.add_parser(
        "hunt", help="suspect-free burst hunting (screen nodes, then confirm)"
    )
    add_input_arguments(hunt)
    hunt.add_argument("--delta", type=int, required=True)
    hunt.add_argument("--top-sources", type=int, default=5)
    hunt.add_argument("--top-sinks", type=int, default=5)
    hunt.add_argument("--min-volume", type=float, default=0.0)

    topk = subparsers.add_parser(
        "topk",
        help="k densest bursts over candidate (source, sink) pairs "
        "(planner-amortised: one skeleton per source, one window memo "
        "per pair)",
    )
    add_input_arguments(topk)
    topk.add_argument(
        "--pairs",
        default=None,
        help="comma-separated source:sink pairs (e.g. alice:dave,bob:eve)",
    )
    topk.add_argument(
        "--sources",
        default=None,
        help="comma-separated node ids (crossed with --sinks when --pairs "
        "is not given)",
    )
    topk.add_argument(
        "--sinks", default=None, help="comma-separated node ids"
    )
    topk.add_argument("--delta", type=int, required=True)
    topk.add_argument("--k", type=int, default=10, help="entries to return")

    mine = subparsers.add_parser(
        "mine",
        help="mining funnel: pre-filter candidates, confirm with "
        "delta-BFlow, persist flagged patterns to a durable store",
    )
    add_input_arguments(mine)
    mine.add_argument(
        "--store",
        type=Path,
        required=True,
        help="pattern store directory (created if absent; re-scans dedupe "
        "against what is already stored)",
    )
    mine.add_argument(
        "--delta",
        type=int,
        default=None,
        help="burst duration bound (required unless --no-scan)",
    )
    mine.add_argument(
        "--top",
        type=_positive_int,
        default=8,
        help="top emitters/collectors entering confirmation (default: 8)",
    )
    mine.add_argument(
        "--min-volume",
        type=float,
        default=0.0,
        help="pre-filter: ignore nodes below this total volume",
    )
    mine.add_argument(
        "--min-density",
        type=float,
        default=0.0,
        help="never persist confirmed bursts below this density",
    )
    mine.add_argument(
        "--persist",
        default="flagged",
        choices=["flagged", "all"],
        help="store only flagged outliers (default) or every positive burst",
    )
    mine.add_argument(
        "--list",
        action="store_true",
        help="list stored patterns (after the scan; with --no-scan, only list)",
    )
    mine.add_argument(
        "--no-scan",
        action="store_true",
        help="skip scanning; query the store only (implies --list)",
    )
    mine.add_argument("--pattern-source", default=None, help="list filter")
    mine.add_argument("--pattern-sink", default=None, help="list filter")
    mine.add_argument(
        "--limit",
        type=_nonnegative_int,
        default=20,
        help="patterns to list (default: 20)",
    )
    mine.add_argument(
        "--prune",
        action="store_true",
        help="apply the retention policy (after the scan, before --list); "
        "requires --max-age-epochs and/or --max-patterns",
    )
    mine.add_argument(
        "--max-age-epochs",
        type=_nonnegative_int,
        default=None,
        help="prune: drop patterns detected more than N epochs before "
        "the newest stored record",
    )
    mine.add_argument(
        "--max-patterns",
        type=_nonnegative_int,
        default=None,
        help="prune: keep at most N patterns (newest first)",
    )

    fuzz = subparsers.add_parser(
        "fuzz",
        help="differential fuzzing: all backends + flow certificates",
    )
    fuzz.add_argument("--trials", type=int, default=100, help="cases to run")
    fuzz.add_argument("--seed", type=int, default=0, help="master RNG seed")
    fuzz.add_argument(
        "--generators",
        default=None,
        help="comma-separated generator subset (default: all registered)",
    )
    fuzz.add_argument(
        "--backends",
        default=None,
        help=(
            "comma-separated backend subset of "
            "bfq,bfq+,bfq*,planner,naive,networkx,service,streaming,"
            "cluster,mining (cluster boots a live 2-replica cluster per "
            "trial and mining persists + replays a pattern store per "
            "trial; both are excluded from the default set; planner "
            "answers through a shared-skeleton batch with duplicate + "
            "overlapping-delta companions)"
        ),
    )
    fuzz.add_argument(
        "--no-certify",
        action="store_true",
        help="skip flow-certificate checking (differential diff only)",
    )
    fuzz.add_argument(
        "--no-pruning-check",
        action="store_true",
        help="skip the pruning-on vs pruning-off invariance check",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failing cases as generated, without minimisation",
    )
    fuzz.add_argument(
        "--dump-dir",
        type=Path,
        default=None,
        help="write failing reproducers there as JSON fixtures",
    )
    fuzz.add_argument(
        "--max-failures",
        type=int,
        default=5,
        help="detailed failure reports to print (default: 5)",
    )

    serve = subparsers.add_parser(
        "serve",
        help="boot the concurrent delta-BFlow query service (TCP/HTTP)",
    )
    add_input_arguments(serve)
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=7461, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--algorithm",
        default="bfq*",
        choices=["bfq", "bfq+", "bfq*"],
        help="default solution for requests that name none",
    )
    serve.add_argument(
        "--processes",
        type=int,
        default=None,
        help=(
            "engine worker processes (0 = cpu count; default: in-process "
            "threads)"
        ),
    )
    serve.add_argument(
        "--mp-context",
        default=None,
        choices=["fork", "forkserver", "spawn"],
        help="start method for the worker pool",
    )
    serve.add_argument(
        "--cache-capacity", type=int, default=4096, help="result-cache entries"
    )
    serve.add_argument(
        "--cache-ttl",
        type=float,
        default=None,
        help="result-cache TTL in seconds (default: no expiry)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="admission bound on in-flight requests (overload beyond)",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="default per-request deadline in seconds",
    )
    serve.add_argument(
        "--patterns",
        type=Path,
        default=None,
        help="pattern store directory: enables the scan/patterns wire ops "
        "(burst mining against the served network)",
    )
    serve.add_argument(
        "--serve-seconds",
        type=float,
        default=None,
        help="stop after this many seconds (smoke tests; default: forever)",
    )

    cluster = subparsers.add_parser(
        "cluster",
        help="boot a replicated delta-BFlow cluster (coordinator + N replicas)",
    )
    add_input_arguments(cluster)
    cluster.add_argument("--host", default="127.0.0.1", help="bind address")
    cluster.add_argument(
        "--port", type=int, default=7461, help="bind port (0 = ephemeral)"
    )
    cluster.add_argument(
        "--replicas", type=int, default=2, help="replica count (default: 2)"
    )
    cluster.add_argument(
        "--log",
        type=Path,
        default=None,
        help=(
            "shared append log path (default: <edges>.cluster.log); an "
            "empty or absent log is seeded from the edge list, an "
            "existing one is replayed as-is"
        ),
    )
    cluster.add_argument(
        "--replica-mode",
        default="process",
        choices=["process", "inline"],
        help="replicas as child processes (default) or in-process services",
    )
    cluster.add_argument(
        "--algorithm",
        default="bfq*",
        choices=["bfq", "bfq+", "bfq*"],
        help="default solution for requests that name none",
    )
    cluster.add_argument(
        "--cache-capacity",
        type=int,
        default=4096,
        help="result-cache entries per replica",
    )
    cluster.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="per-replica admission bound on in-flight requests",
    )
    cluster.add_argument(
        "--fsync",
        action="store_true",
        help="fsync the append log on every append (durable to media)",
    )
    cluster.add_argument(
        "--snapshots",
        type=Path,
        default=None,
        help="snapshot directory for bounded recovery "
        "(default: <log>.snapshots)",
    )
    cluster.add_argument(
        "--snapshot-every",
        type=int,
        default=512,
        help="checkpoint (snapshot + log compaction) after this many "
        "committed appends; 0 disables automatic checkpoints "
        "(default: 512)",
    )
    cluster.add_argument(
        "--patterns",
        type=Path,
        default=None,
        help="pattern store directory on the coordinator: enables the "
        "cluster-wide scan/patterns ops (confirmation scatters across "
        "replicas by pair affinity)",
    )
    cluster.add_argument(
        "--serve-seconds",
        type=float,
        default=None,
        help="stop after this many seconds (smoke tests; default: forever)",
    )

    loadgen = subparsers.add_parser(
        "loadgen",
        help="open-loop load scenarios with SLO gating (see docs/loadtest.md)",
    )
    loadgen.add_argument(
        "--scenario",
        default=None,
        help="comma-separated scenario subset (default: the full matrix: "
        "query_heavy,append_heavy,mixed,cache_cold_restart,failover_chaos)",
    )
    loadgen.add_argument(
        "--profile",
        default="smoke",
        choices=["smoke", "full"],
        help="scale + SLO profile: smoke (seconds, CI) or full "
        "(the committed BENCH_PR10.json scale); default: smoke",
    )
    loadgen.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write the JSON report (scenario reports + SLO results) there",
    )
    loadgen.add_argument(
        "--dataset", default=None, help="override the scenario dataset"
    )
    loadgen.add_argument(
        "--dataset-scale", type=float, default=None, help="dataset size factor"
    )
    loadgen.add_argument(
        "--duration", type=float, default=None, help="seconds of offered load"
    )
    loadgen.add_argument(
        "--base-rate", type=float, default=None, help="quiet-state ops/s"
    )
    loadgen.add_argument(
        "--burst-rate", type=float, default=None, help="burst-state ops/s"
    )
    loadgen.add_argument(
        "--connections", type=int, default=None, help="driver client pool size"
    )
    loadgen.add_argument(
        "--seed", type=int, default=None, help="trace seed (reproducible runs)"
    )
    loadgen.add_argument(
        "--no-gate",
        action="store_true",
        help="report only; skip the SLO assertions (exit 0 regardless)",
    )

    subparsers.add_parser(
        "self-check", help="run installation health invariants"
    )
    return parser


def _load(path: Path, compact: bool):
    loader = load_jsonl if path.suffix.lower() in (".jsonl", ".ndjson") else load_edge_list
    loaded = loader(path, compact_timestamps=compact)
    if compact:
        return loaded  # (network, codec)
    return loaded, None


def _run_stats(args: argparse.Namespace) -> int:
    network, _ = _load(args.edges, args.compact_timestamps)
    print(format_stats_table({args.edges.name: network_stats(network)}))
    return 0


def _run_query(args: argparse.Namespace) -> int:
    network, codec = _load(args.edges, args.compact_timestamps)
    started = time.perf_counter()
    result = find_bursting_flow(
        network,
        BurstingFlowQuery(args.source, args.sink, args.delta),
        algorithm=args.algorithm,
    )
    elapsed = time.perf_counter() - started
    if args.profile:
        from repro.core.profile import PhaseBreakdown

        print(f"phases           : {PhaseBreakdown.from_stats(result.stats).format()}")
    if not result.found:
        print(
            f"no bursting flow from {args.source} to {args.sink} "
            f"with delta={args.delta}"
        )
        return 1
    interval = result.interval
    shown = codec.decode_interval(interval) if codec else interval
    print(f"density          : {result.density:,.4f}")
    print(f"flow value       : {result.flow_value:,.4f}")
    print(f"bursting interval: [{shown[0]}, {shown[1]}]")
    print(
        f"({result.stats.candidates_enumerated} candidates, "
        f"{result.stats.maxflow_runs} maxflow runs, "
        f"{result.stats.pruned_intervals} pruned, {elapsed:.3f}s)"
    )
    return 0


def _run_scan(args: argparse.Namespace) -> int:
    network, codec = _load(args.edges, args.compact_timestamps)
    horizon = network.num_timestamps
    deltas = sorted(
        {
            max(1, round(horizon * fraction))
            for fraction in args.delta_fractions
        }
    )
    detector = BurstDetector(network)
    report = detector.scan(
        args.sources.split(","), args.sinks.split(","), deltas
    )
    print(f"scanned {len(report.findings)} (source, sink, delta) queries")
    if args.profile:
        print(f"phases: {report.phases.format()}")
    print(f"flagged {len(report.flagged)} outliers")
    header = f"{'source':<16} {'sink':<16} {'delta':>6} {'density':>14}  interval"
    print(header)
    print("-" * len(header))
    for finding in report.top(args.top):
        marker = " *FLAGGED*" if finding in report.flagged else ""
        print(
            f"{str(finding.source):<16} {str(finding.sink):<16} "
            f"{finding.delta:>6} {finding.density:>14,.2f}  "
            f"{format_finding_interval(finding, codec)}{marker}"
        )
    return 0


def _run_trail(args: argparse.Namespace) -> int:
    from repro.core import bursting_flow_trails

    network, codec = _load(args.edges, args.compact_timestamps)
    report = bursting_flow_trails(
        network, BurstingFlowQuery(args.source, args.sink, args.delta)
    )
    if not report.found:
        print(
            f"no bursting flow from {args.source} to {args.sink} "
            f"with delta={args.delta}"
        )
        return 1
    lo, hi = report.interval
    shown = codec.decode_interval((lo, hi)) if codec else (lo, hi)
    print(
        f"bursting flow: {report.flow_value:,.2f} units at density "
        f"{report.density:,.2f} during [{shown[0]}, {shown[1]}]"
    )
    print(f"{len(report.trails)} trails (largest first):")
    for trail in report.trails[: args.top]:
        print(f"  {trail.describe()}")
    if len(report.trails) > args.top:
        print(f"  ... and {len(report.trails) - args.top} more")
    return 0


def _run_profile(args: argparse.Namespace) -> int:
    from repro.core import density_profile, suggest_delta

    network, _codec = _load(args.edges, args.compact_timestamps)
    profile = density_profile(network, args.source, args.sink, args.deltas)
    if not profile:
        print("no evaluable deltas for this network")
        return 1
    print(f"{'delta':>8} {'density':>14} {'flow':>12}  interval")
    for point in profile:
        print(
            f"{point.delta:>8} {point.density:>14,.3f} "
            f"{point.flow_value:>12,.2f}  {point.interval}"
        )
    knee = suggest_delta(profile)
    if knee is not None:
        print(f"suggested delta: {knee.delta} (density {knee.density:,.3f})")
    return 0


def _run_hunt(args: argparse.Namespace) -> int:
    from repro.anomaly import hunt_bursts
    from repro.anomaly.report import format_finding_interval

    network, codec = _load(args.edges, args.compact_timestamps)
    report = hunt_bursts(
        network,
        delta=args.delta,
        top_sources=args.top_sources,
        top_sinks=args.top_sinks,
        min_volume=args.min_volume,
    )
    print(
        f"screened to {args.top_sources} emitters x {args.top_sinks} "
        f"collectors; {len(report.findings)} confirmations, "
        f"{len(report.flagged)} flagged"
    )
    for finding in report.top(10):
        marker = " *FLAGGED*" if finding in report.flagged else ""
        print(
            f"  {finding.source} -> {finding.sink}: "
            f"density {finding.density:,.2f} during "
            f"{format_finding_interval(finding, codec)}{marker}"
        )
    return 0


def _run_topk(args: argparse.Namespace) -> int:
    from repro.core import top_k_bursts

    network, codec = _load(args.edges, args.compact_timestamps)
    if args.pairs:
        pairs = []
        for chunk in args.pairs.split(","):
            source, sep, sink = chunk.partition(":")
            if not sep or not source or not sink:
                raise ReproError(
                    f"--pairs entries must look like source:sink, got {chunk!r}"
                )
            pairs.append((source, sink))
    elif args.sources and args.sinks:
        sources = [s for s in args.sources.split(",") if s]
        sinks = [t for t in args.sinks.split(",") if t]
        pairs = [(s, t) for s in sources for t in sinks if s != t]
    else:
        raise ReproError("give either --pairs or both --sources and --sinks")
    started = time.perf_counter()
    entries = top_k_bursts(network, pairs, args.delta, k=args.k)
    elapsed = time.perf_counter() - started
    if not entries:
        print(f"no positive bursts among {len(pairs)} pairs (delta={args.delta})")
        return 1
    header = f"{'#':>3} {'source':<16} {'sink':<16} {'density':>14}  interval"
    print(header)
    print("-" * len(header))
    for rank, entry in enumerate(entries, start=1):
        shown = codec.decode_interval(entry.interval) if codec else entry.interval
        print(
            f"{rank:>3} {str(entry.source):<16} {str(entry.sink):<16} "
            f"{entry.density:>14,.2f}  [{shown[0]}, {shown[1]}]"
        )
    print(f"({len(pairs)} pairs, k={args.k}, {elapsed:.3f}s)")
    return 0


def _run_mine(args: argparse.Namespace) -> int:
    from repro.mining import MiningConfig, MiningPipeline, PatternStore

    # Usage errors surface before the store is opened or anything is
    # scanned, so a rejected invocation never writes to the store.
    if not args.no_scan and args.delta is None:
        print("error: --delta is required unless --no-scan", file=sys.stderr)
        return 2
    if args.prune and args.max_age_epochs is None and args.max_patterns is None:
        print(
            "error: --prune requires --max-age-epochs and/or --max-patterns",
            file=sys.stderr,
        )
        return 2

    network, codec = _load(args.edges, args.compact_timestamps)
    store = PatternStore(args.store)
    try:
        if not args.no_scan:
            config = MiningConfig(
                top_sources=args.top,
                top_sinks=args.top,
                min_volume=args.min_volume,
                min_density=args.min_density,
            )
            pipeline = MiningPipeline(network, store, config=config)
            started = time.perf_counter()
            outcome = pipeline.scan(args.delta, persist=args.persist)
            elapsed = time.perf_counter() - started
            funnel = outcome.funnel
            print(
                f"funnel: {funnel.nodes_scored} nodes scored, "
                f"{funnel.candidates} candidates "
                f"(exhaustive sweep: {funnel.exhaustive_pairs} pairs, "
                f"{funnel.amortization:.1f}x fewer solves), "
                f"{funnel.confirmed} confirmed, {funnel.flagged} flagged"
            )
            print(
                f"persisted: {len(outcome.new_ids)} new, "
                f"{outcome.deduped} already stored "
                f"(epoch {outcome.epoch}, {elapsed:.3f}s)"
            )
            for record in outcome.records:
                shown = (
                    codec.decode_interval(record.interval)
                    if codec
                    else record.interval
                )
                marker = "+" if record.pattern_id in outcome.new_ids else "="
                print(
                    f"  {marker} {record.pattern_id} "
                    f"{record.source} -> {record.sink} "
                    f"density {record.density:,.2f} "
                    f"interval [{shown[0]}, {shown[1]}] "
                    f"z {record.z_score:.1f}"
                )
        if args.prune:
            dropped = store.prune(
                max_age_epochs=args.max_age_epochs,
                max_patterns=args.max_patterns,
            )
            print(
                f"pruned: {dropped} pattern(s) dropped, "
                f"{len(store)} retained (log compacted)"
            )
        if args.list or args.no_scan:
            records = store.query(
                source=args.pattern_source,
                sink=args.pattern_sink,
                min_density=args.min_density or None,
                limit=args.limit,
            )
            print(f"stored patterns ({len(records)} shown, {len(store)} total):")
            for record in records:
                shown = (
                    codec.decode_interval(record.interval)
                    if codec
                    else record.interval
                )
                print(
                    f"  {record.pattern_id} {record.source} -> {record.sink} "
                    f"delta {record.delta} density {record.density:,.2f} "
                    f"interval [{shown[0]}, {shown[1]}] "
                    f"evidence {record.evidence_count} edges"
                )
    finally:
        store.close()
    return 0


def _run_fuzz(args: argparse.Namespace) -> int:
    from repro.oracle import fuzz

    backends = None
    if args.backends is not None:
        from repro.oracle import BACKENDS

        backends = tuple(
            name.strip() for name in args.backends.split(",") if name.strip()
        )
        unknown = [name for name in backends if name not in BACKENDS]
        if unknown:
            raise ReproError(
                f"unknown backends {unknown!r}; known: {', '.join(BACKENDS)}"
            )

    started = time.perf_counter()
    report = fuzz(
        trials=args.trials,
        seed=args.seed,
        generators=args.generators,
        backends=backends,
        certify=not args.no_certify,
        check_pruning=not args.no_pruning_check,
        shrink=not args.no_shrink,
        dump_dir=args.dump_dir,
    )
    elapsed = time.perf_counter() - started
    print(report.summary())
    print(f"({elapsed:.2f}s)")
    if report.ok:
        return 0
    for failure in report.failures[: args.max_failures]:
        shown = failure.shrunk if failure.shrunk is not None else failure.outcome.case
        print(f"\ntrial {failure.trial}: {failure.outcome.describe()}")
        if failure.shrunk is not None:
            print(f"  shrunk to {shown.describe()}")
            for edge in shown.edges:
                print(f"    edge {edge!r}")
        if failure.fixture_path is not None:
            print(f"  fixture: {failure.fixture_path}")
    remaining = len(report.failures) - args.max_failures
    if remaining > 0:
        print(f"\n... and {remaining} more failing trials")
    return 1


def _run_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import BurstingFlowService

    network, _codec = _load(args.edges, args.compact_timestamps)

    async def _serve() -> int:
        mining = None
        store = None
        if args.patterns is not None:
            from repro.mining import MiningPipeline, PatternStore

            store = PatternStore(args.patterns)
            mining = MiningPipeline(network, store)
        service = BurstingFlowService(
            network,
            algorithm=args.algorithm,
            processes=args.processes,
            mp_context=args.mp_context,
            cache_capacity=args.cache_capacity,
            cache_ttl=args.cache_ttl,
            max_pending=args.max_pending,
            default_timeout=args.timeout,
            mining=mining,
        )
        host, port = await service.start(args.host, args.port)
        workers = (
            "inline threads"
            if args.processes in (None, 1)
            else f"{args.processes or 'auto'} processes"
        )
        print(
            f"serving delta-BFlow queries on {host}:{port} "
            f"(algorithm {args.algorithm}, {workers}, epoch {network.epoch})"
        )
        endpoints = "endpoints: NDJSON-TCP, GET /metrics, GET /healthz, POST /query"
        if mining is not None:
            endpoints += ", POST /scan, GET /patterns"
            print(f"pattern store: {args.patterns} ({len(store)} patterns)")
        print(endpoints)
        try:
            if args.serve_seconds is not None:
                await asyncio.sleep(args.serve_seconds)
            else:
                await service.serve_forever()
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        finally:
            await service.stop()
            if store is not None:
                store.close()
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        return 0


def _run_cluster(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.cluster import (
        ClusterCoordinator,
        InlineReplica,
        ProcessReplica,
        network_edges,
        seed_log,
    )
    from repro.store.log import AppendLog

    if args.replicas < 1:
        raise ReproError("--replicas must be at least 1")
    log_path = args.log or args.edges.with_suffix(args.edges.suffix + ".cluster.log")

    # Seed an empty/absent log from the edge list; an existing log is the
    # durable truth and replays as-is (the edge list is ignored then).
    if not log_path.exists() or log_path.stat().st_size == 0:
        network, _codec = _load(args.edges, args.compact_timestamps)
        seed = AppendLog(log_path, fsync=args.fsync)
        try:
            seed_log(seed, network_edges(network))
        finally:
            seed.close()

    async def _serve() -> int:
        shape = ProcessReplica if args.replica_mode == "process" else InlineReplica
        replicas = [
            shape(
                f"r{index}",
                log_path,
                snapshots=args.snapshots,
                cache_capacity=args.cache_capacity,
                max_pending=args.max_pending,
                algorithm=args.algorithm,
            )
            for index in range(args.replicas)
        ]
        coordinator = ClusterCoordinator(
            log_path,
            replicas,
            fsync=args.fsync,
            snapshot_dir=args.snapshots,
            snapshot_every=args.snapshot_every or None,
            patterns_dir=args.patterns,
        )
        host, port = await coordinator.start(args.host, args.port)
        print(
            f"cluster coordinator on {host}:{port} "
            f"({args.replicas} {args.replica_mode} replicas, "
            f"log {log_path}, committed epoch {coordinator.committed_epoch})"
        )
        print("endpoints: NDJSON-TCP, GET /metrics, GET /healthz, POST /drain")
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        try:
            if args.serve_seconds is not None:
                await asyncio.wait_for(stop.wait(), timeout=args.serve_seconds)
            else:
                await stop.wait()
        except asyncio.TimeoutError:
            pass
        finally:
            await coordinator.drain(timeout=10.0)
            await coordinator.stop()
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        return 0


def _run_loadgen(args: argparse.Namespace) -> int:
    import json

    from repro.loadgen import (
        FULL_SCALE,
        FULL_SLOS,
        SCENARIOS,
        SMOKE_SCALE,
        SMOKE_SLOS,
        evaluate_matrix,
        run_scenario,
        scale_from_overrides,
    )

    names = (
        [name.strip() for name in args.scenario.split(",") if name.strip()]
        if args.scenario
        else list(SCENARIOS)
    )
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        raise ReproError(
            f"unknown scenario(s) {unknown!r}; known: {', '.join(SCENARIOS)}"
        )

    base = SMOKE_SCALE if args.profile == "smoke" else FULL_SCALE
    slos = SMOKE_SLOS if args.profile == "smoke" else FULL_SLOS
    overrides = {
        key: value
        for key, value in (
            ("dataset", args.dataset),
            ("dataset_scale", args.dataset_scale),
            ("duration_s", args.duration),
            ("base_rate", args.base_rate),
            ("burst_rate", args.burst_rate),
            ("connections", args.connections),
            ("seed", args.seed),
        )
        if value is not None
    }
    scale = scale_from_overrides(base, overrides)

    reports = {}
    for name in names:
        print(f"scenario {name} ({args.profile} profile)...")
        report = run_scenario(name, scale=scale)
        reports[name] = report
        achieved = report.achieved_rate or 0.0
        line = (
            f"  offered {report.offered_rate:,.1f}/s  "
            f"achieved {achieved:,.1f}/s  "
            f"errors {report.error_rate:.2%}  "
            f"lag p99 {report.lag_ms.get('p99_ms')}ms"
        )
        if report.recovery_s is not None:
            line += f"  recovery {report.recovery_s:.2f}s"
        if report.lost_acked_appends is not None:
            line += f"  lost acked {report.lost_acked_appends}"
        print(line)

    results = None
    passed = True
    if not args.no_gate:
        results = evaluate_matrix(reports, {name: slos[name] for name in names})
        print("SLO gate:")
        for name, result in results.items():
            print(f"  [{'PASS' if result.passed else 'FAIL'}] {name}")
            for check in result.failures:
                print(
                    f"      {check.name}: observed {check.observed!r}, "
                    f"bound {check.bound!r}"
                )
        passed = all(result.passed for result in results.values())

    if args.output is not None:
        payload = {
            "profile": args.profile,
            "scale": scale.as_dict(),
            "passed": passed,
            "scenarios": {
                name: report.as_dict() for name, report in reports.items()
            },
            "slos": {name: slos[name].as_dict() for name in names},
        }
        if results is not None:
            payload["gate"] = {
                name: result.as_dict() for name, result in results.items()
            }
        args.output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.output}")

    return 0 if passed else 1


def _run_self_check(args: argparse.Namespace) -> int:
    from repro.verify import self_check

    for check, outcome in self_check().items():
        print(f"{check:<24} OK  ({outcome})")
    return 0


_HANDLERS = {
    "stats": _run_stats,
    "query": _run_query,
    "scan": _run_scan,
    "trail": _run_trail,
    "profile": _run_profile,
    "hunt": _run_hunt,
    "topk": _run_topk,
    "mine": _run_mine,
    "fuzz": _run_fuzz,
    "serve": _run_serve,
    "cluster": _run_cluster,
    "loadgen": _run_loadgen,
    "self-check": _run_self_check,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
