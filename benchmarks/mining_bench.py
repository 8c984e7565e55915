"""Mining funnel benchmark: precision/recall on planted-laundering synthetics.

Builds labelled scenarios (:func:`repro.simulation.scenario
.simulate_scenario` — a retail economy with smurfing, layering and, on
odd seeds, round-tripping injected on top), runs one
:class:`repro.mining.MiningPipeline` scan per scenario, and scores the
persisted patterns against the exact ground truth:

* **recall** — fraction of injected fraud (source, sink) pairs whose
  pattern was persisted (floor: 0.9);
* **precision** — fraction of persisted patterns whose endpoints belong
  to an injected fraud's account set (floor: 0.5);
* **amortization** — exhaustive S×T sweep size per δ-BFlow solve the
  funnel actually ran (floor: 5x), with an *equal-recall check*: the
  first scenario is additionally swept exhaustively (every volume-
  bearing pair as an explicit candidate) and must not catch any fraud
  the funnel missed.

Exit code 0 means every floor held; ``--output`` writes the
machine-readable report (committed as ``BENCH_PR8.json`` at full
scale).  ``--scale`` shrinks the economy for CI smoke runs.

Usage::

    PYTHONPATH=src python benchmarks/mining_bench.py \
        [--seeds 3] [--top 16] [--scale 1.0] [--no-exhaustive] \
        [--output BENCH_PR8.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

from repro.mining import MiningConfig, MiningPipeline, PatternStore
from repro.simulation.economy import EconomyConfig
from repro.simulation.scenario import simulate_scenario

RECALL_FLOOR = 0.9
PRECISION_FLOOR = 0.5
AMORTIZATION_FLOOR = 5.0


def scaled_config(scale: float) -> EconomyConfig:
    return EconomyConfig(
        num_consumers=max(8, int(60 * scale)),
        num_merchants=max(3, int(12 * scale)),
        num_corporates=max(1, int(3 * scale)),
    )


def exhaustive_pair_list(pipeline: MiningPipeline) -> list[tuple[str, str]]:
    """Every volume-bearing (emitter, collector) pair — the swept baseline."""
    out_ledgers, in_ledgers = pipeline.sync()
    emitters = sorted(out_ledgers, key=str)
    collectors = sorted(in_ledgers, key=str)
    return [(u, v) for u in emitters for v in collectors if u != v]


def run_scenario(seed: int, *, top: int, scale: float, exhaustive: bool):
    scenario = simulate_scenario(
        config=scaled_config(scale),
        seed=seed,
        with_round_tripping=seed % 2 == 1,
    )
    network = scenario.network
    delta = max(1, (network.t_max - network.t_min) // 50)
    tainted = {
        node
        for fraud in scenario.frauds
        for node in (fraud.source, fraud.sink, *fraud.accomplices)
    }
    config = MiningConfig(top_sources=top, top_sinks=top)
    with tempfile.TemporaryDirectory(prefix="repro-mining-bench-") as tmp:
        store = PatternStore(tmp, fsync=False)
        try:
            pipeline = MiningPipeline(network, store, config=config)
            started = time.perf_counter()
            outcome = pipeline.scan(delta)
            wall = time.perf_counter() - started
            rescan = pipeline.scan(delta)  # dedupe proof rides along
            persisted = [(r.source, r.sink) for r in outcome.records]

            sweep = None
            if exhaustive:
                sweep_started = time.perf_counter()
                sweep_outcome = pipeline.scan(
                    delta, pairs=exhaustive_pair_list(pipeline)
                )
                sweep = {
                    "solves": sweep_outcome.funnel.solves,
                    "wall_s": round(
                        time.perf_counter() - sweep_started, 6
                    ),
                    "fraud_pairs_found": [
                        list(pair)
                        for pair in scenario.fraud_pairs
                        if pair
                        in {
                            (r.source, r.sink)
                            for r in sweep_outcome.records
                        }
                    ],
                }
        finally:
            store.close()

    hits = [pair for pair in scenario.fraud_pairs if pair in persisted]
    fraud_involved = [
        pair
        for pair in persisted
        if pair[0] in tainted and pair[1] in tainted
    ]
    return {
        "seed": seed,
        "round_tripping": seed % 2 == 1,
        "network": {
            "nodes": network.num_nodes,
            "edges": network.num_edges,
            "timestamps": network.num_timestamps,
        },
        "delta": delta,
        "frauds": len(scenario.fraud_pairs),
        "fraud_pairs": [list(pair) for pair in scenario.fraud_pairs],
        "persisted": [list(pair) for pair in persisted],
        "hits": len(hits),
        "fraud_involved": len(fraud_involved),
        "recall": len(hits) / len(scenario.fraud_pairs),
        "precision": (
            len(fraud_involved) / len(persisted) if persisted else 0.0
        ),
        "funnel": outcome.funnel.as_dict(),
        "rescan": {"new": len(rescan.new_ids), "deduped": rescan.deduped},
        "wall_s": round(wall, 6),
        "exhaustive_sweep": sweep,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--top", type=int, default=16)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument(
        "--no-exhaustive",
        action="store_true",
        help="skip the equal-recall exhaustive arm (CI smoke)",
    )
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)

    scenarios = []
    for seed in range(args.seeds):
        # The exhaustive arm is O(|S|x|T|) solves; one scenario proves
        # the equal-recall claim without tripling the wall time.
        exhaustive = not args.no_exhaustive and seed == 0
        result = run_scenario(
            seed, top=args.top, scale=args.scale, exhaustive=exhaustive
        )
        scenarios.append(result)
        print(
            f"seed {seed}: recall {result['hits']}/{result['frauds']}, "
            f"precision {result['fraud_involved']}/"
            f"{len(result['persisted'])}, "
            f"amortization {result['funnel']['amortization']:.1f}x, "
            f"{result['wall_s']:.2f}s"
        )

    total_frauds = sum(s["frauds"] for s in scenarios)
    total_hits = sum(s["hits"] for s in scenarios)
    total_persisted = sum(len(s["persisted"]) for s in scenarios)
    total_involved = sum(s["fraud_involved"] for s in scenarios)
    recall = total_hits / total_frauds
    precision = total_involved / total_persisted if total_persisted else 0.0
    amortization = min(s["funnel"]["amortization"] for s in scenarios)
    rescans_clean = all(
        s["rescan"]["new"] == 0
        and s["rescan"]["deduped"] == len(s["persisted"])
        for s in scenarios
    )
    equal_recall = all(
        s["exhaustive_sweep"] is None
        or set(map(tuple, s["exhaustive_sweep"]["fraud_pairs_found"]))
        <= {
            tuple(pair)
            for pair in s["persisted"]
        }
        for s in scenarios
    )

    checks = {
        "recall_cleared": recall >= RECALL_FLOOR,
        "precision_cleared": precision >= PRECISION_FLOOR,
        "amortization_cleared": amortization >= AMORTIZATION_FLOOR,
        "rescans_deduped": rescans_clean,
        "exhaustive_equal_recall": equal_recall,
    }

    report = {
        "benchmark": "mining-funnel",
        "metric": (
            "precision/recall of persisted patterns vs injected-fraud "
            "ground truth, and delta-BFlow solves saved vs the "
            "exhaustive S×T sweep at equal recall"
        ),
        "mechanism": (
            "edge-column ledgers -> concentration/Kleinberg pre-filter "
            "-> top_k_bursts confirmation -> robust-z flagging -> "
            "content-addressed persistence (re-scans dedupe)"
        ),
        "config": {
            "seeds": args.seeds,
            "top": args.top,
            "scale": args.scale,
            "recall_floor": RECALL_FLOOR,
            "precision_floor": PRECISION_FLOOR,
            "amortization_floor": AMORTIZATION_FLOOR,
        },
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "timestamp_utc": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
        },
        "results": {
            "recall": round(recall, 4),
            "precision": round(precision, 4),
            "min_amortization": round(amortization, 2),
            "scenarios": scenarios,
        },
        "checks": checks,
    }

    if args.output is not None:
        args.output.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {args.output}")

    print(
        f"recall {recall:.3f} (floor {RECALL_FLOOR}), "
        f"precision {precision:.3f} (floor {PRECISION_FLOOR}), "
        f"min amortization {amortization:.1f}x "
        f"(floor {AMORTIZATION_FLOOR}x)"
    )
    if not all(checks.values()):
        failed = [name for name, ok in checks.items() if not ok]
        print(f"FAILED checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    print("all checks cleared")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
