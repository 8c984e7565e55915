"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (sizes and reasons in ``perfbench/workloads.json``):

* ``engine_dense``    — bfq* queries on the prosper replica;
* ``case_study_scan`` — the Table-3 BurstDetector sweep;
* ``serve_mixed``     — open-loop mixed load on one service child process;
* ``cluster_mixed``   — the same trace through a 2-replica cluster.

The command builds its inputs from ``--seed``, measures for about
``--seconds``, checks every answer (goldens for the engine workloads,
sequential re-solves at the reply's epoch for the serve workloads) and
prints a human-readable report followed, as its last line, by one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run measures once untraced and once with the layer wrappers installed,
prints the per-layer table and reports the per-layer metrics.

``--tiny`` and ``--corrupt-one`` exist for ``perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("engine_dense", "case_study_scan", "serve_mixed", "cluster_mixed")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test scale")
    parser.add_argument(
        "--corrupt-one", dest="corrupt", action="store_true",
        help="falsify one checked answer (self-test of the checker)",
    )
    return parser.parse_args(argv)


def _units() -> dict[str, str]:
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import bench_engine
    import bench_serve

    with (HERE / "workloads.json").open(encoding="utf-8") as handle:
        spec = json.load(handle)
    cfg = dict(spec["workloads"][args.workload])
    cfg["probe_reference_ms"] = spec["probe_reference_ms"]
    print(
        f"environment: nproc={os.cpu_count()} python={platform.python_version()} "
        f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} flush_policy={cfg.get('flush_policy', 'n/a')!r}"
    )
    try:
        if args.workload == "engine_dense":
            result = bench_engine.engine_dense(cfg, args)
        elif args.workload == "case_study_scan":
            result = bench_engine.case_study_scan(cfg, args)
        else:
            result = bench_serve.serve_workload(args.workload, cfg, args)
    except bench_serve.UnsteadyRun as exc:
        print(f"UNSTEADY run, latencies not reported: {exc}", file=sys.stderr)
        return 3
    except bench_engine.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for line in result["human"]:
        print(line)
    units = _units()
    print("end-to-end metrics (untraced):")
    for name, value in result["metrics"].items():
        print(f"  {name:<34} {value:.6g} {units[name]}")
    chosen = result["per_layer"] if args.trace else result["metrics"]
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in chosen.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
