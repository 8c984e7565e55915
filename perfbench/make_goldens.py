"""Regenerate the committed golden answers of the engine workloads.

    python3 perfbench/make_goldens.py

Answers come from the non-incremental ``bfq``; generation fails unless
``bfq*`` (the algorithm the workloads time) gives the same answer for
every query.  Rerun only when a dataset generator or the query selector
changes on purpose.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from bench_engine import (  # noqa: E402
    GOLDENS,
    answer_of,
    case_study_inputs,
    engine_dense_inputs,
    same_answer,
)


def _solve_pool(network, queries) -> list[list]:
    from repro import BurstingFlowQuery, find_bursting_flow

    rows = []
    for query in queries:
        reference = answer_of(
            find_bursting_flow(network, BurstingFlowQuery(*query), algorithm="bfq")
        )
        timed = answer_of(
            find_bursting_flow(network, BurstingFlowQuery(*query), algorithm="bfq*")
        )
        if not same_answer(timed, reference):
            raise SystemExit(f"bfq* disagrees with bfq on {query}: {timed} vs {reference}")
        density, interval, flow = reference
        rows.append([*query, density, None if interval is None else list(interval), flow])
    return rows


def _write(workload: str, rows: list[list]) -> None:
    """One answer per line: [source, sink, delta, density, interval, flow]."""
    body = ",\n".join("  " + json.dumps(row) for row in rows)
    text = f'{{"workload": "{workload}", "answers": [\n{body}\n]}}\n'
    (GOLDENS / f"{workload}.json").write_text(text)


def main() -> int:
    with (HERE / "workloads.json").open(encoding="utf-8") as handle:
        config = json.load(handle)["workloads"]
    GOLDENS.mkdir(exist_ok=True)

    cfg = config["engine_dense"]
    network, queries = engine_dense_inputs(cfg)
    _write("engine_dense", _solve_pool(network, queries))

    cfg = config["case_study_scan"]
    network, sources, sinks, deltas, _ = case_study_inputs(cfg)
    queries = [(s, t, d) for s in sources for t in sinks if s != t for d in deltas]
    _write("case_study_scan", _solve_pool(network, queries))
    print(f"wrote goldens to {GOLDENS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
