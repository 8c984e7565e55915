"""Self-test of the benchmark at its own tiny scale.

    python3 perfbench/selftest.py

For every workload it runs ``run.py --tiny`` twice: once plainly, where
the result line must match the schema in ``BENCHMARK.json`` and report
no failure, and once with ``--corrupt-one``, where the falsified answer
must be caught — ``correct`` false, ``failed`` at least 1 and a
non-zero ``error_frac`` in the printed report.  It also runs one traced
tiny run and checks that every per-layer metric is reported.  Exits 0
when everything holds.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("engine_dense", "case_study_scan", "serve_mixed", "cluster_mixed")


def _run(workload: str, *extra: str, trace: int = 0) -> tuple[str, dict]:
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", "1", "--seconds", "2", "--trace", str(trace), "--tiny", *extra,
    ]
    done = subprocess.run(
        argv, cwd=ROOT, capture_output=True, text=True, timeout=170, check=False
    )
    if done.returncode != 0:
        raise AssertionError(f"{argv} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return done.stdout, json.loads(lines[-1])


def _check_schema(result: dict, metrics: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    want = {m["name"]: m["unit"] for m in metrics}
    got = result["metrics"]
    assert set(got) == set(want), sorted(set(got) ^ set(want))
    for name, entry in got.items():
        assert set(entry) == {"value", "unit"}, entry
        assert entry["unit"] == want[name], (name, entry)
        assert isinstance(entry["value"], float), (name, entry)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        _, clean = _run(workload)
        _check_schema(clean, spec["end_to_end"])
        assert clean["correct"] and clean["failed"] == 0, clean
        for name, entry in clean["metrics"].items():
            assert entry["value"] > 0, (workload, name, entry)

        text, corrupt = _run(workload, "--corrupt-one")
        _check_schema(corrupt, spec["end_to_end"])
        assert not corrupt["correct"] and corrupt["failed"] >= 1, corrupt
        error_frac = float(re.search(r"error_frac\s+([0-9.]+)", text).group(1))
        assert error_frac > 0, text
        print(f"ok  {workload}: schema holds; a corrupted answer gives "
              f"error_frac {error_frac:.4f}")
    _, traced = _run("serve_mixed", trace=1)
    _check_schema(traced, spec["per_layer"])
    print("ok  traced serve_mixed: every per-layer metric reported")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
