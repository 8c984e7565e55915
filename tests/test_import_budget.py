"""The serving path loads no baseline solver, and works without them.

numpy and scipy back only the ``lp`` Maxflow solver, and networkx backs
only the ``networkx`` reference algorithm.  Both load on their first call,
so a service child, cluster replica, pool worker or CLI run boots without
them.  Each check runs in a fresh interpreter: the test process itself has
long since imported all three packages.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

BASELINE_PACKAGES = ("numpy", "scipy", "networkx")

SERVING_MODULES = (
    "repro",
    "repro.service.server",
    "repro.cluster",
    "repro.mining",
    "repro.cli",
)


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter and return the JSON it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_serving_modules_load_no_baseline_solver():
    loaded = run_fresh(
        f"""
        import importlib, json, sys
        for name in {SERVING_MODULES!r}:
            importlib.import_module(name)
        print(json.dumps(sorted(
            name for name in {BASELINE_PACKAGES!r} if name in sys.modules
        )))
        """
    )
    assert loaded == [], f"a serving module pulled in a baseline solver: {loaded}"


def test_engine_works_without_the_baseline_packages():
    outcome = run_fresh(
        f"""
        import json, sys
        for name in {BASELINE_PACKAGES!r}:
            sys.modules[name] = None  # any import of it now fails

        from repro import TemporalFlowNetworkBuilder, find_bursting_flow
        from repro.exceptions import InvalidQueryError, SolverError
        from repro.flownet import FlowNetwork, get_solver, solve_max_flow

        network = (
            TemporalFlowNetworkBuilder()
            .edge("alice", "bob", tau=10, capacity=500.0)
            .edge("alice", "carol", tau=10, capacity=400.0)
            .edge("bob", "dave", tau=12, capacity=500.0)
            .edge("carol", "dave", tau=13, capacity=400.0)
            .edge("alice", "bob", tau=2, capacity=20.0)
            .edge("bob", "dave", tau=5, capacity=20.0)
            .build()
        )
        answer = find_bursting_flow(
            network, source="alice", sink="dave", delta=2, algorithm="bfq*"
        )
        outcome = {{"density": answer.density, "interval": list(answer.interval)}}

        try:
            find_bursting_flow(
                network, source="alice", sink="dave", delta=2,
                algorithm="networkx",
            )
        except InvalidQueryError as exc:
            outcome["networkx"] = str(exc)

        flow = FlowNetwork()
        flow.add_edge_labeled("s", "t", 5.0)
        s, t = flow.index_of("s"), flow.index_of("t")
        try:
            get_solver("lp")(flow, s, t)
        except SolverError as exc:
            outcome["lp"] = str(exc)
        try:
            solve_max_flow(flow, s, t, algorithm="lp")
        except SolverError as exc:
            outcome["lp_by_name"] = str(exc)
        print(json.dumps(outcome))
        """
    )
    assert outcome["density"] == 300.0
    assert outcome["interval"] == [10, 13]
    assert "networkx package" in outcome.get("networkx", "")
    assert "scipy package" in outcome.get("lp", "")
    assert "scipy package" in outcome.get("lp_by_name", "")


def test_fuzz_runs_the_other_backends_without_networkx():
    outcome = run_fresh(
        """
        import contextlib, io, json, sys
        sys.modules["networkx"] = None  # any import of it now fails

        from repro.cli import main
        from repro.exceptions import InvalidQueryError
        from repro.oracle import fuzz

        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["fuzz", "--trials", "3", "--seed", "1"])
        outcome = {"code": code, "stdout": stdout.getvalue()}
        try:
            fuzz(trials=1, seed=1, backends=("bfq", "networkx"))
        except InvalidQueryError as exc:
            outcome["named"] = str(exc)
        print(json.dumps(outcome))
        """
    )
    assert outcome["code"] == 0, outcome["stdout"]
    assert "skipping the networkx backend" in outcome["stdout"]
    assert "all backends agree; all certificates hold" in outcome["stdout"]
    assert "networkx package" in outcome.get("named", "")
