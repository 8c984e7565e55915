"""CLI tests for the ``serve`` subcommand and the absent ``--kernel`` flags."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.temporal import TemporalFlowNetwork, save_edge_list


@pytest.fixture
def edges_csv(tmp_path):
    network = TemporalFlowNetwork.from_tuples(
        [
            ("s", "a", 10, 500.0),
            ("s", "b", 10, 400.0),
            ("a", "t", 12, 500.0),
            ("b", "t", 13, 400.0),
            ("s", "a", 2, 20.0),
            ("a", "t", 5, 20.0),
        ]
    )
    path = tmp_path / "edges.csv"
    save_edge_list(network, path)
    return path


class TestKernelFlags:
    """The engine has one kernel and one transform: no flag selects them."""

    def test_query_rejects_unknown_kernel(self, edges_csv):
        commands = (
            ["query", str(edges_csv), "--source", "s", "--sink", "t", "--delta", "2"],
            ["scan", str(edges_csv), "--sources", "s", "--sinks", "t"],
        )
        for command in commands:
            for option in (["--kernel", "persistent"], ["--transform", "skeleton"]):
                with pytest.raises(SystemExit):
                    main(command + option)


class TestFuzzServiceBackend:
    def test_fuzz_accepts_service_backend(self, capsys):
        code = main(
            [
                "fuzz", "--trials", "2", "--seed", "7",
                "--backends", "bfq*,service",
                "--no-certify", "--no-shrink",
            ]
        )
        assert code == 0
        assert "agree" in capsys.readouterr().out


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "edges.csv"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 7461
        assert args.algorithm == "bfq*"
        assert not hasattr(args, "kernel")
        assert args.processes is None
        assert args.max_pending == 64
        assert args.serve_seconds is None

    def test_serve_rejects_unknown_kernel(self):
        for command in ("serve", "cluster"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    [command, "edges.csv", "--kernel", "persistent"]
                )


class TestServeEndToEnd:
    def test_serve_boots_answers_and_exits(self, edges_csv):
        """Boot ``repro-bfq serve`` in a subprocess and query it over TCP."""
        src_dir = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_dir)] + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep)
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", str(edges_csv),
                "--port", "0", "--serve-seconds", "30",
                "--max-pending", "8",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            assert "serving delta-BFlow queries on" in banner, banner
            address = banner.split(" on ", 1)[1].split(" ", 1)[0]
            host, port = address.rsplit(":", 1)

            from repro.service import ServiceClient

            with ServiceClient(host, int(port)) as client:
                cold = client.query("s", "t", 2)
                warm = client.query("s", "t", 2)
                metrics = client.metrics()

            from repro import BurstingFlowQuery, find_bursting_flow
            from repro.temporal import load_edge_list

            network = load_edge_list(edges_csv)
            fresh = find_bursting_flow(
                network, BurstingFlowQuery("s", "t", 2)
            )
            for reply in (cold, warm):
                assert reply.density == fresh.density
                assert reply.interval == fresh.interval
                assert reply.flow_value == fresh.flow_value
            assert cold.cached is False and warm.cached is True
            assert metrics["cache"]["hits"] == 1
            assert json.dumps(metrics)  # snapshot is JSON-able
        finally:
            process.terminate()
            process.wait(timeout=30)
