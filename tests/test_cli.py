"""Tests for the repro-bfq command-line interface."""

import pytest

from repro.cli import main
from repro.temporal import TemporalFlowNetwork, save_edge_list, save_jsonl


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


class TestStats:
    def test_prints_table(self, edges_csv, capsys):
        assert main(["stats", str(edges_csv)]) == 0
        out = capsys.readouterr().out
        assert "Avg. degree" in out
        assert "edges.csv" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.csv")]) == 2
        assert "error" in capsys.readouterr().err


class TestQuery:
    def test_finds_burst(self, edges_csv, capsys):
        code = main(
            [
                "query", str(edges_csv),
                "--source", "s", "--sink", "t", "--delta", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "density" in out
        assert "300" in out  # 900 units over [10, 13]

    def test_algorithm_flag(self, edges_csv, capsys):
        for algorithm in ("bfq", "bfq+", "bfq*"):
            assert main(
                [
                    "query", str(edges_csv),
                    "--source", "s", "--sink", "t", "--delta", "2",
                    "--algorithm", algorithm,
                ]
            ) == 0
        assert capsys.readouterr().out.count("density") == 3

    def test_no_flow_exits_nonzero(self, edges_csv, capsys):
        code = main(
            [
                "query", str(edges_csv),
                "--source", "t", "--sink", "s", "--delta", "1",
            ]
        )
        assert code == 1
        assert "no bursting flow" in capsys.readouterr().out

    def test_bad_query_reports_error(self, edges_csv, capsys):
        code = main(
            [
                "query", str(edges_csv),
                "--source", "s", "--sink", "ghost", "--delta", "1",
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_compact_timestamps_round_trip(self, tmp_path, capsys):
        network = TemporalFlowNetwork.from_tuples(
            [
                ("s", "a", 1_000_000, 5.0),
                ("a", "t", 1_000_900, 5.0),
            ]
        )
        path = tmp_path / "raw.csv"
        save_edge_list(network, path)
        code = main(
            [
                "query", str(path), "--compact-timestamps",
                "--source", "s", "--sink", "t", "--delta", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # The interval is reported in the original event times.
        assert "1000000" in out.replace(",", "")


class TestScan:
    def test_scan_jsonl(self, tmp_path, capsys):
        network = TemporalFlowNetwork.from_tuples(
            [
                ("s", "a", 10, 500.0),
                ("a", "t", 12, 500.0),
                ("s", "x", 1, 2.0),
                ("x", "y", 3, 2.0),
                ("y", "t", 20, 2.0),
            ]
        )
        path = tmp_path / "edges.jsonl"
        save_jsonl(network, path)
        code = main(
            [
                "scan", str(path),
                "--sources", "s,x",
                "--sinks", "t,y",
                "--delta-fractions", "0.1",
                "--top", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scanned" in out
        assert "density" in out


class TestMalformedListArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ["profile", "--source", "s", "--sink", "t", "--deltas", "2,x"],
            ["profile", "--source", "s", "--sink", "t", "--deltas", "2,0"],
            ["scan", "--sources", "s", "--sinks", "t",
             "--delta-fractions", "0.5,x"],
            ["scan", "--sources", "s", "--sinks", "t",
             "--delta-fractions", "nan"],
            ["scan", "--sources", "s", "--sinks", "t", "--top", "0"],
            ["trail", "--source", "s", "--sink", "t", "--delta", "2",
             "--top", "-1"],
            ["trail", "--source", "s", "--sink", "t", "--delta", "2",
             "--top", "0"],
        ],
    )
    def test_rejected_by_the_parser(self, edges_csv, capsys, argv):
        command, *options = argv
        with pytest.raises(SystemExit) as excinfo:
            main([command, str(edges_csv), *options])
        assert excinfo.value.code == 2
        assert "error: argument" in capsys.readouterr().err
