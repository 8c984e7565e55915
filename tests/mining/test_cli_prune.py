"""`repro-bfq mine --prune`: the retention policy from the CLI."""

import pytest

from repro.cli import main
from repro.mining.store import PatternStore
from repro.temporal import TemporalFlowNetwork, save_edge_list
from tests.mining.test_store import record_for


@pytest.fixture
def edges_csv(tmp_path):
    network = TemporalFlowNetwork.from_tuples(
        [("s", "a", 1, 4.0), ("a", "t", 2, 3.0)]
    )
    path = tmp_path / "edges.csv"
    save_edge_list(network, path)
    return path


@pytest.fixture
def store_dir(tmp_path):
    directory = tmp_path / "patterns"
    with PatternStore(directory) as store:
        for i in range(5):
            store.add(record_for(i, epoch=i))
    return directory


def stored_ids(directory):
    with PatternStore(directory) as store:
        return {record.pattern_id for record in store}


class TestMinePrune:
    def test_prune_drops_and_reports(self, edges_csv, store_dir, capsys):
        code = main(
            [
                "mine", str(edges_csv), "--store", str(store_dir),
                "--no-scan", "--prune", "--max-patterns", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pruned: 3 pattern(s) dropped, 2 retained" in out
        with PatternStore(store_dir) as store:
            assert {record.epoch for record in store} == {3, 4}

    def test_prune_by_age(self, edges_csv, store_dir, capsys):
        code = main(
            [
                "mine", str(edges_csv), "--store", str(store_dir),
                "--no-scan", "--prune", "--max-age-epochs", "1",
            ]
        )
        assert code == 0
        assert "pruned: 3 pattern(s) dropped" in capsys.readouterr().out

    def test_prune_without_bounds_is_usage_error(
        self, edges_csv, store_dir, capsys
    ):
        code = main(
            [
                "mine", str(edges_csv), "--store", str(store_dir),
                "--no-scan", "--prune",
            ]
        )
        assert code == 2
        assert "--max-age-epochs" in capsys.readouterr().err
        with PatternStore(store_dir) as store:
            assert len(store) == 5  # untouched

    def test_prune_without_bounds_fails_before_the_scan(
        self, edges_csv, store_dir, capsys
    ):
        seed_ids = stored_ids(store_dir)
        code = main(
            [
                "mine", str(edges_csv), "--store", str(store_dir),
                "--delta", "1", "--persist", "all", "--prune",
            ]
        )
        assert code == 2
        assert "--max-age-epochs" in capsys.readouterr().err
        assert stored_ids(store_dir) == seed_ids

    @pytest.mark.parametrize(
        "bad",
        [
            ["--prune", "--max-patterns", "-1"],
            ["--prune", "--max-age-epochs", "-1"],
            ["--limit", "-1"],
            ["--top", "0"],
        ],
    )
    def test_out_of_range_bound_fails_before_the_scan(
        self, edges_csv, store_dir, bad
    ):
        seed_ids = stored_ids(store_dir)
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "mine", str(edges_csv), "--store", str(store_dir),
                    "--delta", "1", "--persist", "all", *bad,
                ]
            )
        assert info.value.code == 2
        assert stored_ids(store_dir) == seed_ids
