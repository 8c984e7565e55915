"""Differential-runner tests: agreement, bug detection, hypothesis sweep."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidQueryError
from repro.oracle import cases as cases_mod
from repro.oracle import runner as runner_mod
from repro.oracle.cases import FuzzCase
from repro.oracle.runner import (
    BACKENDS,
    DEFAULT_BACKENDS,
    FuzzReport,
    fuzz,
    run_differential,
)


def _simple_case() -> FuzzCase:
    return FuzzCase(
        edges=(
            ("s", "a", 1, 3.0),
            ("a", "t", 2, 2.0),
            ("s", "b", 2, 4.0),
            ("b", "t", 3, 4.0),
            ("a", "t", 5, 5.0),
        ),
        source="s",
        sink="t",
        delta=1,
    )


class TestRunDifferential:
    def test_agreement_on_simple_case(self):
        outcome = run_differential(_simple_case())
        assert outcome.ok, outcome.describe()
        # The default run covers every backend except the opt-in ones
        # (cluster boots a live replicated cluster per trial; mining
        # persists and replays a pattern store per trial).
        assert set(outcome.records) == set(DEFAULT_BACKENDS)
        assert set(DEFAULT_BACKENDS) == set(BACKENDS) - {"cluster", "mining"}
        records = {r.record for r in outcome.records.values()}
        assert len(records) == 1  # identical (density, interval) everywhere

    def test_cluster_backend_agrees_when_opted_in(self):
        outcome = run_differential(
            _simple_case(), backends=("bfq*", "cluster")
        )
        assert outcome.ok, outcome.describe()
        assert set(outcome.records) == {"bfq*", "cluster"}
        assert (
            outcome.records["cluster"].record
            == outcome.records["bfq*"].record
        )

    def test_agreement_on_no_flow_case(self):
        case = FuzzCase(
            edges=(("a", "s", 1, 2.0), ("t", "a", 2, 2.0)),
            source="s",
            sink="t",
            delta=1,
        )
        outcome = run_differential(case)
        assert outcome.ok, outcome.describe()
        assert all(r.interval is None for r in outcome.records.values())

    def test_backend_subset(self):
        outcome = run_differential(_simple_case(), backends=("bfq", "naive"))
        assert set(outcome.records) == {"bfq", "naive"}
        assert outcome.ok

    def test_detects_density_bug(self, monkeypatch):
        real = BACKENDS["bfq+"]

        def inflated(network, query, **kwargs):
            result = real(network, query, **kwargs)
            return dataclasses.replace(result, density=result.density * 1.5)

        monkeypatch.setitem(runner_mod.BACKENDS, "bfq+", inflated)
        outcome = run_differential(_simple_case(), check_pruning=False)
        assert not outcome.ok
        assert "density" in outcome.kinds

    def test_detects_interval_bug(self, monkeypatch):
        real = BACKENDS["bfq*"]

        def shifted(network, query, **kwargs):
            result = real(network, query, **kwargs)
            lo, hi = result.interval
            return dataclasses.replace(result, interval=(lo + 1, hi + 1))

        monkeypatch.setitem(runner_mod.BACKENDS, "bfq*", shifted)
        outcome = run_differential(_simple_case(), check_pruning=False)
        assert not outcome.ok
        assert "interval" in outcome.kinds
        # The corrupted claim also fails certification: the recomputed
        # Maxflow of the shifted window cannot match the claimed value.
        assert "certificate" in outcome.kinds

    def test_detects_crash(self, monkeypatch):
        def boom(network, query, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setitem(runner_mod.BACKENDS, "networkx", boom)
        outcome = run_differential(_simple_case(), check_pruning=False)
        assert not outcome.ok
        assert "crash" in outcome.kinds
        assert "networkx" not in outcome.records

    def test_detects_overeager_pruning(self, monkeypatch):
        # Simulate the pre-fix Observation-2 bug: raw-float comparison with
        # no epsilon guard.  The boundary network from test_record then
        # diverges between pruning on and off — the runner must notice.
        import importlib

        plus_mod = importlib.import_module("repro.core.bfq_plus")
        sweep_mod = importlib.import_module("repro.core.sweep")

        def raw_prune(upper_bound, best_density, length):
            return upper_bound < best_density * length

        # BFQ+ and BFQ* both prune inside sweep.insertion_step.
        monkeypatch.setattr(sweep_mod, "should_prune", raw_prune)
        case = FuzzCase(
            edges=(
                ("s", "a", 1, 0.9),
                ("a", "t", 2, 0.9),
                ("s", "b", 1, 0.2),
                ("b", "t", 3, 0.2),
                ("s", "c", 1, 0.7),
                ("c", "t", 3, 0.7),
            ),
            source="s",
            sink="t",
            delta=1,
        )
        outcome = run_differential(case)
        # The raw comparison wrongly prunes a true tie; with the canonical
        # tie-break the tie loses anyway, so the *record* stays correct —
        # but the pruned-interval count changes, and on networks where the
        # pruned candidate was strictly better the record breaks.  Either
        # way the run must stay self-consistent:
        pruned = plus_mod.bfq_plus(
            case.network(), case.query(), use_pruning=True
        )
        assert pruned.stats.pruned_intervals == 1  # the bug really fired
        assert outcome.records["bfq+"].record == outcome.records["bfq"].record


class TestFuzz:
    def test_clean_run(self):
        report = fuzz(trials=30, seed=7, shrink=False)
        assert report.ok
        assert report.trials == 30
        assert sum(report.per_generator.values()) == 30
        assert "all backends agree" in report.summary()

    def test_deterministic_for_seed(self):
        a = fuzz(trials=12, seed=3, shrink=False)
        b = fuzz(trials=12, seed=3, shrink=False)
        assert a.per_generator == b.per_generator
        assert a.ok and b.ok

    def test_generator_subset(self):
        report = fuzz(trials=10, seed=0, generators="uniform", shrink=False)
        assert report.per_generator == {"uniform": 10}

    def test_unknown_backend_rejected_before_any_trial(self):
        # Not a crash disagreement shrunk into a "reproducer".
        with pytest.raises(InvalidQueryError, match="unknown backends"):
            fuzz(trials=1, seed=0, backends=("bfq", "bogus"))

    def test_failure_path_dumps_and_shrinks(self, monkeypatch, tmp_path):
        real = BACKENDS["bfq+"]

        def inflated(network, query, **kwargs):
            result = real(network, query, **kwargs)
            return dataclasses.replace(result, density=result.density * 2.0)

        monkeypatch.setitem(runner_mod.BACKENDS, "bfq+", inflated)
        report = fuzz(
            trials=3,
            seed=0,
            generators="uniform",
            certify=False,
            check_pruning=False,
            dump_dir=tmp_path,
        )
        assert not report.ok
        failure = report.failures[0]
        assert failure.shrunk is not None
        assert failure.shrunk.num_edges <= failure.outcome.case.num_edges
        assert failure.fixture_path is not None and failure.fixture_path.exists()
        reloaded = cases_mod.load_case(failure.fixture_path)
        # The dumped reproducer still reproduces the same failure kind.
        redo = run_differential(reloaded, certify=False, check_pruning=False)
        assert redo.kinds & failure.outcome.kinds

    def test_report_counts_disagreements(self):
        report = FuzzReport(trials=0, seed=0, backends=("bfq",))
        assert report.ok and report.disagreements == 0


@st.composite
def fuzz_cases(draw):
    """Small random temporal networks + queries (hypothesis's own angles)."""
    n_nodes = draw(st.integers(min_value=2, max_value=5))
    nodes = [f"n{i}" for i in range(n_nodes)]
    horizon = draw(st.integers(min_value=2, max_value=8))
    n_edges = draw(st.integers(min_value=1, max_value=10))
    edges = []
    for _ in range(n_edges):
        u = draw(st.sampled_from(nodes))
        v = draw(st.sampled_from([x for x in nodes if x != u]))
        tau = draw(st.integers(min_value=1, max_value=horizon))
        capacity = draw(st.integers(min_value=1, max_value=64)) / 8.0
        edges.append((u, v, tau, capacity))
    delta = draw(st.integers(min_value=1, max_value=3))
    return FuzzCase(
        edges=tuple(edges),
        source=nodes[0],
        sink=nodes[1],
        delta=delta,
        generator="hypothesis",
    )


class TestHypothesisDifferential:
    @settings(max_examples=60, deadline=None)
    @given(case=fuzz_cases())
    def test_all_backends_agree(self, case):
        outcome = run_differential(case)
        assert outcome.ok, outcome.describe()
