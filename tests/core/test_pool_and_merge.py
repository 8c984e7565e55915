"""Regressions for the batch layer's shared pool and stats merging.

Two silent-drop bugs are pinned here:

* an old batch fan-out let sibling futures run to completion after one
  query failed and re-raised the bare exception with no hint of *which*
  query died — :func:`run_pool` must cancel the siblings and raise a
  :class:`BatchQueryError` carrying the index and the item (for the
  planner, the failing source);
* an old chunk merge hand-copied ``QueryStats`` fields, so a counter
  added later was silently dropped from merged results —
  :func:`merge_query_stats` must be driven by ``dataclasses.fields``.
"""

from __future__ import annotations

import dataclasses
import importlib
import multiprocessing

import pytest

from repro.core import BurstingFlowQuery, answer_planned
from repro.core._pool import run_pool
from repro.core.query import IntervalSample, QueryStats, merge_query_stats
from repro.exceptions import BatchQueryError


def _square(payload: int) -> int:
    return payload * payload


def _explode_on_three(payload: int) -> int:
    if payload == 3:
        raise ValueError("payload three is cursed")
    return payload


def _noop_initializer() -> None:
    pass


def fork_context():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    return multiprocessing.get_context("fork")


class TestRunPool:
    def test_results_align_with_input_order(self):
        context = fork_context()
        results = run_pool(
            [5, 1, 4, 2],
            _square,
            max_workers=2,
            context=context,
            initializer=_noop_initializer,
            initargs=(),
        )
        assert results == [25, 1, 16, 4]

    def test_failure_names_the_item(self):
        context = fork_context()
        with pytest.raises(BatchQueryError) as info:
            run_pool(
                [0, 1, 2, 3, 4],
                _explode_on_three,
                max_workers=2,
                context=context,
                initializer=_noop_initializer,
                initargs=(),
                describe=lambda index: f"payload #{index}",
            )
        assert info.value.index == 3
        assert info.value.item == "payload #3"
        assert "payload #3" in str(info.value)
        assert "ValueError" in str(info.value)
        assert "cursed" in str(info.value)

    def test_default_describe_is_the_index(self):
        context = fork_context()
        with pytest.raises(BatchQueryError) as info:
            run_pool(
                [3],
                _explode_on_three,
                max_workers=1,
                context=context,
                initializer=_noop_initializer,
                initargs=(),
            )
        assert info.value.index == 0
        assert info.value.item == 0


class TestAnswerManyFailFast:
    """The planner's pool fails fast and names the failing source."""

    def test_batch_error_carries_index_and_query_repr(
        self, burst_network, monkeypatch
    ):
        fork_context()
        planner = importlib.import_module("repro.core.planner")
        solve_source = planner._solve_source

        def poisoned(network, source, groups):
            if source == "a":
                raise ValueError("solver rejected this source")
            return solve_source(network, source, groups)

        monkeypatch.setattr(planner, "_solve_source", poisoned)
        queries = [
            BurstingFlowQuery("s", "t", 2),
            BurstingFlowQuery("a", "t", 2),
            BurstingFlowQuery("a", "b", 2),
            BurstingFlowQuery("s", "t", 10),
        ]
        with pytest.raises(BatchQueryError) as info:
            answer_planned(burst_network, queries, processes=2, mp_context="fork")
        assert info.value.index == 1
        assert info.value.item == "source 'a' x2 sinks"
        assert "source 'a' x2 sinks" in str(info.value)
        assert "rejected this source" in str(info.value)
        assert planner._PLAN_NETWORK is None


def sample(tau_s: int, tau_e: int, value: float) -> IntervalSample:
    return IntervalSample((tau_s, tau_e), 8, "dinic", 0.25, 0.5, value)


class TestMergeQueryStats:
    def test_every_declared_field_is_merged(self):
        # Build parts whose field values are all distinct so a dropped
        # field shows up as a wrong sum, whatever its position.  Dict
        # fields (the per-kernel tallies) merge key-wise, so they get a
        # one-key dict carrying the same distinct value.
        parts = []
        for offset in (0, 100):
            stats = QueryStats()
            for index, spec in enumerate(dataclasses.fields(QueryStats)):
                if spec.name == "samples":
                    continue
                value = offset + 2 * index + 1
                if spec.type == "float":
                    value = float(value)
                elif spec.type.startswith("dict"):
                    value = {"k": value}
                setattr(stats, spec.name, value)
            parts.append(stats)
        merged = merge_query_stats(parts)
        for spec in dataclasses.fields(QueryStats):
            if spec.name == "samples":
                continue
            values = [getattr(part, spec.name) for part in parts]
            if isinstance(values[0], dict):
                expected = {"k": sum(v["k"] for v in values)}
            else:
                expected = sum(values)
            assert getattr(merged, spec.name) == expected, spec.name

    def test_kernel_tallies_merge_key_wise(self):
        first = QueryStats()
        first.note_kernel("persistent", 0.25)
        first.note_kernel("other", 0.5)
        second = QueryStats()
        second.note_kernel("other", 0.125)
        merged = merge_query_stats([first, second])
        assert merged.kernel_runs == {"persistent": 1, "other": 2}
        assert merged.kernel_seconds == {
            "persistent": 0.25,
            "other": 0.625,
        }

    def test_samples_concatenate_in_chunk_order(self):
        first = QueryStats(samples=[sample(1, 3, 4.0), sample(2, 4, 5.0)])
        second = QueryStats(samples=[sample(3, 5, 6.0)])
        merged = merge_query_stats([first, second])
        assert merged.samples == first.samples + second.samples

    def test_sample_timings_are_not_double_counted(self):
        # record_sample already folded each sample's timings into the
        # chunk's seconds; the merge must sum the *fields*, not replay the
        # samples (which would count every second twice).
        chunk = QueryStats()
        chunk.record_sample(sample(1, 3, 4.0))
        chunk.record_sample(sample(2, 4, 5.0))
        merged = merge_query_stats([chunk])
        assert merged.transform_seconds == pytest.approx(chunk.transform_seconds)
        assert merged.maxflow_seconds == pytest.approx(chunk.maxflow_seconds)

    def test_merge_of_nothing_is_zero(self):
        merged = merge_query_stats([])
        assert merged == QueryStats()
