"""Regressions for stats merging.

An old chunk merge hand-copied ``QueryStats`` fields, so a counter added
later was silently dropped from merged results —
:func:`merge_query_stats` must be driven by ``dataclasses.fields``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.query import IntervalSample, QueryStats, merge_query_stats


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
