"""Scan failure semantics: fail fast with a typed error, or record & go.

PR-8 satellite: a query blowing up mid-sweep used to abort the scan with
a bare exception that named nothing.  Now ``scan(on_error="raise")``
(the default) raises a typed :class:`ScanQueryError` carrying the exact
(source, sink, delta) that failed, and ``on_error="record"`` converts
each failure into a :class:`ScanError` row and keeps sweeping.
"""

import pytest

from repro.anomaly import BurstDetector
from repro.anomaly.detector import ScanError
from repro.exceptions import InvalidQueryError, ScanQueryError


@pytest.fixture
def network(burst_network):
    return burst_network


def poisoned(monkeypatch, fail_on):
    """Patch the detector's planner to fail for one (source, sink) pair."""
    from repro.anomaly import detector as detector_mod

    real = detector_mod.answer_planned

    def selective(network, queries, **kwargs):
        if any((query.source, query.sink) == fail_on for query in queries):
            raise RuntimeError("engine exploded")
        return real(network, queries, **kwargs)

    monkeypatch.setattr(detector_mod, "answer_planned", selective)


class TestRaiseMode:
    def test_typed_error_names_the_failing_query(self, network, monkeypatch):
        poisoned(monkeypatch, ("s", "t"))
        detector = BurstDetector(network)
        with pytest.raises(ScanQueryError) as excinfo:
            # "s" is one batch over both sinks; the error still names the
            # poisoned pair, not the batch's first query (s, c).
            detector.scan(["s", "a"], ["c", "t"], [2])
        error = excinfo.value
        assert (error.source, error.sink, error.delta) == ("s", "t", 2)
        assert "RuntimeError: engine exploded" in str(error)
        assert isinstance(error.__cause__, RuntimeError)  # chained via `from`

    def test_raise_is_the_default(self, network, monkeypatch):
        poisoned(monkeypatch, ("s", "t"))
        with pytest.raises(ScanQueryError):
            BurstDetector(network).scan(["s"], ["t"], [2])


class TestRecordMode:
    def test_failures_become_rows_and_the_sweep_continues(
        self, network, monkeypatch
    ):
        clean = BurstDetector(network).scan(["s"], ["c"], [2, 3])
        poisoned(monkeypatch, ("s", "t"))
        detector = BurstDetector(network)
        report = detector.scan(
            ["s", "a"], ["t", "c"], [2, 3], on_error="record"
        )
        assert report.errors == [
            ScanError(source="s", sink="t", delta=2,
                      error="RuntimeError: engine exploded"),
            ScanError(source="s", sink="t", delta=3,
                      error="RuntimeError: engine exploded"),
        ]
        # The healthy combinations were all still answered, the poisoned
        # source's other pair (s, c) included: its batch failure did not
        # void the whole source.
        assert {(f.source, f.sink) for f in report.findings} == {
            ("s", "c"), ("a", "t"), ("a", "c"),
        }
        assert len(report.findings) == 6
        assert [
            report.finding_for("s", "c", delta) for delta in (2, 3)
        ] == clean.findings

    def test_invalid_delta_fails_alone(self, network):
        report = BurstDetector(network).scan(
            ["s", "a"], ["t"], [0, 2], on_error="record"
        )
        assert [(e.source, e.sink, e.delta) for e in report.errors] == [
            ("s", "t", 0),
            ("a", "t", 0),
        ]
        assert all(e.error.startswith("InvalidQueryError") for e in report.errors)
        # delta=2 is still answered for both pairs.
        assert [(f.source, f.sink, f.delta) for f in report.findings] == [
            ("s", "t", 2),
            ("a", "t", 2),
        ]

    def test_clean_sweep_has_no_error_rows(self, network):
        report = BurstDetector(network).scan(
            ["s"], ["t"], [2], on_error="record"
        )
        assert report.errors == []
        assert len(report.findings) == 1


class TestValidation:
    def test_unknown_mode_is_rejected(self, network):
        with pytest.raises(InvalidQueryError, match="on_error"):
            BurstDetector(network).scan(["s"], ["t"], [2], on_error="ignore")
