"""Intensity-primitive tests: robust scores and burst decode."""

import math

import pytest

from repro.mining.stats import burstiness, kleinberg_states, modified_z_score


class TestModifiedZScore:
    def test_standard_case(self):
        assert modified_z_score(10.0, 4.0, 2.0) == pytest.approx(
            0.6745 * 6.0 / 2.0
        )

    def test_degenerate_mad_falls_back_to_ratio(self):
        assert modified_z_score(30.0, 10.0, 0.0) == pytest.approx(2.0)

    def test_degenerate_everything(self):
        assert modified_z_score(5.0, 0.0, 0.0) == math.inf
        assert modified_z_score(0.0, 0.0, 0.0) == 0.0

    def test_below_median_is_negative(self):
        assert modified_z_score(1.0, 4.0, 2.0) < 0


class TestKleinbergStates:
    def test_empty_and_flat_decode_to_no_burst(self):
        assert kleinberg_states([]) == []
        assert kleinberg_states([5] * 10) == [0] * 10
        assert kleinberg_states([0, 0, 0]) == [0, 0, 0]

    def test_sustained_spike_flags_burst_bins(self):
        counts = [1, 1, 1, 1, 12, 14, 13, 1, 1, 1]
        states = kleinberg_states(counts)
        assert states[4:7] == [1, 1, 1]
        assert states[:4] == [0] * 4 and states[7:] == [0] * 3

    def test_single_noisy_bin_stays_normal(self):
        # The enter cost (gamma * ln(n+1)) suppresses isolated blips.
        states = kleinberg_states([3, 3, 3, 4, 3, 3, 3, 3])
        assert states == [0] * 8

    def test_scale_must_exceed_one(self):
        with pytest.raises(ValueError):
            kleinberg_states([1, 2], scale=1.0)


class TestBurstiness:
    def test_zero_activity(self):
        assert burstiness([], []) == 0.0
        assert burstiness([0, 0], [0, 0]) == 0.0

    def test_share_of_arrivals_in_burst_bins(self):
        assert burstiness([1, 3, 6], [0, 0, 1]) == pytest.approx(0.6)

