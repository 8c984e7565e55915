"""The intensity primitives the mining pre-filter scores with.

:mod:`repro.mining.prefilter` (and, via delegation,
:mod:`repro.anomaly.detector`) scores node ledgers with:

* :func:`modified_z_score` — the robust ``0.6745 * (x - median) / MAD``
  outlier score (SNIPPETS.md snippet 1's ``z_score_threshold`` screen);
* :func:`kleinberg_states` — a two-state burst automaton over binned
  arrival counts (snippet 2's ``kleinberg_burst_detection``): a Viterbi
  decode between a base-rate state and an elevated-rate state, with a
  transition cost that makes isolated noisy bins stay "normal" while
  sustained elevated activity flips to "burst".
"""

from __future__ import annotations

import math
from typing import Sequence


def modified_z_score(value: float, mid: float, mad: float) -> float:
    """Robust outlier score; degenerate MAD falls back to mean-free ratio."""
    if mad > 0:
        return 0.6745 * (value - mid) / mad
    if mid > 0:
        return value / mid - 1.0
    return float("inf") if value > 0 else 0.0


def kleinberg_states(
    counts: Sequence[int | float],
    *,
    scale: float = 2.0,
    gamma: float = 1.0,
) -> list[int]:
    """Two-state Kleinberg burst decode over binned arrival counts.

    State 0 emits at the sequence's base rate (its mean), state 1 at
    ``scale`` times that; emissions are scored with the Poisson
    log-likelihood and entering the burst state costs
    ``gamma * ln(n + 1)``.  Returns the optimal (Viterbi) state per bin:
    ``1`` marks bins inside a burst.

    A flat or empty sequence decodes to all zeros — the automaton only
    flags *sustained deviations* from the node's own baseline, which is
    what separates a smurfing shell (quiet, then a dense spike) from a
    merchant that is simply busy all day.
    """
    if scale <= 1.0:
        raise ValueError(f"scale must be > 1, got {scale}")
    n = len(counts)
    if n == 0:
        return []
    total = float(sum(counts))
    if total <= 0:
        return [0] * n
    base = max(total / n, 1e-12)
    high = base * scale
    enter_cost = gamma * math.log(n + 1)

    def emit(rate: float, count: float) -> float:
        # Negative Poisson log-likelihood (lgamma generalises count!).
        return rate - count * math.log(rate) + math.lgamma(count + 1.0)

    cost0 = emit(base, float(counts[0]))
    cost1 = enter_cost + emit(high, float(counts[0]))
    back: list[tuple[int, int]] = []
    for raw in counts[1:]:
        count = float(raw)
        stay0, from1 = cost0, cost1
        best_to_0 = min(stay0, from1)
        best_to_1 = min(stay0 + enter_cost, from1)
        back.append(
            (0 if stay0 <= from1 else 1, 0 if stay0 + enter_cost < from1 else 1)
        )
        cost0 = best_to_0 + emit(base, count)
        cost1 = best_to_1 + emit(high, count)
    state = 0 if cost0 <= cost1 else 1
    states = [state]
    for choices in reversed(back):
        state = choices[state]
        states.append(state)
    states.reverse()
    return states


def burstiness(counts: Sequence[int | float], states: Sequence[int]) -> float:
    """Share of total arrivals that fall in Kleinberg burst bins (0..1)."""
    total = float(sum(counts))
    if total <= 0:
        return 0.0
    in_burst = sum(
        float(count) for count, state in zip(counts, states) if state == 1
    )
    return in_burst / total

