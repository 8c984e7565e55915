#!/usr/bin/env python
"""Anti-money-laundering analysis on a simulated payment economy.

Builds a full agent-based economy (salaries, shopping peaks, settlements)
with three injected laundering typologies — smurfing, layering and
round-tripping — then demonstrates the library's analyst workflow:

1. choose delta with :func:`repro.core.suggest_delta` (the knee of the
   density-vs-delta curve);
2. sweep suspect and control pairs in one planner batch with
   :func:`repro.core.answer_planned`;
3. separate frauds from controls by density;
4. pull the evidence trail of the worst finding.

Run:  python examples/aml_simulation.py
"""

from repro.core import (
    BurstingFlowQuery,
    answer_planned,
    bursting_flow_trails,
    density_profile,
    suggest_delta,
)
from repro.simulation import EconomyConfig, simulate_scenario


def main() -> None:
    config = EconomyConfig(
        num_consumers=40, num_merchants=8, num_corporates=2,
        days=5, ticks_per_day=144,
    )
    scenario = simulate_scenario(config=config, seed=42, with_round_tripping=True)
    network = scenario.network
    print(
        f"economy: {network.num_nodes} accounts, {network.num_edges} transfers, "
        f"{network.num_timestamps} active ticks; "
        f"{len(scenario.frauds)} injected frauds"
    )

    # 1. Choose delta from the first suspect pair's density profile.
    smurfing = scenario.frauds[0]
    profile = density_profile(
        network, smurfing.source, smurfing.sink, deltas=[1, 2, 4, 8, 16, 32]
    )
    knee = suggest_delta(profile, max_drop=0.5)
    delta = knee.delta if knee else 4
    print(f"delta chosen from the density profile: {delta}")

    # 2. Batch-evaluate suspects and controls.
    suspect_queries = [
        BurstingFlowQuery(fraud.source, fraud.sink, delta)
        for fraud in scenario.frauds
    ]
    control_queries = [
        BurstingFlowQuery(s, t, delta)
        for s, t in scenario.benign_pairs(5, seed=7)
    ]
    results = answer_planned(network, suspect_queries + control_queries)[0]
    suspects = results[: len(suspect_queries)]
    controls = results[len(suspect_queries):]

    print(f"\n{'pair':<36} {'kind':<16} {'density':>12}")
    for fraud, result in zip(scenario.frauds, suspects):
        print(
            f"{fraud.source + ' -> ' + fraud.sink:<36} "
            f"{fraud.kind:<16} {result.density:>12,.1f}"
        )
    for query, result in zip(control_queries, controls):
        print(
            f"{str(query.source) + ' -> ' + str(query.sink):<36} "
            f"{'(control)':<16} {result.density:>12,.1f}"
        )

    worst_gap = min(r.density for r in suspects) / max(
        max((r.density for r in controls), default=0.0), 0.01
    )
    print(f"\nweakest fraud is still {worst_gap:,.0f}x denser than any control")
    assert worst_gap > 10

    # 3. Evidence trail of the layering scheme.
    layering = scenario.frauds[1]
    report = bursting_flow_trails(
        network, BurstingFlowQuery(layering.source, layering.sink, delta)
    )
    print(f"\nevidence trail for the layering scheme ({report.flow_value:,.0f} units):")
    for trail in report.trails[:4]:
        print(f"  {trail.describe()}")
    if len(report.trails) > 4:
        print(f"  ... and {len(report.trails) - 4} more trails")


if __name__ == "__main__":
    main()
