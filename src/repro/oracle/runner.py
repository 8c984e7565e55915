"""The differential runner: every backend, one query, zero tolerance.

For each :class:`~repro.oracle.cases.FuzzCase` the runner executes every
registered backend (BFQ, BFQ+ and BFQ* on the compiled window skeleton
and the persistent arena Dinic, the ``planner`` backend that answers
through a shared-skeleton batch with duplicate and overlapping-delta
companions, the naive ``O(|T|^2)`` oracle and the NetworkX-backed
baseline — the two independent references, which rebuild every window
with :func:`~repro.core.transform.build_transformed_network` — the
``service`` backend that round-trips the query through the full
serialize → cache → worker → deserialize serving path of
:mod:`repro.service`, the ``streaming`` backend that replays the network
in time order through a :class:`~repro.extensions.StreamingBurstMonitor`,
and the opt-in
``cluster`` and ``mining`` backends that route through a live replica
set and the persisted-pattern replay path respectively) on the same
query and diffs the answers:

* **density** — all backends must agree within a relative epsilon;
* **flow value** — must match the density on the reported interval;
* **interval** — the Lemma-2 plan-based backends must report the
  *byte-identical* interval under the canonical tie-break of
  :mod:`repro.core.record`.  The naive oracle enumerates *all* windows, a
  strict superset of the plan, so an equal-density window outside the plan
  can legitimately win its internal tie-break; its interval is therefore
  compared after *normalization* — accepted iff its claimed optimum is
  certified and ties the plan answer exactly;
* **pruning invariance** — BFQ+ and BFQ* must return the same record with
  Observation-2 pruning on and off;
* **certificates** — every claimed optimum is re-proved from first
  principles by :func:`repro.oracle.certificate.check_certificate`.

:func:`fuzz` drives seeded trial loops over the adversarial generators and
(optionally) shrinks every failure to a minimal reproducer.
"""

from __future__ import annotations

import importlib.util
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.baselines.naive import naive_bfq
from repro.baselines.networkx_backend import networkx_bfq
from repro.core.bfq import bfq
from repro.core.bfq_plus import bfq_plus
from repro.core.bfq_star import bfq_star
from repro.core.planner import planner_bfq
from repro.core.query import BurstingFlowResult
from repro.exceptions import InvalidQueryError
from repro.oracle.cases import CaseLibrary, FuzzCase
from repro.oracle.certificate import check_certificate
from repro.oracle.generators import CaseGenerator, resolve_generators
from repro.cluster.backend import cluster_bfq
from repro.extensions.streaming import streaming_bfq
from repro.mining.backend import mining_bfq
from repro.service.backend import service_bfq
from repro.temporal.edge import Timestamp

#: Relative tolerance for cross-backend density/value agreement.  Wider
#: than the tie-break epsilon (backends may sum float flow in different
#: orders) but far below anything an off-by-one bug could produce.
AGREEMENT_EPSILON = 1e-9

#: All differential backends, in execution order.
BACKENDS: Mapping[str, Callable[..., BurstingFlowResult]] = {
    "bfq": bfq,
    "bfq+": bfq_plus,
    "bfq*": bfq_star,
    # The multi-query planner, exercised with a duplicate of the query and
    # overlapping-delta companions in the same batch — every amortised
    # (memoised) answer is differential-checked against the independent
    # backends above.
    "planner": planner_bfq,
    "naive": naive_bfq,
    "networkx": networkx_bfq,
    # The full serve path (protocol encode -> admission -> cache -> engine
    # worker -> protocol decode), run twice so the replay also proves the
    # result cache returns byte-identical answers.
    "service": service_bfq,
    # The streaming monitor: the network's edges replayed in time order,
    # then finalized — checks its sweep, bound and tie-break against the
    # offline backends.
    "streaming": streaming_bfq,
    # The full cluster path: the case is seeded into a durable log, two
    # replicas replay it, and the query routes through the coordinator
    # (affinity + epoch fence) cold and warm.
    "cluster": cluster_bfq,
    # The full mining vertical: the pair is pinned into the confirmation
    # stage, persisted to a throwaway pattern store, and the answer is
    # reconstructed from a *replayed* record after close/reopen — so the
    # durable round trip must be byte-identical to a direct solve.  The
    # double scan inside also proves re-scans dedupe instead of duplicate.
    "mining": mining_bfq,
}

#: Backends a default (``backends=None``) run skips.  ``cluster`` boots a
#: live two-replica cluster per trial and ``mining`` persists + replays a
#: pattern store per trial — correct but far heavier than the in-process
#: backends, so both are opted into explicitly (CI's smoke jobs do).
OPT_IN_BACKENDS: frozenset[str] = frozenset({"cluster", "mining"})

#: The backends a default (``backends=None``) run executes.
DEFAULT_BACKENDS: tuple[str, ...] = tuple(
    name for name in BACKENDS if name not in OPT_IN_BACKENDS
)

#: The optional package a backend imports on its first call.
OPTIONAL_PACKAGES: Mapping[str, str] = {"networkx": "networkx"}

#: Backends that enumerate exactly the Lemma-2 candidate plan and must
#: therefore agree on the interval byte-for-byte.  The service and
#: cluster backends wrap BFQ*, the mining backend replays a record
#: confirmed through the planner, and the streaming monitor evaluates the
#: same windows under the same tie-break, so their intervals are
#: canonical too.
PLAN_BACKENDS: tuple[str, ...] = (
    "bfq",
    "bfq+",
    "bfq*",
    "planner",
    "networkx",
    "service",
    "streaming",
    "cluster",
    "mining",
)

#: Backends supporting ``use_pruning`` (checked on *and* off).
PRUNABLE_BACKENDS: tuple[str, ...] = ("bfq+", "bfq*")


@dataclass(slots=True)
class BackendRecord:
    """One backend's (density, interval, value) claim for a case."""

    name: str
    density: float
    interval: tuple[Timestamp, Timestamp] | None
    flow_value: float
    pruned_intervals: int = 0

    @property
    def record(self) -> tuple[float, tuple[Timestamp, Timestamp] | None]:
        """The paper's binary record ``(density, interval)``."""
        return (self.density, self.interval)


@dataclass(frozen=True, slots=True)
class Disagreement:
    """One detected inconsistency.

    ``kind`` is one of ``"crash"``, ``"density"``, ``"interval"``,
    ``"pruning"`` or ``"certificate"``.
    """

    kind: str
    backend: str
    details: str

    def describe(self) -> str:
        """One-line summary."""
        return f"[{self.kind}] {self.backend}: {self.details}"


@dataclass(slots=True)
class DifferentialOutcome:
    """Everything the runner learned about one case."""

    case: FuzzCase
    records: dict[str, BackendRecord] = field(default_factory=dict)
    disagreements: list[Disagreement] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every backend agreed and every certificate held."""
        return not self.disagreements

    @property
    def kinds(self) -> frozenset[str]:
        """The set of disagreement kinds (used to steer shrinking)."""
        return frozenset(d.kind for d in self.disagreements)

    def describe(self) -> str:
        """Multi-line failure report."""
        lines = [self.case.describe()]
        for name, record in self.records.items():
            lines.append(
                f"  {name:<9} density={record.density!r} "
                f"interval={record.interval!r} value={record.flow_value!r}"
            )
        for disagreement in self.disagreements:
            lines.append(f"  {disagreement.describe()}")
        return "\n".join(lines)


def missing_packages(names: Sequence[str]) -> dict[str, str]:
    """Map each of ``names`` whose optional package is not installed to it."""
    return {
        name: OPTIONAL_PACKAGES[name]
        for name in names
        if name in OPTIONAL_PACKAGES
        and importlib.util.find_spec(OPTIONAL_PACKAGES[name]) is None
    }


def resolve_backends(backends: Sequence[str] | None) -> tuple[str, ...]:
    """The backends a run executes.

    ``None`` means :data:`DEFAULT_BACKENDS` less any backend whose optional
    package is not installed.

    Raises:
        InvalidQueryError: a named backend is unknown, or its optional
            package is missing.
    """
    if backends is None:
        missing = missing_packages(DEFAULT_BACKENDS)
        return tuple(name for name in DEFAULT_BACKENDS if name not in missing)
    unknown = [name for name in backends if name not in BACKENDS]
    if unknown:
        raise InvalidQueryError(
            f"unknown backends {unknown!r}; known: {', '.join(BACKENDS)}"
        )
    for name, package in missing_packages(backends).items():
        raise InvalidQueryError(
            f"backend {name!r} requires the optional {package} package"
        )
    return tuple(backends)


def _close(a: float, b: float, eps: float) -> bool:
    return abs(a - b) <= eps * max(1.0, abs(a), abs(b))


def run_differential(
    case: FuzzCase,
    *,
    backends: Sequence[str] | None = None,
    certify: bool = True,
    check_pruning: bool = True,
    eps: float = AGREEMENT_EPSILON,
) -> DifferentialOutcome:
    """Execute every backend on ``case`` and diff the answers.

    Args:
        case: the network + query to test.
        backends: subset of :data:`BACKENDS` to run (default: see
            :func:`resolve_backends`).
        certify: re-prove every claimed optimum from first principles.
        check_pruning: also run BFQ+/BFQ* with pruning disabled and demand
            identical records.
        eps: relative tolerance for density/value agreement.
    """
    outcome = DifferentialOutcome(case=case)
    names = resolve_backends(backends)
    network = case.network()
    query = case.query()

    results: dict[str, BurstingFlowResult] = {}
    for name in names:
        try:
            results[name] = BACKENDS[name](network, query)
        except Exception as exc:  # noqa: BLE001 - crashes are findings
            outcome.disagreements.append(
                Disagreement("crash", name, f"{type(exc).__name__}: {exc}")
            )
    for name, result in results.items():
        outcome.records[name] = BackendRecord(
            name=name,
            density=result.density,
            interval=result.interval,
            flow_value=result.flow_value,
            pruned_intervals=result.stats.pruned_intervals,
        )
    if not results:
        return outcome

    _diff_densities(outcome, eps)
    _diff_intervals(outcome, results, eps)
    if check_pruning:
        _check_pruning_invariance(outcome, network, query, names, eps)
    if certify:
        for name, result in results.items():
            report = check_certificate(network, query, result)
            for issue in report.issues:
                outcome.disagreements.append(
                    Disagreement("certificate", name, issue)
                )
    return outcome


def _diff_densities(outcome: DifferentialOutcome, eps: float) -> None:
    reference_name = next(iter(outcome.records))
    reference = outcome.records[reference_name]
    for name, record in outcome.records.items():
        if not _close(record.density, reference.density, eps):
            outcome.disagreements.append(
                Disagreement(
                    "density",
                    name,
                    f"density {record.density!r} != {reference.density!r} "
                    f"({reference_name})",
                )
            )


def _diff_intervals(
    outcome: DifferentialOutcome,
    results: dict[str, BurstingFlowResult],
    eps: float,
) -> None:
    plan_records = [
        outcome.records[name] for name in PLAN_BACKENDS if name in outcome.records
    ]
    if not plan_records:
        return
    canonical = plan_records[0]
    for record in plan_records[1:]:
        if record.interval != canonical.interval:
            outcome.disagreements.append(
                Disagreement(
                    "interval",
                    record.name,
                    f"interval {record.interval!r} != canonical "
                    f"{canonical.interval!r} ({canonical.name})",
                )
            )

    naive_record = outcome.records.get("naive")
    if naive_record is None:
        return
    if naive_record.interval == canonical.interval:
        return
    # Tie-break normalization: the naive oracle enumerates every window, a
    # superset of the Lemma-2 plan, so it may report an equal-density
    # optimum that no plan backend can ever see.  That is acceptable iff
    # the densities tie exactly (checked in _diff_densities) and naive's
    # own claim is independently certified.
    if naive_record.interval is None or canonical.interval is None:
        outcome.disagreements.append(
            Disagreement(
                "interval",
                "naive",
                f"found={naive_record.interval!r} but canonical is "
                f"{canonical.interval!r}",
            )
        )
        return
    if not _close(naive_record.density, canonical.density, eps):
        return  # already reported as a density disagreement
    report = check_certificate(
        outcome.case.network(), outcome.case.query(), results["naive"]
    )
    if not report.ok:
        for issue in report.issues:
            outcome.disagreements.append(
                Disagreement(
                    "interval",
                    "naive",
                    f"off-plan interval {naive_record.interval!r} failed "
                    f"certification: {issue}",
                )
            )


def _check_pruning_invariance(
    outcome: DifferentialOutcome,
    network,
    query,
    names: Sequence[str],
    eps: float,
) -> None:
    for name in PRUNABLE_BACKENDS:
        if name not in names or name not in outcome.records:
            continue
        try:
            unpruned = BACKENDS[name](network, query, use_pruning=False)
        except Exception as exc:  # noqa: BLE001
            outcome.disagreements.append(
                Disagreement(
                    "pruning", name, f"pruning-off crash: {type(exc).__name__}: {exc}"
                )
            )
            continue
        record = outcome.records[name]
        if not _close(unpruned.density, record.density, eps):
            outcome.disagreements.append(
                Disagreement(
                    "pruning",
                    name,
                    f"pruning changed density {record.density!r} -> "
                    f"{unpruned.density!r} (off)",
                )
            )
        if unpruned.interval != record.interval:
            outcome.disagreements.append(
                Disagreement(
                    "pruning",
                    name,
                    f"pruning changed interval {record.interval!r} -> "
                    f"{unpruned.interval!r} (off)",
                )
            )


@dataclass(slots=True)
class FuzzFailure:
    """One failing trial, with its shrunk reproducer when available."""

    trial: int
    outcome: DifferentialOutcome
    shrunk: FuzzCase | None = None
    fixture_path: Path | None = None


@dataclass(slots=True)
class FuzzReport:
    """Aggregate result of one :func:`fuzz` run."""

    trials: int
    seed: int
    backends: tuple[str, ...]
    per_generator: dict[str, int] = field(default_factory=dict)
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no trial produced any disagreement."""
        return not self.failures

    @property
    def disagreements(self) -> int:
        """Total disagreement count across all failing trials."""
        return sum(len(f.outcome.disagreements) for f in self.failures)

    def summary(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"{self.trials} trials, seed {self.seed}, "
            f"{len(self.backends)} backends ({', '.join(self.backends)})"
        ]
        for name, count in sorted(self.per_generator.items()):
            lines.append(f"  {name:<22} {count} cases")
        if self.ok:
            lines.append("all backends agree; all certificates hold")
        else:
            lines.append(
                f"{len(self.failures)} failing trials, "
                f"{self.disagreements} disagreements"
            )
        return "\n".join(lines)


def fuzz(
    *,
    trials: int = 100,
    seed: int = 0,
    generators: str | Mapping[str, CaseGenerator] | None = None,
    backends: Sequence[str] | None = None,
    certify: bool = True,
    check_pruning: bool = True,
    shrink: bool = True,
    dump_dir: Path | str | None = None,
    on_failure: Callable[[FuzzFailure], None] | None = None,
) -> FuzzReport:
    """Run ``trials`` differential trials; deterministic given ``seed``.

    Generators are cycled round-robin so every adversarial family gets even
    coverage regardless of the trial count.

    Args:
        trials: number of cases to generate and diff.
        seed: master RNG seed (each trial derives from the same stream).
        generators: comma-separated generator names, a mapping, or ``None``
            for the full registry.
        backends: subset of :data:`BACKENDS` names to run (default: see
            :func:`resolve_backends`).
        certify: check flow certificates for every claim.
        check_pruning: diff pruning on vs off for BFQ+/BFQ*.
        shrink: reduce failing cases to minimal reproducers.
        dump_dir: when set, write (shrunk) reproducers there as JSON.
        on_failure: optional callback invoked per failing trial.
    """
    from repro.oracle.shrink import shrink_case  # local: avoid cycle at import

    if isinstance(generators, str) or generators is None:
        selected = resolve_generators(generators)
    else:
        selected = dict(generators)
    names = list(selected)
    backends = resolve_backends(backends)
    rng = random.Random(seed)
    library = CaseLibrary(Path(dump_dir)) if dump_dir is not None else None

    report = FuzzReport(
        trials=trials,
        seed=seed,
        backends=backends,
    )
    for trial in range(trials):
        generator_name = names[trial % len(names)]
        case = selected[generator_name](rng)
        case = FuzzCase(
            edges=case.edges,
            source=case.source,
            sink=case.sink,
            delta=case.delta,
            generator=case.generator,
            seed=seed,
        )
        report.per_generator[generator_name] = (
            report.per_generator.get(generator_name, 0) + 1
        )
        outcome = run_differential(
            case,
            backends=backends,
            certify=certify,
            check_pruning=check_pruning,
        )
        if outcome.ok:
            continue
        failure = FuzzFailure(trial=trial, outcome=outcome)
        if shrink:
            kinds = outcome.kinds

            def still_failing(candidate: FuzzCase) -> bool:
                candidate_outcome = run_differential(
                    candidate,
                    backends=backends,
                    certify=certify,
                    check_pruning=check_pruning,
                )
                return bool(candidate_outcome.kinds & kinds)

            failure.shrunk = shrink_case(case, still_failing)
        if library is not None:
            dumped = failure.shrunk if failure.shrunk is not None else case
            failure.fixture_path = library.add(
                dumped, f"trial{trial:04d}-{generator_name}"
            )
        if on_failure is not None:
            on_failure(failure)
        report.failures.append(failure)
    return report
