"""Adversary campaign engine: adversary x scheduler x aggregation matrices.

A *campaign* is the robustness analogue of an experiment sweep: instead of
measuring round counts, it drives every combination of an adversary, a
scheduler, and an aggregation mode (envelopes / session vectors kept or
split by the splitting schedulers) through monitored runs and asks one
question per cell — did any seeded run violate a protocol invariant?  The paper's safety claims are
unconditional (agreement and validity hold under *every* legal adversary
and schedule), so the expected verdict on every honest-majority cell is
zero violations; a single red cell localizes a bug to an (adversary,
schedule, transport) triple before anyone reads a trace.

The engine reuses the experiment harness wholesale: each cell's seeds are
:class:`~repro.sim.experiments.Scenario` rows with ``monitor=True``, the
whole campaign runs as one :func:`~repro.sim.experiments.run_matrix` call
(so worker pooling and determinism guarantees carry over), and records
are regrouped into cells afterwards.  Violations are *recorded*, never
raised — ``CampaignResult.ok`` / ``.violations`` carry the verdicts.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.analysis.tables import render_table
from repro.errors import ConfigurationError
from repro.sim.experiments import (
    AGGREGATION_MODES,
    RunRecord,
    Scenario,
    SweepResult,
    run_matrix,
    scenario_matrix,
)

#: Default campaign axes — every adversary family of the engine (static
#: random, adaptive, slot-targeted, crash-recovery) against the
#: protocol-aware schedules (vote balancing, reveal eclipse, partition).
DEFAULT_ADVERSARIES = (
    "none",
    "random",
    "adaptive-crash",
    "slot-poison",
    "crash-recover",
)
DEFAULT_SCHEDULERS = ("uniform", "vote-balancing", "eclipse", "partition")


@dataclass(frozen=True)
class CampaignCell:
    """One (adversary, scheduler, aggregation) point of the matrix."""

    adversary: str
    scheduler: str
    aggregation: str

    def describe(self) -> str:
        return f"{self.adversary} x {self.scheduler} x {self.aggregation}"


def _cell_of(record: RunRecord) -> CampaignCell:
    scenario = record.scenario
    return CampaignCell(
        adversary=scenario.adversary,
        scheduler=scenario.scheduler,
        aggregation=scenario.aggregation,
    )


@dataclass
class CampaignResult:
    """Per-cell sweeps plus the campaign-level invariant verdict."""

    cells: dict[CampaignCell, SweepResult]
    workers: int = 1
    wall_seconds: float = 0.0

    def __len__(self) -> int:
        return sum(len(sweep) for sweep in self.cells.values())

    @property
    def records(self) -> list[RunRecord]:
        return [r for sweep in self.cells.values() for r in sweep.records]

    @property
    def violations(self) -> list[RunRecord]:
        """Every record whose invariant monitor fired."""
        return [
            r for r in self.records if r.invariant_violation is not None
        ]

    @property
    def ok(self) -> bool:
        """True iff no seeded run in any cell violated an invariant."""
        return not self.violations

    def cell_violations(self) -> dict[CampaignCell, list[RunRecord]]:
        """Violating records grouped by cell (only non-clean cells)."""
        out: dict[CampaignCell, list[RunRecord]] = {}
        for cell, sweep in self.cells.items():
            bad = [
                r for r in sweep.records if r.invariant_violation is not None
            ]
            if bad:
                out[cell] = bad
        return out

    def table(self, title: str = "Adversary campaign") -> str:
        rows = []
        for cell, sweep in self.cells.items():
            bad = sum(
                r.invariant_violation is not None for r in sweep.records
            )
            rows.append(
                [
                    cell.adversary,
                    cell.scheduler,
                    cell.aggregation,
                    len(sweep),
                    f"{sweep.agreement_rate:.3f}",
                    f"{sweep.summary('rounds').mean:.2f}",
                    "OK" if bad == 0 else f"{bad} VIOLATION(S)",
                ]
            )
        return render_table(
            title,
            [
                "adversary",
                "scheduler",
                "aggregation",
                "runs",
                "agree",
                "rounds",
                "invariants",
            ],
            rows,
            note=(
                f"{len(self)} monitored runs over {len(self.cells)} cells, "
                f"{self.workers} worker(s), {self.wall_seconds:.1f}s wall; "
                + ("all invariants held" if self.ok else "VIOLATIONS FOUND")
            ),
        )


def campaign_matrix(
    n: int = 4,
    adversaries: Sequence[str] = DEFAULT_ADVERSARIES,
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
    modes: Sequence[str] = tuple(AGGREGATION_MODES),
    seeds: Iterable[int] = range(20),
    round_bound: int | None = 60,
    **overrides: object,
) -> list[Scenario]:
    """All monitored scenarios of a campaign, in deterministic cell order.

    ``overrides`` pass through to :class:`Scenario` (``coin``, ``engine``,
    ``batch``, ...) uniformly; ``monitor``/``aggregation`` are owned by
    the campaign axes and cannot be overridden.
    """
    for owned in ("monitor", "aggregation"):
        if owned in overrides:
            raise ConfigurationError(
                f"{owned!r} is a campaign axis, not an override"
            )
    unknown = [m for m in modes if m not in AGGREGATION_MODES]
    if unknown:
        raise ConfigurationError(
            f"unknown aggregation modes {unknown}; "
            f"known: {list(AGGREGATION_MODES)}"
        )
    seeds = list(seeds)
    matrix: list[Scenario] = []
    for mode in modes:
        matrix.extend(
            scenario_matrix(
                ns=(n,),
                schedulers=schedulers,
                adversaries=adversaries,
                seeds=seeds,
                monitor=True,
                round_bound=round_bound,
                aggregation=mode,
                **overrides,
            )
        )
    return matrix


def run_campaign(
    n: int = 4,
    adversaries: Sequence[str] = DEFAULT_ADVERSARIES,
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
    modes: Sequence[str] = tuple(AGGREGATION_MODES),
    seeds: Iterable[int] = range(20),
    round_bound: int | None = 60,
    workers: int | None = None,
    **overrides: object,
) -> CampaignResult:
    """Run the full campaign matrix and regroup records into cells.

    One :func:`run_matrix` call covers every cell, so the pool is shared
    across the whole campaign and the result is a pure function of the
    axes regardless of worker count.
    """
    matrix = campaign_matrix(
        n=n,
        adversaries=adversaries,
        schedulers=schedulers,
        modes=modes,
        seeds=seeds,
        round_bound=round_bound,
        **overrides,
    )
    sweep = run_matrix(matrix, workers=workers)
    cells: dict[CampaignCell, list[RunRecord]] = {}
    for record in sweep.records:
        cells.setdefault(_cell_of(record), []).append(record)
    return CampaignResult(
        cells={
            cell: SweepResult(records=records, workers=sweep.workers)
            for cell, records in cells.items()
        },
        workers=sweep.workers,
        wall_seconds=sweep.wall_seconds,
    )


__all__ = [
    "AGGREGATION_MODES",
    "CampaignCell",
    "CampaignResult",
    "DEFAULT_ADVERSARIES",
    "DEFAULT_SCHEDULERS",
    "campaign_matrix",
    "run_campaign",
]
