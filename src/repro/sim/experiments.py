"""Parallel experiment harness: scenario matrices over worker processes.

The paper's claims are statistical (almost-sure termination, expected
round counts, polynomial message complexity), so reproducing them means
*sweeps*: the same protocol under hundreds to thousands of seeded
``(n, scheduler, adversary, seed)`` combinations.  This module makes such
a sweep a one-call workload::

    from repro.sim.experiments import scenario_matrix, run_matrix

    sweep = run_matrix(
        scenario_matrix(
            ns=(4, 7), schedulers=("fifo", "uniform"),
            adversaries=("none", "silent-one"), seeds=range(100),
        ),
        workers=8,
    )
    print(sweep.table())
    print(sweep.agreement_rate, sweep.complexity_points())

Design constraints, and how they are met:

* **Picklable work units** — a :class:`Scenario` is plain data (ints,
  strings, tuples); schedulers and adversaries are rebuilt inside the
  worker from the :data:`SCHEDULERS` / :data:`ADVERSARIES` registries, so
  the matrix crosses process boundaries without serializing protocol
  objects.
* **Determinism** — every random stream is derived from the scenario's
  seed (the registries use ``config.derive_rng`` with fixed tags), and
  records are returned in matrix order, so a sweep's aggregate is a pure
  function of its scenario list no matter how many workers ran it.
* **Aggregation** — :class:`SweepResult` feeds
  :mod:`repro.analysis.stats` summaries, Wilson intervals, and
  :mod:`repro.analysis.complexity` power-law fits, and renders the same
  ASCII tables the benchmarks print.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from multiprocessing import get_context
from types import MappingProxyType

from repro.adversary.adaptive import AdaptiveAdversary
from repro.adversary.controller import (
    Adversary,
    crash_adversary,
    crash_recovery_adversary,
    random_adversary,
    silent_adversary,
    slot_poison_adversary,
)
from repro.adversary.schedulers import (
    CoinRevealEclipseScheduler,
    EnvelopeSplittingScheduler,
    SlotSplittingScheduler,
    VoteBalancingScheduler,
)
from repro.analysis.stats import Summary, proportion_ci95, summarize
from repro.analysis.tables import render_table
from repro.config import SystemConfig
from repro.core.api import run_byzantine_agreement, run_byzantine_agreement_batch
from repro.errors import ConfigurationError
from repro.sim.monitor import InvariantMonitor, InvariantViolation
from repro.sim.runtime import DEFAULT_MAX_EVENTS, ENGINE_FLAT, ENGINES
from repro.sim.scheduler import (
    ExponentialDelayScheduler,
    FifoScheduler,
    IntermittentPartitionScheduler,
    Scheduler,
    TargetedDelayScheduler,
    UniformDelayScheduler,
)
from repro.sim.tracing import TRACE_COUNTS

#: Scheduler registry: name -> factory(config).  Randomized schedulers use
#: the same ``derive_rng("scheduler")`` stream as ``default_scheduler``, so
#: ``"uniform"`` reproduces a run that picked no scheduler at all.
SCHEDULERS: dict[str, Callable[[SystemConfig], Scheduler]] = {
    "unit": lambda cfg: Scheduler(),
    "fifo": lambda cfg: FifoScheduler(),
    "uniform": lambda cfg: UniformDelayScheduler(cfg.derive_rng("scheduler")),
    "exponential": lambda cfg: ExponentialDelayScheduler(
        cfg.derive_rng("scheduler")
    ),
    "targeted": lambda cfg: TargetedDelayScheduler(
        UniformDelayScheduler(cfg.derive_rng("scheduler")), victims={cfg.n}
    ),
    "partition": lambda cfg: IntermittentPartitionScheduler(
        UniformDelayScheduler(cfg.derive_rng("scheduler")),
        group=frozenset(range(1, cfg.n // 2 + 1)),
    ),
    "vote-balancing": lambda cfg: VoteBalancingScheduler(cfg),
    "env-split": lambda cfg: EnvelopeSplittingScheduler(
        UniformDelayScheduler(cfg.derive_rng("scheduler"))
    ),
    "slot-split": lambda cfg: SlotSplittingScheduler(
        UniformDelayScheduler(cfg.derive_rng("scheduler"))
    ),
    # Eclipse the top-t pids (a legal minority; at t=0 an empty victim set,
    # so the wrapper degenerates to its uniform base).
    "eclipse": lambda cfg: CoinRevealEclipseScheduler(
        UniformDelayScheduler(cfg.derive_rng("scheduler")),
        victims=frozenset(range(cfg.n - cfg.t + 1, cfg.n + 1)),
    ),
}

#: Aggregation modes: name -> the splitting wrappers a scenario's scheduler
#: is wrapped in.  The simulator always aggregates; a mode strips envelopes
#: and/or slot and vote vectors through the adversary's splitting
#: schedulers, so ``"plain"`` is the paper's per-message wire.  Read-only
#: so campaign cells keyed by mode name stay canonical.
AGGREGATION_MODES: MappingProxyType = MappingProxyType(
    {
        "plain": (EnvelopeSplittingScheduler, SlotSplittingScheduler),
        "coalesce": (SlotSplittingScheduler,),
        "svec": (EnvelopeSplittingScheduler,),
        "coalesce+svec": (),
    }
)


def aggregated_scheduler(scheduler: Scheduler, aggregation: str) -> Scheduler:
    """``scheduler`` wrapped in the splitting schedulers of ``aggregation``."""
    for wrapper in AGGREGATION_MODES[aggregation]:
        scheduler = wrapper(scheduler)
    return scheduler


#: Adversary registry: name -> factory(config) -> Adversary | None.
#: Seeded entries draw from ``derive_rng("experiment-adversary")`` so every
#: corruption replays from the scenario seed; ``t == 0`` configs get None
#: (nothing is corruptible) rather than an invalid adversary.
ADVERSARIES: dict[str, Callable[[SystemConfig], Adversary | None]] = {
    "none": lambda cfg: None,
    "crash-one": lambda cfg: crash_adversary([cfg.n]) if cfg.t else None,
    "silent-one": lambda cfg: silent_adversary([cfg.n]) if cfg.t else None,
    "random": lambda cfg: random_adversary(
        cfg, cfg.derive_rng("experiment-adversary")
    ),
    "adaptive-crash": lambda cfg: (
        AdaptiveAdversary(
            cfg, cfg.derive_rng("experiment-adversary"), kind="crash"
        )
        if cfg.t
        else None
    ),
    "adaptive-mutate": lambda cfg: (
        AdaptiveAdversary(
            cfg, cfg.derive_rng("experiment-adversary"), kind="mutator"
        )
        if cfg.t
        else None
    ),
    "slot-poison": lambda cfg: (
        slot_poison_adversary([cfg.n], cfg.derive_rng("experiment-adversary"))
        if cfg.t
        else None
    ),
    "crash-recover": lambda cfg: (
        crash_recovery_adversary([cfg.n]) if cfg.t else None
    ),
}

#: Input-pattern registry: name -> factory(config) -> list of bits.
INPUT_PATTERNS: dict[str, Callable[[SystemConfig], list[int]]] = {
    "split": lambda cfg: [i % 2 for i in range(cfg.n)],
    "ones": lambda cfg: [1] * cfg.n,
    "zeros": lambda cfg: [0] * cfg.n,
    "random": lambda cfg: [
        cfg.derive_rng("experiment-inputs").randrange(2) for _ in range(cfg.n)
    ],
}


@dataclass(frozen=True)
class Scenario:
    """One seeded agreement run, described entirely by plain data.

    ``batch > 1`` turns the scenario into a *batched* run:
    :func:`~repro.core.api.run_byzantine_agreement_batch` drives ``batch``
    concurrent instances (inputs per instance derived from the input
    pattern — rotated per instance, or independently seeded for
    ``"random"``) on one runtime with a shared round coin, and the record
    aggregates across instances.

    ``aggregation`` names one of :data:`AGGREGATION_MODES`: the default
    ``"coalesce+svec"`` runs the simulator's envelopes and slot/vote
    vectors, the others wrap the scheduler in the splitting schedulers
    that strip one or both layers; records carry the aggregation counters
    either way.
    """

    n: int
    seed: int
    scheduler: str = "uniform"
    adversary: str = "none"
    coin: object = ("ideal", 1.0)  # "svss" | "local" | ("ideal", p)
    inputs: str = "split"
    max_rounds: int = 200
    max_events: int = DEFAULT_MAX_EVENTS
    engine: str = ENGINE_FLAT
    trace_level: int = TRACE_COUNTS
    batch: int = 1
    share_coin: bool = True
    aggregation: str = "coalesce+svec"
    #: Install an :class:`~repro.sim.monitor.InvariantMonitor` on the run;
    #: any violation is caught and recorded on the RunRecord (a worker
    #: never tears down its pool on a violation).  ``round_bound`` arms the
    #: monitor's liveness watchdog.
    monitor: bool = False
    round_bound: int | None = None
    #: Vectorized algebra backend axis (``"pure"`` | ``"numpy"`` |
    #: ``"auto"``); ``None`` inherits the process default
    #: (``REPRO_ALGEBRA_BACKEND`` / auto-detect).  Results are
    #: backend-independent by contract; sweeps pin it to A/B wall-clock
    #: and the ``rows_vectorized`` counters.
    algebra_backend: str | None = None

    def validate(self) -> None:
        if self.batch < 1:
            raise ConfigurationError(
                f"batch must be >= 1, got {self.batch}"
            )
        if self.scheduler not in SCHEDULERS:
            raise ConfigurationError(
                f"unknown scheduler {self.scheduler!r}; "
                f"known: {sorted(SCHEDULERS)}"
            )
        if self.adversary not in ADVERSARIES:
            raise ConfigurationError(
                f"unknown adversary {self.adversary!r}; "
                f"known: {sorted(ADVERSARIES)}"
            )
        if self.inputs not in INPUT_PATTERNS:
            raise ConfigurationError(
                f"unknown input pattern {self.inputs!r}; "
                f"known: {sorted(INPUT_PATTERNS)}"
            )
        if self.aggregation not in AGGREGATION_MODES:
            raise ConfigurationError(
                f"unknown aggregation mode {self.aggregation!r}; "
                f"known: {list(AGGREGATION_MODES)}"
            )
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; known: {ENGINES}"
            )
        if self.algebra_backend not in (None, "pure", "numpy", "auto"):
            raise ConfigurationError(
                f"unknown algebra backend {self.algebra_backend!r}; "
                f"expected one of (None, 'pure', 'numpy', 'auto')"
            )


@dataclass(frozen=True)
class RunRecord:
    """Measured outcome of one scenario.

    For batched scenarios the outcome aggregates across instances:
    ``agreed``/``terminated`` require every instance to succeed,
    ``decision`` is the value only if all instances decided it, ``rounds``
    is the maximum, and ``decided_instances``/``decisions_per_wall_second``
    carry the batch throughput.
    """

    scenario: Scenario
    agreed: bool
    terminated: bool
    decision: int | None
    rounds: int
    sim_time: float
    events_dispatched: int
    messages_pushed: int
    total_messages: int
    predicate_evals: int
    shun_pairs: int
    wall_seconds: float
    decided_instances: int = 1
    #: Transport-aggregation counters, surfaced straight off the result
    #: dataclasses so sweeps report envelope/slot-vector ratios without
    #: reaching into the ``Runtime``.
    envelopes_pushed: int = 0
    payloads_coalesced: int = 0
    svec_packed: int = 0
    svec_slots: int = 0
    logical_messages: int = 0
    #: Batched-ingestion counters (see the same fields on the result
    #: dataclasses): vectors consumed whole, group verdicts that covered a
    #: whole vector, per-slot fallbacks, and total DMM verdict
    #: computations (the per-slot-handler-work metric).
    svec_batch_ingested: int = 0
    dmm_verdicts_batched: int = 0
    dmm_verdict_fallbacks: int = 0
    dmm_verdict_calls: int = 0
    #: Resolved algebra backend and its per-run counters (see
    #: ``docs/ALGEBRA.md``): rows served by vectorized kernels and
    #: vector-backend declines to the pure path.
    algebra_backend: str = "pure"
    rows_vectorized: int = 0
    backend_fallbacks: int = 0
    #: What actually corrupted whom: the adversary's picklable ``spec``
    #: tuple, read *after* the run (adaptive adversaries only fix their
    #: victims at strike time).  None when the factory returned no
    #: adversary for this config.
    adversary_spec: tuple | None = None
    #: Invariant-monitor outcome: ``monitored`` says a monitor watched the
    #: run; ``invariant_violation`` carries ``"[kind] message"`` when it
    #: fired (the run is then recorded as failed, never re-raised across
    #: the pool); the coin tallies come from the monitor's verdict.
    monitored: bool = False
    invariant_violation: str | None = None
    coin_agreed: int = 0
    coin_split: int = 0

    @property
    def decisions_per_wall_second(self) -> float:
        """Aggregate decision throughput of the run (the batching metric)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.decided_instances / self.wall_seconds

    @property
    def coalesce_ratio(self) -> float:
        """Logical messages per wire event (>= 1; 1.0 = no coalescing)."""
        if self.events_dispatched <= 0:
            return 1.0
        return self.logical_messages / self.events_dispatched

    @property
    def svec_ratio(self) -> float:
        """Per-slot messages folded per emitted slot-vector (0 = none)."""
        if self.svec_packed <= 0:
            return 0.0
        return self.svec_slots / self.svec_packed


def scenario_matrix(
    ns: Iterable[int],
    schedulers: Iterable[str] = ("uniform",),
    adversaries: Iterable[str] = ("none",),
    seeds: Iterable[int] = range(10),
    **overrides: object,
) -> list[Scenario]:
    """The full cross product ``n x scheduler x adversary x seed``.

    ``overrides`` set the remaining :class:`Scenario` fields (``coin``,
    ``inputs``, ``engine``, ...) uniformly across the matrix.
    """
    matrix = [
        Scenario(n=n, seed=seed, scheduler=s, adversary=a, **overrides)
        for n in ns
        for s in schedulers
        for a in adversaries
        for seed in seeds
    ]
    # Fail fast on registry typos, before any (possibly pooled) work
    # starts: validation is a handful of dict lookups per scenario.
    for scenario in matrix:
        scenario.validate()
    return matrix


def batch_inputs(scenario: Scenario, config: SystemConfig) -> list[list[int]]:
    """Independent per-instance inputs derived from the scenario pattern.

    Deterministic patterns are rotated one position per instance (so a
    ``"split"`` batch exercises every phase alignment); ``"random"`` draws
    a fresh seeded stream per instance.
    """
    rows = []
    for k in range(scenario.batch):
        if scenario.inputs == "random":
            rng = config.derive_rng("experiment-inputs", k)
            rows.append([rng.randrange(2) for _ in range(config.n)])
        else:
            base = INPUT_PATTERNS[scenario.inputs](config)
            shift = k % config.n
            rows.append(base[shift:] + base[:shift])
    return rows


def _monitor_fields(
    adversary: Adversary | None, monitor: InvariantMonitor | None
) -> dict[str, object]:
    """RunRecord fields shared by the success and violation paths."""
    fields: dict[str, object] = {
        "adversary_spec": (
            getattr(adversary, "spec", None) if adversary is not None else None
        ),
        "monitored": monitor is not None,
    }
    if monitor is not None:
        verdict = monitor.verdict()
        fields["coin_agreed"] = verdict["coin_agreed"]
        fields["coin_split"] = verdict["coin_split"]
    return fields


def run_scenario(scenario: Scenario) -> RunRecord:
    """Execute one scenario; the unit of work a pool worker runs."""
    scenario.validate()
    config = SystemConfig(n=scenario.n, seed=scenario.seed)
    adversary = ADVERSARIES[scenario.adversary](config)
    monitor = (
        InvariantMonitor(round_bound=scenario.round_bound)
        if scenario.monitor
        else None
    )
    scheduler = aggregated_scheduler(
        SCHEDULERS[scenario.scheduler](config), scenario.aggregation
    )
    start = time.perf_counter()
    try:
        if scenario.batch > 1:
            batch = run_byzantine_agreement_batch(
                batch_inputs(scenario, config),
                config,
                coin=scenario.coin,
                scheduler=scheduler,
                adversary=adversary,
                max_rounds=scenario.max_rounds,
                max_events=scenario.max_events,
                share_coin=scenario.share_coin,
                algebra_backend=scenario.algebra_backend,
                trace_level=scenario.trace_level,
                engine=scenario.engine,
                monitor=monitor,
            )
            wall = time.perf_counter() - start
            decisions = set(batch.decisions.values())
            return RunRecord(
                scenario=scenario,
                agreed=batch.agreed,
                terminated=batch.terminated,
                decision=(
                    next(iter(decisions)) if len(decisions) == 1 else None
                ),
                rounds=batch.max_rounds,
                sim_time=batch.sim_time,
                events_dispatched=batch.events_dispatched,
                messages_pushed=batch.messages_pushed,
                total_messages=batch.trace.total_messages,
                predicate_evals=batch.predicate_evals,
                shun_pairs=len(batch.trace.shun_pairs()),
                wall_seconds=wall,
                decided_instances=batch.decided_instances,
                envelopes_pushed=batch.envelopes_pushed,
                payloads_coalesced=batch.payloads_coalesced,
                svec_packed=batch.svec_packed,
                svec_slots=batch.svec_slots,
                logical_messages=batch.logical_messages,
                svec_batch_ingested=batch.svec_batch_ingested,
                dmm_verdicts_batched=batch.dmm_verdicts_batched,
                dmm_verdict_fallbacks=batch.dmm_verdict_fallbacks,
                dmm_verdict_calls=batch.dmm_verdict_calls,
                algebra_backend=batch.algebra_backend,
                rows_vectorized=batch.rows_vectorized,
                backend_fallbacks=batch.backend_fallbacks,
                **_monitor_fields(adversary, monitor),
            )
        result = run_byzantine_agreement(
            INPUT_PATTERNS[scenario.inputs](config),
            config,
            coin=scenario.coin,
            scheduler=scheduler,
            adversary=adversary,
            max_rounds=scenario.max_rounds,
            max_events=scenario.max_events,
            trace_level=scenario.trace_level,
            engine=scenario.engine,
            algebra_backend=scenario.algebra_backend,
            monitor=monitor,
        )
        wall = time.perf_counter() - start
        return RunRecord(
            scenario=scenario,
            agreed=result.agreed,
            terminated=result.terminated,
            decision=result.decision,
            rounds=result.max_rounds,
            sim_time=result.sim_time,
            events_dispatched=result.events_dispatched,
            messages_pushed=result.messages_pushed,
            total_messages=result.trace.total_messages,
            predicate_evals=result.predicate_evals,
            shun_pairs=len(result.trace.shun_pairs()),
            wall_seconds=wall,
            decided_instances=1 if result.agreed else 0,
            envelopes_pushed=result.envelopes_pushed,
            payloads_coalesced=result.payloads_coalesced,
            svec_packed=result.svec_packed,
            svec_slots=result.svec_slots,
            logical_messages=result.logical_messages,
            svec_batch_ingested=result.svec_batch_ingested,
            dmm_verdicts_batched=result.dmm_verdicts_batched,
            dmm_verdict_fallbacks=result.dmm_verdict_fallbacks,
            dmm_verdict_calls=result.dmm_verdict_calls,
            algebra_backend=result.algebra_backend,
            rows_vectorized=result.rows_vectorized,
            backend_fallbacks=result.backend_fallbacks,
            **_monitor_fields(adversary, monitor),
        )
    except InvariantViolation as violation:
        # A violation is a *finding*, not a crash: record it as a failed
        # run so the sweep (and its pool workers) carry on, and the
        # campaign layer can report every violating cell at once.
        wall = time.perf_counter() - start
        return RunRecord(
            scenario=scenario,
            agreed=False,
            terminated=False,
            decision=None,
            rounds=0,
            sim_time=0.0,
            events_dispatched=0,
            messages_pushed=0,
            total_messages=0,
            predicate_evals=0,
            shun_pairs=0,
            wall_seconds=wall,
            decided_instances=0,
            invariant_violation=str(violation),
            **_monitor_fields(adversary, monitor),
        )


def run_matrix(
    scenarios: Sequence[Scenario],
    workers: int | None = None,
    chunksize: int | None = None,
) -> "SweepResult":
    """Run a scenario matrix, fanned across ``workers`` processes.

    ``workers=None`` uses the machine's CPU count (capped by the matrix
    size); ``workers<=1`` runs inline, which is what CI smoke mode and the
    worker-equivalence test use.  Records come back in matrix order
    either way, so aggregates are independent of the worker count.
    """
    scenarios = list(scenarios)
    if workers is None:
        workers = min(os.cpu_count() or 1, len(scenarios))
    start = time.perf_counter()
    if workers <= 1 or len(scenarios) <= 1:
        workers = 1
        records = [run_scenario(s) for s in scenarios]
    else:
        if chunksize is None:
            chunksize = max(1, len(scenarios) // (workers * 4))
        with get_context().Pool(processes=workers) as pool:
            records = pool.map(run_scenario, scenarios, chunksize=chunksize)
    return SweepResult(
        records=records,
        workers=workers,
        wall_seconds=time.perf_counter() - start,
    )


def sweep_agreement(
    ns: Iterable[int],
    schedulers: Iterable[str] = ("uniform",),
    adversaries: Iterable[str] = ("none",),
    seeds: Iterable[int] = range(10),
    workers: int | None = None,
    **overrides: object,
) -> "SweepResult":
    """One-call sweep: build the matrix and run it."""
    return run_matrix(
        scenario_matrix(ns, schedulers, adversaries, seeds, **overrides),
        workers=workers,
    )


@dataclass
class SweepResult:
    """All records of one sweep plus aggregation helpers."""

    records: list[RunRecord]
    workers: int = 1
    wall_seconds: float = 0.0
    #: Dimensions the default table groups by.
    group_keys: tuple[str, ...] = field(default=("n", "scheduler", "adversary"))

    def __len__(self) -> int:
        return len(self.records)

    # -- aggregate measures --------------------------------------------------
    @property
    def agreement_rate(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.agreed for r in self.records) / len(self.records)

    def agreement_ci95(self) -> tuple[float, float]:
        return proportion_ci95(
            sum(r.agreed for r in self.records), len(self.records)
        )

    def summary(self, metric: str) -> Summary:
        """Mean/spread of one :class:`RunRecord` numeric field."""
        return summarize([float(getattr(r, metric)) for r in self.records])

    def group_by(self, *keys: str) -> dict[tuple, "SweepResult"]:
        """Split into sub-sweeps by :class:`Scenario` field values."""
        keys = keys or self.group_keys
        groups: dict[tuple, list[RunRecord]] = {}
        for record in self.records:
            key = tuple(getattr(record.scenario, k) for k in keys)
            groups.setdefault(key, []).append(record)
        try:
            # Natural order (numeric n before lexicographic schedulers);
            # falls back to string order for mixed-type key fields.
            ordered = sorted(groups.items(), key=lambda kv: kv[0])
        except TypeError:
            ordered = sorted(groups.items(), key=lambda kv: str(kv[0]))
        return {
            key: SweepResult(records=group, workers=self.workers)
            for key, group in ordered
        }

    def complexity_points(
        self, metric: str = "total_messages"
    ) -> list[tuple[float, float]]:
        """Per-``n`` means of ``metric`` — the input shape
        :func:`repro.analysis.complexity.fit_power_law` consumes."""
        return [
            (float(n), group.summary(metric).mean)
            for (n,), group in self.group_by("n").items()
        ]

    # -- presentation --------------------------------------------------------
    def table(self, *keys: str, title: str = "Experiment sweep") -> str:
        keys = keys or self.group_keys
        rows = []
        for key, group in self.group_by(*keys).items():
            low, high = group.agreement_ci95()
            rows.append(
                [
                    *key,
                    len(group),
                    f"{group.agreement_rate:.3f} [{low:.2f},{high:.2f}]",
                    f"{group.summary('rounds').mean:.2f}",
                    f"{group.summary('events_dispatched').mean:,.0f}",
                    f"{group.summary('total_messages').mean:,.0f}",
                    f"{group.summary('sim_time').mean:.1f}",
                ]
            )
        return render_table(
            title,
            [*keys, "runs", "agree rate [CI95]", "rounds", "events", "msgs", "sim t"],
            rows,
            note=(
                f"{len(self.records)} runs, {self.workers} worker(s), "
                f"{self.wall_seconds:.1f}s wall"
            ),
        )


__all__ = [
    "ADVERSARIES",
    "AGGREGATION_MODES",
    "INPUT_PATTERNS",
    "RunRecord",
    "SCHEDULERS",
    "Scenario",
    "SweepResult",
    "aggregated_scheduler",
    "batch_inputs",
    "run_matrix",
    "run_scenario",
    "scenario_matrix",
    "sweep_agreement",
]
