#!/usr/bin/env python3
"""Experiment sweeps: thousand-run scenario matrices in one call.

The paper's guarantees are statistical, so checking them means running the
protocol many times under many adversarial conditions.  The harness in
``repro.sim.experiments`` fans a ``n x scheduler x adversary x seed``
matrix across worker processes and aggregates the results into the
statistics tables the analysis layer provides.

Engine knobs demonstrated here (see also ROADMAP.md "Performance"):

* ``engine="flat"`` (the default) — frozen flat routing table, bucketed
  calendar queue under fixed-delay schedulers, batched ``send_all``
  fan-outs, and notification-driven ``run_until`` waits.  2-4x the
  events/sec of the seed engine.
* ``engine="legacy"`` — the seed dispatch core (heap + per-event
  ``deliver`` + per-event predicate polling), kept for A/B determinism
  regressions: same seed => identical decisions and event counts.
* ``trace_level`` — ``TRACE_COUNTS`` (sweep default) keeps message
  counters; ``TRACE_OFF`` strips all per-message accounting for pure
  wall-clock work.
* ``aggregation`` — ``"coalesce+svec"`` (the default) runs the
  simulator's envelopes and session/vote vectors; ``"coalesce"``,
  ``"svec"`` and ``"plain"`` wrap the scenario's scheduler in the
  splitting schedulers that strip one or both layers (``"plain"`` is the
  paper's per-message wire).

Run:  python examples/experiment_sweep.py [workers]
"""

import sys
from dataclasses import replace

from repro.analysis.complexity import fit_power_law
from repro.sim.experiments import run_matrix, run_scenario, scenario_matrix


def main() -> None:
    workers = int(sys.argv[1]) if len(sys.argv) > 1 else None

    # 720 seeded agreement runs: 2 sizes x 3 network schedules x
    # 3 corruption patterns x 40 seeds, ideal coin (the large-n stand-in).
    matrix = scenario_matrix(
        ns=(4, 7),
        schedulers=("fifo", "uniform", "partition"),
        adversaries=("none", "silent-one", "crash-one"),
        seeds=range(40),
    )
    print(f"sweeping {len(matrix)} scenarios...")
    sweep = run_matrix(matrix, workers=workers)

    print()
    print(sweep.table())
    print()
    low, high = sweep.agreement_ci95()
    print(f"agreement rate : {sweep.agreement_rate:.4f}  CI95 [{low:.3f}, {high:.3f}]")
    fit = fit_power_law(sweep.complexity_points("total_messages"))
    print(f"message growth : ~ n^{fit.exponent:.2f} (R^2 {fit.r_squared:.3f})")

    # A/B the dispatch engines on one scenario: identical outcomes,
    # different cost model (the bench measures the speedup itself).
    base = matrix[0]
    flat = run_scenario(base)
    legacy = run_scenario(replace(base, engine="legacy"))
    assert (flat.decision, flat.events_dispatched) == (
        legacy.decision,
        legacy.events_dispatched,
    )
    print(
        f"engine A/B     : flat re-evaluated its wait predicate "
        f"{flat.predicate_evals}x vs legacy {legacy.predicate_evals}x "
        f"over {flat.events_dispatched} events"
    )

    # The per-message wire decides identically under FIFO.
    plain = run_scenario(replace(base, aggregation="plain"))
    assert plain.decision == flat.decision
    print(
        f"aggregation A/B: {plain.events_dispatched} plain vs "
        f"{flat.events_dispatched} aggregated events"
    )


if __name__ == "__main__":
    main()
