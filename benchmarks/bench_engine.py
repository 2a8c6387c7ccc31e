"""Simulation-engine benchmark — emits ``BENCH_engine.json``.

Measures the dispatch-core overhaul end to end against the seed engine,
which is kept alive behind ``engine="legacy"`` (binary heap, per-event
``ProcessHost.deliver`` routing, per-event predicate polling):

1. **End-to-end events/sec**: full Byzantine agreement runs (ideal coin,
   unit-delay network, ``TRACE_OFF``) at ``n ∈ {4, 7, 10, 13}``, legacy vs
   flat.  Acceptance gate: ≥2× events/sec at ``n = 10``.
2. **Wait discipline**: ``run_until`` predicate evaluations per run — the
   legacy engine polls O(events), the flat engine re-evaluates only on
   notified state changes.
3. **Queue micro**: push+pop throughput of the binary heap vs the bucketed
   calendar queue under the unit-delay timestamp distribution (a handful
   of live timestamps shared by thousands of events).

The JSON artifact is committed at the repo root so the perf trajectory is
diffable across PRs, next to ``BENCH_algebra.json``.
"""

from __future__ import annotations

from bench_common import bench_payload, best_of, fast_agreement, write_bench_json
from repro.analysis.tables import render_table
from repro.sim.events import BucketQueue, EventQueue

NS = (4, 7, 10, 13)
SEED = 7
QUEUE_EVENTS = 200_000
QUEUE_FANOUT = 10  # events per (time, src) batch, mirroring send_all at n=10
QUEUE_BATCHES = 20  # concurrent fan-outs sharing one timestamp


def _one_agreement(n: int, engine: str):
    # The per-message wire (both splitting schedulers) keeps the engine
    # comparison on the event stream the committed counters measured.
    return fast_agreement(n, SEED, ("ideal", 1.0), engine=engine, aggregation="plain")


def _agreement_series() -> list[dict]:
    series = []
    for n in NS:
        row = {"n": n}
        for engine in ("legacy", "flat"):
            result = _one_agreement(n, engine)  # warm + capture counters
            # best-of-5 keeps the CI gate below robust against runner noise
            # (observed headroom is ~60% over the 2x threshold).
            seconds = best_of(lambda: _one_agreement(n, engine), repeats=5)
            row[engine] = {
                "seconds": seconds,
                "events_dispatched": result.events_dispatched,
                "messages_pushed": result.messages_pushed,
                "predicate_evals": result.predicate_evals,
                "events_per_sec": result.events_dispatched / seconds,
            }
        # Same seed, same scheduler: the engines must have dispatched the
        # same stream, or the speedup below compares different work.
        assert (
            row["legacy"]["events_dispatched"] == row["flat"]["events_dispatched"]
        ), row
        row["speedup"] = (
            row["flat"]["events_per_sec"] / row["legacy"]["events_per_sec"]
        )
        series.append(row)
    return series


def _queue_micro() -> dict:
    """Heap vs calendar queue on the unit-delay timestamp distribution."""

    per_step = QUEUE_FANOUT * QUEUE_BATCHES

    def drive(queue) -> None:
        # Steady state of a unit-delay agreement run: every process'
        # fan-outs of one step share a timestamp, so each "tick" pops a
        # couple hundred same-time events and pushes as many at now + 1.
        pushed = per_step
        for _ in range(QUEUE_BATCHES):
            queue.push_fanout(1.0, 1, ("m",), QUEUE_FANOUT)
        while pushed < QUEUE_EVENTS:
            now = queue.pop()[0]
            for _ in range(per_step - 1):
                queue.pop()
            for _ in range(QUEUE_BATCHES):
                queue.push_fanout(now + 1.0, 1, ("m",), QUEUE_FANOUT)
            pushed += per_step
        while queue:
            queue.pop()

    heap_s = best_of(lambda: drive(EventQueue()), repeats=3)
    bucket_s = best_of(lambda: drive(BucketQueue()), repeats=3)
    return {
        "events": QUEUE_EVENTS,
        "fanout": QUEUE_FANOUT,
        "batches_per_step": QUEUE_BATCHES,
        "heap_seconds": heap_s,
        "bucket_seconds": bucket_s,
        "heap_events_per_sec": QUEUE_EVENTS / heap_s,
        "bucket_events_per_sec": QUEUE_EVENTS / bucket_s,
        "speedup": heap_s / bucket_s,
    }


def test_bench_engine(emit):
    agreement = _agreement_series()
    queue = _queue_micro()
    payload = bench_payload(
        {
            "coin": "ideal(1.0)",
            "scheduler": "FifoScheduler",
            "trace_level": "TRACE_OFF",
            "seed": SEED,
        },
        agreement=agreement,
        queue_micro=queue,
    )
    path = write_bench_json("engine", payload)

    emit(
        render_table(
            "Engine overhaul: agreement events/sec, legacy vs flat dispatch",
            ["n", "events", "legacy ev/s", "flat ev/s", "speedup",
             "evals legacy", "evals flat"],
            [
                [
                    row["n"],
                    row["flat"]["events_dispatched"],
                    f"{row['legacy']['events_per_sec']:,.0f}",
                    f"{row['flat']['events_per_sec']:,.0f}",
                    f"{row['speedup']:.2f}x",
                    row["legacy"]["predicate_evals"],
                    row["flat"]["predicate_evals"],
                ]
                for row in agreement
            ],
            note=f"ideal coin, unit-delay network, TRACE_OFF; artifact: {path.name}",
        )
    )
    emit(
        render_table(
            "Queue micro: heap vs bucketed calendar queue",
            ["queue", "events/sec"],
            [
                ["binary heap", f"{queue['heap_events_per_sec']:,.0f}"],
                ["calendar buckets", f"{queue['bucket_events_per_sec']:,.0f}"],
                ["speedup", f"{queue['speedup']:.2f}x"],
            ],
        )
    )

    # Acceptance gates of this PR.
    n10 = next(row for row in agreement if row["n"] == 10)
    assert n10["speedup"] >= 2.0, n10
    for row in agreement:
        # Legacy polls the wait predicate at least once per event; the flat
        # engine's notification-driven waits are O(state changes).
        assert row["legacy"]["predicate_evals"] >= row["legacy"]["events_dispatched"]
        assert row["flat"]["predicate_evals"] <= row["flat"]["events_dispatched"] / 5
