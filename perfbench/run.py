#!/usr/bin/env python3
"""The repository benchmark: one closed-loop agreement workload per run.

Usage, from the repository root::

    python3 perfbench/run.py --workload coin_lockstep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; the
wall-clock ones are scaled to a reference host speed (see
``REFERENCE_KERNEL_S``).
``--trace 1`` measures half the time untraced, then replays the same
decisions with the span tracer installed (``tracer.py``) and reports the
per-layer metrics, after checking that the traced counts equal the
program's own counters and that tracing changed no decision.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every run also
writes a record (host fingerprint, resolved configuration, metrics,
checks) to ``perfbench/out/``; ``compare.py`` compares two sets of them.
The exit code is non-zero when any correctness check failed.
"""

from __future__ import annotations

import time


def host_kernel() -> float:
    """Wall time of one pass of a fixed pure-Python kernel (the host-speed
    probe: tuple hashing, dict updates, a sort)."""
    began = time.perf_counter()
    table: dict = {}
    total = 0
    for i in range(20000):
        key = (i & 1023, i >> 10)
        table[key] = table.get(key, 0) + i
        total += len(key)
    total += sorted(table.values())[-1]
    return time.perf_counter() - began


#: The host kernel's time before the imports: with the first set-up probe
#: it brackets the imports.
IMPORT_PROBE = host_kernel()
STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: ``decisions_per_s`` is the median throughput of this many equal windows
#: of consecutive decisions: on a shared host the CPU slows down in bursts
#: of a second or two, and the median keeps a burst out of the figure.
RATE_WINDOWS = 9
#: ... of at least this many decisions each (the slow workloads make only
#: ~15 decisions a run).
MIN_WINDOW = 3

#: ``peak_rss_mb`` is the peak through set-up and this many decisions (or
#: the whole run, if shorter).  ``NetCluster`` keeps every finished
#: instance, so its memory grows with the decision count; a fixed count
#: keeps a faster program from being charged for fitting more decisions
#: into the run.
RSS_DECISIONS = 200

#: Host speed.  The CPU speed one process gets on a shared host drifts by
#: up to 2x, in stretches of seconds to minutes (other tenants): identical
#: ``coin_lockstep`` decisions took 0.28 s in one stretch and 0.53 s in
#: another.  A fixed pure-Python kernel slows down in step (5.6 ms and
#: 10.9 ms in those stretches: the ratio moved 2%), so the run times it
#: before its imports, before every set-up and decision, and after the
#: last of each, and scales the imports' and each set-up's and decision's
#: times by the mean of the two probes that bracket them, against
#: ``REFERENCE_KERNEL_S``, the quiet-stretch figure of the 2-core Xeon
#: this benchmark was written on.  That follows slow seconds inside a run.
#: The raw figures are in the run record.
REFERENCE_KERNEL_S = 0.0056

#: ``decision_tail_s`` is meant to leave at least this many decisions
#: beyond its percentile; a run that leaves fewer prints a warning.
MIN_TAIL_BEYOND = 10

#: Workloads, metric names and units, from ``BENCHMARK.json``: the
#: end-to-end metrics are reported with ``--trace 0``, the per-layer ones
#: with ``--trace 1``.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: Layers each workload is predicted never to call: a call seen there in
#: the traced run fails its correctness check.
BYPASSED = {
    "coin_lockstep": ("codec", "journal"),
    "coin_async_liar": ("codec", "journal"),
    "vote_sweep": (
        "vectormux", "manager", "mwsvss", "svss", "dmm", "coin", "algebra",
        "codec", "journal",
    ),
    "net_votes": ("vectormux", "manager", "mwsvss", "svss", "dmm", "coin", "algebra"),
}


def fingerprint() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_implementation() + " " + platform.python_version(),
        "numpy": numpy_version,
    }


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def slowdowns(probes: list[float]) -> list[float]:
    """How much slower than the reference host the host ran between each
    two consecutive probes: their mean kernel time over
    ``REFERENCE_KERNEL_S``."""
    return [(a + b) / 2 / REFERENCE_KERNEL_S for a, b in zip(probes, probes[1:])]


def measure(
    workload, seed: int, seconds: float, tracer=None, probes=None
) -> tuple[list, float]:
    """Closed loop: issue decision 0, 1, 2, ... one at a time until
    ``seconds`` have passed (at least one).  Returns ``[(latency_s,
    Outcome, began, ended, peak_rss_mb_so_far)]`` and the elapsed wall
    time.  With ``probes``, the host kernel is timed before every decision
    and after the last one, and its times are appended there."""
    from workloads import Outcome

    results = []
    start = time.perf_counter()
    deadline = start + seconds
    index = 0
    while True:
        if probes is not None:
            probes.append(host_kernel())
        spec = workload.spec(seed, index)
        if tracer is not None:
            tracer.begin_decision(index)
        began = time.perf_counter()
        try:
            outcome = workload.decide(spec)
        except Exception as exc:  # a crashed decision is a failed one
            outcome = Outcome(ok=False, reason=f"{type(exc).__name__}: {exc}")
        finally:
            # The decision's cyclic garbage is collected inside its own
            # timed interval, so collector pauses are charged to the
            # decision that caused them instead of landing on a random later
            # one.  What survives is frozen, so the next collection scans
            # only the next decision's objects and not the state the program
            # keeps (the socket cluster keeps every finished instance).
            gc.collect()
            gc.freeze()
            if tracer is not None:
                tracer.end_decision()
        ended = time.perf_counter()
        latency = (outcome.decided_at or ended) - began
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        results.append((latency, outcome, began, ended, rss_mb))
        index += 1
        if ended >= deadline:
            if probes is not None:
                probes.append(host_kernel())
            return results, ended - start


def set_up(workload) -> tuple[list[float], list[float]]:
    """Open the workload and run one untimed warm-up decision, from cold
    algebra caches, ``SETUP_REPEATS`` times.  Returns the wall time of
    each and the host kernel's times before the first and after each."""
    from repro.poly import fastpath
    from workloads import WARMUP_SEED

    times = []
    probes = [host_kernel()]
    for repeat in range(SETUP_REPEATS):
        began = time.perf_counter()
        if repeat:
            workload.close()
        fastpath.clear_caches()
        workload.open()
        outcome = workload.decide(workload.spec(WARMUP_SEED, 0))
        gc.collect()
        times.append(time.perf_counter() - began)
        probes.append(host_kernel())
        if not outcome.ok:
            raise RuntimeError(f"warm-up decision failed: {outcome.reason}")
    gc.freeze()
    return times, probes


def windowed_rate(call_times: list[float]) -> float:
    """Median decisions per second over ``RATE_WINDOWS`` equal windows of
    at least ``MIN_WINDOW`` consecutive decisions (a trailing partial
    window is left out).  A window's time is the sum of its decisions'
    call times, which leaves out the host-kernel probes between them."""
    count = len(call_times)
    size = min(count, max(MIN_WINDOW, count // RATE_WINDOWS))
    return statistics.median(
        size / sum(call_times[first : first + size])
        for first in range(0, count - size + 1, size)
    )


def end_to_end(
    workload, results, probes, setups, setup_probes, import_s
) -> tuple[dict, dict]:
    outcomes = [r[1] for r in results]
    counted = outcomes[: workload.count_decisions]
    ok = sum(outcome.ok for outcome in outcomes)
    # Each decision's, set-up's and the imports' times at the reference
    # host speed.
    run_slowdowns = slowdowns(probes)
    latencies = [r[0] / f for r, f in zip(results, run_slowdowns)]
    call_times = [(r[3] - r[2]) / f for r, f in zip(results, run_slowdowns)]
    tail, beyond = percentile(latencies, workload.tail_pct)
    import_slowdown, *setup_slowdowns = slowdowns([IMPORT_PROBE] + setup_probes)
    setup_s = import_s / import_slowdown + statistics.median(
        t / f for t, f in zip(setups, setup_slowdowns)
    )
    raw_latencies = [r[0] for r in results]
    raw = {
        "decisions_per_s": windowed_rate([r[3] - r[2] for r in results]),
        "decision_p50_s": statistics.median(raw_latencies),
        "decision_tail_s": percentile(raw_latencies, workload.tail_pct)[0],
        "setup_s": import_s + statistics.median(setups),
    }
    return {
        "decisions_per_s": windowed_rate(call_times),
        "decision_p50_s": statistics.median(latencies),
        "decision_tail_s": tail,
        "setup_s": setup_s,
        "peak_rss_mb": results[min(RSS_DECISIONS, len(results)) - 1][4],
        "correct_frac": ok / len(outcomes),
        "msgs_per_decision": statistics.fmean(o.msgs for o in counted),
        "rounds_per_decision": statistics.fmean(o.rounds for o in counted),
    }, {
        "raw_wall_clock": raw,
        "host_slowdown_median": statistics.median(run_slowdowns),
        "host_slowdown_range": [min(run_slowdowns), max(run_slowdowns)],
        "import_host_slowdown": import_slowdown,
        "setup_host_slowdowns": setup_slowdowns,
        "tail_pct": workload.tail_pct,
        "tail_samples_beyond": beyond,
        "latencies_s": [round(latency, 5) for latency in latencies],
        "rounds": [o.rounds for o in outcomes],
    }


def bypassed_calls(name: str, calls: dict[str, int]) -> dict[str, int]:
    """The layers ``name`` is predicted never to call that were called,
    with their call counts."""
    return {key: calls[key] for key in BYPASSED[name] if calls.get(key)}


def traced_phase(name, workload, seed, seconds, untraced, untraced_elapsed):
    """Replay the untraced run's decisions with the tracer installed;
    returns ``(per-layer metrics, problems, notes)``."""
    import asyncio

    from repro.poly import fastpath
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    sampler = None
    backlog = [0]
    try:
        workload.restart()
        tracer.clear()
        net = name == "net_votes"
        if net:
            before = workload.net_counters()

            async def sample_backlog():
                while True:
                    backlog[0] = max(backlog[0], workload.backlog())
                    await asyncio.sleep(0.001)

            sampler = workload.loop.create_task(sample_backlog())
        cache_before = fastpath._cached_basis.cache_info()
        cpu_before = time.process_time()
        traced, elapsed = measure(workload, seed, seconds, tracer=tracer)
        cpu_s = time.process_time() - cpu_before
        cache_after = fastpath._cached_basis.cache_info()
        tracer.stop()
        if net:
            after = workload.net_counters()
            net_delta = {key: after[key] - before[key] for key in after}
    finally:
        if sampler is not None:
            sampler.cancel()
            try:
                workload.loop.run_until_complete(sampler)
            except asyncio.CancelledError:
                pass
        tracer.uninstall()

    problems = []
    outcomes = [r[1] for r in traced]
    decisions = len(outcomes)
    if not all(o.ok for o in outcomes):
        problems.append("a traced decision failed")
    if not net:
        for i, (plain, seen) in enumerate(zip((r[1] for r in untraced), outcomes)):
            if plain.signature != seen.signature:
                problems.append(f"tracing changed decision {i}: {plain} vs {seen}")
                break

    layers = tracer.layer_totals()
    calls = tracer.calls_by_name()

    def layer(key):
        return layers.get(key, {"calls": 0, "total_ns": 0, "self_ns": 0})

    def per_decision(value):
        return value / decisions

    def ratio(num, den):
        return num / den if den else 0.0

    sums = {}
    for outcome in outcomes:
        for key, value in outcome.counters.items():
            if isinstance(value, int):
                sums[key] = sums.get(key, 0) + value
    dmm_calls = calls["dmm.filter_verdict"] + calls["dmm.filter_verdict_group"]
    counts = tracer.counts

    # Traced counts must equal the program's own counters.
    if net:
        dispatches = tracer.top_level_dispatches({"decision", "-1"})
        expected = {
            "events_dispatched": (dispatches, net_delta["events_dispatched"]),
            "journal.appended": (calls["journal.append"], net_delta["journal_appended"]),
            "journal.fsyncs": (calls["journal.fsync"], net_delta["journal_fsyncs"]),
        }
    else:
        dispatches = tracer.top_level_dispatches({"sim.run"})
        expected = {
            "events_dispatched": (dispatches, sums["events_dispatched"]),
            "dmm_verdict_calls": (dmm_calls, sums["dmm_verdict_calls"]),
            "svec_packed": (counts["svec_packed"], sums["svec_packed"]),
            "svec_slots": (counts["svec_slots"], sums["svec_slots"]),
            "rows_vectorized": (counts["rows_vectorized"], sums["rows_vectorized"]),
        }
    for key, (seen, program) in expected.items():
        if seen != program:
            problems.append(f"traced {key} = {seen} but the program counted {program}")

    root_self = layer("root")["self_ns"] / 1e9
    untraced_rate = len(untraced) / untraced_elapsed
    traced_rate = decisions / elapsed
    hits = cache_after.hits - cache_before.hits
    misses = cache_after.misses - cache_before.misses
    metrics = {
        "sim.events": per_decision(dispatches),
        "sim.self_s": per_decision(layer("sim")["self_ns"] / 1e9),
        "sim.payloads_per_envelope": ratio(
            sums.get("payloads_coalesced", 0), sums.get("envelopes_pushed", 0)
        ),
        "api.self_s": 0.0 if net else per_decision(root_self),
        "vectormux.slots_per_vector": ratio(
            sums.get("svec_slots", 0), sums.get("svec_packed", 0)
        ),
        "manager.vectors_batched": per_decision(sums.get("svec_batch_ingested", 0)),
        "dmm.verdict_calls": per_decision(dmm_calls),
        "dmm.group_hit_ratio": ratio(
            sums.get("dmm_verdicts_batched", 0),
            sums.get("dmm_verdicts_batched", 0) + sums.get("dmm_verdict_fallbacks", 0),
        ),
        "dmm.shunned_per_decision": per_decision(sum(o.shun_pairs for o in outcomes)),
        "algebra.vectorized_share": ratio(counts["backend_served"], counts["backend_calls"]),
        "algebra.basis_cache_hit_ratio": ratio(hits, hits + misses),
        "codec.bytes_per_decision": per_decision(counts["codec_bytes"]),
        "journal.appends": per_decision(calls["journal.append"]),
        "journal.fsyncs": per_decision(calls["journal.fsync"]),
        "transport.loop_s": per_decision(root_self) if net else 0.0,
        "transport.retransmits": per_decision(net_delta["retransmits"]) if net else 0.0,
        "transport.backlog_max": float(backlog[0]),
        "transport.cpu_util": ratio(cpu_s, elapsed) if net else 0.0,
        "trace.overhead_ratio": ratio(traced_rate, untraced_rate),
    }
    for key in ("broadcast", "vectormux", "manager", "mwsvss", "svss", "dmm",
                "coin", "agreement", "algebra", "codec", "journal"):
        metrics.setdefault(f"{key}.calls", per_decision(layer(key)["calls"]))
        metrics.setdefault(f"{key}.self_s", per_decision(layer(key)["self_ns"] / 1e9))

    bypass_seen = bypassed_calls(name, {key: value["calls"] for key, value in layers.items()})
    problems += [
        f"layer {key} is predicted to be bypassed but was called {seen} times"
        for key, seen in bypass_seen.items()
    ]
    wall_ns = layer("root")["total_ns"]
    root_layer = "transport" if net else "api"
    shares = {
        (root_layer if key == "root" else key): round(value["self_ns"] / wall_ns, 4)
        for key, value in sorted(layers.items(), key=lambda kv: -kv[1]["self_ns"])
    }
    notes = {
        "traced_decisions": decisions,
        "untraced_decisions": len(untraced),
        "spans": tracer.limit,
        "cross_checks": {key: list(pair) for key, pair in expected.items()},
        "predicted_bypassed": list(BYPASSED[name]),
        "bypassed_layers_called": bypass_seen,
        "self_time_share": shares,
        "calls_by_span": dict(sorted(calls.items())),
    }
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.dump(OUT / f"spans-{name}.tsv.gz")
    return {key: metrics[key] for key in PER_LAYER}, problems, notes


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    import_s = time.perf_counter() - STARTED
    workload = workloads.make_workloads(OUT / "work")[args.workload]()
    warnings: list[str] = []
    try:
        setups, setup_probes = set_up(workload)
        if args.trace:
            half = args.seconds / 2
            untraced, untraced_elapsed = measure(workload, args.seed, half)
            metrics, problems, notes = traced_phase(
                args.workload, workload, args.seed, half, untraced, untraced_elapsed
            )
            results = untraced
            units = PER_LAYER
        else:
            probes: list[float] = []
            results, _ = measure(workload, args.seed, args.seconds, probes=probes)
            measured, notes = end_to_end(
                workload, results, probes, setups, setup_probes, import_s
            )
            metrics = {key: measured[key] for key in END_TO_END}
            problems = []
            units = END_TO_END
            if notes["tail_samples_beyond"] < MIN_TAIL_BEYOND:
                warnings.append(
                    f"decision_tail_s is p{workload.tail_pct} with only "
                    f"{notes['tail_samples_beyond']} decisions beyond it "
                    f"(fewer than {MIN_TAIL_BEYOND}): the run made too few decisions"
                )
    finally:
        workload.shutdown()

    outcomes = [r[1] for r in results]
    failed = [o for o in outcomes if not o.ok]
    problems += [f"decision failed: {o.reason}" for o in failed[:5]]
    correct = not failed and not problems
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint(),
        "config": dict(
            workload.describe(),
            algebra_backend=_algebra_backend(),
        ),
        "correct": correct,
        "problems": problems,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
        "warnings": warnings,
        "notes": dict(notes, import_s=import_s, setups_s=setups),
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"# {args.workload} seed={args.seed} fingerprint={record['fingerprint']}")
    print(f"# config={record['config']}")
    for key, value in metrics.items():
        print(f"#   {key:32s} {value:14.6g} {units[key]}")
    for warning in warnings:
        print(f"# WARNING: {warning}")
    for problem in problems:
        print(f"# CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {
            key: {"value": value, "unit": units[key]} for key, value in metrics.items()
        },
    }))
    return 0 if correct else 1


def _algebra_backend() -> str:
    from repro.field import backend

    return backend.active_backend().name


def run_all(args) -> int:
    """Every workload, each in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    if not merged["correct"]:
        status = status or 1
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC}/repro", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
