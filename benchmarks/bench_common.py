"""Shared measurement helpers for the experiment benchmarks.

Besides the JSON/timing utilities this hosts the stack/run setup shared by
the perf-trajectory benchmarks (``bench_engine.py`` / ``bench_batch.py`` /
``bench_coin.py``): one place defines the canonical "fast run" scenario
(unit-delay FIFO network, ``TRACE_OFF``) so every artifact measures the
same workload shape.
"""

from __future__ import annotations

import json
import pathlib
import platform
import time

from repro.adversary.controller import Adversary
from repro.config import SystemConfig
from repro.core.api import (
    flip_common_coin,
    run_byzantine_agreement,
    run_byzantine_agreement_batch,
    run_mwsvss,
    run_svss,
)
from repro.sim.experiments import aggregated_scheduler
from repro.sim.scheduler import FifoScheduler
from repro.sim.tracing import TRACE_OFF

#: Repo root — ``BENCH_*.json`` perf artifacts live here so the trajectory
#: of every optimisation PR is a committed, diffable file.
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def write_bench_json(name: str, payload: dict) -> pathlib.Path:
    """Persist a benchmark payload as ``BENCH_<name>.json`` at the repo root."""
    path = REPO_ROOT / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def logical_messages(result) -> int:
    """Logical protocol messages a run pushed onto the wire.

    The one metric every gate compares across transport modes: envelope
    framing is removed (an envelope counts as its payloads), while a
    ``("svec", ...)`` slot-vector counts as ONE logical message — semantic
    aggregation is exactly what shrinks this number.  Works at
    ``TRACE_OFF`` (computed from the always-on runtime counters) and on
    every result dataclass that carries them.
    """
    return result.logical_messages


def best_of(callable_, repeats: int = 5) -> float:
    """Minimum wall-clock seconds of ``repeats`` calls (noise-robust)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def bench_payload(scenario: dict, **sections) -> dict:
    """The canonical ``BENCH_*.json`` shape: python version + scenario
    stanza + one key per measured series."""
    return {"python": platform.python_version(), "scenario": scenario, **sections}


def rotated_split_inputs(n: int, k: int) -> list[list[int]]:
    """``k`` rows of rotated split inputs (every batch instance differs)."""
    return [[(i + shift) % 2 for i in range(n)] for shift in range(k)]


def fifo(aggregation: str):
    """The unit-delay FIFO network wrapped for one aggregation mode (see
    :data:`repro.sim.experiments.AGGREGATION_MODES`): ``"plain"`` is the
    paper's per-message wire, ``"coalesce+svec"`` the simulator's default."""
    return aggregated_scheduler(FifoScheduler(), aggregation)


def fast_agreement(
    n: int, seed: int, coin, engine: str = "flat", aggregation: str = "coalesce+svec", **kw
):
    """One canonical benchmark agreement run: split inputs, unit-delay FIFO
    network wrapped for ``aggregation``, ``TRACE_OFF``.  Asserts agreement
    and returns the result."""
    result = run_byzantine_agreement(
        [i % 2 for i in range(n)],
        SystemConfig(n=n, seed=seed),
        coin=coin,
        scheduler=fifo(aggregation),
        trace_level=TRACE_OFF,
        engine=engine,
        **kw,
    )
    assert result.agreed, f"n={n} coin={coin!r} engine={engine} failed to agree"
    return result


def fast_batch(k: int, n: int, seed: int, coin, aggregation: str = "coalesce+svec", **kw):
    """One canonical benchmark batch run (same scenario as
    :func:`fast_agreement`, ``k`` rotated-input instances)."""
    result = run_byzantine_agreement_batch(
        rotated_split_inputs(n, k),
        SystemConfig(n=n, seed=seed),
        coin=coin,
        scheduler=fifo(aggregation),
        trace_level=TRACE_OFF,
        **kw,
    )
    assert result.agreed, f"batch K={k} n={n} coin={coin!r} failed to agree"
    return result


def fast_coin_flip(
    n: int,
    seed: int,
    aggregation: str = "coalesce+svec",
    algebra_backend: str | None = None,
):
    """One canonical SVSS common-coin invocation (unit-delay FIFO wrapped
    for ``aggregation``, ``TRACE_OFF``); asserts every process output a
    bit."""
    result, stack = flip_common_coin(
        SystemConfig(n=n, seed=seed),
        scheduler=fifo(aggregation),
        trace_level=TRACE_OFF,
        algebra_backend=algebra_backend,
    )
    assert set(result.outputs) == set(stack.config.pids), (
        f"n={n} aggregation={aggregation}: not every process output a coin bit"
    )
    return result


def measure_agreement_rounds(
    n: int,
    coin,
    seeds: range,
    split: bool = True,
    max_rounds: int = 500,
    scheduler_factory=None,
):
    """Round counts for repeated agreement runs; returns (rounds, stuck)."""
    rounds = []
    stuck = 0
    for seed in seeds:
        cfg = SystemConfig(n=n, seed=seed)
        inputs = [(i % 2 if split else 1) for i in range(n)]
        coin_spec = coin(cfg) if callable(coin) else coin
        scheduler = scheduler_factory(cfg) if scheduler_factory else None
        result = run_byzantine_agreement(
            inputs,
            cfg,
            coin=coin_spec,
            max_rounds=max_rounds,
            scheduler=scheduler,
        )
        if result.terminated and result.agreed:
            rounds.append(result.max_rounds)
        else:
            stuck += 1
    return rounds, stuck


def measure_coin(n: int, seeds, adversary_factory=None):
    """Flip the full SVSS coin repeatedly; returns per-run outputs list."""
    runs = []
    for seed in seeds:
        cfg = SystemConfig(n=n, seed=seed)
        adversary = adversary_factory(cfg, seed) if adversary_factory else None
        result, stack = flip_common_coin(cfg, adversary=adversary)
        runs.append((result, stack))
    return runs


def mw_message_cost(n: int, seed: int = 0) -> tuple[int, int]:
    """(messages, bytes) of one fault-free MW-SVSS share+reconstruct."""
    cfg = SystemConfig(n=n, seed=seed)
    from repro.core.api import build_stack  # local import to keep API slim

    result, stack = run_mwsvss(cfg, dealer=1, moderator=2, secret=7)
    return result.trace.total_messages, result.trace.total_bytes


def svss_message_cost(n: int, seed: int = 0) -> int:
    cfg = SystemConfig(n=n, seed=seed)
    result, _ = run_svss(cfg, dealer=1, secret=7)
    return result.trace.total_messages
