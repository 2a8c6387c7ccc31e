#!/usr/bin/env python3
"""Coin at scale: flip the SVSS shunning common coin at n = 10.

One common-coin invocation runs n² = 100 concurrent per-slot SVSS
sharings (each fanning out MW-SVSS sub-sessions), whose uncoalesced
per-session traffic is ~105M logical messages at n = 10 — past the
simulator's 50M-event livelock guard, i.e. unrunnable before semantic
aggregation.  The simulator always aggregates: with session-vector
messages (one ``("svec", ...)`` message per (step, dealer-group) instead
of n per-session messages) plus wire coalescing (one envelope per
(src, dst) pair per step) the same invocation is ~10.5M logical messages
on ~850k events and completes in minutes, with bit-identical coin
outputs.  (``SlotSplittingScheduler`` / ``EnvelopeSplittingScheduler``
from ``repro.adversary`` restore the per-session / per-message wire.)

Batched ingestion then attacks the receive side: each slot-vector is
admitted through one group-level DMM verdict probe instead of n per-slot
calls, and its sibling-session transitions run as structure-of-arrays
rows — same outputs, a fraction of the per-slot handler work.

The algebra underneath all of it runs on the swappable vectorized
backend (``REPRO_ALGEBRA_BACKEND`` ∈ pure/numpy/auto, or the second
argument below): with numpy importable, the row-shaped interpolation /
evaluation batches go through int64 modular kernels — bit-identical
outputs, counted by ``rows_vectorized`` / ``backend_fallbacks``.

Run:  python examples/coin_at_scale.py [n] [backend]   (default n = 10,
      backend = auto)
"""

import sys
import time

from repro import SystemConfig
from repro.core.api import flip_common_coin
from repro.sim.scheduler import FifoScheduler
from repro.sim.tracing import TRACE_OFF


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    backend = sys.argv[2] if len(sys.argv) > 2 else None
    config = SystemConfig(n=n, seed=7)
    print(f"flipping the SVSS common coin: n={n}, t={config.t}, "
          "svec+coalesce")
    print("(uncoalesced per-session baseline at n=10: ~105M logical "
          "messages, > the 50M-event guard)")

    start = time.perf_counter()
    result, stack = flip_common_coin(
        config,
        scheduler=FifoScheduler(),
        trace_level=TRACE_OFF,
        algebra_backend=backend,
    )
    wall = time.perf_counter() - start

    bits = sorted(set(result.outputs.values()))
    print()
    print(f"coin output        : {bits} at all {len(result.outputs)} processes"
          f" ({'unanimous' if len(bits) == 1 else 'split'})")
    print(f"wall-clock         : {wall:.1f}s")
    print(f"events dispatched  : {result.events_dispatched:,}")
    print(f"logical messages   : {result.logical_messages:,}")
    print(f"  slot-vectors     : {result.svec_packed:,} "
          f"(folding {result.svec_slots:,} per-session messages, "
          f"~{result.svec_slots / max(1, result.svec_packed):.1f} slots each)")
    print(f"  envelopes        : {result.envelopes_pushed:,} "
          f"(carrying {result.payloads_coalesced:,} logical messages)")
    print(f"batched ingestion  : {result.svec_batch_ingested:,} vectors "
          f"group-admitted ({result.dmm_verdicts_batched:,} slot verdicts "
          f"batched, {result.dmm_verdict_fallbacks:,} per-slot fallbacks)")
    print(f"DMM verdict calls  : {result.dmm_verdict_calls:,}")
    print(f"algebra backend    : {result.algebra_backend} "
          f"({result.rows_vectorized:,} rows vectorized, "
          f"{result.backend_fallbacks:,} pure-path fallbacks)")
    print(f"logical msgs/event : {result.logical_messages / result.events_dispatched:.1f}")
    print(f"throughput         : {result.logical_messages / wall:,.0f} "
          "logical messages/s")


if __name__ == "__main__":
    main()
