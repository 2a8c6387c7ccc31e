"""Session-vector aggregation: packing, determinism, adversary contract.

The simulator always packs session vectors; the per-session wire is the
run under :class:`SlotSplittingScheduler`.  The load-bearing property is
that slot-vector aggregation is a pure *logical-message-count*
optimization: under fixed-delay schedulers one SVSS-coin invocation
produces bit-identical coin outputs and per-session justifiers (attach
sets, accepted sets, eval sets, party values) to the slot-split run, per
seed, on both engines — while dispatching ~n× fewer logical messages.
The adversarial tests pin the extended coalescing contract: corrupt
senders emit per-session messages (mutators and crash budgets act on
logical *slot* messages), a slot-level fault never poisons its vector
siblings, a receiver crash mid-vector drops the remaining slots, and the
splitting schedulers replay the recorded per-session run bit for bit.
"""

from __future__ import annotations

import pytest

from repro.adversary.behaviors import ByzantineBehavior, MutatingBehavior
from repro.adversary.controller import Adversary
from repro.adversary.schedulers import (
    EnvelopeSplittingScheduler,
    SlotSplittingScheduler,
)
from repro.config import SystemConfig
from repro.core.api import flip_common_coin, run_byzantine_agreement
from repro.core.sessions import svec_sid, svec_split
from repro.core.vectormux import SVEC_TAG
from repro.errors import SimulationError
from repro.sim.scheduler import FifoScheduler
from repro.sim.tracing import TRACE_COUNTS

#: Coin-session justifier state compared across transport modes.
JUSTIFIERS = (
    "t_hat",
    "acc_sets",
    "accepted",
    "supported",
    "eval_set",
    "batch_done",
    "party_values",
    "output",
)


def flip(n, seed, engine="flat", quiesce=True, **kw):
    result, stack = flip_common_coin(
        SystemConfig(n=n, seed=seed),
        scheduler=kw.pop("scheduler", FifoScheduler()),
        engine=engine,
        **kw,
    )
    if quiesce:
        # Justifier comparisons need both runs at the same (final) point;
        # a predicate-stopped run may truncate mid-step.
        stack.runtime.run_to_quiescence()
    return result, stack


def coin_justifiers(stack):
    state = {}
    for pid in stack.config.pids:
        coin = stack.runtime.host(pid).module("coin")
        for csid, session in coin.sessions.items():
            state[(pid, csid)] = {
                name: getattr(session, name) for name in JUSTIFIERS
            }
    return state


def slot_split():
    return SlotSplittingScheduler(FifoScheduler())


class TestBitIdenticalCoin:
    """The acceptance property: the default run vs the slot-split run,
    flat and legacy, per seed."""

    @pytest.mark.parametrize("engine", ["flat", "legacy"])
    @pytest.mark.parametrize("seed", range(3))
    def test_coin_outputs_and_justifiers_identical(self, engine, seed):
        off, stack_off = flip(4, seed, engine=engine, scheduler=slot_split())
        on, stack_on = flip(4, seed, engine=engine)
        assert on.outputs == off.outputs
        assert coin_justifiers(stack_on) == coin_justifiers(stack_off)
        # The aggregation must actually bite: ~n× fewer logical messages.
        assert on.svec_packed > 0
        assert on.svec_slots >= 2 * on.svec_packed
        assert off.logical_messages >= 3 * on.logical_messages

    def test_composes_with_coalescing(self):
        """svec packs logical messages, coalesce packs wire events; together
        the vectors still ride envelopes."""
        base, _ = flip(
            4, 7, scheduler=EnvelopeSplittingScheduler(slot_split())
        )
        svec_only, _ = flip(
            4, 7, scheduler=EnvelopeSplittingScheduler(FifoScheduler())
        )
        both, stack = flip(4, 7)
        assert both.outputs == base.outputs == svec_only.outputs
        assert both.logical_messages == svec_only.logical_messages
        assert both.envelopes_pushed > 0
        assert both.events_dispatched < svec_only.events_dispatched
        assert both.svec_packed == svec_only.svec_packed

    def test_flat_matches_legacy_golden_svec_coalesced(self):
        """Both engines form the identical aggregated+coalesced wire
        stream — including the end-of-step ordering that lets slot-vectors
        join their step's envelopes (step() vs the flat hot loop)."""

        def golden(engine):
            result, _ = flip(4, 5, engine=engine, quiesce=False)
            return (
                dict(result.outputs),
                result.events_dispatched,
                result.messages_pushed,
                result.envelopes_pushed,
                result.payloads_coalesced,
                result.svec_packed,
                result.svec_slots,
            )

        flat, legacy = golden("flat"), golden("legacy")
        assert flat == legacy
        assert flat[3] > 0  # vectors actually rode envelopes

    def test_replay_deterministic(self):
        a, _ = flip(4, 3, quiesce=False)
        b, _ = flip(4, 3, quiesce=False)
        assert a.outputs == b.outputs
        assert a.events_dispatched == b.events_dispatched
        assert a.svec_packed == b.svec_packed
        assert a.svec_slots == b.svec_slots
        assert a.sim_time == b.sim_time

    @pytest.mark.parametrize("engine", ["flat", "legacy"])
    def test_agreement_decisions_identical(self, engine):
        """The full agreement stack over the SVSS coin: per-seed A/B."""

        def run(scheduler):
            return run_byzantine_agreement(
                [i % 2 for i in range(4)],
                SystemConfig(n=4, seed=7),
                coin="svss",
                scheduler=scheduler,
                engine=engine,
            )

        off, on = run(slot_split()), run(FifoScheduler())
        assert off.agreed and on.agreed
        assert on.decisions == off.decisions
        assert on.rounds == off.rounds
        assert on.svec_packed > 0
        assert on.logical_messages < off.logical_messages

    def test_batched_agreement_decisions_identical(self):
        """K concurrent instances sharing one coin per round: the gate's
        shared sessions aggregate too, per-instance decisions unchanged."""
        from repro.core.api import run_byzantine_agreement_batch

        rows = [[(i + s) % 2 for i in range(4)] for s in range(3)]

        def run(scheduler):
            return run_byzantine_agreement_batch(
                rows,
                SystemConfig(n=4, seed=3),
                coin="svss",
                scheduler=scheduler,
            )

        off = run(EnvelopeSplittingScheduler(slot_split()))
        on = run(FifoScheduler())
        assert off.agreed and on.agreed
        for iid in off.instance_ids:
            assert on.results[iid].decisions == off.results[iid].decisions, iid
        assert on.svec_packed > 0
        assert on.logical_messages < off.logical_messages


class TestSlotVectorUnpack:
    """Receiver-side slot-vector semantics, driven directly on the mux.

    Every vector is consumed by ``VSSManager.ingest_vector``; these spy
    tests shadow the per-slot instances' ``handle`` to observe what each
    slot's session receives, on an SVSS group here and on an MW-SVSS
    group in ``tests/test_batch_ingest.py``.
    """

    GROUP = ("s", ("cc", "solo", 0), 2)

    def make_manager(self, scheduler=None):
        from repro.core.api import build_stack

        stack = build_stack(
            SystemConfig(n=4, seed=0),
            scheduler=scheduler if scheduler is not None else FifoScheduler(),
        )
        return stack, stack.vss[1]

    def spy_slots(self, manager, slots, crash_after=None):
        """Shadow the slot sessions' ``handle``; every call lands in one
        list as ``(slot, src, kind, body)``."""
        calls = []
        for slot in slots:
            sid = svec_sid(self.GROUP, slot)
            manager._ensure(sid)
            inst = manager.mw.get(sid) or manager.svss[sid]

            def spy(src, kind, body, *rest, slot=slot):
                calls.append((slot, src, kind, body))
                if crash_after is not None and len(calls) == crash_after:
                    manager.host.crashed = True

            inst.handle = spy  # instance attribute shadows the method
        return calls

    def test_unpack_feeds_per_slot_sessions(self):
        _, mgr = self.make_manager()
        calls = self.spy_slots(mgr, (1, 2))
        group = self.GROUP
        mgr.mux.on_private(2, (SVEC_TAG, "cnf", group, ((1, 5), (2, 6))))
        assert calls == [(1, 2, "cnf", 5), (2, 2, "cnf", 6)]

    def test_malformed_slots_degrade_independently(self):
        """A bad entry never poisons its vector siblings."""
        _, mgr = self.make_manager()
        calls = self.spy_slots(mgr, (1, 2, 3))
        group = self.GROUP
        mgr.mux.on_private(
            2,
            (
                SVEC_TAG,
                "cnf",
                group,
                ((1, 5), "junk", (2,), ([1], 7), ("x", 8), (3, 9)),
            ),
        )
        assert [c[0] for c in calls] == [1, 3]

    def test_crash_mid_vector_drops_remaining_slots(self):
        _, mgr = self.make_manager()
        calls = self.spy_slots(mgr, (1, 2, 3, 4), crash_after=2)
        group = self.GROUP
        mgr.mux.on_private(
            2, (SVEC_TAG, "cnf", group, ((1, 5), (2, 6), (3, 7), (4, 8)))
        )
        assert len(calls) == 2  # slots 3 and 4 died with the crash

    def test_transport_enforcement_covers_vectors(self):
        """A private vector cannot smuggle RB kinds, and vice versa —
        the same dealer-equivocation defence as the per-session paths."""
        _, mgr = self.make_manager()
        calls = self.spy_slots(mgr, (1,))
        group = self.GROUP
        mgr.mux.on_private(2, (SVEC_TAG, "L", group, ((1, (2, 3)),)))
        mgr.mux.on_rb(2, (SVEC_TAG, "cnf", group, ((1, 5),)))
        assert calls == []

    def test_forged_garbage_dropped_whole(self):
        stack, mgr = self.make_manager()
        calls = self.spy_slots(mgr, (1,))
        mux = mgr.mux
        group = self.GROUP
        mux.on_private(2, (SVEC_TAG, "cnf", group))  # short
        mux.on_private(2, (SVEC_TAG, 7, group, ((1, 5),)))  # non-str kind
        mux.on_private(2, (SVEC_TAG, "cnf", "nope", ((1, 5),)))  # bad group
        mux.on_private(2, (SVEC_TAG, "cnf", ("s", [1], 2), ((1, 5),)))  # unhashable
        mux.on_private(2, (SVEC_TAG, "cnf", ("m", 0, 1, 2, 3, "xx"), ((1, 5),)))
        mux.on_private(2, (SVEC_TAG, "cnf", group, [(1, 5)]))  # list entries
        assert calls == []
        assert stack.runtime.svec_batch_ingested == 0

    def test_svec_tag_reserved(self):
        """Reserved even when the scheduler vetoes packing: forged vectors
        must route identically whatever the wire."""
        stack, _ = self.make_manager(scheduler=slot_split())
        with pytest.raises(SimulationError):
            stack.runtime.host(1).register_handler(SVEC_TAG, lambda s, p: None)

    def test_split_round_trip(self):
        families = {("cc", "solo", 0)}
        svss = ("svss", (("cc", "solo", 0), 3), 2)
        mw = ("mw", svss, 1, 4, "md")
        for sid in (svss, mw):
            group, slot = svec_split(sid, families)
            assert svec_sid(group, slot) == sid
        # Non-family tags are never mistaken for slots.
        assert svec_split(("svss", ("solo-svss", 0), 1), families) is None
        assert svec_split(("mw", ("solo", 0), 1, 2, "dm"), families) is None


class SlotTargetedDealer(ByzantineBehavior):
    """Deals corrupted SVSS rows in exactly one coin slot (deterministic)."""

    def __init__(self, slot: int):
        self.slot = slot

    def corrupt_svss_rows(self, session, dst, row, col, prime):
        tag = session[1]
        if isinstance(tag, tuple) and len(tag) == 2 and tag[1] == self.slot:
            row = list(row)
            row[0] = (row[0] + 1) % prime
        return row, col


class TestAdversarialContract:
    """Corrupt senders keep the per-slot surface; per-session semantics
    survive aggregation."""

    @pytest.mark.parametrize("seed", range(2))
    def test_slot_mutator_corrupts_one_session_only(self, seed):
        """A dealer corrupting exactly one slot inside its batch: the
        sibling slots (and the whole coin) are untouched, and the run is
        bit-identical to the slot-split run — the corrupt sender's
        messages travel per session in both."""
        adversary = lambda: Adversary({4: SlotTargetedDealer(2)})  # noqa: E731
        off, stack_off = flip(4, seed, adversary=adversary(), scheduler=slot_split())
        on, stack_on = flip(4, seed, adversary=adversary())
        nonfaulty = stack_off.nonfaulty()
        assert set(off.outputs) >= set(nonfaulty)
        assert on.outputs == off.outputs
        assert coin_justifiers(stack_on) == coin_justifiers(stack_off)
        assert on.svec_packed > 0  # honest parties still aggregated

    def test_byzantine_sender_never_packs(self):
        """Hosts with behaviours/outbound filters emit per-session
        messages, so mutators act on logical slot messages (and a general
        mutator cannot break coin liveness under aggregation)."""
        import random

        adversary = Adversary({4: MutatingBehavior(random.Random(3), rate=0.3)})
        result, stack = flip(4, 3, adversary=adversary)
        nonfaulty = stack.nonfaulty()
        assert set(result.outputs) >= set(nonfaulty)
        assert result.svec_packed > 0

    #: The per-session coin (n=4, seed 5, FIFO) recorded before the svec
    #: switch was retired (``svec=False, coalesce=False``): events, wire
    #: pushes, logical messages.
    PER_SESSION_GOLDEN = (219100, 223424, 223424)

    @pytest.mark.parametrize("engine", ["flat", "legacy"])
    def test_slot_splitting_scheduler_replays_per_session_golden(self, engine):
        """splits_slots vetoes packing: with envelopes split too, the run
        IS the recorded per-session run, bit for bit (events, wire pushes,
        outputs), and every justifier equals the aggregated run's."""
        split, stack_split = flip(
            4,
            5,
            engine=engine,
            scheduler=EnvelopeSplittingScheduler(slot_split()),
            trace_level=TRACE_COUNTS,
        )
        on, stack_on = flip(4, 5, engine=engine, trace_level=TRACE_COUNTS)
        assert split.svec_packed == 0 and split.svec_slots == 0
        assert (
            split.events_dispatched,
            split.messages_pushed,
            split.logical_messages,
        ) == self.PER_SESSION_GOLDEN
        assert set(split.outputs.values()) == {1}
        assert split.outputs == on.outputs
        assert coin_justifiers(stack_split) == coin_justifiers(stack_on)

    def test_splitting_wrappers_compose_either_way(self):
        inner = SlotSplittingScheduler(EnvelopeSplittingScheduler(FifoScheduler()))
        outer = EnvelopeSplittingScheduler(SlotSplittingScheduler(FifoScheduler()))
        for sched in (inner, outer):
            assert sched.splits_envelopes and sched.splits_slots
            assert sched.fixed_delay() == 1.0
