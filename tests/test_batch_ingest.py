"""Batched slot-vector ingestion: group verdicts, SoA lanes, vote vectors.

The acceptance property mirrors the svec contract one layer down: one
received slot-vector costs one group-level DMM verdict and one
structure-of-arrays lane transition instead of ``n`` per-slot handler
chains, while staying equivalent *slot for slot* to the per-session
ingestion a :class:`SlotSplittingScheduler` run takes — coin outputs,
per-session justifiers, parked-message sets, and per-slot degradation
identical, on both engines, under the adversary matrix.  The vote-vector
tests pin the same discipline one layer up (``K`` concurrent agreements
packing their per-step votes).
"""

from __future__ import annotations

import random

import pytest

from repro.adversary.behaviors import ABALiarBehavior, SlotPoisonerBehavior
from repro.adversary.controller import Adversary
from repro.adversary.schedulers import SlotSplittingScheduler
from repro.config import SystemConfig
from repro.core.api import build_stack, flip_common_coin, run_byzantine_agreement
from repro.core.agreement import ABAProcess
from repro.core.sessions import SVEC_MW, mw_session, svec_sid
from repro.core.vectormux import SVEC_TAG
from repro.sim.scheduler import FifoScheduler

import test_svec
from test_svec import coin_justifiers


def slot_split():
    return SlotSplittingScheduler(FifoScheduler())


def flip(n, seed, engine="flat", **kw):
    result, stack = flip_common_coin(
        SystemConfig(n=n, seed=seed),
        scheduler=kw.pop("scheduler", FifoScheduler()),
        engine=engine,
        **kw,
    )
    stack.runtime.run_to_quiescence()
    return result, stack


#: Events of the n=4 FIFO coin (any seed) and of the n=4 seed-7 FIFO
#: agreement, recorded on the per-slot unpack loop that batched ingestion
#: replaced (``batch_ingest=False``): the batched path must not move them.
PER_SLOT_COIN_EVENTS = 9816
PER_SLOT_AGREEMENT_EVENTS = 5036


class TestBitIdenticalCoin:
    """Coin invocations are bit-identical to the per-session ingestion of
    the slot-split run."""

    @pytest.mark.parametrize("engine", ["flat", "legacy"])
    @pytest.mark.parametrize("seed", range(3))
    def test_outputs_events_and_justifiers_identical(self, engine, seed):
        off, stack_off = flip(4, seed, engine=engine, scheduler=slot_split())
        on, stack_on = flip(4, seed, engine=engine)
        assert on.outputs == off.outputs
        assert on.events_dispatched == PER_SLOT_COIN_EVENTS
        assert coin_justifiers(stack_on) == coin_justifiers(stack_off)

    def test_batched_path_actually_engages(self):
        on, _ = flip(4, 1)
        off, _ = flip(4, 1, scheduler=slot_split())
        assert on.svec_batch_ingested > 0
        assert on.dmm_verdicts_batched > 0
        # The headline metric: group verdicts shrink per-slot handler work.
        assert on.dmm_verdict_calls * 3 <= off.dmm_verdict_calls
        assert off.svec_batch_ingested == 0
        assert off.dmm_verdicts_batched == 0

    @pytest.mark.parametrize("engine", ["flat", "legacy"])
    def test_slot_poisoner_identical(self, engine):
        """The aggregation-aware fault injector: a poisoned slot costs only
        its own session on both ingestion paths."""
        adversary = lambda: Adversary(  # noqa: E731
            {4: SlotPoisonerBehavior(random.Random(1), fixed_slot=2)}
        )
        off, stack_off = flip(
            4, 1, engine=engine, adversary=adversary(), scheduler=slot_split()
        )
        on, stack_on = flip(4, 1, engine=engine, adversary=adversary())
        assert on.outputs == off.outputs
        assert coin_justifiers(stack_on) == coin_justifiers(stack_off)

    def test_agreement_decisions_identical(self):
        def run(scheduler):
            return run_byzantine_agreement(
                [i % 2 for i in range(4)],
                SystemConfig(n=4, seed=7),
                coin="svss",
                scheduler=scheduler,
            )

        off, on = run(slot_split()), run(FifoScheduler())
        assert off.agreed and on.agreed
        assert on.decisions == off.decisions
        assert on.rounds == off.rounds
        assert on.events_dispatched == PER_SLOT_AGREEMENT_EVENTS
        assert on.svec_batch_ingested > 0


def make_manager():
    stack = build_stack(SystemConfig(n=4, seed=0), scheduler=FifoScheduler())
    return stack, stack.vss[1]


def arm_sender(mgr, sender, session, value=7):
    """Give ``sender`` an armed (completed-session) expectation, so its
    later-begun sessions draw DELAY verdicts — the shunning delay rule."""
    mgr.clock.note_begin(session)
    mgr.clock.note_complete(session)
    mgr.dmm.expect_deal(sender, session, value)
    mgr.dmm.on_session_reconstructed(session)


class TestGroupVerdictFallback:
    """Satellite: verdict divergence across a vector's slots falls back to
    per-slot filtering with outcomes identical to the unbatched path."""

    GROUP = (SVEC_MW, ("cc", "solo", 0), 2, 2, 3, "md")

    def drive(self, batched):
        """One vector whose slot-1 session began *before* and slot-2
        session *after* the sender's armed session completed: slot 1 must
        FORWARD while slot 2 must DELAY.  ``batched=False`` delivers the
        two slots as the per-session messages a slot-split wire carries."""
        stack, mgr = make_manager()
        sid1 = svec_sid(self.GROUP, 1)
        sid2 = svec_sid(self.GROUP, 2)
        inst1 = mgr._ensure_mw(sid1)  # begun before the armed session
        handled = []
        inst1.handle = lambda *a: handled.append(a)  # shadow the method
        arm_sender(mgr, 2, mw_session(("owed", 0), 2, 3, "dm"))
        mgr._ensure_mw(sid2)  # begun after => owed < begun => DELAY
        mgr.dmm.dirty.clear()
        if batched:
            mgr.mux.on_private(
                2, (SVEC_TAG, "cnf", self.GROUP, ((1, 11), (2, 22)))
            )
        else:
            mgr._on_private(2, ("v", sid1, "cnf", 11))
            mgr._on_private(2, ("v", sid2, "cnf", 22))
        return stack, mgr, handled, sid1, sid2

    def test_divergent_slots_fall_back_per_slot(self):
        stack, mgr, handled, sid1, sid2 = self.drive(batched=True)
        assert handled == [(2, "cnf", 11)]
        assert set(mgr._delayed) == {(2, sid2)}
        assert stack.runtime.dmm_verdict_fallbacks == 2
        assert stack.runtime.dmm_verdicts_batched == 0

    def test_outcomes_identical_to_unbatched(self):
        _, mgr_on, handled_on, *_ = self.drive(batched=True)
        _, mgr_off, handled_off, *_ = self.drive(batched=False)
        assert handled_on == handled_off
        assert set(mgr_on._delayed) == set(mgr_off._delayed)
        assert mgr_on._delayed == mgr_off._delayed

    def test_uniform_delay_takes_group_verdict(self):
        """Both slots begun after arming: one group verdict parks both."""
        stack, mgr = make_manager()
        arm_sender(mgr, 2, mw_session(("owed", 0), 2, 3, "dm"))
        sid1, sid2 = svec_sid(self.GROUP, 1), svec_sid(self.GROUP, 2)
        mgr._ensure_mw(sid1)
        mgr._ensure_mw(sid2)
        mgr.dmm.dirty.clear()
        mgr.mux.on_private(2, (SVEC_TAG, "cnf", self.GROUP, ((1, 11), (2, 22))))
        assert set(mgr._delayed) == {(2, sid1), (2, sid2)}
        assert stack.runtime.dmm_verdicts_batched == 2
        assert stack.runtime.dmm_verdict_fallbacks == 0

    def test_convicted_sender_discarded_whole(self):
        stack, mgr = make_manager()
        mgr.dmm.D.add(2)
        handled = []
        inst1 = mgr._ensure_mw(svec_sid(self.GROUP, 1))
        inst1.handle = lambda *a: handled.append(a)
        mgr.mux.on_private(2, (SVEC_TAG, "cnf", self.GROUP, ((1, 11), (2, 22))))
        assert handled == []
        assert mgr._delayed == {}


class TestBatchedUnpackSemantics(test_svec.TestSlotVectorUnpack):
    """The per-slot degradation contract of ``tests/test_svec.py``, on an
    MW-SVSS group."""

    GROUP = (SVEC_MW, ("cc", "solo", 0), 2, 2, 3, "md")

    def test_forged_group_dropped_whole(self):
        stack, mgr = make_manager()
        bad_dealer = (SVEC_MW, ("cc", "solo", 0), 9, 9, 3, "md")
        mgr.mux.on_private(2, (SVEC_TAG, "cnf", bad_dealer, ((1, 5),)))
        assert mgr.mw == {}
        assert stack.runtime.svec_batch_ingested == 0


class TestDelayedBacklogIndex:
    """Satellite: the parked-message index re-examines only keys of senders
    whose DMM state actually moved — no full-backlog re-scan."""

    def park(self, mgr, sender, owed_session, count):
        arm_sender(mgr, sender, owed_session)
        mgr._release_delayed()  # drain the arming dirt before parking
        for i in range(count):
            sid = mw_session(("backlog", sender, i), sender, 3, "dm")
            mgr._ingest(sender, sid, "cnf", 123)
        assert sum(1 for key in mgr._delayed if key[0] == sender) == count

    def test_release_rescans_only_dirty_senders_keys(self):
        _, mgr = make_manager()
        owed2 = mw_session(("owed", 2), 2, 3, "dm")
        owed4 = mw_session(("owed", 4), 4, 3, "dm")
        self.park(mgr, 2, owed2, count=25)
        self.park(mgr, 4, owed4, count=25)
        seen = []
        orig = mgr.dmm.filter_verdict
        mgr.dmm.filter_verdict = lambda s, sid: (seen.append(s), orig(s, sid))[1]
        # Sender 2 pays its debt: only its 25 keys may be re-filtered.
        mgr.dmm.check_reconstruct_batch(2, owed2, {1: 7})
        mgr._release_delayed()
        assert seen == [2] * 25
        assert all(key[0] == 4 for key in mgr._delayed)
        assert len(mgr._delayed) == 25

    def test_released_backlog_replays_in_park_order(self):
        _, mgr = make_manager()
        owed = mw_session(("owed", 2), 2, 3, "dm")
        arm_sender(mgr, 2, owed)
        mgr._release_delayed()
        order = []
        sids = [mw_session(("replay", i), 2, 3, "dm") for i in range(10)]
        for sid in sids:
            mgr._ingest(2, sid, "cnf", 123)
            mgr.mw[sid].handle = lambda *a, sid=sid: order.append(sid)
        mgr.dmm.check_reconstruct_batch(2, owed, {1: 7})
        mgr._release_delayed()
        assert order == sids
        assert mgr._delayed == {}


class _NullCoin:
    """Inert CoinSource stand-in for direct ABAProcess wiring."""

    def join(self, sid):
        pass

    def release(self, sid):
        pass

    def get(self, sid, callback):
        callback(0)


class TestVoteVectorMux:
    """Layer 3: K concurrent agreements pack their per-step votes."""

    @staticmethod
    def delivered_abav_bids(stack):
        return {
            bid
            for pid in stack.config.pids
            for bid in stack.broadcasts[pid].delivered_values
            if len(bid) > 1 and bid[1] == "abav"
        }

    def run_instances(self, k, adversary=None, seed=0):
        """K concurrent ideal-coin agreements driven directly on a stack."""
        stack = build_stack(
            SystemConfig(n=4, seed=seed),
            scheduler=FifoScheduler(),
            adversary=adversary,
        )
        procs = {
            (pid, i): ABAProcess(
                stack.runtime.host(pid),
                stack.broadcasts[pid],
                _NullCoin(),
                instance_id=("k", i),
            )
            for i in range(k)
            for pid in stack.config.pids
        }
        with stack.runtime.coalescing_step():
            for pid in stack.config.pids:
                for i in range(k):
                    procs[(pid, i)].start((pid + i) % 2)
        stack.runtime.run_to_quiescence()
        return stack, procs

    def test_concurrent_instances_pack_votes(self):
        stack, procs = self.run_instances(3)
        nonfaulty = set(stack.nonfaulty())
        for (pid, i), proc in procs.items():
            if pid in nonfaulty:
                assert proc.decided is not None, (pid, i)
        assert self.delivered_abav_bids(stack)

    def test_decisions_identical_to_unpacked(self):
        """The A/B discipline one layer up: packed vote vectors leave every
        instance's decisions exactly where plain per-vote broadcasts do."""

        def decisions(scheduler):
            stack = build_stack(SystemConfig(n=4, seed=0), scheduler=scheduler)
            procs = {
                (pid, i): ABAProcess(
                    stack.runtime.host(pid),
                    stack.broadcasts[pid],
                    _NullCoin(),
                    instance_id=("k", i),
                )
                for i in range(3)
                for pid in stack.config.pids
            }
            with stack.runtime.coalescing_step():
                for pid in stack.config.pids:
                    for i in range(3):
                        procs[(pid, i)].start((pid + i) % 2)
            stack.runtime.run_to_quiescence()
            return {key: proc.decided for key, proc in procs.items()}

        assert decisions(FifoScheduler()) == decisions(slot_split())

    def test_solo_agreement_never_packs(self):
        """A single live instance replays the per-vote wire stream."""
        stack, procs = self.run_instances(1)
        assert all(p.decided is not None for p in procs.values())
        assert not self.delivered_abav_bids(stack)

    def test_byzantine_host_never_packs(self):
        """A host with a behaviour emits plain per-instance votes, so vote
        mutators keep acting on logical votes."""
        adversary = Adversary({4: ABALiarBehavior(random.Random(0))})
        stack, procs = self.run_instances(3, adversary=adversary)
        bids = self.delivered_abav_bids(stack)
        assert bids  # honest hosts still packed
        assert all(bid[0] != 4 for bid in bids)

    def test_forged_vote_vector_validated_per_entry(self):
        """A forged ("abav", ...) vector grants nothing beyond broadcasting
        the votes individually: per-entry shape + per-instance validation."""
        stack = build_stack(SystemConfig(n=4, seed=0), scheduler=FifoScheduler())
        host = stack.runtime.host(1)
        procs = [
            ABAProcess(
                host, stack.broadcasts[1], _NullCoin(), instance_id=("k", k)
            )
            for k in range(2)
        ]
        mux = host.module("abav")
        assert mux.live == 2
        mux._on_rb(
            3,
            (
                "abav",
                0,
                (
                    (("k", 0), 1, 1, 1),  # valid
                    "junk",  # malformed entry: dropped alone
                    (("k", 0), 1, 9, 0),  # bad phase: dropped by _on_rb
                    (("k", 1), 1, 1, "x"),  # non-binary vote: dropped
                    (("k", 1), 1, 1, 0),  # valid
                    (("gone", 7), 1, 1, 0),  # unknown instance: dropped
                ),
            ),
        )
        assert procs[0]._round_state(1).received[1] == {3: 1}
        assert procs[1]._round_state(1).received[1] == {3: 0}

    def test_closed_instances_stop_counting(self):
        stack = build_stack(SystemConfig(n=4, seed=0), scheduler=FifoScheduler())
        host = stack.runtime.host(1)
        procs = [
            ABAProcess(
                host, stack.broadcasts[1], _NullCoin(), instance_id=("c", k)
            )
            for k in range(2)
        ]
        mux = host.module("abav")
        assert mux.live == 2
        procs[0].close()
        assert mux.live == 1
        # A lone survivor falls back to plain broadcasts even mid-step.
        stack.runtime.svec_buffering = True
        try:
            assert not mux.offer((1, "aba", ("c", 1), 1, 1), ("aba", ("c", 1), 1, 1, 0))
        finally:
            stack.runtime.svec_buffering = False
