"""Wire-level message coalescing: envelopes, determinism, adversaries.

The simulator always coalesces; the per-message wire of the paper's model
is the run under :class:`EnvelopeSplittingScheduler` (here composed with
:class:`SlotSplittingScheduler`, so the reference carries no vectors
either).  The load-bearing property is that coalescing is a *pure
event-count optimization*: under a fixed-delay scheduler, decisions AND
per-party delivered logical-message sequences are bit-identical to the
split run, on both dispatch engines — only the number of queue events
shrinks (one envelope per (src, dst) pair per dispatch step instead of one
event per logical message).  The adversarial tests then pin the
per-logical-message contract: outbound filters see individual messages,
crash points are unchanged, a crash mid-envelope drops the rest of the
envelope, a vote-balancing scheduler classifies envelopes and vote vectors
by their dominant vote, and the splitting schedulers reproduce the
recorded per-message runs exactly, under fixed and uniform delays.
"""

from __future__ import annotations

import random

import pytest

from repro.adversary.behaviors import CrashBehavior, MutatingBehavior
from repro.adversary.controller import Adversary
from repro.adversary.schedulers import (
    EnvelopeSplittingScheduler,
    SlotSplittingScheduler,
    VoteBalancingScheduler,
)
from repro.config import SystemConfig
from repro.core.agreement import ABAProcess
from repro.core.api import (
    _make_coins,
    build_stack,
    flip_common_coin,
    run_byzantine_agreement,
    run_byzantine_agreement_batch,
)
from repro.protocols.cr_avss import cr_coin
from repro.sim.process import ENVELOPE_TAG
from repro.sim.runtime import Runtime
from repro.sim.scheduler import FifoScheduler, Scheduler, UniformDelayScheduler
from repro.sim.tracing import TRACE_COUNTS

IDEAL = ("ideal", 1.0)


def split_inputs(n: int) -> list[int]:
    return [i % 2 for i in range(n)]


def split_matrix(n: int, k: int) -> list[list[int]]:
    return [[(i + shift) % 2 for i in range(n)] for shift in range(k)]


def per_message(base=None):
    """The paper's per-message wire: ``base`` with both layers split."""
    base = base if base is not None else FifoScheduler()
    return EnvelopeSplittingScheduler(SlotSplittingScheduler(base))


def run_solo(n, seed, coin, engine="flat", split=False, scheduler=None, **kw):
    base = scheduler if scheduler is not None else FifoScheduler()
    return run_byzantine_agreement(
        split_inputs(n),
        SystemConfig(n=n, seed=seed),
        coin=coin,
        scheduler=per_message(base) if split else base,
        engine=engine,
        **kw,
    )


def run_batch(inputs, seed, coin, engine="flat", split=False, scheduler=None, **kw):
    base = scheduler if scheduler is not None else FifoScheduler()
    return run_byzantine_agreement_batch(
        inputs,
        SystemConfig(n=len(inputs[0]), seed=seed),
        coin=coin,
        scheduler=per_message(base) if split else base,
        engine=engine,
        **kw,
    )


class TestBitIdenticalDecisions:
    """The acceptance property: the default run vs the per-message run,
    flat and legacy, per seed, across the shipped fixed-delay
    schedulers."""

    @pytest.mark.parametrize("engine", ["flat", "legacy"])
    @pytest.mark.parametrize("scheduler_cls", [Scheduler, FifoScheduler])
    @pytest.mark.parametrize("seed", range(3))
    def test_solo_ideal(self, engine, scheduler_cls, seed):
        off = run_solo(
            7, seed, IDEAL, engine=engine, scheduler=scheduler_cls(), split=True
        )
        on = run_solo(7, seed, IDEAL, engine=engine, scheduler=scheduler_cls())
        assert off.agreed and on.agreed
        assert on.decisions == off.decisions
        assert on.rounds == off.rounds
        # The logical message bill is coalescing-invariant by construction.
        assert on.trace.total_messages == off.trace.total_messages

    @pytest.mark.parametrize("engine", ["flat", "legacy"])
    def test_solo_svss_full_stack(self, engine):
        """The full shunning stack (broadcast + VSS + DMM + coin) under
        envelopes: identical decisions, far fewer events."""
        off = run_solo(4, 7, "svss", engine=engine, split=True)
        on = run_solo(4, 7, "svss", engine=engine)
        assert off.agreed and on.agreed
        assert on.decisions == off.decisions
        assert on.rounds == off.rounds
        # (Exact logical-message equality is asserted on quiescence-driven
        # runs in TestDeliveredSequences; a predicate-stopped run may
        # finish the decisive envelope before halting, so the totals here
        # can differ by a step's worth of sends.)
        assert on.events_dispatched * 2 < off.events_dispatched
        assert on.envelopes_pushed > 0
        assert on.payloads_coalesced >= 2 * on.envelopes_pushed

    def test_flat_matches_legacy_golden_coalesced(self):
        """Both engines dispatch the identical coalesced event stream."""

        def golden(engine):
            result = run_solo(4, 7, "svss", engine=engine)
            return (
                dict(result.decisions),
                result.events_dispatched,
                result.messages_pushed,
                result.envelopes_pushed,
                result.payloads_coalesced,
            )

        assert golden("flat") == golden("legacy")

    def test_coin_flip_identical_and_reduced(self):
        cfg = SystemConfig(n=7, seed=5)
        off, _ = flip_common_coin(
            cfg, scheduler=EnvelopeSplittingScheduler(FifoScheduler())
        )
        on, _ = flip_common_coin(cfg, scheduler=FifoScheduler())
        assert on.outputs == off.outputs
        # The n² MW-SVSS sessions share (src, dst) pairs per step, so the
        # event bill collapses by far more than the gate's 2x.
        assert on.events_dispatched * 2 < off.events_dispatched

    def test_replay_deterministic(self):
        a = run_solo(4, 3, "svss")
        b = run_solo(4, 3, "svss")
        assert a.decisions == b.decisions
        assert a.events_dispatched == b.events_dispatched
        assert a.envelopes_pushed == b.envelopes_pushed
        assert a.sim_time == b.sim_time


class TestDeliveredSequences:
    """Every conversation — one (src, dst, session/broadcast-id) stream —
    delivers the bit-identical logical-message sequence, and every party
    handles the identical message multiset; asserted on the full SVSS
    stack by logging every handler delivery.  (Distinct conversations may
    regroup *within* a simultaneity bucket when an envelope merges what
    were separate events; the protocol state machines are per-session, and
    the decision A/B tests pin the regrouping as decision-invariant.)"""

    def _logged_run(self, coalesce: bool):
        # Slots stay split on both sides: session vectors change the
        # logical messages themselves, envelopes only their framing.
        config = SystemConfig(n=4, seed=9)
        scheduler = SlotSplittingScheduler(FifoScheduler())
        if not coalesce:
            scheduler = EnvelopeSplittingScheduler(scheduler)
        stack = build_stack(config, scheduler=scheduler)
        log: dict[int, list] = {pid: [] for pid in config.pids}
        for pid, host in stack.runtime.hosts.items():
            for tag, handler in list(host._handlers.items()):
                if tag == ENVELOPE_TAG:
                    continue  # envelopes are framing, not logical messages

                def wrapped(src, payload, pid=pid, handler=handler):
                    log[pid].append((src, payload))
                    handler(src, payload)

                host._handlers[tag] = wrapped
        coins = _make_coins(stack, "svss")
        decisions: dict[int, int] = {}
        processes = {
            pid: ABAProcess(
                stack.runtime.host(pid),
                stack.broadcasts[pid],
                coins[pid],
                on_decide=lambda v, pid=pid: decisions.setdefault(pid, v),
            )
            for pid in config.pids
        }
        with stack.runtime.coalescing_step():
            for pid in config.pids:
                processes[pid].start(pid % 2)
        stack.runtime.run_to_quiescence()
        assert len(decisions) == config.n
        return log, decisions

    @staticmethod
    def _conversations(entries):
        """Group one party's deliveries into (src, tag, session) streams.

        Position 1 of every wire payload is its session id ('v' messages)
        or broadcast id (b1/b2/b3), so this is the per-conversation FIFO
        decomposition."""
        streams: dict = {}
        for src, payload in entries:
            key = (src, payload[0], payload[1] if len(payload) > 1 else None)
            streams.setdefault(key, []).append(payload)
        return streams

    def test_sequences_identical_on_off(self):
        from collections import Counter

        log_off, dec_off = self._logged_run(coalesce=False)
        log_on, dec_on = self._logged_run(coalesce=True)
        assert dec_on == dec_off
        for pid in log_off:
            # Same multiset of (src, message) deliveries at every party ...
            assert Counter(log_on[pid]) == Counter(log_off[pid]), pid
            # ... and bit-identical per-conversation sequences.
            conv_off = self._conversations(log_off[pid])
            conv_on = self._conversations(log_on[pid])
            assert conv_on == conv_off, pid


class TestEnvelopeUnpack:
    """Receiver-side envelope semantics, driven directly."""

    def make_runtime(self):
        return Runtime(SystemConfig(n=2, seed=0), scheduler=FifoScheduler())

    def test_crash_mid_envelope_drops_remaining_subpayloads(self):
        rt = self.make_runtime()
        host = rt.host(1)
        got = []

        def on_a(src, payload):
            got.append(payload)
            host.crash()

        host.register_handler("a", on_a)
        host.register_handler("b", lambda s, p: got.append(p))
        host._deliver_envelope(2, ("env", (("a", 1), ("b", 2), ("a", 3))))
        assert got == [("a", 1)]

    def test_forged_envelope_grants_no_new_power(self):
        """Malformed bodies, nested envelopes, unknown/unhashable tags: all
        dropped per sub-payload, exactly like plain byzantine sends."""
        rt = self.make_runtime()
        host = rt.host(1)
        got = []
        host.register_handler("a", lambda s, p: got.append(p))
        host._deliver_envelope(2, ("env", [("a", 1)]))  # list body: dropped
        host._deliver_envelope(2, ("env",))  # short: dropped
        host._deliver_envelope(2, ("env", (("a", 1), ("a", 2)), "extra"))
        host._deliver_envelope(
            2,
            (
                "env",
                (
                    ("env", (("a", "nested"),)),  # nesting refused
                    "garbage",  # non-tuple sub-payload
                    (),  # empty sub-payload
                    (["unhashable"], 1),  # unhashable tag
                    ("unknown", 1),  # unregistered tag
                    ("a", 42),  # a valid one still lands
                ),
            ),
        )
        assert got == [("a", 42)]

    def test_env_tag_reserved(self):
        rt = Runtime(
            SystemConfig(n=2, seed=0),
            scheduler=EnvelopeSplittingScheduler(FifoScheduler()),
        )
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            rt.host(1).register_handler("env", lambda s, p: None)

    def test_crashed_receiver_drops_whole_envelope(self):
        rt = self.make_runtime()
        host = rt.host(1)
        got = []
        host.register_handler("a", lambda s, p: got.append(p))
        host.crash()
        host._deliver_envelope(2, ("env", (("a", 1), ("a", 2))))
        assert got == []


class TestAdversarialSemantics:
    """Delay/drop/mutate are defined per logical message; no adversarial
    power is lost when coalescing is on."""

    def test_outbound_filter_sees_logical_messages_not_envelopes(self):
        rt = Runtime(SystemConfig(n=2, seed=0), scheduler=FifoScheduler())
        sender, receiver = rt.host(2), rt.host(1)
        got, seen = [], []
        receiver.register_handler("x", lambda s, p: got.append(p))
        receiver.register_handler("y", lambda s, p: got.append(p))

        def kick(src, payload):
            sender.send(1, ("x", 1), "test")
            sender.send(1, ("y", 2), "test")

        sender.register_handler("kick", kick)

        def filter_out(dst, payload):
            seen.append(payload)
            return ("x", 99) if payload[0] == "x" else payload

        sender.outbound_filter = filter_out
        rt.transmit(1, 2, ("kick",), "test")
        rt.run_to_quiescence()
        # The filter saw the two logical messages, never an envelope ...
        assert seen == [("x", 1), ("y", 2)]
        # ... the mutated one's sibling is untouched ...
        assert got == [("x", 99), ("y", 2)]
        # ... and both still rode one envelope.
        assert rt.envelopes_pushed == 1
        assert rt.payloads_coalesced == 2

    @pytest.mark.parametrize("seed", range(3))
    def test_crash_spanning_instances_identical_on_off(self, seed):
        """CrashBehavior counts *logical* sends, so the crash point — and
        every decision — is identical on the aggregated wire."""
        inputs = split_matrix(7, 4)

        def run(split):
            return run_batch(
                inputs,
                seed,
                IDEAL,
                split=split,
                adversary=Adversary({7: CrashBehavior(after_messages=40)}),
            )

        off, on = run(True), run(False)
        assert off.terminated and off.agreed
        assert on.terminated and on.agreed
        for iid in off.instance_ids:
            assert on.results[iid].decisions == off.results[iid].decisions, iid

    @pytest.mark.parametrize("seed", range(3))
    def test_mutator_spanning_instances_coalesced(self, seed):
        """A byzantine mutator rewriting single sub-payloads (its filter
        runs pre-coalescing) cannot break safety of a coalesced batch."""
        inputs = split_matrix(4, 4)
        batch = run_batch(
            inputs,
            seed,
            IDEAL,
            adversary=Adversary({4: MutatingBehavior(random.Random(seed), rate=0.4)}),
        )
        assert batch.terminated and batch.agreed

    #: Per-message runs recorded before the coalescing switch was retired
    #: (``coalesce=False``): (events, wire pushes, max rounds, decisions).
    FIFO_GOLDEN = (8708, 9016, 2, (0, 1, 0, 1))
    #: K=4 n=4 ideal-coin batch under uniform delays, per seed.
    UNIFORM_BATCH_GOLDEN = {
        0: (3414, 3532, 3, (1, 1, 0, 0)),
        1: (3468, 3548, 3, (1, 1, 1, 1)),
        2: (3500, 3612, 3, (1, 1, 1, 1)),
        3: (3440, 3536, 3, (0, 0, 0, 0)),
    }
    #: n=4 SVSS coin with session vectors under uniform delays, per seed:
    #: (events, wire pushes, coin bit).
    UNIFORM_COIN_GOLDEN = {0: (60611, 60716, 1), 1: (63313, 63740, 0)}

    @staticmethod
    def summary(batch):
        return (
            batch.events_dispatched,
            batch.messages_pushed,
            batch.max_rounds,
            tuple(batch.decisions[iid] for iid in batch.instance_ids),
        )

    def test_splitting_scheduler_reproduces_uncoalesced_run(self):
        """The envelope-splitting adversary path: per-message scheduling is
        fully restored — the run is the per-message one, bit for bit, for
        a fixed-delay base and for a random one (delays are drawn at send
        time, in send order, exactly as without a send buffer)."""
        fifo = run_batch(split_matrix(7, 4), 3, IDEAL, split=True)
        assert fifo.envelopes_pushed == 0
        assert self.summary(fifo) == self.FIFO_GOLDEN
        for seed, golden in self.UNIFORM_BATCH_GOLDEN.items():
            cfg = SystemConfig(n=4, seed=seed)
            batch = run_batch(
                split_matrix(4, 4),
                seed,
                IDEAL,
                split=True,
                scheduler=UniformDelayScheduler(cfg.derive_rng("scheduler")),
            )
            assert batch.envelopes_pushed == 0
            assert self.summary(batch) == golden, seed
        for seed, (events, pushed, bit) in self.UNIFORM_COIN_GOLDEN.items():
            cfg = SystemConfig(n=4, seed=seed)
            coin, _ = flip_common_coin(
                cfg,
                scheduler=EnvelopeSplittingScheduler(
                    UniformDelayScheduler(cfg.derive_rng("scheduler"))
                ),
                trace_level=TRACE_COUNTS,
            )
            assert coin.envelopes_pushed == 0 and coin.svec_packed > 0
            assert (coin.events_dispatched, coin.messages_pushed) == (
                events,
                pushed,
            ), seed
            assert set(coin.outputs.values()) == {bit}


class TestVoteBalancingOverEnvelopes:
    """The balancing scheduler classifies envelopes and packed vote vectors
    by their dominant vote instead of falling through to the default
    delay."""

    @staticmethod
    def aba_vote(value, phase=1, instance=("aba", 0), r=1, origin=1):
        return ("b1", (origin, "aba", instance, r, phase), ("aba", instance, r, phase, value))

    @staticmethod
    def vote_vector(*values, origin=1):
        entries = tuple(
            (("aba", k), 1, 1, value) for k, value in enumerate(values)
        )
        return ("b2", (origin, "abav", 0), ("abav", 0, entries))

    def test_envelope_classified_by_dominant_subpayload(self):
        vote = self.aba_vote
        env = ("env", (vote(1), vote(0), vote(1)))
        assert VoteBalancingScheduler._vote_value(env) == 1
        env = ("env", (vote(0), vote(0), vote(1)))
        assert VoteBalancingScheduler._vote_value(env) == 0
        # Ties break to the first classifiable sub-payload.
        assert VoteBalancingScheduler._vote_value(("env", (vote(1), vote(0)))) == 1
        assert VoteBalancingScheduler._vote_value(("env", (vote(0), vote(1)))) == 0
        # Vote-free envelopes and plain messages fall through unchanged.
        assert VoteBalancingScheduler._vote_value(("env", (("v", 1), ("v", 2)))) is None
        assert VoteBalancingScheduler._vote_value(vote(1)) == 1
        assert VoteBalancingScheduler._vote_value(("v", 1)) is None

    def test_vote_vector_classified_by_dominant_entry(self):
        value_of = VoteBalancingScheduler._vote_value
        assert value_of(self.vote_vector(1, 0, 1)) == 1
        assert value_of(self.vote_vector(0, 0, 1)) == 0
        # Ties break to the first entry; flagged phase-3 votes count.
        assert value_of(self.vote_vector(0, 1)) == 0
        assert value_of(self.vote_vector((1, (2,)), 0, (1, (3,)))) == 1
        # Malformed entries abstain; an all-malformed vector is no vote.
        assert value_of(self.vote_vector("x", 1)) == 1
        assert value_of(("b1", (1, "abav", 0), ("abav", 0, ("junk",)))) is None
        # Envelopes of vectors are classified by the vectors' values.
        env = ("env", (self.vote_vector(0, 0), self.vote_vector(1, 1), self.vote_vector(0)))
        assert value_of(env) == 0

    def test_envelope_delay_biases_by_dominant_value(self):
        cfg = SystemConfig(n=4, seed=0)
        sched = VoteBalancingScheduler(cfg, base_delay=1.0, hold=50.0)
        env1 = ("env", (self.aba_vote(1), self.aba_vote(1)))
        env0 = ("env", (self.aba_vote(0), self.aba_vote(0)))
        # Group A (pids 1..2) gets 1-valued envelopes held, group B 0-valued.
        assert sched.delay(3, 1, env1, 0.0) == 50.0
        assert sched.delay(3, 1, env0, 0.0) == 1.0
        assert sched.delay(3, 4, env0, 0.0) == 50.0
        assert sched.delay(3, 4, env1, 0.0) == 1.0

    @pytest.mark.parametrize("seed", range(3))
    def test_balancing_still_bites_under_coalesce_votes(self, seed):
        """Against an always-failing coin the balancing schedule must keep
        an aggregated batch split past any round cap — if vote vectors
        fell through to the base delay, the run would terminate in ~2
        rounds (the FIFO control shows exactly that)."""
        n, k = 4, 4
        rows = [[i % 2 for i in range(n)]] * k  # aligned: vectors carry
        # same-valued votes, so classification is exact
        cfg = SystemConfig(n=n, seed=seed)
        balanced = run_byzantine_agreement_batch(
            rows,
            cfg,
            coin=cr_coin(cfg, 1.0),
            scheduler=VoteBalancingScheduler(cfg),
            max_rounds=15,
        )
        assert balanced.svec_packed > 0  # votes really travelled packed
        assert not balanced.terminated
        cfg2 = SystemConfig(n=n, seed=seed)
        control = run_byzantine_agreement_batch(
            rows,
            cfg2,
            coin=cr_coin(cfg2, 1.0),
            scheduler=FifoScheduler(),
            max_rounds=15,
        )
        assert control.terminated and control.max_rounds <= 4


class TestBatchVoteCoalescing:
    """All K instances' votes per (round, phase) ride one vote vector and
    one envelope — the ideal-coin batch becomes ~K×-shaped."""

    @pytest.mark.parametrize("engine", ["flat", "legacy"])
    def test_k16_ideal_decisions_identical_and_k_shaped(self, engine):
        inputs = split_matrix(7, 16)
        off = run_batch(inputs, 11, IDEAL, engine=engine, split=True)
        on = run_batch(inputs, 11, IDEAL, engine=engine)
        assert on.agreed and off.agreed
        for iid in off.instance_ids:
            assert on.results[iid].decisions == off.results[iid].decisions, iid
            assert on.results[iid].rounds == off.results[iid].rounds, iid
        # All 16 instances' traffic folds into (nearly) one instance's
        # worth of events: >= 8x fewer for K = 16.
        assert on.events_dispatched * 8 <= off.events_dispatched

    def test_flat_matches_legacy_golden_coalesced_batch(self):
        inputs = split_matrix(7, 5)

        def golden(engine):
            batch = run_batch(inputs, 23, IDEAL, engine=engine)
            return (
                {iid: r.decisions for iid, r in batch.results.items()},
                batch.events_dispatched,
                batch.messages_pushed,
                batch.envelopes_pushed,
            )

        assert golden("flat") == golden("legacy")

    def test_svss_batch_decisions_identical_on_off(self):
        inputs = split_matrix(4, 3)
        off = run_batch(inputs, 3, "svss", split=True)
        on = run_batch(inputs, 3, "svss")
        assert on.agreed and off.agreed
        for iid in off.instance_ids:
            assert on.results[iid].decisions == off.results[iid].decisions, iid
        assert on.events_dispatched * 4 < off.events_dispatched
