"""Tests for the byzantine behaviour library and corruption controller."""

from __future__ import annotations

import random

import pytest

from repro.adversary.behaviors import (
    ABALiarBehavior,
    BiasedCoinBehavior,
    ByzantineBehavior,
    CrashBehavior,
    EquivocatingDealerBehavior,
    LyingConfirmerBehavior,
    LyingReconstructorBehavior,
    MutatingBehavior,
    SilentBehavior,
)
from repro.adversary.adaptive import POLICIES, AdaptiveAdversary
from repro.adversary.behaviors import CrashRecoveryBehavior, SlotPoisonerBehavior
from repro.adversary.controller import (
    BEHAVIOR_KINDS,
    Adversary,
    crash_adversary,
    crash_recovery_adversary,
    no_adversary,
    random_adversary,
    slot_poison_adversary,
)
from repro.adversary.schedulers import (
    CoinRevealEclipseScheduler,
    SlotSplittingScheduler,
)
from repro.config import SystemConfig
from repro.core.api import run_byzantine_agreement
from repro.errors import ConfigurationError
from repro.sim.monitor import InvariantMonitor
from repro.sim.runtime import Runtime
from repro.sim.scheduler import Scheduler, UniformDelayScheduler


class TestController:
    def test_no_adversary(self):
        adv = no_adversary()
        assert adv.corrupt_pids == frozenset()
        assert adv.describe() == "none"

    def test_nonfaulty_pids(self):
        cfg = SystemConfig(n=4, seed=0)
        adv = Adversary({2: SilentBehavior()})
        assert adv.nonfaulty_pids(cfg) == [1, 3, 4]

    def test_validate_rejects_too_many(self):
        cfg = SystemConfig(n=4, seed=0)
        adv = Adversary({1: SilentBehavior(), 2: SilentBehavior()})
        with pytest.raises(ConfigurationError):
            adv.validate(cfg)

    def test_validate_rejects_unknown_pid(self):
        cfg = SystemConfig(n=4, seed=0)
        adv = Adversary({9: SilentBehavior()})
        with pytest.raises(ConfigurationError):
            adv.validate(cfg)

    def test_install_sets_behavior(self):
        cfg = SystemConfig(n=4, seed=0)
        rt = Runtime(cfg)
        behavior = SilentBehavior()
        Adversary({3: behavior}).install(rt)
        assert rt.host(3).behavior is behavior
        assert rt.host(1).behavior is None

    def test_describe_lists_behaviors(self):
        adv = Adversary({1: CrashBehavior(5), 2: SilentBehavior()})
        text = adv.describe()
        assert "Crash" in text and "SilentBehavior" in text

    def test_random_adversary_within_bounds(self):
        cfg = SystemConfig(n=7, seed=0)
        for seed in range(20):
            adv = random_adversary(cfg, random.Random(seed))
            assert len(adv.corrupt_pids) <= cfg.t
            adv.validate(cfg)

    def test_random_adversary_kind_filter(self):
        cfg = SystemConfig(n=7, seed=0)
        adv = random_adversary(cfg, random.Random(1), count=2, kinds=["silent"])
        assert all(
            isinstance(b, SilentBehavior) for b in adv.corruptions.values()
        )

    def test_behavior_catalogue_complete(self):
        rng = random.Random(0)
        for name, factory in BEHAVIOR_KINDS.items():
            behavior = factory(rng)
            assert isinstance(behavior, ByzantineBehavior), name


class TestBehaviors:
    def test_crash_immediately(self):
        cfg = SystemConfig(n=4, seed=0)
        rt = Runtime(cfg)
        CrashBehavior(0).install(rt.host(1))
        assert rt.host(1).crashed

    def test_crash_after_budget(self):
        cfg = SystemConfig(n=4, seed=0)
        rt = Runtime(cfg)
        CrashBehavior(after_messages=2).install(rt.host(1))
        for _ in range(5):
            rt.host(1).send(2, ("x",), "test")
        # only 2 messages made it onto the wire
        assert rt.trace.total_messages == 2
        assert rt.host(1).crashed

    def test_crash_rejects_negative(self):
        with pytest.raises(ValueError):
            CrashBehavior(-1)

    def test_silent_drops_everything(self):
        cfg = SystemConfig(n=4, seed=0)
        rt = Runtime(cfg)
        SilentBehavior().install(rt.host(1))
        rt.host(1).send_all(("x",), "test")
        assert rt.trace.total_messages == 0

    def test_mutator_rate_bounds(self):
        with pytest.raises(ValueError):
            MutatingBehavior(random.Random(0), rate=1.5)

    def test_mutator_perturbs_some_messages(self):
        cfg = SystemConfig(n=4, seed=0)
        rt = Runtime(cfg)
        MutatingBehavior(random.Random(3), rate=1.0).install(rt.host(1))
        host = rt.host(1)
        got = []
        rt.host(2).register_handler("x", lambda s, p: got.append(p))
        for _ in range(50):
            host.send(2, ("x", 12345), "test")
        rt.run_to_quiescence()
        # with rate=1.0 every message is dropped, duplicated, or mutated:
        # at least one delivered payload must differ from the original
        assert any(p != ("x", 12345) for p in got)

    def test_mutator_preserves_routing_tags(self):
        behavior = MutatingBehavior(random.Random(0), rate=1.0)
        behavior._prime = 13
        for _ in range(50):
            mutated = behavior._mutate(("tag", 5))
            assert mutated[0] == "tag"

    def test_equivocating_dealer_changes_per_recipient(self):
        rng = random.Random(0)
        behavior = EquivocatingDealerBehavior(rng)
        base = [1, 2, 3, 4]
        out1 = behavior.corrupt_mw_share_values(("s",), 1, base, 97)
        assert len(out1) == 4
        assert out1 != base or True  # mutation touches one slot
        # original list untouched
        assert base == [1, 2, 3, 4]

    def test_lying_reconstructor_changes_values(self):
        behavior = LyingReconstructorBehavior(random.Random(0), rate=1.0)
        out = behavior.corrupt_mw_reconstruct_values(("s",), {1: 5, 2: 6}, 97)
        assert set(out) == {1, 2}

    def test_lying_confirmer(self):
        behavior = LyingConfirmerBehavior(random.Random(0), rate=1.0)
        values = {behavior.corrupt_mw_confirm_value(("s",), 1, 5, 97) for _ in range(20)}
        assert values - {5}, "must actually lie sometimes"

    def test_biased_coin_always_zero(self):
        behavior = BiasedCoinBehavior()
        assert behavior.coin_secret(("c",), 1, 7, 4) == 0

    def test_aba_liar_flips_bits(self):
        behavior = ABALiarBehavior(random.Random(0))
        assert behavior.aba_vote(1, 1, 0) == 1
        assert behavior.aba_vote(1, 1, 1) == 0

    def test_deviation_lookup(self):
        cfg = SystemConfig(n=4, seed=0)
        rt = Runtime(cfg)
        host = rt.host(1)
        assert host.deviation("coin_secret") is None
        BiasedCoinBehavior().install(host)
        assert host.deviation("coin_secret") is not None
        assert host.deviation("nonexistent_hook") is None


class TestSpecs:
    """Every factory stamps a picklable reproducibility spec."""

    def test_static_factory_specs(self):
        assert no_adversary().spec == ("none",)
        assert crash_adversary([2], 5).spec == ("crash", (2,), 5)
        assert crash_recovery_adversary([3]).spec == (
            "crash-recover", (3,), (40, 80), 30.0,
        )
        assert slot_poison_adversary([4], random.Random(0), 2).spec == (
            "slot-poison", (4,), 2,
        )

    def test_random_adversary_spec_rebuilds_identically(self):
        cfg = SystemConfig(n=7, seed=0)
        adv = random_adversary(cfg, random.Random(42))
        kind, seed, chosen = adv.spec
        rebuilt = random_adversary(cfg, seed)
        assert rebuilt.spec == adv.spec
        assert sorted(rebuilt.corruptions) == sorted(adv.corruptions)

    def test_random_adversary_accepts_integer_seed(self):
        cfg = SystemConfig(n=7, seed=0)
        assert random_adversary(cfg, 99).spec == random_adversary(cfg, 99).spec


class TestSlotPoisoner:
    def _sid(self, slot, dealer=1, csid="c"):
        return ("svss", (csid, slot), dealer)

    def test_slot_and_group_svss(self):
        slot, group = SlotPoisonerBehavior._slot_and_group(self._sid(3))
        assert slot == 3 and group == ("s", "c", 1)

    def test_slot_and_group_mw(self):
        sid = ("mw", self._sid(2), 3, 1, "md")
        slot, group = SlotPoisonerBehavior._slot_and_group(sid)
        assert slot == 2 and group == ("m", "c", 1, 3, 1, "md")

    def test_slot_and_group_rejects_foreign_sids(self):
        assert SlotPoisonerBehavior._slot_and_group(("other", 1, 2)) is None
        assert SlotPoisonerBehavior._slot_and_group("not-a-tuple") is None

    def test_rejects_bad_slots(self):
        with pytest.raises(ValueError):
            SlotPoisonerBehavior(random.Random(0), fixed_slot=0)
        with pytest.raises(ValueError):
            SlotPoisonerBehavior(random.Random(0), start_slot=0)

    def test_poison_changes_exactly_one_leaf(self):
        rt = Runtime(SystemConfig(n=4, seed=0))
        behavior = SlotPoisonerBehavior(random.Random(1))
        behavior.install(rt.host(1))
        body = ((1, 2), (3, 4))
        poisoned = behavior._poison(body)
        flat = [x for row in body for x in row]
        flat_p = [x for row in poisoned for x in row]
        assert sum(a != b for a, b in zip(flat, flat_p)) == 1

    def test_fixed_slot_poisons_only_that_slot(self):
        rt = Runtime(SystemConfig(n=4, seed=0))
        host = rt.host(1)
        behavior = SlotPoisonerBehavior(random.Random(1), fixed_slot=2)
        behavior.install(host)
        for slot in (1, 2, 3, 4):
            host.send(2, ("v", self._sid(slot), "sh", (5, 6)), "test")
        got = {}
        rt.host(2).register_handler(
            "v", lambda src, p: got.__setitem__(p[1][1][1], p[3])
        )
        rt.run_to_quiescence()
        assert behavior.poisoned == 1 and behavior.passed == 3
        assert got[1] == (5, 6) and got[3] == (5, 6) and got[4] == (5, 6)
        assert got[2] != (5, 6)

    def test_rotating_target_advances_per_window(self):
        rt = Runtime(SystemConfig(n=4, seed=0))
        host = rt.host(1)
        behavior = SlotPoisonerBehavior(random.Random(1))
        behavior.install(host)
        # Two full windows of slots 1..4 on one (dst, group, kind) stream:
        # window 0 targets slot 1, window 1 targets slot 2.
        poisoned_slots = []
        original = (5, 6)
        for _ in range(2):
            for slot in (1, 2, 3, 4):
                host.outbound_filter(2, ("v", self._sid(slot), "sh", original))
        assert behavior.poisoned == 2 and behavior.passed == 6

    def test_non_session_traffic_passes_untouched(self):
        rt = Runtime(SystemConfig(n=4, seed=0))
        host = rt.host(1)
        behavior = SlotPoisonerBehavior(random.Random(1))
        behavior.install(host)
        payload = ("b1", ("bid",), ("value",))
        assert host.outbound_filter(2, payload) is payload
        assert behavior.poisoned == 0


class TestCrashRecoveryBehavior:
    def test_validates_schedule(self):
        with pytest.raises(ValueError):
            CrashRecoveryBehavior(phases=())
        with pytest.raises(ValueError):
            CrashRecoveryBehavior(phases=(0,))
        with pytest.raises(ValueError):
            CrashRecoveryBehavior(downtime=0.0)

    def test_crash_then_recover_then_stay_live(self):
        rt = Runtime(SystemConfig(n=4, seed=0))
        behavior = CrashRecoveryBehavior(phases=(2,), downtime=10.0)
        behavior.install(rt.host(1))
        got = []
        rt.host(2).register_handler("x", lambda s, p: got.append(p))
        for i in range(5):
            rt.host(1).send(2, ("x", i), "test")
        assert rt.host(1).crashed and behavior.crashes == 1
        rt.run_to_quiescence()  # delivers the wake
        assert not rt.host(1).crashed and behavior.recoveries == 1
        # Schedule exhausted: the host now stays live forever.
        for i in range(5, 10):
            rt.host(1).send(2, ("x", i), "test")
        rt.run_to_quiescence()
        assert not rt.host(1).crashed
        # Uniform random delays reorder deliveries; the *set* is what the
        # budget controls: 2 pre-crash messages plus everything after.
        assert sorted(p[1] for p in got) == [0, 1, 5, 6, 7, 8, 9]

    def test_multi_phase_schedule_rearms(self):
        rt = Runtime(SystemConfig(n=4, seed=0))
        behavior = CrashRecoveryBehavior(phases=(1, 1), downtime=5.0)
        behavior.install(rt.host(1))
        rt.host(1).send(2, ("x",), "test")
        rt.host(1).send(2, ("x",), "test")  # budget hit: crash #1
        assert behavior.crashes == 1
        rt.run_to_quiescence()
        rt.host(1).send(2, ("x",), "test")
        rt.host(1).send(2, ("x",), "test")  # crash #2
        assert behavior.crashes == 2
        rt.run_to_quiescence()
        assert behavior.recoveries == 2 and not rt.host(1).crashed


class TestAdaptiveAdversary:
    def test_rejects_unknown_policy_and_kind(self):
        cfg = SystemConfig(n=4, seed=0)
        with pytest.raises(ConfigurationError):
            AdaptiveAdversary(cfg, 0, policy="psychic")
        with pytest.raises(ConfigurationError):
            AdaptiveAdversary(cfg, 0, kind="gremlin")

    def test_budget_capped_at_t(self):
        cfg = SystemConfig(n=7, seed=0)
        adv = AdaptiveAdversary(cfg, 0, budget=99)
        assert adv.budget == cfg.t == 2

    def test_one_tap_per_runtime(self):
        cfg = SystemConfig(n=4, seed=0)
        rt = Runtime(cfg)
        AdaptiveAdversary(cfg, 0).install(rt)
        with pytest.raises(ConfigurationError):
            AdaptiveAdversary(cfg, 1).install(rt)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_strikes_at_most_t_after_warmup(self, policy):
        cfg = SystemConfig(n=4, seed=2)
        mon = InvariantMonitor()
        adv = AdaptiveAdversary(cfg, 7, policy=policy, warmup=30)
        result = run_byzantine_agreement(
            [0, 1, 0, 1], cfg, adversary=adv, monitor=mon
        )
        assert result.agreed
        assert 0 < len(adv.victims) <= cfg.t
        assert adv.spec[0] == "adaptive" and adv.spec[2] == policy
        assert adv.struck_at is not None
        # The monitor saw each corruption as it landed.
        assert [pid for _, pid, _ in mon.verdict()["corruptions"]] == list(
            adv.victims
        )

    def test_victims_deterministic_across_engines(self):
        # Both engines replay the identical delivery stream, so the
        # adaptive strike lands on the same victims at the same time.
        outcomes = {}
        for engine in ("flat", "legacy"):
            cfg = SystemConfig(n=4, seed=5)
            adv = AdaptiveAdversary(cfg, 7, warmup=40)
            result = run_byzantine_agreement(
                [1, 0, 1, 0], cfg, adversary=adv, engine=engine
            )
            assert result.agreed and adv.victims
            outcomes[engine] = (adv.victims, adv.struck_at, adv.spec)
        assert outcomes["flat"] == outcomes["legacy"]

    def test_zero_budget_never_taps(self):
        cfg = SystemConfig(n=3, t=0, seed=0)
        rt = Runtime(cfg)
        AdaptiveAdversary(cfg, 0).install(rt)
        assert rt.delivery_tap is None


class TestEclipseScheduler:
    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            CoinRevealEclipseScheduler(Scheduler(), {4}, hold=0.0)
        with pytest.raises(ValueError):
            CoinRevealEclipseScheduler(Scheduler(), {4}, window=-1.0)

    def test_reveal_classifier(self):
        carries = CoinRevealEclipseScheduler._carries_reveal
        rv_vss = ("b1", ("bid",), ("vss", ("sid",), "rv", (1, 2)))
        rv_svec = ("b2", ("bid",), ("svec", "rv", ("group",), ((1, (2,)),)))
        share = ("b1", ("bid",), ("vss", ("sid",), "sh", (1, 2)))
        assert carries(rv_vss) and carries(rv_svec)
        assert not carries(share)
        assert not carries(("v", ("sid",), "rv", (1,)))  # private, not RB
        assert carries(("env", (share, rv_vss)))
        assert not carries(("env", (share, share)))

    def test_eclipse_window_delays_boundary_crossings(self):
        sched = CoinRevealEclipseScheduler(
            Scheduler(), victims={4}, hold=40.0, window=30.0
        )
        rv = ("b1", ("bid",), ("vss", ("sid",), "rv", (1,)))
        plain = ("x",)
        # Before any reveal sighting: base delay everywhere.
        assert sched.delay(1, 4, plain, 0.0) == 1.0
        # A reveal opens the window (and is itself held across the cut).
        assert sched.delay(1, 4, rv, 10.0) == 41.0
        assert sched.delay(4, 2, plain, 20.0) == 41.0  # victim -> outside
        assert sched.delay(1, 2, plain, 20.0) == 1.0  # inside majority
        assert sched.delay(1, 4, plain, 45.0) == 1.0  # window expired

    def test_inherits_base_split_flags(self):
        base = SlotSplittingScheduler(Scheduler())
        sched = CoinRevealEclipseScheduler(base, {4})
        assert sched.splits_slots and not sched.splits_envelopes


class TestSlotPoisonCompositions:
    """Satellite: the poisoned slot never invalidates its vector siblings,
    with and without the packing vetoed, on both engines."""

    @pytest.mark.parametrize("engine", ["flat", "legacy"])
    @pytest.mark.parametrize("veto_packing", [False, True])
    def test_poisoned_slot_costs_only_itself(self, engine, veto_packing):
        cfg = SystemConfig(n=4, seed=13)
        scheduler = UniformDelayScheduler(cfg.derive_rng("scheduler"))
        if veto_packing:
            scheduler = SlotSplittingScheduler(scheduler)
        adv = slot_poison_adversary(
            [4], cfg.derive_rng("adversary"), fixed_slot=1
        )
        mon = InvariantMonitor(round_bound=300)
        result = run_byzantine_agreement(
            [0, 1, 0, 1],
            cfg,
            coin="svss",
            scheduler=scheduler,
            adversary=adv,
            max_rounds=300,
            engine=engine,
            monitor=mon,
        )
        # Sibling slots stayed valid: the run still decides, and no honest
        # process ever shuns an honest peer (the monitor would have raised).
        assert result.agreed
        behavior = adv.corruptions[4]
        assert behavior.poisoned > 0 and behavior.passed > 0
        # Any shun that did land names the poisoner, never a sibling dealer.
        assert all(
            culprit == 4 for _, culprit in mon.verdict()["shun_pairs"]
        )
