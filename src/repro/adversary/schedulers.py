"""Protocol-aware adversarial schedulers.

The plain schedulers in :mod:`repro.sim.scheduler` delay by address only.
The scheduler here implements the classic worst case for coin-based
agreement — the *vote-balancing* schedule: vote deliveries are ordered by
their *value*, so that one half of the processes keeps seeing a majority
for 0 and the other half for 1 (as long as both values exist among the
current estimates).  Every round then ends with the processes consulting
the coin:

* against a **private coin** (Ben-Or, Bracha) the estimates re-randomize
  each round and stay split for an expected number of rounds exponential
  in ``n`` — the baselines' blow-up in experiment E2;
* against an **ε-failure coin** (Canetti-Rabin with failed AVSS) the
  adversary keeps the estimates split forever once the coin fails — the
  non-termination of experiment E8;
* against a **true common coin** (the paper's SCC) the schedule is
  powerless: one good flip hands every process the same estimate and the
  next round decides.

Eventual delivery still holds: held messages arrive after a finite delay.

Aggregation interplay: the simulator packs logical messages into envelopes
and ``("svec", ...)`` / ``("abav", ...)`` vectors (see
:mod:`repro.sim.runtime`).  :class:`VoteBalancingScheduler` classifies
envelopes and vote vectors by their dominant vote; the two splitting
wrappers instead refuse the packing, and wrapping a base policy in both
replays the paper's per-message run of that base exactly.
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.core.agreement import ABAV_TAG
from repro.sim.process import ENVELOPE_TAG
from repro.sim.scheduler import Scheduler


class VoteBalancingScheduler(Scheduler):
    """Order vote deliveries by value to keep the system split.

    Receivers in group A (the first half of the pids) get 1-valued votes
    late; receivers in group B get 0-valued votes late.  While both values
    exist among the estimates, each group keeps adopting "its" value, no
    phase-2 value exceeds ``n/2`` system-wide, and every process falls
    through to the coin in every round.
    """

    def __init__(self, config: SystemConfig, base_delay: float = 1.0, hold: float = 50.0):
        self.n = config.n
        self._base = base_delay
        self._hold = hold
        self._group_a = frozenset(range(1, config.n // 2 + 1))

    @staticmethod
    def _dominant(values) -> int | None:
        """The vote value most of ``values`` argue for (``None`` entries
        abstain); ties break to the first non-``None`` value."""
        counts = [0, 0]
        first: int | None = None
        for value in values:
            if value is None:
                continue
            if first is None:
                first = value
            counts[value] += 1
        if counts[0] == counts[1]:
            return first  # None when nothing was classifiable
        return 0 if counts[0] > counts[1] else 1

    @classmethod
    def _vote_value(cls, payload: object) -> int | None:
        """The binary value a (possibly coalesced) message argues for.

        Envelope events are classified by their *dominant* sub-payload:
        the vote value the most sub-messages argue for (ties break to the
        first classifiable sub-payload).  Without this, every coalesced
        vote would fall through to the base delay and the balancing attack
        would silently vanish on the aggregated wire.
        """
        if (
            isinstance(payload, tuple)
            and len(payload) == 2
            and payload[0] == ENVELOPE_TAG
            and isinstance(payload[1], tuple)
        ):
            return cls._dominant(map(cls._single_vote_value, payload[1]))
        return cls._single_vote_value(payload)

    @classmethod
    def _single_vote_value(cls, payload: object) -> int | None:
        """The binary value one logical vote message argues for, if any.

        A packed ``("abav", seq, entries)`` vote vector argues for its
        dominant entry vote, the same way an envelope is classified."""
        vote = None
        # ABA votes travel as RB values ("aba", instance_id, r, phase, vote)
        # or packed ("abav", seq, ((instance_id, r, phase, vote), ...));
        # Ben-Or votes as plain sends ("benor", instance_id, r, phase, vote).
        if (
            isinstance(payload, tuple)
            and len(payload) == 3
            and payload[0] in ("b1", "b2", "b3")
            and isinstance(payload[2], tuple)
        ):
            value = payload[2]
            size = len(value)
            if size == 5 and value[0] == "aba":
                vote = value[4]
            elif size == 3 and value[0] == ABAV_TAG and isinstance(value[2], tuple):
                return cls._dominant(
                    cls._entry_vote(entry[3])
                    for entry in value[2]
                    if isinstance(entry, tuple) and len(entry) == 4
                )
        elif (
            isinstance(payload, tuple)
            and len(payload) == 5
            and payload[0] == "benor"
        ):
            vote = payload[4]
        if vote is None:
            return None
        return cls._entry_vote(vote)

    @staticmethod
    def _entry_vote(vote: object) -> int | None:
        if vote in (0, 1):
            return vote
        if isinstance(vote, tuple) and len(vote) == 2 and vote[0] in (0, 1):
            return vote[0]  # flagged phase-3 vote (w, D)
        return None

    def delay(self, src: int, dst: int, payload: object, now: float) -> float:
        value = self._vote_value(payload)
        if value is None:
            return self._base
        held = 1 if dst in self._group_a else 0
        if value == held:
            return self._hold
        return self._base

    def describe(self) -> str:
        return f"VoteBalancing(hold={self._hold})"


class _SplittingWrapper(Scheduler):
    """Delegates every delay to ``base`` and ORs its split flags into the
    subclass's own, so the composed wrapper order does not matter."""

    _label = ""

    def __init__(self, base: Scheduler):
        self._base = base
        for flag in ("splits_envelopes", "splits_slots"):
            setattr(
                self, flag, getattr(type(self), flag) or getattr(base, flag, False)
            )

    def delay(self, src: int, dst: int, payload: object, now: float) -> float:
        return self._base.delay(src, dst, payload, now)

    def fixed_delay(self) -> float | None:
        return self._base.fixed_delay()

    def describe(self) -> str:
        return f"{self._label}({self._base.describe()})"


class EnvelopeSplittingScheduler(_SplittingWrapper):
    """Adversarial wrapper that splits every envelope back into per-message
    deliveries.

    The coalescing contract defines delay/drop/mutate semantics per
    *logical* message; this scheduler is the path that makes the claim
    checkable — with ``splits_envelopes`` set, the runtime never opens its
    send buffer and schedules every message through :meth:`delay` at send
    time, so an adversary wrapping any base policy keeps exactly the
    per-message power of the paper's model, and the run is the
    per-message run of the base, bit for bit (``tests/test_coalesce.py``
    pins it under fixed and uniform delays).
    """

    splits_envelopes = True
    _label = "Split"


class SlotSplittingScheduler(_SplittingWrapper):
    """Adversarial wrapper that vetoes session-vector packing entirely.

    The slot-vector analogue of :class:`EnvelopeSplittingScheduler`, one
    layer up: with ``splits_slots`` set the VSS layer never folds a coin's
    per-slot session messages into ``("svec", ...)`` vectors — every slot
    message is sent, scheduled and delivered per session, so an adversary
    wrapping any base policy keeps exactly the per-session power it had
    before aggregation existed.  The vote layer's ``("abav", ...)``
    vectors are vetoed the same way.  Compose with
    :class:`EnvelopeSplittingScheduler` to strip both transports at once.
    """

    splits_slots = True
    _label = "SlotSplit"


class CoinRevealEclipseScheduler(Scheduler):
    """Eclipse a minority exactly when coin reveals start flowing.

    The attack ROADMAP item 5 names for the batched service path: in a
    batch, :class:`~repro.core.coin.SharedCoinGate` releases the shared
    round coin only after every live instance fixed its round position —
    the release boundary is when ``"rv"`` (reconstruct-value) broadcasts
    start flowing.  This scheduler watches for reveal-carrying traffic
    (plain VSS values, slot-vectors, and envelopes containing either) and,
    for a ``window`` of simulated time after each sighting, holds every
    message *crossing* the victim-minority boundary for an extra ``hold``
    — so the victims learn the coin (and contribute their reconstruct
    shares) as late as the model allows, precisely across gate releases.
    Messages inside either side of the partition flow normally, and
    eventual delivery holds (``hold`` is finite), so this is a legal
    adversary; the paper's claim under test is that the coin's t-privacy
    and the gate's release discipline make the eclipse powerless beyond
    delay.

    ``victims`` should be a minority (≤ t in campaign cells so the cell
    stays honest-majority in the scheduler sense too); the adversary gets
    reveal-sighted eclipse windows on top of whatever ``base`` does.
    """

    def __init__(
        self,
        base: Scheduler,
        victims: frozenset[int] | set[int],
        hold: float = 40.0,
        window: float = 30.0,
    ):
        if not (hold > 0.0) or not (window > 0.0):
            raise ValueError("hold and window must be positive")
        self._base = base
        self._victims = frozenset(victims)
        self._hold = hold
        self._window = window
        self._eclipse_until = float("-inf")
        self.splits_envelopes = bool(getattr(base, "splits_envelopes", False))
        self.splits_slots = bool(getattr(base, "splits_slots", False))

    @property
    def victims(self) -> frozenset[int]:
        return self._victims

    @classmethod
    def _carries_reveal(cls, payload: object) -> bool:
        """Does this wire payload carry any reconstruct-phase traffic?"""
        if not isinstance(payload, tuple) or not payload:
            return False
        tag = payload[0]
        if tag == ENVELOPE_TAG:
            return (
                len(payload) == 2
                and isinstance(payload[1], tuple)
                and any(cls._carries_reveal(sub) for sub in payload[1])
            )
        if tag in ("b1", "b2", "b3") and len(payload) == 3:
            return cls._value_reveal(payload[2])
        return False

    @staticmethod
    def _value_reveal(value: object) -> bool:
        if not isinstance(value, tuple) or len(value) != 4:
            return False
        # RB value shapes: ("vss", sid, kind, body) per session, or the
        # aggregated ("svec", kind, group, entries) slot-vector.
        if value[0] == "vss":
            return value[2] == "rv"
        if value[0] == "svec":
            return value[1] == "rv"
        return False

    def delay(self, src: int, dst: int, payload: object, now: float) -> float:
        base = self._base.delay(src, dst, payload, now)
        if self._carries_reveal(payload):
            until = now + self._window
            if until > self._eclipse_until:
                self._eclipse_until = until
        if now < self._eclipse_until and (
            (src in self._victims) != (dst in self._victims)
        ):
            return base + self._hold
        return base

    def describe(self) -> str:
        return (
            f"RevealEclipse(victims={sorted(self._victims)}, "
            f"hold={self._hold}, window={self._window})"
        )
