"""Message-delay schedulers: the adversary's control over asynchrony.

The paper's model lets the adversary delay any message by an arbitrary
finite amount (eventual delivery is the only guarantee).  A scheduler maps
every send to a delivery delay; adversarial schedulers implement targeted
slow-downs, reorderings and temporary partitions while still guaranteeing
eventual delivery, exactly as the model demands.
"""

from __future__ import annotations

import math
from random import Random


class Scheduler:
    """Base scheduler: fixed unit delay (effectively a synchronous network).

    Subclasses override :meth:`delay`.  Delays must be positive and finite;
    returning an unbounded delay would violate the paper's eventual-delivery
    assumption and is the one thing the adversary is *not* allowed to do.

    The runtime coalesces, so :meth:`delay` may receive an *envelope*
    payload ``("env", (sub_payload, ...))`` carrying several logical
    messages for the same destination.  A payload-sensitive scheduler must
    either classify the envelope as a whole (see
    ``repro.adversary.schedulers.VoteBalancingScheduler``) or set
    :attr:`splits_envelopes` to opt out of shared delivery entirely: the
    runtime then schedules every message individually at send time, so the
    adversary's per-message delay control is exactly the paper's.
    Address-only schedulers need neither — one shared delay per (src, dst)
    step is within the powers the model already grants the adversary.
    """

    #: When True the runtime never coalesces under this scheduler: each
    #: logical message gets its own :meth:`delay` call, at send time, and
    #: its own queue event (the envelope-splitting adversary path).
    splits_envelopes: bool = False

    #: When True the VSS layer never packs session-vector (``"svec"``)
    #: messages, nor the vote layer ``"abav"`` vectors, under this
    #: scheduler: every per-slot coin session message travels — and is
    #: scheduled — per session, restoring the exact pre-aggregation
    #: adversarial surface (see
    #: ``repro.adversary.schedulers.SlotSplittingScheduler`` and
    #: :mod:`repro.core.vectormux`).
    splits_slots: bool = False

    def delay(self, src: int, dst: int, payload: object, now: float) -> float:
        return 1.0

    def fixed_delay(self) -> float | None:
        """The constant every :meth:`delay` call returns, or None.

        A non-None answer lets the runtime pick the bucketed calendar queue
        and skip the per-message scheduler call entirely.  The default is
        deliberately paranoid: it only claims a constant when :meth:`delay`
        itself is *not* overridden, so a subclass that changes ``delay``
        without thinking about this hint degrades to the general path
        instead of silently mis-scheduling.
        """
        if type(self).delay is Scheduler.delay:
            return 1.0
        return None

    def describe(self) -> str:
        return type(self).__name__


class FifoScheduler(Scheduler):
    """Constant delay: messages arrive in send order (lock-step network)."""


class UniformDelayScheduler(Scheduler):
    """Independent uniform random delays in ``[low, high]``.

    The workhorse for randomized experiments: arbitrary interleavings and
    reorderings, seeded for replay.
    """

    def __init__(self, rng: Random, low: float = 0.1, high: float = 10.0):
        if low <= 0 or high < low:
            raise ValueError(f"need 0 < low <= high, got [{low}, {high}]")
        self._rng = rng
        self._low = low
        self._high = high

    def delay(self, src: int, dst: int, payload: object, now: float) -> float:
        return self._rng.uniform(self._low, self._high)

    def describe(self) -> str:
        return f"Uniform[{self._low},{self._high}]"


class ExponentialDelayScheduler(Scheduler):
    """Exponentially distributed delays — heavy reordering, realistic tails."""

    def __init__(self, rng: Random, mean: float = 1.0, floor: float = 0.01):
        if mean <= 0 or floor <= 0:
            raise ValueError("mean and floor must be positive")
        self._rng = rng
        self._mean = mean
        self._floor = floor

    def delay(self, src: int, dst: int, payload: object, now: float) -> float:
        return self._floor + self._rng.expovariate(1.0 / self._mean)

    def describe(self) -> str:
        return f"Exp(mean={self._mean})"


class TargetedDelayScheduler(Scheduler):
    """Adversarial policy: slow every message touching a victim set.

    Messages to or from ``victims`` get ``factor`` times the base delay —
    the classic adversarial move of starving some nonfaulty processes so the
    rest must complete waits without them (e.g. the schedule that drives the
    paper's Example 1).  Eventual delivery still holds.
    """

    def __init__(
        self,
        base: Scheduler,
        victims: frozenset[int] | set[int],
        factor: float = 100.0,
    ):
        if factor < 1.0:
            raise ValueError("factor must be >= 1")
        self._base = base
        self._victims = frozenset(victims)
        self._factor = factor

    @property
    def victims(self) -> frozenset[int]:
        return self._victims

    def delay(self, src: int, dst: int, payload: object, now: float) -> float:
        base = self._base.delay(src, dst, payload, now)
        if src in self._victims or dst in self._victims:
            return base * self._factor
        return base

    def describe(self) -> str:
        return f"Targeted(victims={sorted(self._victims)}, x{self._factor})"


class IntermittentPartitionScheduler(Scheduler):
    """Adversarial policy: periodically isolate a group.

    During the first half of every period of length ``period``, messages
    crossing the ``group`` boundary are held for an extra ``hold`` delay.
    Models a flapping partition; eventual delivery still holds.

    Phase invariant: the partition window of period ``k`` is
    ``[k * period, k * period + period / 2)``.  The phase test uses
    ``math.fmod(now, period)`` with a precomputed half-period:  ``fmod`` is
    computed exactly for IEEE-754 doubles (no drift however large ``now``
    grows — the regression test drives it past ``1e12``), and the guard
    below keeps the phase inside ``[0, period)`` even for the rounding
    corner cases where ``fmod`` can return a result equal to the modulus
    sign-adjusted toward zero.
    """

    def __init__(
        self,
        base: Scheduler,
        group: frozenset[int] | set[int],
        period: float = 50.0,
        hold: float = 25.0,
    ):
        if period <= 0 or hold < 0:
            raise ValueError("period must be positive and hold non-negative")
        self._base = base
        self._group = frozenset(group)
        self._period = period
        self._half_period = period / 2.0
        self._hold = hold

    def delay(self, src: int, dst: int, payload: object, now: float) -> float:
        base = self._base.delay(src, dst, payload, now)
        if (src in self._group) == (dst in self._group):
            return base  # not crossing: the partition never applies
        phase = math.fmod(now, self._period)
        if phase < 0.0:
            phase += self._period
        if phase < self._half_period:
            return base + self._hold
        return base

    def describe(self) -> str:
        return f"Partition(group={sorted(self._group)})"


def default_scheduler(rng: Random) -> Scheduler:
    """The scheduler used when callers do not pick one."""
    return UniformDelayScheduler(rng)
