"""The benchmark's four decision-level workloads.

Every workload is one caller issuing one Byzantine agreement at a time
(a closed loop) at optimal resilience n = 3t+1.  Inputs come only from
``(workload, seed, index)``; the program sees the generated inputs, never
the seed.  See ``README.md`` for why each workload exists.

The simulated workloads go through ``run_byzantine_agreement`` on the
production path: ``svec`` and ``coalesce`` on, batched ingestion and the
algebra backend at their defaults, the simulator's per-message trace off.
:func:`production_switches` is the one place that names the aggregation
switches, and it passes only those the API still accepts.
"""

from __future__ import annotations

import asyncio
import inspect
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import InvariantMonitor, SystemConfig, run_byzantine_agreement
from repro.adversary import Adversary, LyingReconstructorBehavior, VoteBalancingScheduler
from repro.net.cluster import NetCluster
from repro.net.transport import TransportConfig
from repro.sim.scheduler import FifoScheduler, Scheduler, UniformDelayScheduler
from repro.sim.tracing import TRACE_OFF

#: The aggregation switches the production path turns on.
AGGREGATION_SWITCHES = ("svec", "coalesce")

#: Runtime counters every simulated result carries (summed for the trace
#: cross-checks).
SIM_COUNTERS = (
    "events_dispatched",
    "envelopes_pushed",
    "payloads_coalesced",
    "svec_packed",
    "svec_slots",
    "svec_batch_ingested",
    "dmm_verdict_calls",
    "dmm_verdicts_batched",
    "dmm_verdict_fallbacks",
    "rows_vectorized",
    "backend_fallbacks",
)


def production_switches(api=run_byzantine_agreement) -> dict[str, bool]:
    """``{switch: True}`` for every aggregation switch ``api`` accepts.

    Once the switches are retired from the API signature the production
    path is simply the default, and this returns ``{}``."""
    params = inspect.signature(api).parameters
    return {name: True for name in AGGREGATION_SWITCHES if name in params}


class RecordingMonitor(InvariantMonitor):
    """The live invariant monitor, also keeping what the benchmark checks:
    every violation it raised and each instance's decision round."""

    def __init__(self):
        super().__init__()
        self.violations: list[str] = []
        #: instance -> the highest round in which a nonfaulty process decided.
        self.rounds: dict[object, int] = {}
        #: instance -> wall clock (``perf_counter``) of the latest nonfaulty
        #: decision.
        self.decided_at: dict[object, float] = {}

    def on_decision(self, instance, pid, value, r):
        if self.runtime.host(pid).behavior is None:
            self.rounds[instance] = max(self.rounds.get(instance, 0), r)
            self.decided_at[instance] = time.perf_counter()
        super().on_decision(instance, pid, value, r)

    def _fail(self, kind, message, detail):
        self.violations.append(kind)
        super()._fail(kind, message, detail)


@dataclass
class Outcome:
    """One decision as the benchmark saw it."""

    ok: bool
    reason: str = ""
    rounds: int = 0
    msgs: int = 0
    value: int | None = None
    shun_pairs: int = 0
    #: When the last nonfaulty process decided (``perf_counter``), if the
    #: workload measures latency to that moment instead of to the return
    #: of the call that runs it.
    decided_at: float | None = None
    counters: dict = field(default_factory=dict)

    @property
    def signature(self) -> tuple:
        """What a traced replay of the same decision must reproduce.

        The algebra backend's counters are left out: they also count the
        process-wide basis cache filling up, so a replay reads fewer."""
        protocol = {
            key: value
            for key, value in self.counters.items()
            if key not in ("rows_vectorized", "backend_fallbacks")
        }
        return (self.ok, self.value, self.rounds, self.msgs, protocol)


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


#: Seed of the untimed warm-up decisions: fixed, so set-up cost does not
#: depend on the run's seed.
WARMUP_SEED = 0


class SimWorkload:
    """A simulated agreement workload driven through the public API."""

    name = ""
    n = 4
    coin: object = "svss"
    #: Highest percentile with >= 10 of the run's decisions beyond it at
    #: the benchmark's run length (``decision_tail_s``).
    tail_pct: int
    #: ``msgs_per_decision`` and ``rounds_per_decision`` average the run's
    #: first this many decisions: a fixed set for a given seed, so in
    #: simulation they repeat exactly however fast the host is.
    count_decisions: int

    def __init__(self, api=run_byzantine_agreement):
        self.api = api
        self.switches = production_switches(api)
        self.config_t = SystemConfig(n=self.n).t

    # -- inputs ------------------------------------------------------------
    def spec(self, seed: int, index: int) -> dict:
        raise NotImplementedError

    def scheduler(self, spec: dict):
        raise NotImplementedError

    def adversary(self, spec: dict):
        return None

    def describe(self) -> dict:
        spec = self.spec(WARMUP_SEED, 0)
        return {
            "n": self.n,
            "t": self.config_t,
            "coin": repr(self.coin),
            "scheduler": self.scheduler(spec).describe(),
            "adversary": (self.adversary(spec) or Adversary()).describe(),
            "switches_passed": sorted(self.switches),
        }

    # -- lifecycle ---------------------------------------------------------
    def open(self) -> None:
        """Per-run resources (none in simulation)."""

    def close(self) -> None:
        pass

    def shutdown(self) -> None:
        pass

    def restart(self) -> None:
        """Rebuild per-run resources so a freshly installed tracer sees
        them (nothing to rebuild: every decision builds its own stack)."""

    # -- one decision ------------------------------------------------------
    def decide(self, spec: dict) -> Outcome:
        monitor = RecordingMonitor()
        result = self.api(
            spec["inputs"],
            SystemConfig(n=self.n, seed=spec["config_seed"]),
            coin=self.coin,
            scheduler=self.scheduler(spec),
            adversary=self.adversary(spec),
            trace_level=TRACE_OFF,
            monitor=monitor,
            **self.switches,
        )
        verdict = monitor.verdict()
        outcome = Outcome(
            ok=True,
            rounds=max(monitor.rounds.values(), default=0),
            msgs=result.logical_messages,
            value=result.decision,
            shun_pairs=len(verdict["shun_pairs"]),
            counters={name: getattr(result, name) for name in SIM_COUNTERS},
        )
        outcome.counters["algebra_backend"] = result.algebra_backend
        if not result.terminated:
            return _failed(outcome, "did not terminate")
        if not result.agreed:
            return _failed(outcome, "nonfaulty processes disagree")
        return self.check(outcome, verdict)

    def check(self, outcome: Outcome, verdict: dict) -> Outcome:
        return outcome


def _failed(outcome: Outcome, reason: str) -> Outcome:
    outcome.ok = False
    outcome.reason = reason
    return outcome


class CoinLockstep(SimWorkload):
    """Honest SVSS-coin agreement, unit-delay FIFO, rotated split inputs."""

    name = "coin_lockstep"
    tail_pct = 75
    count_decisions = 40

    def spec(self, seed, index):
        rng = _rng(self.name, seed, index)
        base = [0, 0, 1, 1]
        shift = rng.randrange(self.n)
        return {
            "inputs": base[shift:] + base[:shift],
            "config_seed": rng.randrange(2**31),
        }

    def scheduler(self, spec):
        return FifoScheduler()


#: The lying reconstructor's pid in ``coin_async_liar``.
LIAR = 4


class BalancedUniformDelay(Scheduler):
    """A seeded uniform delay plus the vote-balancing hold.

    Every message gets ``UniformDelayScheduler``'s delay; ABA votes that
    ``VoteBalancingScheduler`` would hold back get its hold on top.  The
    random part breaks lockstep; the balancing part keeps the honest
    estimates split until the coin is consulted, so every decision runs
    the coin (and its reconstruct) exactly once."""

    def __init__(self, config: SystemConfig, rng: random.Random):
        self._uniform = UniformDelayScheduler(rng)
        self._balance = VoteBalancingScheduler(config, base_delay=0.0)

    def delay(self, src, dst, payload, now):
        return self._uniform.delay(src, dst, payload, now) + self._balance.delay(
            src, dst, payload, now
        )

    def describe(self) -> str:
        return f"{self._uniform.describe()}+{self._balance.describe()}"


class CoinAsyncLiar(SimWorkload):
    """SVSS-coin agreement under seeded random delays with pid 4 lying in
    every MW-SVSS reconstruct (the DMM conviction path)."""

    name = "coin_async_liar"
    tail_pct = 25
    count_decisions = 10

    def spec(self, seed, index):
        rng = _rng(self.name, seed, index)
        # A 2-2 split: under vote balancing no value can win a round
        # before the coin is consulted.
        inputs = [0, 0, 1, 1]
        rng.shuffle(inputs)
        return {
            "inputs": inputs,
            "config_seed": rng.randrange(2**31),
            "delay_seed": rng.randrange(2**31),
            "liar_seed": rng.randrange(2**31),
        }

    def scheduler(self, spec):
        return BalancedUniformDelay(
            SystemConfig(n=self.n), random.Random(spec["delay_seed"])
        )

    def adversary(self, spec):
        return Adversary(
            {LIAR: LyingReconstructorBehavior(random.Random(spec["liar_seed"]))}
        )

    def check(self, outcome, verdict):
        pairs = verdict["shun_pairs"]
        honest = [pid for pid in range(1, self.n + 1) if pid != LIAR]
        if any(culprit != LIAR for _, culprit in pairs):
            return _failed(outcome, f"an honest pid was shunned: {pairs}")
        if len(pairs) > self.config_t * (self.n - self.config_t):
            return _failed(outcome, f"shun budget t(n-t) exceeded: {pairs}")
        if sorted(observer for observer, _ in pairs) != honest:
            return _failed(outcome, f"not every honest pid shunned the liar: {pairs}")
        return outcome


class VoteSweep(SimWorkload):
    """Ideal-coin agreement at n=10 under seeded uniform delays, inputs
    with a 2t+1 majority."""

    name = "vote_sweep"
    n = 10
    coin = ("ideal", 1.0)
    tail_pct = 98
    count_decisions = 300

    def spec(self, seed, index):
        rng = _rng(self.name, seed, index)
        # A 2t+1 majority, placed at random: every decision settles in the
        # first round, so latencies form one mode.  (With an even split a
        # random ~20% of decisions settle a round early, and the median
        # moved 21% between seeds.)
        majority = rng.randrange(2)
        inputs = [majority] * (2 * self.config_t + 1)
        inputs += [1 - majority] * (self.n - len(inputs))
        rng.shuffle(inputs)
        return {
            "inputs": inputs,
            "config_seed": rng.randrange(2**31),
            "delay_seed": rng.randrange(2**31),
        }

    def scheduler(self, spec):
        return UniformDelayScheduler(random.Random(spec["delay_seed"]))


class NetVotes:
    """Local-coin agreement on a 4-node loopback ``NetCluster``: HMAC auth
    on, write-ahead journal on (default ``batch`` fsync), no chaos.  One
    cluster serves sequential decisions on fresh instance ids."""

    name = "net_votes"
    n = 4
    coin = "local"
    tail_pct = 98
    count_decisions = 300
    #: A decision that takes longer than this counts as not terminated.
    timeout_s = 20.0

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.config_t = SystemConfig(n=self.n).t
        self.loop: asyncio.AbstractEventLoop | None = None
        self.cluster: NetCluster | None = None
        self.monitor: RecordingMonitor | None = None
        self._journal_dir: str | None = None
        self._instances = 0

    def spec(self, seed, index):
        rng = _rng(self.name, seed, index)
        return {"inputs": [rng.randrange(2) for _ in range(self.n)]}

    def describe(self) -> dict:
        return {
            "n": self.n,
            "t": self.config_t,
            "coin": self.coin,
            "scheduler": "loopback TCP",
            "adversary": "none",
            "switches_passed": [],
            "auth": True,
            "journal_fsync": TransportConfig().journal_fsync,
        }

    # -- lifecycle ---------------------------------------------------------
    def open(self) -> None:
        if self.loop is None:
            self.loop = asyncio.new_event_loop()
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._journal_dir = tempfile.mkdtemp(prefix="journal-", dir=self.workdir)
        self.monitor = RecordingMonitor()
        self.cluster = NetCluster(
            SystemConfig(n=self.n, seed=WARMUP_SEED),
            with_vss=False,
            trace_level=TRACE_OFF,
            monitor=self.monitor,
            journal_dir=self._journal_dir,
        )
        self.loop.run_until_complete(self.cluster.start())

    def close(self) -> None:
        if self.cluster is not None:
            self.loop.run_until_complete(self.cluster.close())
            self.cluster = None
        if self._journal_dir is not None:
            shutil.rmtree(self._journal_dir, ignore_errors=True)
            self._journal_dir = None

    def restart(self) -> None:
        self.close()
        self.open()

    def shutdown(self) -> None:
        self.close()
        if self.loop is not None:
            self.loop.run_until_complete(self.loop.shutdown_asyncgens())
            self.loop.close()
            self.loop = None

    # -- counters ----------------------------------------------------------
    def frames_sent(self) -> int:
        return sum(
            peer.stats.sent
            for node in self.cluster.nodes.values()
            for peer in node.peers.values()
        )

    def net_counters(self) -> dict:
        nodes = self.cluster.nodes.values()
        return {
            "events_dispatched": sum(node.runtime.events_dispatched for node in nodes),
            "journal_appended": sum(node.journal.appended for node in nodes),
            "journal_fsyncs": sum(node.journal.fsyncs for node in nodes),
            "retransmits": sum(
                peer.stats.retransmits for node in nodes for peer in node.peers.values()
            ),
            "frames_sent": self.frames_sent(),
        }

    def backlog(self) -> int:
        """The largest outbound backlog (queued frames) of any node now."""
        return max(
            sum(peer.backlog for peer in node.peers.values())
            for node in self.cluster.nodes.values()
        )

    # -- one decision ------------------------------------------------------
    def decide(self, spec) -> Outcome:
        self._instances += 1
        instance = ("bench", self._instances)
        before = self.frames_sent()
        try:
            decisions = self.loop.run_until_complete(
                self.cluster.run_agreement(
                    spec["inputs"], coin=self.coin, instance=instance,
                    timeout=self.timeout_s,
                )
            )
        except TimeoutError:
            return Outcome(ok=False, reason="did not terminate")
        # Latency ends at the last decision, not at the return of
        # run_agreement, whose 5 ms polling would quantize it.
        outcome = Outcome(
            ok=True,
            rounds=self.monitor.rounds.get(instance, 0),
            msgs=self.frames_sent() - before,
            decided_at=self.monitor.decided_at.get(instance),
        )
        values = set(decisions.values())
        if len(decisions) != self.n or len(values) != 1:
            return _failed(outcome, f"nonfaulty processes disagree: {decisions}")
        outcome.value = values.pop()
        if self.monitor.runtime is not self.cluster.context:
            return _failed(outcome, "invariant monitor not armed")
        if self.monitor.violations:
            return _failed(outcome, f"monitor violations: {self.monitor.violations}")
        return outcome


def make_workloads(workdir: Path) -> dict:
    return {
        CoinLockstep.name: CoinLockstep,
        CoinAsyncLiar.name: CoinAsyncLiar,
        VoteSweep.name: VoteSweep,
        NetVotes.name: lambda: NetVotes(workdir),
    }
