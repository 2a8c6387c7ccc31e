"""High-level one-call API: build a stack, run a protocol, collect results.

This is the public face of the library::

    from repro import SystemConfig, run_byzantine_agreement

    result = run_byzantine_agreement(
        inputs=[0, 1, 1, 0], config=SystemConfig(n=4, seed=42), coin="svss",
    )
    assert result.agreed

Coins: ``"svss"`` is the paper's protocol (full SVSS shunning common coin);
``"local"`` is the Bracha/Ben-Or private-coin baseline; ``("ideal", p)``
is an oracle coin that agrees with probability ``p`` (use measured SCC
rates to emulate the full stack at large ``n``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from random import Random

from repro.adversary.controller import Adversary, no_adversary
from repro.broadcast.manager import BroadcastManager
from repro.config import SystemConfig
from repro.core.agreement import ABAProcess
from repro.core.coin import (
    CoinSource,
    CommonCoinModule,
    IdealCoin,
    IdealCoinOracle,
    LocalCoin,
    SharedCoinGate,
)
from repro.core.manager import CallbackWatcher, VSSManager
from repro.core.mwsvss import BOTTOM
from repro.core.sessions import mw_session, svss_session
from repro.errors import ConfigurationError, DeadlockError, ProtocolError
from repro.sim.monitor import InvariantMonitor
from repro.sim.process import MAX_INSTANCE_SLOTS
from repro.sim.runtime import DEFAULT_MAX_EVENTS, ENGINE_FLAT, Runtime
from repro.sim.scheduler import Scheduler
from repro.sim.tracing import TRACE_COUNTS, TRACE_FULL, Trace

CoinSpec = object  # str | tuple | callable

#: Instance id of the single agreement a plain ``run_byzantine_agreement``
#: runs; batch runs use ``("aba", k)`` per instance.
DEFAULT_INSTANCE = "aba"


@dataclass
class Stack:
    """One assembled system: runtime plus per-process modules.

    The protocol substrate (``broadcasts``, ``vss``, and the ``"svss"``
    coin modules) is built once per process and shared by every agreement
    instance; instance-scoped state lives in the ``agreements`` and
    ``instance_coins`` maps, keyed by instance id.  ``coins`` and ``aba``
    remain the primary instance's pid-keyed views (the single-agreement
    API).
    """

    config: SystemConfig
    runtime: Runtime
    broadcasts: dict[int, BroadcastManager]
    vss: dict[int, VSSManager]
    coins: dict[int, CoinSource] = field(default_factory=dict)
    aba: dict[int, ABAProcess] = field(default_factory=dict)
    adversary: Adversary = field(default_factory=no_adversary)
    #: Declared agreement instances (``build_stack(instances=...)``).
    instance_ids: tuple = (DEFAULT_INSTANCE,)
    #: instance id -> pid -> ABAProcess, for every started instance.
    agreements: dict[object, dict[int, ABAProcess]] = field(default_factory=dict)
    #: instance id -> pid -> CoinSource backing that instance.
    instance_coins: dict[object, dict[int, CoinSource]] = field(default_factory=dict)

    @property
    def trace(self) -> Trace:
        return self.runtime.trace

    def nonfaulty(self) -> list[int]:
        return self.adversary.nonfaulty_pids(self.config)

    def agreement(self, instance_id: object) -> dict[int, ABAProcess]:
        """The pid-keyed process map of one agreement instance."""
        try:
            return self.agreements[instance_id]
        except KeyError:
            raise ConfigurationError(
                f"no agreement instance {instance_id!r}; "
                f"known: {sorted(map(repr, self.agreements))}"
            ) from None


def _normalize_instances(instances: int | Sequence[object]) -> tuple:
    if isinstance(instances, int):
        if instances < 1:
            raise ConfigurationError(
                f"need at least one instance, got instances={instances}"
            )
        ids: tuple = (
            (DEFAULT_INSTANCE,)
            if instances == 1
            else tuple((DEFAULT_INSTANCE, k) for k in range(instances))
        )
    else:
        ids = tuple(instances)
        if not ids:
            raise ConfigurationError("instance id list must not be empty")
        try:
            unique = len(set(ids))
        except TypeError:
            raise ConfigurationError(
                f"instance ids must be hashable (they key dispatch slots), "
                f"got {ids!r}"
            ) from None
        if unique != len(ids):
            raise ConfigurationError(f"duplicate instance ids in {ids!r}")
    if len(ids) > MAX_INSTANCE_SLOTS:
        raise ConfigurationError(
            f"{len(ids)} instances exceed the slot-table bound "
            f"{MAX_INSTANCE_SLOTS}"
        )
    return ids


def build_stack(
    config: SystemConfig,
    scheduler: Scheduler | None = None,
    adversary: Adversary | None = None,
    with_vss: bool = True,
    measure_bytes: bool = False,
    trace_level: int = TRACE_FULL,
    engine: str = ENGINE_FLAT,
    instances: int | Sequence[object] = 1,
    algebra_backend: str | None = None,
) -> Stack:
    """Assemble runtime, broadcast and (optionally) VSS for every process.

    ``trace_level`` (:data:`~repro.sim.tracing.TRACE_FULL` by default) can
    be lowered to :data:`~repro.sim.tracing.TRACE_OFF` for wall-clock
    benchmarks: the runtime then skips all per-message accounting.

    ``engine`` selects the dispatch core: ``"flat"`` (default, frozen
    routing table + calendar queue + batched fan-outs) or ``"legacy"``
    (the seed's per-event heap + ``deliver`` chain, kept for determinism
    regressions and as the benchmark baseline).

    ``instances`` declares how many concurrent agreement instances the
    stack will host — a count or an explicit sequence of instance ids.
    The broadcast/VSS substrate is shared either way; the declaration
    sizes the per-instance maps and is what
    :func:`run_byzantine_agreement_batch` builds on.

    Both wire-aggregation layers are always on: sends of one dispatch step
    sharing a (src, dst) pair travel as one envelope event (see
    :mod:`repro.sim.runtime`), and the common coin's n² per-slot MW-SVSS
    sessions send one ``("svec", ...)`` logical message per
    (step, dealer-group) that the receiver ingests as a group (see
    :mod:`repro.core.vectormux`).  Decisions, coin outputs and every
    per-session justifier are unchanged under fixed-delay schedulers.
    The scheduler alone restores the paper's per-message or per-session
    wire: wrap it in
    :class:`~repro.adversary.schedulers.EnvelopeSplittingScheduler` and/or
    :class:`~repro.adversary.schedulers.SlotSplittingScheduler`.

    ``algebra_backend`` selects the vectorized algebra backend behind the
    row-shaped polynomial fast paths: ``"pure"``, ``"numpy"``, ``"auto"``
    (numpy when importable, else pure), or ``None`` to defer to
    ``REPRO_ALGEBRA_BACKEND`` / auto-detect.  Results are bit-identical
    either way — the numpy kernels compute exactly or decline to the pure
    path (see ``docs/ALGEBRA.md``); the resolved name is on
    ``stack.runtime.algebra_backend`` and the per-run ``rows_vectorized``
    / ``backend_fallbacks`` counters ride every result dataclass.
    """
    if measure_bytes and trace_level < TRACE_COUNTS:
        raise ConfigurationError(
            "measure_bytes=True needs trace_level >= TRACE_COUNTS; "
            "a disabled trace would silently record zero bytes"
        )
    instance_ids = _normalize_instances(instances)
    runtime = Runtime(
        config,
        scheduler=scheduler,
        trace_level=trace_level,
        engine=engine,
        algebra_backend=algebra_backend,
    )
    runtime.trace.measure_bytes = measure_bytes
    broadcasts = {}
    vss = {}
    for pid in config.pids:
        host = runtime.host(pid)
        broadcasts[pid] = BroadcastManager(host)
        if with_vss:
            vss[pid] = VSSManager(host, broadcasts[pid])
    stack = Stack(
        config=config,
        runtime=runtime,
        broadcasts=broadcasts,
        vss=vss,
        adversary=adversary or no_adversary(),
        instance_ids=instance_ids,
    )
    stack.adversary.install(runtime)
    return stack


def build_node_modules(host, with_vss: bool = True):
    """Per-host protocol substrate: ``(BroadcastManager, VSSManager)``.

    The transport-parametrized half of :func:`build_stack`: given any
    host satisfying :class:`~repro.sim.module.HostABC` — a simulated
    :class:`~repro.sim.process.ProcessHost` or a socket-backed
    :class:`~repro.net.transport.NetworkHost` — build the broadcast/VSS
    layers that every agreement and coin module sits on.  ``build_stack``
    remains the one-call simulated assembly; network deployments call
    this once per node because each OS process owns exactly one host.
    """
    broadcast = BroadcastManager(host)
    vss = VSSManager(host, broadcast) if with_vss else None
    return broadcast, vss


def make_node_coin(
    host,
    coin: CoinSpec,
    broadcast: BroadcastManager | None = None,
    vss: VSSManager | None = None,
    instance: object = DEFAULT_INSTANCE,
) -> CoinSource:
    """One process' coin source, transport-agnostic.

    The per-host core of :func:`make_coins` for the coin kinds that need
    no cross-process oracle: ``"svss"`` (the paper's shunning common
    coin, served by one :class:`CommonCoinModule` per host) and
    ``"local"`` (the private-coin baseline; the stream derivation matches
    :func:`make_coins` exactly, so a network run and a simulated run on
    the same config draw identical local-coin bits).
    """
    config = host.runtime.config
    if coin == "svss":
        if vss is None or broadcast is None:
            raise ConfigurationError(
                "svss coin requires this host's broadcast and vss modules"
            )
        config.require_optimal_resilience()
        if host.has_module("coin"):
            return host.module("coin")
        return CommonCoinModule(host, vss, broadcast)
    if coin == "local":
        tags = (
            ("local-coin", host.pid)
            if instance == DEFAULT_INSTANCE
            else ("local-coin", instance, host.pid)
        )
        return LocalCoin(config.derive_rng(*tags))
    raise ConfigurationError(
        f"coin spec {coin!r} cannot be built per-node; use make_coins "
        "on a simulated stack (ideal coins need a shared oracle)"
    )


def make_coins(
    stack: Stack, coin: CoinSpec, instance: object = DEFAULT_INSTANCE
) -> dict[int, CoinSource]:
    """Build (or reuse) the pid-keyed coin sources backing one instance.

    The ``"svss"`` coin is substrate: one :class:`CommonCoinModule` per
    process serves every instance (sessions are keyed by coin session id,
    which embeds the instance).  Seeded stand-ins (``"local"``, ideal)
    are built per instance, with the instance id folded into the stream
    derivation for non-default instances — the default instance keeps the
    historical derivation so existing seeds reproduce bit-for-bit.
    """
    config = stack.config
    coins: dict[int, CoinSource] = {}
    if coin == "svss":
        if not stack.vss:
            raise ConfigurationError("svss coin requires a stack with VSS")
        config.require_optimal_resilience()
        for pid in config.pids:
            host = stack.runtime.host(pid)
            if host.has_module("coin"):
                coins[pid] = host.module("coin")
            else:
                coins[pid] = CommonCoinModule(
                    host, stack.vss[pid], stack.broadcasts[pid]
                )
    elif coin == "local":
        for pid in config.pids:
            tags = (
                ("local-coin", pid)
                if instance == DEFAULT_INSTANCE
                else ("local-coin", instance, pid)
            )
            coins[pid] = LocalCoin(config.derive_rng(*tags))
    elif isinstance(coin, tuple) and len(coin) == 2 and coin[0] == "ideal":
        tags = (
            ("ideal-coin",)
            if instance == DEFAULT_INSTANCE
            else ("ideal-coin", instance)
        )
        oracle = IdealCoinOracle(config.derive_rng(*tags), agreement=coin[1])
        for pid in config.pids:
            coins[pid] = IdealCoin(oracle, pid)
    elif callable(coin):
        for pid in config.pids:
            coins[pid] = coin(stack, pid)
    else:
        raise ConfigurationError(f"unknown coin spec {coin!r}")
    stack.instance_coins[instance] = coins
    if instance == DEFAULT_INSTANCE or not stack.coins:
        stack.coins = coins
    return coins


#: Backwards-compatible alias from before ``make_coins`` went public.
_make_coins = make_coins


# ---------------------------------------------------------------------------
# Byzantine agreement
# ---------------------------------------------------------------------------


@dataclass
class AgreementResult:
    """Outcome of one agreement run."""

    config: SystemConfig
    decisions: dict[int, int]
    rounds: dict[int, int]
    nonfaulty: list[int]
    sim_time: float
    trace: Trace
    terminated: bool
    adversary_description: str = "none"
    #: Runtime counters (always recorded, even at TRACE_OFF): events
    #: delivered, messages pushed onto the wire, and how often the
    #: completion predicate was evaluated (O(state changes) on the flat
    #: engine vs O(events) on the legacy engine).  ``messages_pushed``
    #: counts *wire events* (an envelope is one);
    #: ``envelopes_pushed``/``payloads_coalesced`` size the saving and
    #: ``trace.total_messages`` keeps the logical count.
    events_dispatched: int = 0
    messages_pushed: int = 0
    predicate_evals: int = 0
    envelopes_pushed: int = 0
    payloads_coalesced: int = 0
    #: Session-vector aggregation counters: ``("svec", ...)`` messages
    #: emitted and the per-slot messages folded into them (sweeps report
    #: aggregation ratios from here, never from the ``Runtime``).
    svec_packed: int = 0
    svec_slots: int = 0
    #: Batched-ingestion counters: vectors consumed by the batched path,
    #: slots resolved by a group-level DMM verdict, slots that fell back
    #: to per-slot verdicts, and total DMM verdict computations.
    svec_batch_ingested: int = 0
    dmm_verdicts_batched: int = 0
    dmm_verdict_fallbacks: int = 0
    dmm_verdict_calls: int = 0
    #: Resolved algebra backend name and its per-run counters (rows served
    #: by vectorized kernels / vector-backend declines to the pure path;
    #: see ``docs/ALGEBRA.md``).
    algebra_backend: str = "pure"
    rows_vectorized: int = 0
    backend_fallbacks: int = 0

    @property
    def logical_messages(self) -> int:
        """Logical protocol messages pushed onto the wire (envelope
        framing removed: an envelope counts as its payloads; a slot-vector
        counts as ONE logical message — semantic aggregation is exactly
        what shrinks this number)."""
        return self.messages_pushed - self.envelopes_pushed + self.payloads_coalesced

    @property
    def agreed(self) -> bool:
        """All nonfaulty processes decided, on the same value."""
        if not self.terminated:
            return False
        values = {self.decisions[p] for p in self.nonfaulty}
        return len(values) == 1

    @property
    def decision(self) -> int | None:
        values = {v for p, v in self.decisions.items() if p in self.nonfaulty}
        return next(iter(values)) if len(values) == 1 else None

    @property
    def max_rounds(self) -> int:
        return max(self.rounds.values(), default=0)

    @property
    def shun_pairs(self) -> set[tuple[int, int]]:
        return self.trace.shun_pairs()


def _normalize_inputs(
    inputs: list[int] | dict[int, int], config: SystemConfig
) -> dict[int, int]:
    if isinstance(inputs, dict):
        return dict(inputs)
    if len(inputs) != config.n:
        raise ConfigurationError(f"need {config.n} inputs, got {len(inputs)}")
    return {pid: inputs[pid - 1] for pid in config.pids}


def run_byzantine_agreement(
    inputs: list[int] | dict[int, int],
    config: SystemConfig,
    coin: CoinSpec = "svss",
    adversary: Adversary | None = None,
    scheduler: Scheduler | None = None,
    max_rounds: int = 200,
    max_events: int = DEFAULT_MAX_EVENTS,
    tag: str = "aba",
    measure_bytes: bool = False,
    trace_level: int = TRACE_FULL,
    engine: str = ENGINE_FLAT,
    algebra_backend: str | None = None,
    monitor: InvariantMonitor | None = None,
) -> AgreementResult:
    """Run one asynchronous Byzantine agreement to completion.

    ``inputs`` is a pid-keyed dict or a list indexed ``pid - 1``.  The run
    stops when every nonfaulty process decided, or when some process
    exceeds ``max_rounds`` (used by the non-termination experiments —
    the paper's protocol never hits it).

    ``monitor`` installs a :class:`~repro.sim.monitor.InvariantMonitor` on
    the runtime before the run starts; invariant violations propagate out
    of this call as :class:`~repro.sim.monitor.InvariantViolation`.

    Adversaries with ``adaptive = True`` (see
    :class:`repro.adversary.adaptive.AdaptiveAdversary`) corrupt processes
    mid-run, so the nonfaulty set the completion predicate waits on — and
    the one the result reports — is recomputed per evaluation rather than
    captured at start.
    """
    needs_vss = coin == "svss"
    stack = build_stack(
        config,
        scheduler=scheduler,
        adversary=adversary,
        with_vss=needs_vss,
        measure_bytes=measure_bytes,
        trace_level=trace_level,
        engine=engine,
        instances=(tag,),
        algebra_backend=algebra_backend,
    )
    coins = make_coins(stack, coin, instance=tag)
    input_map = _normalize_inputs(inputs, config)

    decisions: dict[int, int] = {}
    processes: dict[int, ABAProcess] = {}
    for pid in config.pids:
        processes[pid] = ABAProcess(
            stack.runtime.host(pid),
            stack.broadcasts[pid],
            coins[pid],
            instance_id=tag,
            on_decide=lambda v, pid=pid: decisions.setdefault(pid, v),
        )
    stack.aba = processes
    stack.agreements[tag] = processes
    if monitor is not None:
        monitor.install(stack.runtime)
        monitor.expect_inputs(tag, input_map)
    adaptive = bool(getattr(stack.adversary, "adaptive", False))
    nonfaulty = stack.nonfaulty()
    # Source-major driver sends in one coalescing step: each host's round-1
    # vote and coin-join traffic leaves as one envelope per destination.
    with stack.runtime.coalescing_step():
        for pid in config.pids:
            processes[pid].start(input_map[pid])

    def finished() -> bool:
        targets = stack.nonfaulty() if adaptive else nonfaulty
        if all(pid in decisions for pid in targets):
            return True
        return any(processes[pid].round > max_rounds for pid in targets)

    try:
        # Every term of ``finished`` (decisions, round counters) is
        # announced via notify_state_change, so the wait is re-evaluated
        # on change only.  (Adaptive adversaries announce their own
        # corruptions the same way, so a shrunken nonfaulty set is
        # re-checked promptly.)
        stack.runtime.run_until(finished, max_events=max_events, on_change=True)
        if adaptive:
            nonfaulty = stack.nonfaulty()
        terminated = all(pid in decisions for pid in nonfaulty)
    except DeadlockError:
        if adaptive:
            nonfaulty = stack.nonfaulty()
        terminated = False
    return AgreementResult(
        config=config,
        decisions=decisions,
        rounds={pid: processes[pid].rounds_used for pid in nonfaulty},
        nonfaulty=nonfaulty,
        sim_time=stack.runtime.now,
        trace=stack.trace,
        terminated=terminated,
        adversary_description=stack.adversary.describe(),
        events_dispatched=stack.runtime.events_dispatched,
        messages_pushed=stack.runtime.queue.pushed_total,
        predicate_evals=stack.runtime.predicate_evals,
        envelopes_pushed=stack.runtime.envelopes_pushed,
        payloads_coalesced=stack.runtime.payloads_coalesced,
        svec_packed=stack.runtime.svec_packed,
        svec_slots=stack.runtime.svec_slots,
        svec_batch_ingested=stack.runtime.svec_batch_ingested,
        dmm_verdicts_batched=stack.runtime.dmm_verdicts_batched,
        dmm_verdict_fallbacks=stack.runtime.dmm_verdict_fallbacks,
        dmm_verdict_calls=stack.runtime.dmm_verdict_calls,
        algebra_backend=stack.runtime.algebra_backend,
        rows_vectorized=stack.runtime.rows_vectorized,
        backend_fallbacks=stack.runtime.backend_fallbacks,
    )


# ---------------------------------------------------------------------------
# Batched Byzantine agreement: K concurrent instances on one runtime
# ---------------------------------------------------------------------------


@dataclass
class BatchAgreementResult:
    """Outcome of ``K`` concurrent agreement instances on one runtime.

    Per-instance outcomes live in ``results`` (ordinary
    :class:`AgreementResult` objects sharing the batch's trace and clock;
    their run counters are zero — the aggregate counters live here, since
    one event loop served every instance).
    """

    config: SystemConfig
    instance_ids: tuple
    results: dict[object, AgreementResult]
    sim_time: float
    trace: Trace
    terminated: bool
    shared_coin: bool
    adversary_description: str = "none"
    events_dispatched: int = 0
    messages_pushed: int = 0
    predicate_evals: int = 0
    envelopes_pushed: int = 0
    payloads_coalesced: int = 0
    svec_packed: int = 0
    svec_slots: int = 0
    svec_batch_ingested: int = 0
    dmm_verdicts_batched: int = 0
    dmm_verdict_fallbacks: int = 0
    dmm_verdict_calls: int = 0
    algebra_backend: str = "pure"
    rows_vectorized: int = 0
    backend_fallbacks: int = 0

    @property
    def logical_messages(self) -> int:
        """See :attr:`AgreementResult.logical_messages`."""
        return self.messages_pushed - self.envelopes_pushed + self.payloads_coalesced

    def __len__(self) -> int:
        return len(self.instance_ids)

    def result(self, instance_id: object) -> AgreementResult:
        return self.results[instance_id]

    @property
    def agreed(self) -> bool:
        """Every instance terminated with all nonfaulty processes agreeing."""
        return all(r.agreed for r in self.results.values())

    @property
    def decisions(self) -> dict[object, int | None]:
        """instance id -> unanimous nonfaulty decision (None if not agreed)."""
        return {iid: r.decision for iid, r in self.results.items()}

    @property
    def max_rounds(self) -> int:
        return max((r.max_rounds for r in self.results.values()), default=0)

    @property
    def decided_instances(self) -> int:
        return sum(1 for r in self.results.values() if r.agreed)


def run_byzantine_agreement_batch(
    inputs_matrix: Sequence[list[int] | dict[int, int]],
    config: SystemConfig,
    coin: CoinSpec = "svss",
    adversary: Adversary | None = None,
    scheduler: Scheduler | None = None,
    max_rounds: int = 200,
    max_events: int = DEFAULT_MAX_EVENTS,
    share_coin: bool = True,
    algebra_backend: str | None = None,
    measure_bytes: bool = False,
    trace_level: int = TRACE_FULL,
    engine: str = ENGINE_FLAT,
    monitor: InvariantMonitor | None = None,
) -> BatchAgreementResult:
    """Run ``K = len(inputs_matrix)`` concurrent agreements on one runtime.

    Every instance gets independent inputs (one row of ``inputs_matrix``)
    but shares the broadcast/VSS substrate, the event loop, and — with
    ``share_coin=True`` — one common-coin invocation per round across the
    whole batch (the Wang-style amortization: with the paper's SVSS coin,
    whose single invocation costs ``Θ(n²)`` sharings, the coin bill of a
    ``K``-batch is paid once instead of ``K`` times).  The shared round
    coin is revealed only after every live local instance fixed its
    round position (see :class:`~repro.core.coin.SharedCoinGate`).

    Determinism: under a fixed-delay scheduler, a failure-free batch is an
    order-preserving interleaving of its instances' solo event streams, and
    the shared coin sessions carry the same ids a default-tag solo run
    uses — so instance ``k`` decides exactly what
    ``run_byzantine_agreement(inputs_matrix[k], config, ...)`` decides
    (the multi-instance A/B test asserts this per seed, flat and legacy).

    With ``share_coin=False`` every instance gets its own coin sessions
    (ids derived from its instance id), restoring the strict per-instance
    release discipline at ``K`` times the coin cost.

    All ``K`` instances advance in lock-step under a fixed-delay
    scheduler, so their votes for one (round, phase) travel as one
    ``("abav", ...)`` vote vector, and the broadcast echo traffic
    amplifying them rides one envelope per (src, dst) pair instead of
    ``K`` separate events.  Per-instance decisions are unchanged (both
    layers preserve per-party delivered logical-message sequences); only
    the message and event bills shrink, which is what converts the
    free-coin batch series from flat to ~K×-shaped (see
    ``benchmarks/bench_batch.py``).  Wrap the scheduler in the splitting
    schedulers to run the batch on the per-vote wire.
    """
    rows = list(inputs_matrix)
    if not rows:
        raise ConfigurationError("inputs_matrix must contain at least one row")
    instance_ids = tuple((DEFAULT_INSTANCE, k) for k in range(len(rows)))
    needs_vss = coin == "svss"
    stack = build_stack(
        config,
        scheduler=scheduler,
        adversary=adversary,
        with_vss=needs_vss,
        measure_bytes=measure_bytes,
        trace_level=trace_level,
        engine=engine,
        instances=instance_ids,
        algebra_backend=algebra_backend,
    )
    input_maps = {
        iid: _normalize_inputs(rows[k], config)
        for k, iid in enumerate(instance_ids)
    }

    if share_coin:
        # One underlying coin per process, sessions keyed like a default-tag
        # solo run; one gate per process shared by its K instance frontends.
        base = make_coins(stack, coin, instance=DEFAULT_INSTANCE)
        gates = {
            pid: SharedCoinGate(
                base[pid], len(instance_ids), shared_tag=DEFAULT_INSTANCE
            )
            for pid in config.pids
        }
        # Every instance consults its gate, never the raw coin — keep the
        # Stack views consistent with that (the default-instance key was
        # only a registration side effect of building the substrate).
        stack.instance_coins.pop(DEFAULT_INSTANCE, None)
        for iid in instance_ids:
            stack.instance_coins[iid] = gates
        stack.coins = gates

        def coin_for(iid: object, pid: int) -> CoinSource:
            return gates[pid]

    else:
        per_instance = {
            iid: make_coins(stack, coin, instance=iid) for iid in instance_ids
        }

        def coin_for(iid: object, pid: int) -> CoinSource:
            return per_instance[iid][pid]

    decisions: dict[object, dict[int, int]] = {iid: {} for iid in instance_ids}
    for iid in instance_ids:
        processes: dict[int, ABAProcess] = {}
        for pid in config.pids:
            processes[pid] = ABAProcess(
                stack.runtime.host(pid),
                stack.broadcasts[pid],
                coin_for(iid, pid),
                instance_id=iid,
                on_decide=lambda v, iid=iid, pid=pid: decisions[iid].setdefault(
                    pid, v
                ),
            )
        stack.agreements[iid] = processes
    stack.aba = stack.agreements[instance_ids[0]]
    if monitor is not None:
        monitor.install(stack.runtime)
        for iid in instance_ids:
            monitor.expect_inputs(iid, input_maps[iid])
    adaptive = bool(getattr(stack.adversary, "adaptive", False))
    nonfaulty = stack.nonfaulty()
    # Start source-major (all of one host's instances before the next
    # host's) inside one coalescing step: the K round-1 votes of each
    # (src, dst) pair ride one envelope, which is what seeds the
    # self-sustaining vote coalescing.  Every instance's per-party
    # sub-sequence is unaffected by the start order, so the
    # batch-matches-solo guarantee is order-independent here.
    with stack.runtime.coalescing_step():
        for pid in config.pids:
            for iid in instance_ids:
                stack.agreements[iid][pid].start(input_maps[iid][pid])

    def instance_done(iid: object, targets: list[int]) -> bool:
        if all(pid in decisions[iid] for pid in targets):
            return True
        processes = stack.agreements[iid]
        return any(processes[pid].round > max_rounds for pid in targets)

    def finished() -> bool:
        targets = stack.nonfaulty() if adaptive else nonfaulty
        return all(instance_done(iid, targets) for iid in instance_ids)

    try:
        stack.runtime.run_until(finished, max_events=max_events, on_change=True)
    except DeadlockError:
        pass
    if adaptive:
        nonfaulty = stack.nonfaulty()
    results: dict[object, AgreementResult] = {}
    for iid in instance_ids:
        processes = stack.agreements[iid]
        terminated = all(pid in decisions[iid] for pid in nonfaulty)
        results[iid] = AgreementResult(
            config=config,
            decisions=decisions[iid],
            rounds={pid: processes[pid].rounds_used for pid in nonfaulty},
            nonfaulty=nonfaulty,
            sim_time=stack.runtime.now,
            trace=stack.trace,
            terminated=terminated,
            adversary_description=stack.adversary.describe(),
        )
    return BatchAgreementResult(
        config=config,
        instance_ids=instance_ids,
        results=results,
        sim_time=stack.runtime.now,
        trace=stack.trace,
        terminated=all(r.terminated for r in results.values()),
        shared_coin=share_coin,
        adversary_description=stack.adversary.describe(),
        events_dispatched=stack.runtime.events_dispatched,
        messages_pushed=stack.runtime.queue.pushed_total,
        predicate_evals=stack.runtime.predicate_evals,
        envelopes_pushed=stack.runtime.envelopes_pushed,
        payloads_coalesced=stack.runtime.payloads_coalesced,
        svec_packed=stack.runtime.svec_packed,
        svec_slots=stack.runtime.svec_slots,
        svec_batch_ingested=stack.runtime.svec_batch_ingested,
        dmm_verdicts_batched=stack.runtime.dmm_verdicts_batched,
        dmm_verdict_fallbacks=stack.runtime.dmm_verdict_fallbacks,
        dmm_verdict_calls=stack.runtime.dmm_verdict_calls,
        algebra_backend=stack.runtime.algebra_backend,
        rows_vectorized=stack.runtime.rows_vectorized,
        backend_fallbacks=stack.runtime.backend_fallbacks,
    )


# ---------------------------------------------------------------------------
# One-shot VSS runs (tests, benchmarks, examples)
# ---------------------------------------------------------------------------


@dataclass
class VSSResult:
    """Outcome of one share(+reconstruct) session."""

    config: SystemConfig
    session: tuple
    share_completed: set[int]
    outputs: dict[int, object]
    sim_time: float
    trace: Trace

    def output_values(self, pids: list[int] | None = None) -> set[object]:
        pids = pids if pids is not None else list(self.outputs)
        return {self.outputs[p] for p in pids if p in self.outputs}


def run_mwsvss(
    config: SystemConfig,
    dealer: int,
    moderator: int,
    secret: int,
    moderator_value: int | None = None,
    adversary: Adversary | None = None,
    scheduler: Scheduler | None = None,
    reconstruct: bool = True,
    max_events: int = DEFAULT_MAX_EVENTS,
    counter: int = 0,
    trace_level: int = TRACE_FULL,
    engine: str = ENGINE_FLAT,
) -> tuple[VSSResult, Stack]:
    """Run one standalone MW-SVSS session (share, then optionally R')."""
    stack = build_stack(
        config,
        scheduler=scheduler,
        adversary=adversary,
        trace_level=trace_level,
        engine=engine,
    )
    sid = mw_session(("solo", counter), dealer, moderator, "dm")
    completed: set[int] = set()
    outputs: dict[int, object] = {}
    for pid in config.pids:
        stack.vss[pid].register_watcher(
            ("solo", counter),
            CallbackWatcher(
                on_mw_share_complete=lambda s, pid=pid: completed.add(pid),
                on_mw_output=lambda s, v, pid=pid: outputs.setdefault(pid, v),
            ),
        )
    stack.vss[dealer].mw_share(sid, secret)
    expected = secret if moderator_value is None else moderator_value
    stack.vss[moderator].mw_moderate(sid, expected)
    nonfaulty = set(stack.nonfaulty())
    try:
        stack.runtime.run_until(
            lambda: nonfaulty <= completed, max_events=max_events, on_change=True
        )
        if reconstruct:
            for pid in config.pids:
                # Corrupt processes participate too (their behaviours lie
                # through the protocol); skip any that cannot legally start.
                try:
                    stack.vss[pid].mw_begin_reconstruct(sid)
                except ProtocolError:
                    continue
            stack.runtime.run_until(
                lambda: nonfaulty <= set(outputs),
                max_events=max_events,
                on_change=True,
            )
    except DeadlockError:
        pass
    result = VSSResult(
        config=config,
        session=sid,
        share_completed=completed,
        outputs=outputs,
        sim_time=stack.runtime.now,
        trace=stack.trace,
    )
    return result, stack


def run_svss(
    config: SystemConfig,
    dealer: int,
    secret: int,
    adversary: Adversary | None = None,
    scheduler: Scheduler | None = None,
    reconstruct: bool = True,
    max_events: int = DEFAULT_MAX_EVENTS,
    counter: int = 0,
    trace_level: int = TRACE_FULL,
    engine: str = ENGINE_FLAT,
) -> tuple[VSSResult, Stack]:
    """Run one standalone SVSS session (share, then optionally R)."""
    stack = build_stack(
        config,
        scheduler=scheduler,
        adversary=adversary,
        trace_level=trace_level,
        engine=engine,
    )
    tag = ("solo-svss", counter)
    sid = svss_session(tag, dealer)
    completed: set[int] = set()
    outputs: dict[int, object] = {}
    for pid in config.pids:
        stack.vss[pid].register_watcher(
            tag,
            CallbackWatcher(
                on_svss_share_complete=lambda s, pid=pid: completed.add(pid),
                on_svss_output=lambda s, v, pid=pid: outputs.setdefault(pid, v),
            ),
        )
    stack.vss[dealer].svss_share(sid, secret)
    nonfaulty = set(stack.nonfaulty())
    try:
        stack.runtime.run_until(
            lambda: nonfaulty <= completed, max_events=max_events, on_change=True
        )
        if reconstruct:
            for pid in config.pids:
                try:
                    stack.vss[pid].svss_begin_reconstruct(sid)
                except ProtocolError:
                    continue
            stack.runtime.run_until(
                lambda: nonfaulty <= set(outputs),
                max_events=max_events,
                on_change=True,
            )
    except DeadlockError:
        pass
    result = VSSResult(
        config=config,
        session=sid,
        share_completed=completed,
        outputs=outputs,
        sim_time=stack.runtime.now,
        trace=stack.trace,
    )
    return result, stack


@dataclass
class CoinResult:
    """Outcome of one common-coin invocation."""

    config: SystemConfig
    outputs: dict[int, int]
    sim_time: float
    trace: Trace
    #: Runtime counters (see :class:`AgreementResult`); the coin benchmark
    #: reads the event bill of one invocation from here.
    events_dispatched: int = 0
    messages_pushed: int = 0
    envelopes_pushed: int = 0
    payloads_coalesced: int = 0
    svec_packed: int = 0
    svec_slots: int = 0
    svec_batch_ingested: int = 0
    dmm_verdicts_batched: int = 0
    dmm_verdict_fallbacks: int = 0
    dmm_verdict_calls: int = 0
    algebra_backend: str = "pure"
    rows_vectorized: int = 0
    backend_fallbacks: int = 0

    @property
    def logical_messages(self) -> int:
        """See :attr:`AgreementResult.logical_messages`."""
        return self.messages_pushed - self.envelopes_pushed + self.payloads_coalesced

    def unanimous(self, pids: list[int]) -> bool:
        return len({self.outputs[p] for p in pids if p in self.outputs}) == 1


def flip_common_coin(
    config: SystemConfig,
    adversary: Adversary | None = None,
    scheduler: Scheduler | None = None,
    session: int = 0,
    max_events: int = DEFAULT_MAX_EVENTS,
    trace_level: int = TRACE_FULL,
    engine: str = ENGINE_FLAT,
    algebra_backend: str | None = None,
) -> tuple[CoinResult, Stack]:
    """Run one full SVSS-based shunning common coin invocation."""
    config.require_optimal_resilience()
    stack = build_stack(
        config,
        scheduler=scheduler,
        adversary=adversary,
        trace_level=trace_level,
        engine=engine,
        algebra_backend=algebra_backend,
    )
    coins = make_coins(stack, "svss")
    csid = ("cc", "solo", session)
    outputs: dict[int, int] = {}
    # Source-major joins in one coalescing step: each dealer's n share
    # batches leave as one envelope per recipient.
    with stack.runtime.coalescing_step():
        for pid in config.pids:
            coins[pid].join(csid)
            coins[pid].get(csid, lambda v, pid=pid: outputs.setdefault(pid, v))
            coins[pid].release(csid)
    nonfaulty = set(stack.nonfaulty())
    try:
        stack.runtime.run_until(
            lambda: nonfaulty <= set(outputs),
            max_events=max_events,
            on_change=True,
        )
    except DeadlockError:
        pass
    result = CoinResult(
        config=config,
        outputs=outputs,
        sim_time=stack.runtime.now,
        trace=stack.trace,
        events_dispatched=stack.runtime.events_dispatched,
        messages_pushed=stack.runtime.queue.pushed_total,
        envelopes_pushed=stack.runtime.envelopes_pushed,
        payloads_coalesced=stack.runtime.payloads_coalesced,
        svec_packed=stack.runtime.svec_packed,
        svec_slots=stack.runtime.svec_slots,
        svec_batch_ingested=stack.runtime.svec_batch_ingested,
        dmm_verdicts_batched=stack.runtime.dmm_verdicts_batched,
        dmm_verdict_fallbacks=stack.runtime.dmm_verdict_fallbacks,
        dmm_verdict_calls=stack.runtime.dmm_verdict_calls,
        algebra_backend=stack.runtime.algebra_backend,
        rows_vectorized=stack.runtime.rows_vectorized,
        backend_fallbacks=stack.runtime.backend_fallbacks,
    )
    return result, stack


__all__ = [
    "AgreementResult",
    "BOTTOM",
    "BatchAgreementResult",
    "CoinResult",
    "DEFAULT_INSTANCE",
    "Stack",
    "VSSResult",
    "build_node_modules",
    "build_stack",
    "flip_common_coin",
    "make_coins",
    "make_node_coin",
    "run_byzantine_agreement",
    "run_byzantine_agreement_batch",
    "run_mwsvss",
    "run_svss",
]
