"""Common coins (paper §5, Definition 2).

The real thing is :class:`CommonCoinModule` — the shunning common coin
(SCC) obtained by plugging SVSS into the Canetti–Rabin common-coin
construction ([6] Fig 5-9):

1. Every process deals ``n`` uniform secrets in ``Z_u`` (one per *slot*,
   i.e. one "for" each process) via ``n`` SVSS sharings.
2. A process' *attach set* ``T_i`` is the first ``n - t`` dealers whose
   entire batch of sharings it completed; it is reliably broadcast.
3. A process *accepts* ``j`` once it received ``T_j`` and completed the
   slot-``j`` sharing of every dealer in ``T_j``; the first ``n - t``
   accepted parties are broadcast as the *accepted set* ``A_i``.
4. A process *supports* ``k`` once every member of ``A_k`` is accepted
   locally; at ``n - t`` supports it freezes its *eval set* (the union of
   the supported accepted-sets) and — once locally *released* — starts
   reconstructing the value of every accepted party.
5. The value of party ``j`` is ``v_j = (Σ_{d ∈ T_j} x_{d,j}) mod u``; the
   output bit is 0 iff some ``v_j = 0`` in the frozen eval set.

With ``u = n`` a counting argument over the support sets yields a core of
``>= t + 1`` parties contained in *every* nonfaulty eval set whose values
are fixed before any reconstruction begins, giving
``P[all output b] >= 1/4`` for each bit ``b`` — unless an SVSS invocation
misbehaved, in which case a fresh (nonfaulty, faulty) shun pair was
consumed (Definition 2's second disjunct).  DESIGN.md §4 records the
derivation; experiment E3 measures it.

*Release discipline.*  Reconstruction participation additionally waits for
a local :meth:`~CommonCoinModule.release` call, which the agreement layer
issues once the caller's round position is fixed — the value must not be
revealed while the adversary can still steer the caller, and all nonfaulty
processes are guaranteed to release every coin they join (§ agreement).

*Cost profile.*  One invocation runs ``n²`` SVSS sharings (each a fan-out
of MW-SVSS sub-sessions), whose echo/ack/confirm traffic crosses the same
(src, dst) pairs within the same protocol steps — the runtime's
coalescing transport carries that whole per-step bundle in one envelope
per pair, collapsing the invocation's event bill by 20–60× at small ``n``
(``benchmarks/bench_coin.py``) with bit-identical outputs; the logical
message count, and hence the paper's complexity claims, are unchanged.
Session-vector aggregation collapses the *logical* bill too (unless the
scheduler splits slots): all ``n`` slots of one dealer batch march in
lock-step, so each party's per-step messages into them fold into one
``("svec", ...)`` slot-vector per (step, dealer-group) — ~n⁴ → ~n³
logical messages, with coin outputs and per-session justifiers still
bit-identical (the coin registers each invocation's session family with
the VSS layer's :class:`~repro.core.vectormux.SessionVectorMux` at
:meth:`join`, and claims the svec broadcast topic in its ``_wire``).

The module also provides the pluggable stand-ins used by baselines and
scaling experiments: :class:`LocalCoin` (Ben-Or/Bracha style private
coins), :class:`IdealCoin` (a perfect or probabilistically-agreeing shared
coin driven by a global oracle), and the :class:`CoinSource` interface that
:mod:`repro.core.agreement` consumes.
"""

from __future__ import annotations

from collections.abc import Callable
from random import Random

from repro.broadcast.manager import BroadcastManager
from repro.core.manager import VSSManager
from repro.core.sessions import svss_session
from repro.core.vectormux import SVEC_TAG
from repro.errors import ProtocolError
from repro.sim.module import ProtocolModule
from repro.sim.process import ProcessHost

#: sentinel for "component reconstructed to ⊥, value cannot be zero"
_NONZERO = -1

CoinCallback = Callable[[int], None]


class CoinSource:
    """Interface the agreement protocol drives.

    ``join`` starts the (interactive) share stage, ``release`` unblocks the
    reveal stage, ``get`` registers for the value.  Non-interactive coins
    implement ``get`` synchronously and ignore the rest.
    """

    def join(self, csid: tuple) -> None:  # pragma: no cover - interface
        pass

    def release(self, csid: tuple) -> None:  # pragma: no cover - interface
        pass

    def retire(self, height: int | None = None) -> None:  # pragma: no cover
        """The caller will join no further sessions (it halted after round
        ``height``).  Shared coin front-ends use this to stop waiting on
        finished instances; plain coins ignore it."""

    def get(self, csid: tuple, callback: CoinCallback) -> None:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class LocalCoin(CoinSource):
    """A private random bit per invocation — Ben-Or's and Bracha's coin.

    Correct but exponentially slow: ``n`` processes agree by luck only.
    """

    def __init__(self, rng: Random):
        self._rng = rng
        self._values: dict[tuple, int] = {}

    def get(self, csid: tuple, callback: CoinCallback) -> None:
        value = self._values.setdefault(csid, self._rng.randrange(2))
        callback(value)


class IdealCoinOracle:
    """Global state behind :class:`IdealCoin` instances.

    With probability ``agreement`` an invocation is *good*: every process
    receives the same uniform bit.  Otherwise the invocation fails in the
    worst way the SCC definition allows: per-process adversarial bits.
    Calibrate ``agreement`` with the rates measured from the real SCC
    (experiment E3) to emulate the full stack at large ``n``.
    """

    def __init__(self, rng: Random, agreement: float = 1.0):
        if not 0.0 <= agreement <= 1.0:
            raise ProtocolError(f"agreement must be a probability, got {agreement}")
        self._rng = rng
        self.agreement = agreement
        self._sessions: dict[tuple, tuple[bool, int]] = {}
        self.invocations = 0
        self.failed_invocations = 0

    def value_for(self, csid: tuple, pid: int) -> int:
        state = self._sessions.get(csid)
        if state is None:
            good = self._rng.random() < self.agreement
            state = (good, self._rng.randrange(2))
            self._sessions[csid] = state
            self.invocations += 1
            if not good:
                self.failed_invocations += 1
        good, value = state
        if good:
            return value
        # Failed invocation: split the processes between the two values.
        return (value + pid) % 2


class IdealCoin(CoinSource):
    """Per-process front-end of an :class:`IdealCoinOracle`."""

    def __init__(self, oracle: IdealCoinOracle, pid: int):
        self._oracle = oracle
        self._pid = pid

    def get(self, csid: tuple, callback: CoinCallback) -> None:
        callback(self._oracle.value_for(csid, self._pid))

    def describe(self) -> str:
        return f"IdealCoin(agreement={self._oracle.agreement})"


class _CoinSession:
    """One process' state for one SCC invocation."""

    __slots__ = (
        "module",
        "csid",
        "u",
        "completed",
        "batch_done",
        "attach_frozen",
        "t_hat",
        "accepted",
        "accepted_frozen",
        "acc_sets",
        "supported",
        "eval_set",
        "released",
        "recon_begun",
        "values",
        "party_values",
        "output",
        "callbacks",
    )

    def __init__(self, module: "CommonCoinModule", csid: tuple):
        self.module = module
        self.csid = csid
        self.u = max(2, module.n)
        self.completed: set[tuple[int, int]] = set()  # (dealer, slot)
        self.batch_done: set[int] = set()
        self.attach_frozen = False
        self.t_hat: dict[int, tuple[int, ...]] = {}
        self.accepted: set[int] = set()
        self.accepted_frozen = False
        self.acc_sets: dict[int, frozenset[int]] = {}
        self.supported: set[int] = set()
        self.eval_set: frozenset[int] | None = None
        self.released = False
        self.recon_begun: set[int] = set()
        self.values: dict[tuple[int, int], object] = {}  # (dealer, slot) -> out
        self.party_values: dict[int, int] = {}  # slot j -> v_j (or _NONZERO)
        self.output: int | None = None
        self.callbacks: list[CoinCallback] = []


class _SlotWatcher:
    """Routes SVSS events of one (coin session, slot) tag to the session."""

    __slots__ = ("session", "slot")

    def __init__(self, session: _CoinSession, slot: int):
        self.session = session
        self.slot = slot

    def on_svss_share_complete(self, sid: tuple) -> None:
        self.session.module._on_share_complete(self.session, sid[2], self.slot)

    def on_svss_output(self, sid: tuple, value: object) -> None:
        self.session.module._on_svss_output(self.session, sid[2], self.slot, value)

    # MW events of children are handled inside the SVSS layer.
    def on_mw_share_complete(self, sid: tuple) -> None:  # pragma: no cover
        pass

    def on_mw_output(self, sid: tuple, value: object) -> None:  # pragma: no cover
        pass


class CommonCoinModule(ProtocolModule, CoinSource):
    """The shunning common coin of one process."""

    MODULE_KIND = "coin"

    def __init__(self, host: ProcessHost, vss: VSSManager, broadcast: BroadcastManager):
        super().__init__()
        self.vss = vss
        self._broadcast = broadcast
        self.sessions: dict[tuple, _CoinSession] = {}
        self.attach(host)

    def _wire(self, host: ProcessHost) -> None:
        self.pid = host.pid
        self.config = host.runtime.config
        self.n = self.config.n
        self.t = self.config.t
        self.subscribe(self._broadcast, "coin", self._on_rb)
        # Session-vector wiring: slot families only exist for coin sessions,
        # so the coin claims the "svec" broadcast topic (the matching host
        # tag is reserved by every VSSManager at its own _wire).  Vectors
        # are unpacked by the VSS layer's mux regardless of whether this
        # runtime packs (a forged vector must route identically either way).
        self.subscribe(self._broadcast, SVEC_TAG, self.vss.mux.on_rb)

    # ------------------------------------------------------------------
    # CoinSource interface
    # ------------------------------------------------------------------
    def join(self, csid: tuple) -> None:
        """Enter the coin: deal our n secrets and start participating."""
        if csid in self.sessions:
            return
        session = _CoinSession(self, csid)
        self.sessions[csid] = session
        # Our n (dealer, slot) sessions — and every per-slot reply we send
        # into peers' sessions of this invocation — may travel as
        # slot-vectors from here on.
        self.vss.mux.register_family(csid)
        for slot in range(1, self.n + 1):
            self.vss.register_watcher((csid, slot), _SlotWatcher(session, slot))
        rng = self.config.derive_rng("coin-secrets", csid, self.pid)
        deviation = self.host.deviation("coin_secret")
        for slot in range(1, self.n + 1):
            secret = rng.randrange(session.u)
            if deviation is not None:
                secret = deviation(csid, slot, secret, session.u) % session.u
            self.vss.svss_share(svss_session((csid, slot), self.pid), secret)
        trace = self.host.runtime.trace
        if trace.records_events:
            trace.record_event("coin.join")

    def release(self, csid: tuple) -> None:
        """Unblock the reveal stage (caller's round position is fixed)."""
        session = self._session(csid)
        if session.released:
            return
        session.released = True
        self._maybe_start_reconstruction(session)

    def get(self, csid: tuple, callback: CoinCallback) -> None:
        session = self._session(csid)
        if session.output is not None:
            callback(session.output)
        else:
            session.callbacks.append(callback)

    def _session(self, csid: tuple) -> _CoinSession:
        session = self.sessions.get(csid)
        if session is None:
            self.join(csid)
            session = self.sessions[csid]
        return session

    # ------------------------------------------------------------------
    # share-stage progress
    # ------------------------------------------------------------------
    def _on_share_complete(self, session: _CoinSession, dealer: int, slot: int) -> None:
        session.completed.add((dealer, slot))
        if all((dealer, s) in session.completed for s in range(1, self.n + 1)):
            session.batch_done.add(dealer)
            if (
                not session.attach_frozen
                and len(session.batch_done) >= self.n - self.t
            ):
                session.attach_frozen = True
                attach = tuple(sorted(session.batch_done))
                self._rb(session, "att", attach)
        self._recheck_accepts(session)

    def _on_rb(self, origin: int, value: tuple) -> None:
        if len(value) != 4:
            return
        _, csid, kind, body = value
        if not isinstance(csid, tuple):
            return
        session = self.sessions.get(csid)
        if session is None:
            # A peer reached this coin before we did (it is ahead in the
            # agreement loop); join so the session can make progress.
            if not isinstance(kind, str):
                return
            self.join(csid)
            session = self.sessions[csid]
        if kind == "att":
            self._on_attach(session, origin, body)
        elif kind == "acc":
            self._on_accepted_set(session, origin, body)

    def _on_attach(self, session: _CoinSession, origin: int, body: object) -> None:
        if origin in session.t_hat or not self._valid_pid_tuple(body):
            return
        if len(body) < self.n - self.t:
            return
        session.t_hat[origin] = tuple(body)
        self._recheck_accepts(session)

    def _on_accepted_set(self, session: _CoinSession, origin: int, body: object) -> None:
        if origin in session.acc_sets or not self._valid_pid_tuple(body):
            return
        if len(body) < self.n - self.t:
            return
        session.acc_sets[origin] = frozenset(body)
        self._recheck_supports(session)

    def _recheck_accepts(self, session: _CoinSession) -> None:
        for j, attach in list(session.t_hat.items()):
            if j in session.accepted:
                continue
            if all((d, j) in session.completed for d in attach):
                session.accepted.add(j)
                if session.eval_set is not None and session.released:
                    self._start_reconstruction_for(session, j)
        if (
            not session.accepted_frozen
            and len(session.accepted) >= self.n - self.t
        ):
            session.accepted_frozen = True
            self._rb(session, "acc", tuple(sorted(session.accepted)))
        self._recheck_supports(session)

    def _recheck_supports(self, session: _CoinSession) -> None:
        for k, members in session.acc_sets.items():
            if k not in session.supported and members <= session.accepted:
                session.supported.add(k)
        if session.eval_set is None and len(session.supported) >= self.n - self.t:
            union: set[int] = set()
            for k in session.supported:
                union |= session.acc_sets[k]
            session.eval_set = frozenset(union)
            self._maybe_start_reconstruction(session)

    # ------------------------------------------------------------------
    # reveal stage
    # ------------------------------------------------------------------
    def _maybe_start_reconstruction(self, session: _CoinSession) -> None:
        if not session.released or session.eval_set is None:
            return
        for j in sorted(session.accepted):
            self._start_reconstruction_for(session, j)

    def _start_reconstruction_for(self, session: _CoinSession, j: int) -> None:
        if j in session.recon_begun:
            return
        session.recon_begun.add(j)
        for dealer in session.t_hat[j]:
            self.vss.svss_begin_reconstruct(svss_session((session.csid, j), dealer))

    def _on_svss_output(
        self, session: _CoinSession, dealer: int, slot: int, value: object
    ) -> None:
        session.values[(dealer, slot)] = value
        attach = session.t_hat.get(slot)
        if attach is None or slot in session.party_values:
            return
        total = 0
        for d in attach:
            out = session.values.get((d, slot))
            if out is None:
                return  # still waiting
            if not isinstance(out, int):
                total = _NONZERO  # a ⊥ component: value cannot be zero
                break
            total += out
        session.party_values[slot] = (
            _NONZERO if total == _NONZERO else total % session.u
        )
        self._maybe_output(session)

    def _maybe_output(self, session: _CoinSession) -> None:
        if session.output is not None or session.eval_set is None:
            return
        if any(j not in session.party_values for j in session.eval_set):
            return
        zero_seen = any(
            session.party_values[j] == 0 for j in session.eval_set
        )
        session.output = 0 if zero_seen else 1
        self.host.runtime.notify_state_change()  # coin value is observable
        monitor = self.host.runtime.monitor
        if monitor is not None:
            monitor.on_coin_output(session.csid, self.pid, session.output)
        trace = self.host.runtime.trace
        if trace.records_events:
            # Guarded so no-trace benchmark runs skip the f-string build too.
            trace.record_event(f"coin.output.{session.output}")
        callbacks = session.callbacks
        session.callbacks = []
        for callback in callbacks:
            callback(session.output)

    # ------------------------------------------------------------------
    def _rb(self, session: _CoinSession, kind: str, body: object) -> None:
        bid = (self.pid, "coin", session.csid, kind)
        self._broadcast.broadcast(bid, ("coin", session.csid, kind, body))

    def _valid_pid_tuple(self, body: object) -> bool:
        return (
            isinstance(body, tuple)
            and len(set(body)) == len(body)
            and all(isinstance(p, int) and 1 <= p <= self.n for p in body)
        )

    def describe(self) -> str:
        return "SVSSCommonCoin"


class _GateRound:
    """Release bookkeeping for one shared coin round at one process."""

    __slots__ = ("joined", "released", "under_released")

    def __init__(self) -> None:
        self.joined = 0
        self.released = 0
        self.under_released = False


class SharedCoinGate(CoinSource):
    """Share one underlying coin invocation per round across a batch.

    This is the batching lever of Wang-style amortized BA: ``K`` concurrent
    agreement instances at the same process consult *one* coin session per
    round (``("cc", shared_tag, r)``) instead of ``K`` — with the paper's
    SVSS coin, whose single invocation costs ``Θ(n²)`` sharings, that
    amortizes essentially the whole coin bill across the batch.

    The gate preserves the release discipline *collectively*: the
    underlying :meth:`CoinSource.release` fires only once every instance of
    this process has either released round ``r`` or retired (halted) below
    it — the coin for round ``r`` is not revealed while any local
    instance's round-``r`` position is still steerable.  An instance that
    joins a round *after* the collective release (a straggler whose peers
    all finished the round first) sees the coin like any late joiner of a
    released session; this is the documented weakening shared rounds buy
    their amortization with.

    Liveness is preserved: every nonfaulty agreement instance releases
    every round it joins before halting (release precedes both the coin
    wait and the halt check), so the gate's collective condition is always
    eventually met.
    """

    def __init__(self, source: CoinSource, instances: int, shared_tag: object = "aba"):
        if instances < 1:
            raise ProtocolError(f"need at least one instance, got {instances}")
        self._source = source
        self._instances = instances
        self._shared_tag = shared_tag
        self._rounds: dict[object, _GateRound] = {}
        #: Highest joined round of each retired instance (an instance only
        #: counts as a permanent non-joiner for rounds *above* its height).
        self._retired_heights: list[int] = []

    def _shared(self, csid: tuple) -> tuple:
        return ("cc", self._shared_tag, csid[2])

    def _round(self, r: object) -> _GateRound:
        state = self._rounds.get(r)
        if state is None:
            state = self._rounds[r] = _GateRound()
        return state
    # ``r`` comes from the instance's csid (``("cc", instance_id, r)``);
    # agreement rounds are ints, so gate rounds order totally.

    def join(self, csid: tuple) -> None:
        r = csid[2]
        state = self._round(r)
        state.joined += 1
        self._source.join(self._shared(csid))

    def release(self, csid: tuple) -> None:
        r = csid[2]
        state = self._round(r)
        state.released += 1
        self._maybe_release(r, state)

    def retire(self, height: int | None = None) -> None:
        """One instance halted after releasing every round it joined.

        ``height`` is its highest joined round (0 if it never joined); the
        instance counts as a permanent non-joiner only for rounds above it.
        """
        self._retired_heights.append(0 if height is None else height)
        for r, state in list(self._rounds.items()):
            self._maybe_release(r, state)

    def get(self, csid: tuple, callback: CoinCallback) -> None:
        self._source.get(self._shared(csid), callback)

    def _maybe_release(self, r: object, state: _GateRound) -> None:
        if state.under_released or state.released < state.joined:
            return
        absent = sum(1 for h in self._retired_heights if h < r)
        if state.released + absent >= self._instances:
            state.under_released = True
            self._source.release(("cc", self._shared_tag, r))

    def describe(self) -> str:
        return f"shared[{self._instances}]({self._source.describe()})"
