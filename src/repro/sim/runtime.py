"""The simulation runtime: private channels + event loop.

Models the paper's system exactly: ``n`` processes, reliable private
channels with unbounded but finite delay, delivery order chosen by the
scheduler (i.e. by the adversary).  Everything is deterministic given the
config seed, the scheduler, and the adversary.

Two engines dispatch the same event stream in the same order:

* ``"flat"`` (default) — at the first dispatched event the runtime
  *freezes routing*: every honest, uncrashed host's ``tag -> handler``
  table is snapshotted into an array indexed by pid, so the hot loop goes
  straight from popped event to bound handler with no
  ``ProcessHost.deliver`` indirection.  Crashed or byzantine hosts keep
  the slow ``deliver`` path.  With a fixed-delay scheduler the engine also
  swaps the binary heap for a bucketed calendar queue and lets ``send_all``
  push a whole fan-out in one batch.
* ``"legacy"`` — the seed engine (binary heap, per-event ``deliver``
  routing, per-event predicate polling), kept so determinism and speedups
  can be asserted against it by the regression tests and
  ``benchmarks/bench_engine.py``.

Waiting is notification-driven: protocol modules call
:meth:`Runtime.notify_state_change` whenever observable state changes
(a broadcast delivers, a VSS share completes, a coin lands, an agreement
round advances or decides), and :meth:`Runtime.run_until` with
``on_change=True`` re-evaluates its predicate only when the change counter
moved — O(state changes) predicate evaluations instead of O(events).

Transport coalescing: all :meth:`Runtime.transmit` calls made while one
event is being dispatched are buffered per ``(src, dst)`` and flushed at
end-of-step as a single *envelope* event ``("env", (sub_payload, ...))``
whenever two or more logical messages share the pair; the receiving host
unpacks sub-payloads in order through its ordinary handler table
(:meth:`ProcessHost._deliver_envelope`).  The n² concurrent MW-SVSS
sessions of one common-coin invocation emit their echo/ack/confirm
traffic between the same pairs within the same step, so their per-step
event bill collapses from O(n²) per pair to O(1), while every *logical*
message still traverses its handler, the trace counters, byzantine
outbound filters (applied before buffering) and the DMM.  Adversarial
semantics stay per logical message: a scheduler classifies the whole
envelope (see ``repro.adversary.schedulers``) or advertises
:attr:`~repro.sim.scheduler.Scheduler.splits_envelopes`, and the runtime
then never opens the buffer — every message is scheduled at send time,
exactly the per-message wire of the paper's model, for any base
scheduler.  Under a fixed-delay scheduler coalescing is *pure*: every
conversation — one (src, dst, session) stream — delivers the
bit-identical sequence of logical messages and decisions/rounds equal the
envelope-split run on both engines (``tests/test_coalesce.py``); only the
event count shrinks (``envelopes_pushed`` / ``payloads_coalesced``).
Distinct conversations may regroup *within one simultaneity bucket* —
the protocol's state machines are per-session, so this is framing, not
reordering.

Session-vector aggregation: one layer up, the VSS layer packs the common
coin's per-slot session messages into ``("svec", ...)`` slot-vectors — one
*logical* message per (step, dealer-group) instead of n per-session
messages (see :mod:`repro.core.vectormux`).  The runtime's part is the
step window: ``svec_buffering`` is open while an event is dispatched (or
a driver-side :meth:`coalescing_step` is active), dirty muxes register
via :meth:`svec_defer`, and the end-of-step flush runs them *before* the
envelope flush so vectors still coalesce onto envelopes.  A
``splits_slots`` scheduler vetoes the packing outright.  Counters:
``svec_packed`` / ``svec_slots``.  Both layers are always on unless the
scheduler splits them, so the per-message wire is an adversary input.
"""

from __future__ import annotations

import gc
import heapq
from collections.abc import Callable
from contextlib import contextmanager

from repro.config import SystemConfig
from repro.errors import DeadlockError, SimulationError
from repro.field import backend as _algebra
from repro.sim.events import BucketQueue, EventQueue
from repro.sim.process import ENVELOPE_TAG, RECOVER_TAG, ProcessHost
from repro.sim.scheduler import Scheduler, default_scheduler
from repro.sim.tracing import TRACE_FULL, Trace

#: Safety valve: a run dispatching more events than this is assumed stuck in
#: a livelock (no correct experiment in this repo comes close).
DEFAULT_MAX_EVENTS = 50_000_000

#: Engine names accepted by :class:`Runtime` and ``build_stack``.
ENGINE_FLAT = "flat"
ENGINE_LEGACY = "legacy"
ENGINES = (ENGINE_FLAT, ENGINE_LEGACY)

_INF = float("inf")


class Runtime:
    """Owns the hosts, the event queue, the clock, and the trace."""

    def __init__(
        self,
        config: SystemConfig,
        scheduler: Scheduler | None = None,
        trace_level: int = TRACE_FULL,
        engine: str = ENGINE_FLAT,
        algebra_backend: str | None = None,
    ):
        if engine not in ENGINES:
            raise SimulationError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        self.config = config
        self.field = config.field
        self.engine = engine
        self.now = 0.0
        self.trace = Trace.for_field(config.field, config.n, level=trace_level)
        self.scheduler = scheduler or default_scheduler(config.derive_rng("scheduler"))
        #: Constant per-message delay, when the scheduler guarantees one and
        #: the flat engine may exploit it (skips the per-send scheduler call
        #: and enables the calendar queue + batched fan-outs).  The legacy
        #: engine never uses it, preserving the seed cost model.
        fixed = self.scheduler.fixed_delay() if engine == ENGINE_FLAT else None
        if fixed is not None and (not (fixed > 0.0) or fixed == _INF):
            raise SimulationError(
                f"scheduler advertises illegal fixed delay {fixed!r}; the "
                "model requires positive finite delays (eventual delivery)"
            )
        self._fixed_delay = fixed
        self.queue = BucketQueue() if fixed is not None else EventQueue()
        #: True when honest ``send_all`` may batch-push its fan-out.
        self.batch_sends = engine == ENGINE_FLAT
        self.hosts: dict[int, ProcessHost] = {
            pid: ProcessHost(self, pid) for pid in config.pids
        }
        # Flat-dispatch state; built by freeze_routing().  Index 0 unused
        # (pids are 1..n), so event destinations index directly.
        self._frozen = False
        self._tables: list[dict | None] = [None] * (config.n + 1)
        self._hosts_seq: list[ProcessHost | None] = [None] * (config.n + 1)
        for pid, host in self.hosts.items():
            self._hosts_seq[pid] = host
        #: Wire-level message coalescing (see the module docstring), off
        #: only under a ``splits_envelopes`` scheduler: the buffer then
        #: never opens and every message is scheduled at send time.
        self.coalesce = not getattr(self.scheduler, "splits_envelopes", False)
        #: (src, dst) -> [payload, ...] buffered during the current step.
        self._outbox: dict[tuple[int, int], list] = {}
        self._buffering = False
        #: Envelope events pushed / logical messages that rode inside them.
        self.envelopes_pushed = 0
        self.payloads_coalesced = 0
        #: Session-vector aggregation (see :mod:`repro.core.vectormux`): the
        #: VSS layer packs the coin's per-slot session messages into one
        #: ``("svec", ...)`` logical message per (step, dealer-group,
        #: kind), unless a ``splits_slots`` scheduler
        #: (:class:`repro.adversary.schedulers.SlotSplittingScheduler`)
        #: vetoes the packing and the per-session wire stream is sent.
        self.svec = not getattr(self.scheduler, "splits_slots", False)
        #: True while a dispatch step (or a driver-side
        #: :meth:`coalescing_step`) is open and session-vector muxes may
        #: buffer; outside a step, or when ``svec`` is off, per-slot sends
        #: travel plain.
        self.svec_buffering = False
        #: Muxes holding buffered slot messages for the current step.
        self._svec_pending: list = []
        #: Slot-vector messages emitted / per-slot messages folded into them.
        self.svec_packed = 0
        self.svec_slots = 0
        #: Vectorized algebra backend (see :mod:`repro.field.backend` and
        #: ``docs/ALGEBRA.md``): ``None`` defers to ``REPRO_ALGEBRA_BACKEND``
        #: / auto-detect.  Selection is process-global (the fast paths carry
        #: no runtime handle), so construction pins it and snapshots the
        #: shared counters; :attr:`rows_vectorized` /
        #: :attr:`backend_fallbacks` report per-run deltas.
        self.algebra_backend = _algebra.set_backend(algebra_backend).name
        self._algebra_baseline = _algebra.counters.snapshot()
        #: Vectors consumed by ``VSSManager.ingest_vector`` / slots resolved
        #: by a group-level verdict / slots that fell back to per-slot
        #: verdicts.
        self.svec_batch_ingested = 0
        self.dmm_verdicts_batched = 0
        self.dmm_verdict_fallbacks = 0
        #: DMM verdict computations, batched or not (the per-slot-handler
        #: -work metric the coin bench gates on).
        self.dmm_verdict_calls = 0
        #: Events dispatched over the runtime's lifetime (always counted,
        #: independent of the trace level).
        self.events_dispatched = 0
        #: ``run_until`` predicate evaluations (the O(events) vs
        #: O(state changes) comparison the engine benchmark reports).
        self.predicate_evals = 0
        self._state_version = 0
        #: Runtime invariant monitor (:class:`repro.sim.monitor.InvariantMonitor`)
        #: or None; protocol modules consult it at their observable-state
        #: transition points (decisions, rounds, shuns, coin outputs).
        self.monitor = None
        #: Delivery observation tap ``tap(src, dst, payload)`` or None,
        #: called for every dispatched event *before* routing.  This is the
        #: adaptive adversary's sensor (it sees exactly the traffic the
        #: network delivers, wire-level: envelopes and slot-vectors as
        #: such).  Snapshotted at hot-loop entry, so install it before the
        #: run starts.
        self.delivery_tap = None

    def host(self, pid: int) -> ProcessHost:
        try:
            return self.hosts[pid]
        except KeyError:
            raise SimulationError(f"no process with id {pid}") from None

    # -- algebra backend telemetry -------------------------------------------
    @property
    def rows_vectorized(self) -> int:
        """Rows served by the vectorized algebra backend since construction."""
        return _algebra.counters.rows_vectorized - self._algebra_baseline[0]

    @property
    def backend_fallbacks(self) -> int:
        """Vector-backend declines (pure-path fallbacks) since construction."""
        return _algebra.counters.backend_fallbacks - self._algebra_baseline[1]

    # -- notification-driven waits -------------------------------------------
    def notify_state_change(self) -> None:
        """Protocol modules call this when observable state changed.

        ``run_until(..., on_change=True)`` only re-evaluates its predicate
        after the version counter moved, so anything a wait predicate can
        observe (broadcast deliveries, VSS completions and outputs, coin
        outputs, agreement rounds/decisions) must be announced here by the
        module that changed it.
        """
        self._state_version += 1

    # -- routing freeze ------------------------------------------------------
    @property
    def routing_frozen(self) -> bool:
        return self._frozen

    def freeze_routing(self) -> None:
        """Snapshot per-host handler tables into the flat dispatch array.

        Called automatically at the first dispatched event of a flat-engine
        run; registering further handlers afterwards raises (see
        :meth:`ProcessHost.register_handler`).  Hosts that are crashed or
        byzantine at freeze time — and any host that crashes later, which
        the hot loop re-checks per event — stay on the slow
        ``ProcessHost.deliver`` path.  A no-op on the legacy engine.
        """
        if self._frozen or self.engine != ENGINE_FLAT:
            return
        self._frozen = True
        tables = self._tables
        for pid, host in self.hosts.items():
            if host.behavior is None and not host.crashed:
                tables[pid] = dict(host._handlers)

    # -- crash recovery ------------------------------------------------------
    def recover(self, pid: int, at: float | None = None) -> None:
        """Bring a crashed process back: immediately (``at=None``) or at
        simulated time ``at`` via a scheduled recovery wake.

        Recovery is *amnesia-free but wire-lossy*: the host's handler
        tables, slot tables and attached modules survive untouched (the
        ``ProtocolModule.attach`` wiring from before the crash is the
        re-attach), while every delivery queued for the host — pre-crash
        or during the outage — is purged, so the recovered incarnation
        only sees traffic sent after it rejoined.  That is the standard
        crash-recovery network model: a rebooted node keeps its disk, not
        its socket buffers.
        """
        host = self.host(pid)
        if at is None:
            if not host.crashed:
                raise SimulationError(f"process {pid} is not crashed")
            self._apply_recovery(host)
            return
        self.schedule_recovery(pid, at)

    def schedule_recovery(self, pid: int, at: float) -> None:
        """Queue a recovery wake for ``pid`` at time ``at`` (> now).

        The wake is an ordinary event with the unforgeable runtime origin
        ``src == 0``; if the host is not crashed when it arrives, the wake
        is dropped like any unhandled tag.  Byzantine peers cannot fake
        one (every host send path stamps its own pid as src).
        """
        self.host(pid)  # validate the pid
        if not (at > self.now) or at == _INF:
            raise SimulationError(
                f"recovery time {at!r} must be finite and after now={self.now!r}"
            )
        self.queue.push(at, pid, 0, (RECOVER_TAG,))

    def _apply_recovery(self, host: ProcessHost) -> None:
        """Perform the actual recovery of a crashed host (wake delivery or
        immediate :meth:`recover`): purge stale in-flight deliveries, flip
        the host live (epoch bump), run the behaviour's ``on_recover`` hook
        (crash-recovery behaviours re-arm their next crash budget here),
        tell the monitor, and nudge waiting predicates."""
        self.queue.purge(host.pid)
        host.recover()
        behavior = host.behavior
        if behavior is not None:
            hook = getattr(behavior, "on_recover", None)
            if hook is not None:
                hook(host)
        monitor = self.monitor
        if monitor is not None:
            monitor.on_recovery(host.pid, self.now)
        self.notify_state_change()

    # -- transport -----------------------------------------------------------
    def transmit(self, src: int, dst: int, payload: tuple, layer: str) -> None:
        """Accept a message onto the (simulated) wire.

        While an event is being dispatched on a coalescing runtime the
        message is only *buffered*; :meth:`_flush_outbox` turns each
        (src, dst) buffer into one envelope event at end-of-step.  Trace
        accounting stays per logical message either way, so
        ``trace.total_messages`` is coalescing-invariant.
        """
        if dst not in self.hosts:
            raise SimulationError(f"send to unknown process {dst}")
        trace = self.trace
        if trace.level:  # TRACE_OFF == 0: skip the call + Counter work
            trace.record_send(layer, payload)
        if self._buffering:
            outbox = self._outbox
            key = (src, dst)
            pending = outbox.get(key)
            if pending is None:
                outbox[key] = [payload]
            else:
                pending.append(payload)
            return
        delay = self._fixed_delay
        if delay is None:
            delay = self.scheduler.delay(src, dst, payload, self.now)
            if not (delay > 0.0) or delay == _INF:
                raise SimulationError(
                    f"scheduler produced illegal delay {delay!r}; the model "
                    "requires positive finite delays (eventual delivery)"
                )
        self.queue.push(self.now + delay, dst, src, payload)

    def transmit_all(self, src: int, payload: tuple, layer: str) -> None:
        """Accept one copy of ``payload`` for every process in one batch.

        The honest-uncrashed ``send_all`` fast path: crash state and the
        outbound filter were checked once by the caller, the trace is
        updated once, and with a fixed-delay scheduler the whole fan-out is
        pushed without per-destination scheduler calls.  Delay computation
        order (dst ``1..n``) matches ``n`` individual sends exactly, so
        seeded schedulers draw identical randomness either way.
        """
        n = self.config.n
        trace = self.trace
        if trace.level:
            trace.record_send_many(layer, payload, n)
        if self._buffering:
            outbox = self._outbox
            for dst in range(1, n + 1):
                key = (src, dst)
                pending = outbox.get(key)
                if pending is None:
                    outbox[key] = [payload]
                else:
                    pending.append(payload)
            return
        fixed = self._fixed_delay
        if fixed is not None:
            self.queue.push_fanout(self.now + fixed, src, payload, n)
            return
        now = self.now
        delay_of = self.scheduler.delay
        push = self.queue.push
        for dst in range(1, n + 1):
            delay = delay_of(src, dst, payload, now)
            if not (delay > 0.0) or delay == _INF:
                raise SimulationError(
                    f"scheduler produced illegal delay {delay!r}; the model "
                    "requires positive finite delays (eventual delivery)"
                )
            push(now + delay, dst, src, payload)

    def _checked_delay(self, src: int, dst: int, payload: object) -> float:
        delay = self.scheduler.delay(src, dst, payload, self.now)
        if not (delay > 0.0) or delay == _INF:
            raise SimulationError(
                f"scheduler produced illegal delay {delay!r}; the model "
                "requires positive finite delays (eventual delivery)"
            )
        return delay

    def _flush_outbox(self) -> None:
        """Push the dispatch step's buffered messages onto the wire.

        Each ``(src, dst)`` buffer with two or more logical messages
        becomes one envelope event ``("env", (payload, ...))`` in send
        order; singletons travel as plain events (no framing overhead).
        Buffers drain grouped by first-touched pair; within a pair, order
        is send order, so every destination still observes the
        per-message per-party sequence.
        """
        outbox = self._outbox
        now = self.now
        fixed = self._fixed_delay
        queue = self.queue
        try:
            for (src, dst), payloads in outbox.items():
                if len(payloads) == 1:
                    payload = payloads[0]
                else:
                    payload = (ENVELOPE_TAG, tuple(payloads))
                    self.envelopes_pushed += 1
                    self.payloads_coalesced += len(payloads)
                delay = fixed
                if delay is None:
                    delay = self._checked_delay(src, dst, payload)
                queue.push(now + delay, dst, src, payload)
        finally:
            # Clear even when a scheduler produced an illegal delay
            # mid-flush (fatal anyway): already-pushed pairs must not be
            # re-pushed by a later flush if the caller swallows the error.
            outbox.clear()

    # -- session-vector flushing ----------------------------------------------
    def svec_defer(self, mux) -> None:
        """A mux buffered its first slot message of this step; flush it at
        end-of-step (called by :class:`~repro.core.vectormux.SessionVectorMux`)."""
        self._svec_pending.append(mux)

    def _flush_svec(self) -> None:
        """Drain every dirty mux, in defer order (driver loops run pids
        ascending, so flushes stay source-major).  Mux flushes only push
        onto the wire — they can buffer nothing new — and they run *before*
        the envelope flush, so svec messages still coalesce onto envelopes
        when both transports are on."""
        pending = self._svec_pending
        self._svec_pending = []
        for mux in pending:
            mux.flush()

    @contextmanager
    def coalescing_step(self):
        """Treat enclosed *driver-side* sends as one dispatch step.

        Driver code (protocol ``start`` loops, coin joins) runs outside the
        event loop, so its sends never see the per-step coalescer.  Wrapping
        the whole loop in this context buffers them like an ordinary step
        and flushes once at exit — this is what seeds vote coalescing for a
        batch: the K instances' round-1 votes per (src, dst) leave as one
        envelope, every later step then delivers K votes as one event and
        emits the K responses inside that single step, so the coalescing is
        self-sustaining.  Callers must emit in source-major order (all of
        one sender's messages before the next sender's) if they rely on the
        bit-identical-sequence guarantee.  The same window opens the
        session-vector muxes, so a driver loop's per-slot coin sends leave
        as slot-vectors too.  No-op when the scheduler splits both
        transports; do not use while the event loop is running.
        """
        self._buffering = self.coalesce
        self.svec_buffering = self.svec
        try:
            yield
        finally:
            # Flush inside the finally: if the driver loop raised partway,
            # the messages it sent before the error still go out (exactly
            # what the uncoalesced run would have pushed already) instead
            # of leaking into a later dispatch step's flush.  Slot-vectors
            # flush first, while wire buffering is still on, so they join
            # the step's envelopes like any other send.
            self.svec_buffering = False
            if self._svec_pending:
                self._flush_svec()
            self._buffering = False
            if self._outbox:
                self._flush_outbox()

    # -- event loop --------------------------------------------------------------
    def step(self) -> bool:
        """Dispatch the next delivery; False when the queue is empty."""
        if not self.queue:
            return False
        if not self._frozen and self.engine == ENGINE_FLAT:
            self.freeze_routing()
        time, _, dst, src, payload = self.queue.pop()
        self.now = time
        coalescing = self._buffering = self.coalesce
        svec = self.svec_buffering = self.svec
        try:
            tap = self.delivery_tap
            if tap is not None:
                tap(src, dst, payload)
            table = self._tables[dst]
            if table is None:
                self.hosts[dst].deliver(src, payload)
            else:
                host = self._hosts_seq[dst]
                if not host.crashed and isinstance(payload, tuple) and payload:
                    handler = table.get(payload[0])
                    if handler is not None:
                        handler(src, payload)
                elif host.crashed and src == 0:
                    # Recovery wakes are the one thing a crashed host on the
                    # fast path still reacts to (the slow path handles this
                    # inside ProcessHost.deliver).
                    if (
                        isinstance(payload, tuple)
                        and payload
                        and payload[0] == RECOVER_TAG
                    ):
                        self._apply_recovery(host)
        finally:
            # Slot-vectors flush before wire buffering is cleared, so they
            # join the step's envelopes (keeping the legacy engine's
            # composition identical to the flat loop's).
            if svec:
                self.svec_buffering = False
                if self._svec_pending:
                    self._flush_svec()
            if coalescing:
                self._buffering = False
        if coalescing and self._outbox:
            self._flush_outbox()
        self.events_dispatched += 1
        trace = self.trace
        if trace.level:
            trace.events_dispatched = self.events_dispatched
        return True

    def run_to_quiescence(self, max_events: int = DEFAULT_MAX_EVENTS) -> int:
        """Run until no messages remain in flight; returns events dispatched.

        In an asynchronous protocol every liveness property must hold by
        quiescence (there is no "later" once nothing is in flight), so this
        is the canonical way tests drive a run to completion.
        """
        if self.engine == ENGINE_LEGACY:
            return self._legacy_run(None, max_events)
        return self._flat_run(None, max_events, False)

    def run_until(
        self,
        predicate: Callable[[], bool],
        max_events: int = DEFAULT_MAX_EVENTS,
        on_change: bool = False,
    ) -> int:
        """Run until ``predicate()`` holds; DeadlockError if we quiesce first.

        With ``on_change=True`` the predicate is re-evaluated only when
        some module reported a state change via
        :meth:`notify_state_change` (plus once at queue drain as a safety
        net) — use it for predicates over protocol-observable state.  The
        default re-evaluates after every event, which is always safe.  The
        legacy engine ignores ``on_change`` and polls per event, exactly
        like the seed.
        """
        self.predicate_evals += 1
        if predicate():
            return 0
        if self.engine == ENGINE_LEGACY:
            return self._legacy_run(predicate, max_events)
        return self._flat_run(predicate, max_events, on_change)

    def run_steps(self, count: int) -> int:
        """Dispatch at most ``count`` events; returns how many ran."""
        dispatched = 0
        while dispatched < count and self.step():
            dispatched += 1
        return dispatched

    # -- engine internals --------------------------------------------------------
    def _legacy_run(self, predicate, max_events: int) -> int:
        """The seed event loop: one ``step()`` (heap pop + ``deliver``) and
        one predicate poll per event."""
        dispatched = 0
        # Same cyclic-collector pause as ``_flat_run`` — the garbage
        # profile is identical, only the dispatch overhead differs.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while self.step():
                dispatched += 1
                if dispatched > max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; likely livelock"
                    )
                if predicate is not None:
                    self.predicate_evals += 1
                    if predicate():
                        return dispatched
        finally:
            if gc_was_enabled:
                gc.enable()
        if predicate is not None:
            raise DeadlockError(
                "event queue drained before the awaited condition became true"
            )
        return dispatched

    def _flat_run(self, predicate, max_events: int, on_change: bool) -> int:
        """The flat-dispatch hot loop.

        Everything the per-event path touches is bound to locals; the
        dispatch body is intentionally duplicated across the two queue
        branches (calendar vs heap) because a shared helper would cost a
        Python call per event — the exact overhead this loop removes.  The
        calendar branch reaches into :class:`BucketQueue` internals for the
        same reason; the queue's own ``pop()`` stays the reference
        semantics (``step()`` uses it).
        """
        self.freeze_routing()
        queue = self.queue
        tables = self._tables
        hosts_seq = self._hosts_seq
        trace = self.trace
        check = predicate is not None
        # Coalescing buffers sends for the whole loop (driver code cannot
        # run between events) and flushes after every dispatch, which is
        # observably identical to per-step buffering.  The session-vector
        # window opens the same way.
        coalescing = self._buffering = self.coalesce
        svec = self.svec_buffering = self.svec
        # The caller evaluated the predicate before entering, so only a
        # version moved *after* this point warrants a re-evaluation.
        last_version = self._state_version
        # Snapshot of the delivery tap: adaptive adversaries install theirs
        # before the run; a tap that loses interest mid-run just goes inert
        # rather than uninstalling.
        tap = self.delivery_tap
        dispatched = 0
        # The loop allocates heavily but almost entirely acyclically —
        # tuples and short-lived lists that refcounting frees the moment
        # the handler returns — while the long-lived session tables keep
        # tripping generational collections that find nothing to free.
        # Pausing the cyclic collector for the loop cuts roughly a third
        # off large runs; anything cyclic is swept on re-enable.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            if type(queue) is BucketQueue:
                times = queue._times
                buckets = queue._buckets
                heappop = heapq.heappop
                while times:
                    time = times[0]
                    bucket = buckets[time]
                    self.now = time
                    while bucket:
                        _, _, dst, src, payload = bucket.popleft()
                        queue._len -= 1
                        dispatched += 1
                        if dispatched > max_events:
                            raise SimulationError(
                                f"exceeded {max_events} events; likely livelock"
                            )
                        if tap is not None:
                            tap(src, dst, payload)
                        table = tables[dst]
                        if table is not None:
                            host = hosts_seq[dst]
                            if (
                                not host.crashed
                                and isinstance(payload, tuple)
                                and payload
                            ):
                                handler = table.get(payload[0])
                                if handler is not None:
                                    handler(src, payload)
                            elif host.crashed and src == 0:
                                if (
                                    isinstance(payload, tuple)
                                    and payload
                                    and payload[0] == RECOVER_TAG
                                ):
                                    self._apply_recovery(host)
                        else:
                            hosts_seq[dst].deliver(src, payload)
                        if svec and self._svec_pending:
                            self._flush_svec()
                        if coalescing and self._outbox:
                            self._flush_outbox()
                        if check:
                            version = self._state_version
                            if not on_change or version != last_version:
                                last_version = version
                                self.predicate_evals += 1
                                if predicate():
                                    if not bucket:
                                        # Keep the queue canonical when the
                                        # wait resolves on a bucket's last
                                        # event (pop() also tolerates this).
                                        del buckets[time]
                                        heappop(times)
                                    return dispatched
                    # Strictly positive delays: nothing lands in the bucket
                    # being drained, so it empties exactly once.
                    del buckets[time]
                    heappop(times)
            else:
                heap = queue._heap
                heappop = heapq.heappop
                while heap:
                    time, _, dst, src, payload = heappop(heap)
                    self.now = time
                    dispatched += 1
                    if dispatched > max_events:
                        raise SimulationError(
                            f"exceeded {max_events} events; likely livelock"
                        )
                    if tap is not None:
                        tap(src, dst, payload)
                    table = tables[dst]
                    if table is not None:
                        host = hosts_seq[dst]
                        if (
                            not host.crashed
                            and isinstance(payload, tuple)
                            and payload
                        ):
                            handler = table.get(payload[0])
                            if handler is not None:
                                handler(src, payload)
                        elif host.crashed and src == 0:
                            if (
                                isinstance(payload, tuple)
                                and payload
                                and payload[0] == RECOVER_TAG
                            ):
                                self._apply_recovery(host)
                    else:
                        hosts_seq[dst].deliver(src, payload)
                    if svec and self._svec_pending:
                        self._flush_svec()
                    if coalescing and self._outbox:
                        self._flush_outbox()
                    if check:
                        version = self._state_version
                        if not on_change or version != last_version:
                            last_version = version
                            self.predicate_evals += 1
                            if predicate():
                                return dispatched
        finally:
            if gc_was_enabled:
                gc.enable()
            self._buffering = self.svec_buffering = False
            self.events_dispatched += dispatched
            if trace.level:
                trace.events_dispatched = self.events_dispatched
        if check:
            # Drained.  Re-check once before declaring deadlock: a predicate
            # over state whose module forgot to notify still resolves here.
            self.predicate_evals += 1
            if predicate():
                return dispatched
            raise DeadlockError(
                "event queue drained before the awaited condition became true"
            )
        return dispatched
