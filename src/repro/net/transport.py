"""The asyncio TCP transport: ``ProcessHost`` semantics over real sockets.

One :class:`NetworkNode` is one protocol process: it owns a
:class:`NetworkHost` (a real :class:`~repro.sim.process.ProcessHost`
subclass, so every ``ProtocolModule`` attaches unmodified), an asyncio
TCP server accepting inbound links, and one :class:`PeerConnection`
supervisor per peer for outbound traffic.  The :class:`NetRuntime`
facade implements exactly the runtime surface protocol modules consume
(``transmit``, ``config``, ``trace``, ``monitor``, ``now``,
``notify_state_change``, the svec flag) — see
:class:`~repro.sim.module.HostABC` for the contract.

Reliability.  The simulation models reliable private channels; TCP alone
is not one (a connection drop loses whatever was buffered in flight), so
the transport layers a per-directed-link sequence protocol on top:

* every DATA frame carries ``seq`` (an 8-byte prefix ahead of the
  encoded payload), monotonically increasing per (src, dst) link; each
  HELLO announces the sender's current base seq, an epoch bump on
  restart makes receivers re-adopt it, and when counted ring drops shed
  seqs the receiver still expects the sender re-announces its base
  mid-session so the link jumps the shed range instead of stalling;
* the receiver delivers strictly in order exactly once, re-acks
  duplicates, and buffers up to ``window`` out-of-order bodies
  (selective-repeat lite): the cumulative ack jumps the buffered run
  the moment a gap fills;
* the sender keeps at most ``window`` unacked frames in flight, queues
  every frame until cumulatively ACKed, resends just the queue-head
  frame on a duplicate cumulative ack (fast retransmit, throttled per
  stuck seq), falls back to go-back-N when the ack clock stalls past
  ``rto``, and resyncs via HELLO/WELCOME on reconnect: the WELCOME
  carries the receiver's next expected seq, so frames lost mid-envelope
  by a dying connection are retransmitted, not lost.

Supervision.  Each :class:`PeerConnection` reconnects with exponential
backoff plus seeded jitter, sends heartbeat PINGs when idle and treats a
link with no inbound traffic for ``idle_timeout`` as dead.  A peer
unreachable for ``down_after`` seconds is marked DOWN — the graceful-
degradation state for ≤ t unreachable peers.

Backpressure.  Outbound queues are bounded by policy, not by silent
drops: while every peer is live, a backlog past ``queue_high_water``
*pauses the node's inbound dispatch pump* (the node stops consuming the
traffic that generates replies — honest senders block, nothing is
dropped) until acks drain it below ``queue_low_water``.  Only a peer in
DOWN state stops counting toward the gate and has its queue capped as a
ring (oldest frames dropped *with accounting*, ``dropped_while_down``):
a crashed peer's channel may lose messages — exactly the simulator's
wire-lossy crash-recovery model (`docs/ADVERSARY.md`), and the seq
resync on its return keeps the surviving suffix consistent.

Restarting a node's transport (:meth:`NetworkNode.stop_transport` /
:meth:`NetworkNode.restart_transport`) models a process crash+reboot
that keeps protocol state: handler tables and modules survive, socket
buffers and queues do not, and the epoch bump makes every peer reset its
per-link sequence expectations (amnesia-free, wire-lossy — the same
contract as ``Runtime.recover``).

Durability and identity.  A node built with a
:class:`~repro.net.journal.Journal` persists its link state: the
transport epoch is fsynced at startup, per-link send/recv seqs are noted
on the hot path and flushed on a timer (so the clean path stays within a
few percent of the journal-less figure), and a node restarted from the
same journal — a *new OS process* after ``kill -9`` — resumes its links
where receivers expect them instead of starting amnesiac.  When
``TransportConfig.auth_secret`` is set, every inbound HELLO must answer
an HMAC challenge/response before WELCOME (per-pair keys derived from
the cluster secret): an impostor claiming another pid is counted
(``auth_rejected``) and ignored without ever stalling honest links — the
stepping stone to TLS-bound identities.
"""

from __future__ import annotations

import asyncio
import hashlib
import hmac
import itertools
import os
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from random import Random

from repro.config import SystemConfig
from repro.errors import SimulationError
from repro.net.codec import (
    FRAME_ACK,
    FRAME_AUTH,
    FRAME_CHALLENGE,
    FRAME_DATA,
    FRAME_HELLO,
    FRAME_PING,
    FRAME_PONG,
    FRAME_WELCOME,
    MAX_FRAME_BODY,
    SEQ_PREFIX,
    CodecError,
    FrameParser,
    decode_value,
    encode_frame,
    encode_value,
)
from repro.net.journal import Journal
from repro.sim.process import ProcessHost
from repro.sim.tracing import TRACE_FULL, Trace

#: Wire protocol version, carried in HELLO; mismatches are refused.
PROTO_VERSION = 1

#: Peer-connection states.
PEER_CONNECTING = "connecting"
PEER_LIVE = "live"
PEER_DOWN = "down"


@dataclass(frozen=True)
class TransportConfig:
    """Tunables of the socket transport (defaults sized for localhost
    test clusters; production deployments raise the timeouts)."""

    bind_host: str = "127.0.0.1"
    connect_timeout: float = 2.0
    #: Reconnect backoff: ``base * 2**attempt`` capped at ``max``, with a
    #: uniform jitter fraction on top (desynchronizes thundering herds).
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    backoff_jitter: float = 0.25
    #: Send a PING after this long with no outbound traffic.
    heartbeat_interval: float = 0.4
    #: No inbound frame (ACK/PONG/WELCOME) for this long => link is dead.
    idle_timeout: float = 2.5
    #: Resend from the first unacked frame after the ack clock stalls
    #: this long (go-back-N retransmission).
    rto: float = 0.3
    #: Max unacked frames in flight per link; bounds go-back-N waste.
    window: int = 1024
    #: Receiver sends a cumulative ACK every this many in-order frames
    #: (and immediately on a gap, a duplicate, or a PING).
    ack_every: int = 16
    #: Backpressure gate: pause inbound dispatch when the live outbound
    #: backlog exceeds ``queue_high_water`` frames; resume below
    #: ``queue_low_water``.
    queue_high_water: int = 8192
    queue_low_water: int = 2048
    #: Mark a peer DOWN after this long unreachable; its queue then caps
    #: at ``down_queue_cap`` frames (ring overwrite, counted).
    down_after: float = 6.0
    down_queue_cap: int = 8192
    max_frame_body: int = MAX_FRAME_BODY
    #: Cluster shared secret for HMAC handshake authentication.  Empty
    #: means auth is off (HELLO -> WELCOME, the pre-journal handshake);
    #: non-empty requires every inbound HELLO to answer a challenge with
    #: a MAC under the per-pair key before any WELCOME is issued.
    auth_secret: bytes = b""
    #: Journal flush cadence: coalesced seq notes hit the file (and, on
    #: the ``batch`` fsync policy, the disk) at most this often.
    journal_flush_interval: float = 0.05
    #: Journal fsync policy when the node builds its own Journal from a
    #: path: ``always`` / ``batch`` / ``never``.
    journal_fsync: str = "batch"


def derive_pair_key(secret: bytes, a: int, b: int) -> bytes:
    """The (a, b) link key: HMAC of the unordered pair under the cluster
    secret, so both endpoints derive the same key and no third party with
    a different pair's key can forge for this one."""
    lo, hi = (a, b) if a <= b else (b, a)
    return hmac.new(secret, f"pair:{lo}:{hi}".encode(), hashlib.sha256).digest()


def handshake_mac(
    key: bytes, nonce: bytes, src: int, dst: int, epoch: int, base: int
) -> bytes:
    """MAC binding one handshake: the challenge nonce plus every HELLO
    field the receiver is about to trust (direction, epoch, seq base)."""
    msg = encode_value(("net-auth", nonce, src, dst, epoch, base, PROTO_VERSION))
    return hmac.new(key, msg, hashlib.sha256).digest()


@dataclass
class PeerStats:
    """Counters one :class:`PeerConnection` maintains (read-only view)."""

    sent: int = 0
    acked: int = 0
    retransmits: int = 0
    reconnects: int = 0
    connect_failures: int = 0
    dropped_while_down: int = 0
    went_down: int = 0
    auth_challenges: int = 0


class NetworkHost(ProcessHost):
    """A :class:`~repro.sim.process.ProcessHost` whose runtime is a
    :class:`NetRuntime`: the identical send/handler surface, delivered
    over sockets.  Protocol modules cannot tell the difference — that is
    the point (and ``tests/test_net_transport.py`` pins the
    :class:`~repro.sim.module.HostABC` conformance)."""

    __slots__ = ("node",)

    def __init__(self, runtime: "NetRuntime", pid: int, node: "NetworkNode"):
        super().__init__(runtime, pid)
        self.node = node


class NetRuntime:
    """Runtime facade backing one :class:`NetworkHost`.

    Implements the surface protocol modules consume (see module
    docstring); transmission hands encoded payloads to the node's peer
    connections instead of a simulated event queue.  ``routing_frozen``
    is always False — there is no flat-dispatch freeze over sockets, so
    modules may register at any time.
    """

    def __init__(self, node: "NetworkNode", config: SystemConfig, trace_level: int = TRACE_FULL):
        self.node = node
        self.config = config
        self.field = config.field
        self.trace = Trace.for_field(config.field, config.n, level=trace_level)
        self.engine = "net"
        self.routing_frozen = False
        #: send_all fan-outs take the batched transmit_all path, which
        #: encodes the shared payload once for all n links.
        self.batch_sends = True
        #: Aggregation transports are simulation-side optimizations; over
        #: sockets every logical message is one frame.  (Envelopes and
        #: forged ("svec", ...) frames from byzantine peers still unpack —
        #: the host and ingest paths are unchanged, so they keep their
        #: counters here.)
        self.svec_buffering = False
        self.svec_packed = 0
        self.svec_slots = 0
        self.svec_batch_ingested = 0
        self.dmm_verdicts_batched = 0
        self.dmm_verdict_fallbacks = 0
        self.dmm_verdict_calls = 0
        self.envelopes_pushed = 0
        self.payloads_coalesced = 0
        self.events_dispatched = 0
        self.predicate_evals = 0
        self._monitor = None
        self._start = time.monotonic()

    # -- clock / monitor ---------------------------------------------------
    @property
    def now(self) -> float:
        """Wall seconds; cluster-shared when a context is attached so the
        monitor's event trail is consistent across hosts."""
        context = self.node.context
        if context is not None:
            return context.now
        return time.monotonic() - self._start

    @property
    def monitor(self):
        context = self.node.context
        if context is not None:
            return context.monitor
        return self._monitor

    @monitor.setter
    def monitor(self, value) -> None:
        self._monitor = value

    def host(self, pid: int):
        """Resolve a pid to its host — cluster-wide with a context, local
        only without one (the monitor is the consumer)."""
        context = self.node.context
        if context is not None:
            return context.host(pid)
        if pid == self.node.pid:
            return self.node.host
        raise SimulationError(
            f"process {pid} is not local to node {self.node.pid} and no "
            "cluster context is attached"
        )

    # -- notifications -----------------------------------------------------
    def notify_state_change(self) -> None:
        self.node.notify()

    # -- transport ---------------------------------------------------------
    def transmit(self, src: int, dst: int, payload: tuple, layer: str) -> None:
        if dst not in self.config.pids:
            raise SimulationError(f"send to unknown process {dst}")
        trace = self.trace
        if trace.level:
            trace.record_send(layer, payload)
        self.node.dispatch_out(dst, payload)

    def transmit_all(self, src: int, payload: tuple, layer: str) -> None:
        """Fan out one payload to every process, encoding it exactly once
        (the seq prefix keeps per-link frames distinct, see codec)."""
        trace = self.trace
        if trace.level:
            trace.record_send_many(layer, payload, self.config.n)
        enc = encode_value(payload)
        dispatch_out = self.node.dispatch_out
        for dst in self.config.pids:
            dispatch_out(dst, payload, enc)

    @contextmanager
    def coalescing_step(self):
        """Driver-loop compatibility shim; the socket transport never
        coalesces, so the step window is a no-op."""
        yield


class PeerConnection:
    """Supervised outbound link to one peer.

    Owns the bounded send queue, the reconnect/backoff loop, heartbeat
    and retransmission.  All state is touched only from the node's event
    loop (asyncio single-threaded discipline), so no locks.
    """

    def __init__(self, node: "NetworkNode", dst: int, rng: Random):
        self.node = node
        self.dst = dst
        self.tconfig = node.tconfig
        self.rng = rng
        self.state = PEER_CONNECTING
        self.stats = PeerStats()
        #: (seq, frame_bytes) in seq order: unacked prefix + unsent tail.
        self.queue: deque[tuple[int, bytes]] = deque()
        #: Seqs resume past the journaled high-water, never regressing —
        #: even if a torn journal tail lost the epoch bump, a receiver
        #: holding old-incarnation state sees only forward seqs.
        journal = node.journal
        base_seq = (
            journal.state.send_seq.get(dst, 0) + 1 if journal is not None else 1
        )
        self._next_seq = base_seq
        #: Next seq to (re)write on the current connection.
        self._cursor = base_seq
        self._wake = asyncio.Event()
        self._task: asyncio.Task | None = None
        self._last_up = time.monotonic()
        self._last_progress = time.monotonic()
        self._last_inbound = 0.0
        #: Highest cumulative ack seen this session (duplicate detection).
        self._acked_high = 0
        #: Base seq last announced via HELLO (re-announced mid-session
        #: when counted ring drops shed seqs the receiver still expects).
        self._announced_base = 0
        #: Stuck seq + time of the last duplicate-ack fast retransmit.
        self._fast_seq = 0
        self._fast_time = 0.0
        #: Writer directive: resend just the queue-head frame once.
        self._retx_one = False
        self._dead = asyncio.Event()
        self._closed = False

    # -- public ------------------------------------------------------------
    def start(self) -> None:
        if self._task is None:
            # A restarted transport re-starts previously closed peers: the
            # closed flag belongs to the supervisor's lifetime, not ours.
            self._closed = False
            self._task = asyncio.get_running_loop().create_task(
                self._supervise(), name=f"peer-{self.node.pid}->{self.dst}"
            )

    async def close(self) -> None:
        self._closed = True
        task, self._task = self._task, None
        if task is None:
            return
        # Re-cancel until the task actually finishes: the first cancel can
        # be consumed mid-session, leaving the supervisor blocked in a
        # cleanup await (e.g. ``wait_closed`` on a transport whose peer
        # stopped reading) with no cancellation pending.
        for _ in range(10):
            task.cancel()
            done, _ = await asyncio.wait({task}, timeout=0.5)
            if done:
                break

    def send(self, payload: object, enc: bytes | None = None) -> None:
        """Queue one logical message (called synchronously by handlers).

        Never blocks and never silently drops: while the peer is not
        DOWN the queue only grows and the *node-level* gate provides the
        backpressure; a DOWN peer's queue is a counted ring.  ``enc`` is
        the payload pre-encoded (fan-outs encode once and share it).
        """
        seq = self._next_seq
        self._next_seq = seq + 1
        if enc is None:
            enc = encode_value(payload)
        frame = encode_frame(FRAME_DATA, SEQ_PREFIX.pack(seq) + enc)
        self.queue.append((seq, frame))
        self.stats.sent += 1
        journal = self.node.journal
        if journal is not None:
            journal.note_send(self.dst, seq)  # coalesced; flushed on a timer
        if (
            self.state == PEER_DOWN
            and len(self.queue) > self.tconfig.down_queue_cap
        ):
            dropped_seq, _ = self.queue.popleft()
            self.stats.dropped_while_down += 1
            if self._cursor <= dropped_seq:
                self._cursor = dropped_seq + 1
        self._wake.set()
        self.node.update_gate()

    @property
    def backlog(self) -> int:
        return len(self.queue)

    # -- supervisor --------------------------------------------------------
    async def _supervise(self) -> None:
        tconf = self.tconfig
        attempt = 0
        while not self._closed:
            try:
                await self._run_once()
                attempt = 0  # a completed session resets backoff
            except asyncio.CancelledError:
                raise
            except Exception:
                self.stats.connect_failures += 1
            if self._closed:
                return
            now = time.monotonic()
            if (
                self.state == PEER_LIVE
                or now - self._last_up > tconf.down_after
            ):
                if self.state != PEER_DOWN and now - self._last_up > tconf.down_after:
                    self.state = PEER_DOWN
                    self.stats.went_down += 1
                    self.node.update_gate()
                elif self.state == PEER_LIVE:
                    self.state = PEER_CONNECTING
                    self.node.update_gate()
            delay = min(
                tconf.backoff_max, tconf.backoff_base * (2 ** min(attempt, 16))
            )
            delay *= 1.0 + tconf.backoff_jitter * self.rng.random()
            attempt += 1
            await asyncio.sleep(delay)

    async def _run_once(self) -> None:
        tconf = self.tconfig
        addr = self.node.peer_address(self.dst)
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(addr[0], addr[1]),
            timeout=tconf.connect_timeout,
        )
        parser = FrameParser(tconf.max_frame_body)
        self._dead = asyncio.Event()
        try:
            # ``base`` tells a fresh (or reset) receive link where our
            # seqs resume — after an epoch bump or counted DOWN drops the
            # oldest queued frame is the earliest seq we can still offer.
            base = self.queue[0][0] if self.queue else self._next_seq
            self._announced_base = base
            hello = (
                "hello", self.node.pid, self.node.epoch, PROTO_VERSION, base
            )
            writer.write(encode_frame(FRAME_HELLO, encode_value(hello)))
            await writer.drain()
            next_expected = await asyncio.wait_for(
                self._await_welcome(reader, writer, parser, base),
                timeout=tconf.connect_timeout,
            )
            # Frames the receiver already holds need no resend.
            self._ack_through(next_expected - 1)
            self._acked_high = next_expected - 1
            self._fast_seq = 0
            self._retx_one = False
            self._cursor = (
                self.queue[0][0] if self.queue else self._next_seq
            )
            was_down = self.state == PEER_DOWN
            self.state = PEER_LIVE
            if was_down:
                self.node.update_gate()
            self._last_up = time.monotonic()
            self._last_progress = time.monotonic()
            self._last_inbound = time.monotonic()
            self.stats.reconnects += 1
            reader_task = asyncio.get_running_loop().create_task(
                self._reader_loop(reader, parser)
            )
            try:
                await self._writer_loop(writer)
            finally:
                reader_task.cancel()
                try:
                    await reader_task
                except (asyncio.CancelledError, Exception):
                    pass
        finally:
            self._last_up = (
                self._last_up if self.state != PEER_LIVE else time.monotonic()
            )
            writer.close()
            try:
                # Bounded: ``wait_closed`` waits for the kernel buffer to
                # flush, which never happens if the peer stopped reading.
                await asyncio.wait_for(writer.wait_closed(), timeout=1.0)
            except asyncio.CancelledError:
                writer.transport.abort()
                raise
            except Exception:
                writer.transport.abort()

    async def _await_welcome(
        self, reader, writer, parser: FrameParser, base: int
    ) -> int:
        """Wait for WELCOME, answering the receiver's auth challenge if
        one arrives first (the receiver issues it iff auth is on)."""
        while True:
            data = await reader.read(65536)
            if not data:
                raise ConnectionError("closed before WELCOME")
            for ftype, body in parser.feed(data):
                if ftype == FRAME_CHALLENGE:
                    try:
                        value = decode_value(body)
                    except CodecError:
                        continue
                    if not (
                        isinstance(value, tuple)
                        and len(value) == 3
                        and value[0] == "challenge"
                        and value[1] == self.dst
                        and isinstance(value[2], bytes)
                    ):
                        continue
                    secret = self.tconfig.auth_secret
                    if not secret:
                        continue  # receiver wants auth we cannot provide
                    key = derive_pair_key(secret, self.node.pid, self.dst)
                    mac = handshake_mac(
                        key, value[2], self.node.pid, self.dst,
                        self.node.epoch, base,
                    )
                    writer.write(
                        encode_frame(
                            FRAME_AUTH,
                            encode_value(("auth", self.node.pid, mac)),
                        )
                    )
                    await writer.drain()
                    self.stats.auth_challenges += 1
                    continue
                if ftype != FRAME_WELCOME:
                    continue
                try:
                    value = decode_value(body)
                except CodecError:
                    continue
                if (
                    isinstance(value, tuple)
                    and len(value) == 4
                    and value[0] == "welcome"
                    and isinstance(value[3], int)
                    and value[2] == self.node.epoch
                    and value[3] >= 1
                ):
                    return value[3]

    async def _reader_loop(self, reader, parser: FrameParser) -> None:
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                self._last_inbound = time.monotonic()
                for ftype, body in parser.feed(data):
                    if ftype == FRAME_ACK:
                        try:
                            value = decode_value(body)
                        except CodecError:
                            continue
                        if (
                            isinstance(value, tuple)
                            and len(value) == 2
                            and value[0] == "ack"
                            and isinstance(value[1], int)
                        ):
                            self._on_ack(value[1])
                    # PONG / anything else: the timestamp update above is
                    # all the health tracking needs.
        finally:
            self._dead.set()

    def _on_ack(self, acked: int) -> None:
        if acked > self._acked_high:
            self._acked_high = acked
            self._ack_through(acked)
            return
        # Duplicate cumulative ack: the receiver is stuck just past
        # ``acked`` while later frames keep arriving — the frame at the
        # head of our queue was lost.  Resend *that one frame* now (the
        # receiver buffers the rest out of order, so filling the gap is
        # enough), throttled per stuck seq so the receiver's burst of
        # gap-acks triggers one resend, not one per gap frame.
        queue = self.queue
        if not queue or acked != queue[0][0] - 1 or self._cursor <= queue[0][0]:
            return
        now = time.monotonic()
        if (
            queue[0][0] == self._fast_seq
            and now - self._fast_time < self.tconfig.rto / 8
        ):
            return
        self._fast_seq = queue[0][0]
        self._fast_time = now
        self._last_progress = now
        self._retx_one = True
        self.stats.retransmits += 1
        self._wake.set()

    def _ack_through(self, seq: int) -> None:
        queue = self.queue
        popped = False
        while queue and queue[0][0] <= seq:
            queue.popleft()
            self.stats.acked += 1
            popped = True
        if popped:
            self._last_progress = time.monotonic()
            if self._cursor <= seq:
                self._cursor = seq + 1
            self.node.update_gate()
            self._wake.set()  # the in-flight window just reopened

    async def _writer_loop(self, writer) -> None:
        tconf = self.tconfig
        last_out = time.monotonic()
        ping_nonce = 0
        while True:
            if writer.transport.is_closing():
                raise ConnectionError("transport closed under the writer")
            queue = self.queue
            if queue and queue[0][0] > max(self._acked_high + 1, self._announced_base):
                # The ring shed seqs the receiver may still be waiting for
                # (counted DOWN drops racing the handshake, or drops after
                # it): re-announce our base mid-session so the receiver
                # jumps past the shed range instead of stalling forever.
                self._announced_base = queue[0][0]
                hello = (
                    "hello", self.node.pid, self.node.epoch,
                    PROTO_VERSION, self._announced_base,
                )
                writer.write(encode_frame(FRAME_HELLO, encode_value(hello)))
                await writer.drain()
                last_out = time.monotonic()
            if self._retx_one:
                self._retx_one = False
                if queue and self._cursor > queue[0][0]:
                    writer.write(queue[0][1])
                    await writer.drain()
                    last_out = time.monotonic()
            if queue and self._cursor <= queue[-1][0]:
                base = queue[0][0]
                start = self._cursor - base
                # In-flight cap: never more than ``window`` unacked frames
                # out, so one loss costs a bounded go-back-N burst.
                stop = min(len(queue), tconf.window)
                frames = list(itertools.islice(queue, max(0, start), stop))
                if frames:
                    # One write per burst: a dead socket then costs one
                    # failed send (and one asyncio log line), not one per
                    # frame — and healthy paths save the syscalls too.
                    writer.write(b"".join(frame for _, frame in frames))
                    self._cursor = frames[-1][0] + 1
                    await writer.drain()
                    last_out = time.monotonic()
            now = time.monotonic()
            if self._dead.is_set():
                raise ConnectionError("peer closed the link")
            if now - self._last_inbound > tconf.idle_timeout:
                raise TimeoutError("no inbound traffic; link presumed dead")
            if queue and now - self._last_progress > tconf.rto:
                # Ack clock stalled: go-back-N from the first unacked seq.
                self._cursor = queue[0][0]
                self._last_progress = now
                self.stats.retransmits += 1
                continue
            if now - last_out > tconf.heartbeat_interval:
                ping_nonce += 1
                writer.write(
                    encode_frame(FRAME_PING, encode_value(("ping", ping_nonce)))
                )
                await writer.drain()
                last_out = time.monotonic()
            self._wake.clear()
            timeout = min(tconf.heartbeat_interval, tconf.rto) / 2
            try:
                await asyncio.wait_for(self._wake.wait(), timeout=timeout)
            except asyncio.TimeoutError:
                pass


class _RecvLink:
    """Receive-side per-(src, epoch) sequence state.

    ``buffer`` holds out-of-order frame bodies (selective-repeat lite):
    one lost frame then costs one retransmitted frame plus a round trip,
    not a whole go-back-N window, because the cumulative ack jumps the
    buffered run the moment the gap fills.
    """

    __slots__ = (
        "epoch", "next_expected", "since_ack", "duplicates", "gaps", "buffer"
    )

    def __init__(self, epoch: int):
        self.epoch = epoch
        self.next_expected = 1
        self.since_ack = 0
        self.duplicates = 0
        self.gaps = 0
        #: seq -> raw encoded payload, capped at ``window`` entries.
        self.buffer: dict[int, bytes] = {}


class NetworkNode:
    """One protocol process over real sockets.

    Lifecycle::

        node = NetworkNode(config, pid, tconfig=TransportConfig())
        port = await node.start_server()      # bind (port may be 0)
        node.set_peers({pid: (host, port), ...})
        node.start_peers()
        ... attach ProtocolModules to node.host, drive, await node.wait_for(...)
        await node.close()

    All protocol handler execution happens on the event loop (the inbound
    pump task), so module code needs no locking — the same single-threaded
    discipline as the simulated runtime.
    """

    def __init__(
        self,
        config: SystemConfig,
        pid: int,
        tconfig: TransportConfig | None = None,
        trace_level: int = TRACE_FULL,
        context: "object | None" = None,
        journal: "Journal | str | Path | None" = None,
    ):
        if pid not in config.pids:
            raise SimulationError(f"pid {pid} not in 1..{config.n}")
        self.config = config
        self.pid = pid
        self.tconfig = tconfig or TransportConfig()
        self.context = context
        if isinstance(journal, (str, Path)):
            journal = Journal(journal, fsync=self.tconfig.journal_fsync)
        self.journal = journal
        #: The new incarnation's epoch strictly follows every journaled
        #: one, fsynced before any link opens: receivers key their links
        #: by (src, epoch), so a crashed incarnation's state never leaks.
        self.epoch = 1 if journal is None else journal.state.epoch + 1
        self.runtime = NetRuntime(self, config, trace_level=trace_level)
        self.host = NetworkHost(self.runtime, pid, self)
        self.peers: dict[int, PeerConnection] = {}
        self._addresses: dict[int, tuple[str, int]] = {}
        self._server: asyncio.AbstractServer | None = None
        self._inbox: asyncio.Queue = asyncio.Queue()
        self._pump_task: asyncio.Task | None = None
        self._gate = asyncio.Event()
        self._gate.set()
        self._notify_event = asyncio.Event()
        self._recv_links: dict[int, _RecvLink] = {}
        if journal is not None:
            # Make the incarnation durable *before* any link opens, then
            # restore receive expectations: a sender that stayed up keeps
            # its epoch and seqs, and must not be re-delivered from 1.
            journal.record_epoch(self.epoch)
            for src, (link_epoch, nxt) in journal.state.recv_links.items():
                link = _RecvLink(link_epoch)
                link.next_expected = nxt
                self._recv_links[src] = link
        self._journal_task: asyncio.Task | None = None
        self.auth_rejected = 0
        self._rng = config.derive_rng("net", pid)
        self.port: int | None = None
        self.delivered = 0
        self.frame_errors: dict[str, int] = {}
        self._conn_counter = itertools.count(1)
        #: Live inbound connection handler tasks (cancelled on shutdown —
        #: closing the server alone leaves accepted sockets running).
        self._conn_tasks: set[asyncio.Task] = set()

    # -- addresses ---------------------------------------------------------
    def set_peers(self, addresses: dict[int, tuple[str, int]]) -> None:
        """Install the address book (own entry ignored); chaos runs point
        entries at proxy ports instead of the peers' real ports."""
        self._addresses = dict(addresses)

    def peer_address(self, dst: int) -> tuple[str, int]:
        try:
            return self._addresses[dst]
        except KeyError:
            raise SimulationError(
                f"node {self.pid} has no address for peer {dst}"
            ) from None

    # -- lifecycle ---------------------------------------------------------
    async def start_server(self, port: int = 0) -> int:
        """Bind the inbound TCP server; returns the bound port."""
        self._server = await asyncio.start_server(
            self._on_connection, self.tconfig.bind_host, port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self._pump_task is None:
            self._pump_task = asyncio.get_running_loop().create_task(
                self._pump(), name=f"pump-{self.pid}"
            )
        if self.journal is not None and self._journal_task is None:
            self._journal_task = asyncio.get_running_loop().create_task(
                self._journal_flush_loop(), name=f"journal-{self.pid}"
            )
        return self.port

    def start_peers(self) -> None:
        for dst in self.config.pids:
            if dst == self.pid:
                continue
            if dst not in self.peers:
                rng = Random(self._rng.random())
                self.peers[dst] = PeerConnection(self, dst, rng)
            self.peers[dst].start()

    async def stop_transport(self) -> None:
        """Crash the transport: close the server and every connection,
        discard outbound queues and receive-side expectations.  Protocol
        state (host, modules) survives — this is the wire-lossy half of a
        node reboot; :meth:`restart_transport` is the reboot's return."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
        # Closing the server only stops the listener; accepted inbound
        # sockets live in their handler tasks and must die with the crash.
        # They are cancelled before ``wait_closed`` because newer asyncio
        # has ``wait_closed`` wait on the handlers too (deadlock bait).
        for task in list(self._conn_tasks):
            task.cancel()
        for task in list(self._conn_tasks):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._conn_tasks.clear()
        if server is not None:
            try:
                await server.wait_closed()
            except Exception:
                pass
        for peer in self.peers.values():
            await peer.close()
            peer.queue.clear()
            peer.state = PEER_CONNECTING
            peer._task = None
        if self.journal is not None:
            # Persist exact link state, and *keep* the receive links: a
            # journal-backed node is durable across the crash, so frames
            # it already delivered must never be accepted a second time
            # when the sender retransmits into the new incarnation.
            for src, link in self._recv_links.items():
                self.journal.note_recv(src, link.epoch, link.next_expected)
            self.journal.flush_notes()
            for link in self._recv_links.values():
                link.buffer.clear()
        else:
            self._recv_links.clear()
        # Anything already pumped into the inbox belongs to the crashed
        # incarnation's socket buffers: purge, like Runtime's recover().
        while not self._inbox.empty():
            self._inbox.get_nowait()
        self.update_gate()

    async def restart_transport(self) -> int:
        """Rebind the server (same port) and reconnect every peer under a
        new epoch, so peers' receive links reset their seq expectations."""
        self.epoch += 1
        if self.journal is not None:
            self.journal.record_epoch(self.epoch)
        port = await self.start_server(self.port or 0)
        self.start_peers()
        return port

    async def close(self) -> None:
        await self.stop_transport()
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except (asyncio.CancelledError, Exception):
                pass
            self._pump_task = None
        if self._journal_task is not None:
            self._journal_task.cancel()
            try:
                await self._journal_task
            except (asyncio.CancelledError, Exception):
                pass
            self._journal_task = None
        if self.journal is not None:
            self.journal.close()

    async def _journal_flush_loop(self) -> None:
        """Flush coalesced seq notes on a timer: the hot path only does
        dict writes, this loop amortises encode+write+fsync across every
        frame sent since the last tick."""
        journal = self.journal
        assert journal is not None
        interval = self.tconfig.journal_flush_interval
        while True:
            await asyncio.sleep(interval)
            journal.flush_notes()

    # -- outbound ----------------------------------------------------------
    def dispatch_out(self, dst: int, payload: object, enc: bytes | None = None) -> None:
        if dst == self.pid:
            # Self-sends queue like everything else (handlers never run
            # reentrantly inside a send, matching the simulator).
            self._inbox.put_nowait((self.pid, payload))
            return
        peer = self.peers.get(dst)
        if peer is None:
            rng = Random(self._rng.random())
            peer = self.peers[dst] = PeerConnection(self, dst, rng)
        peer.send(payload, enc)

    def update_gate(self) -> None:
        """Recompute the backpressure gate from the live backlog."""
        backlog = sum(
            peer.backlog
            for peer in self.peers.values()
            if peer.state != PEER_DOWN
        )
        if backlog > self.tconfig.queue_high_water:
            self._gate.clear()
        elif backlog < self.tconfig.queue_low_water:
            self._gate.set()

    async def drain(self, timeout: float = 30.0) -> None:
        """Wait until every live peer's queue is fully acked (driver-side
        checkpoint after big synchronous bursts, e.g. a coin join)."""
        deadline = time.monotonic() + timeout
        while True:
            if all(
                not peer.queue
                for peer in self.peers.values()
                if peer.state != PEER_DOWN
            ):
                return
            if time.monotonic() > deadline:
                raise TimeoutError(f"node {self.pid} outbound not drained")
            await asyncio.sleep(0.01)

    # -- inbound -----------------------------------------------------------
    async def _on_connection(self, reader, writer) -> None:
        """Serve one inbound link: HELLO handshake, then DATA/PING frames.

        Frame-level garbage is rejected per frame by the parser; value-
        level garbage is dropped per message here.  Neither kills the
        loop — only EOF or a socket error ends it.
        """
        parser = FrameParser(self.tconfig.max_frame_body)
        src: int | None = None
        link: _RecvLink | None = None
        #: HELLO awaiting its challenge response: (src, epoch, base, nonce).
        pending_auth: tuple[int, int, int, bytes] | None = None
        #: pid proven by challenge/response *on this connection* — a
        #: re-HELLO from the same authenticated pid (mid-session base
        #: re-announce) is trusted without a fresh round trip.
        authed_src: int | None = None
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    return
                out = bytearray()
                for ftype, body in parser.feed(data):
                    if ftype == FRAME_HELLO:
                        hello = self._validate_hello(body)
                        if hello is None:
                            continue
                        if self.tconfig.auth_secret and hello[0] != authed_src:
                            nonce = os.urandom(16)
                            pending_auth = (*hello, nonce)
                            out += encode_frame(
                                FRAME_CHALLENGE,
                                encode_value(("challenge", self.pid, nonce)),
                            )
                            continue
                        src, link = self._adopt_link(*hello, out)
                    elif ftype == FRAME_AUTH:
                        if pending_auth is None or not self._check_auth(
                            body, *pending_auth
                        ):
                            # An impostor (or a peer with the wrong
                            # secret) never gets a link — and never gets
                            # to stall this loop either: the connection
                            # stays open, honest frames keep flowing.
                            self.auth_rejected += 1
                            pending_auth = None
                            continue
                        a_src, a_epoch, a_base, _ = pending_auth
                        pending_auth = None
                        authed_src = a_src
                        src, link = self._adopt_link(a_src, a_epoch, a_base, out)
                    elif link is None:
                        continue  # no valid handshake yet: ignore traffic
                    elif ftype == FRAME_DATA:
                        self._on_data(src, link, body, out)
                    elif ftype == FRAME_PING:
                        out += encode_frame(FRAME_PONG, body)
                        out += self._ack_frame(link)
                if parser.errors:
                    self._merge_frame_errors(parser.errors)
                    parser.errors = {}
                if out:
                    writer.write(bytes(out))
                    await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            return
        except asyncio.CancelledError:
            # Server shutdown cancels in-flight connection handlers; a
            # clean return keeps teardown quiet (nothing awaits us).
            return
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                # Bounded for the same reason as the peer-side teardown:
                # an unread kernel buffer would park ``wait_closed``
                # forever, and by now our CancelledError (if any) has
                # already been consumed — nobody would re-cancel us.
                await asyncio.wait_for(writer.wait_closed(), timeout=1.0)
            except asyncio.CancelledError:
                writer.transport.abort()
            except Exception:
                writer.transport.abort()

    def _validate_hello(self, body: bytes) -> "tuple[int, int, int] | None":
        """Shape-check one HELLO body; returns ``(src, epoch, base)``.

        Validation is split from adoption because an authenticated node
        must not touch link state until the challenge round trip proves
        the claimed pid — an impostor's HELLO would otherwise reset an
        honest sender's receive link just by naming its pid."""
        try:
            value = decode_value(body)
        except CodecError:
            return None
        if not (
            isinstance(value, tuple)
            and len(value) == 5
            and value[0] == "hello"
            and isinstance(value[1], int)
            and value[1] in self.config.pids
            and isinstance(value[2], int)
            and value[3] == PROTO_VERSION
            and isinstance(value[4], int)
            and value[4] >= 1
        ):
            return None
        return value[1], value[2], value[4]

    def _check_auth(
        self, body: bytes, src: int, epoch: int, base: int, nonce: bytes
    ) -> bool:
        """Verify one FRAME_AUTH against the pending challenge."""
        try:
            value = decode_value(body)
        except CodecError:
            return False
        if not (
            isinstance(value, tuple)
            and len(value) == 3
            and value[0] == "auth"
            and value[1] == src
            and isinstance(value[2], bytes)
        ):
            return False
        key = derive_pair_key(self.tconfig.auth_secret, src, self.pid)
        expected = handshake_mac(key, nonce, src, self.pid, epoch, base)
        return hmac.compare_digest(expected, value[2])

    def _adopt_link(self, src: int, epoch: int, base: int, out: bytearray):
        link = self._recv_links.get(src)
        if link is None or link.epoch != epoch:
            # New sender incarnation: adopt its announced seq base (seqs
            # survive the sender's restarts; only the epoch resets links).
            link = _RecvLink(epoch)
            link.next_expected = base
            self._recv_links[src] = link
        elif base > link.next_expected:
            # The sender shed frames below ``base`` while we were DOWN
            # (counted ring drops): those seqs no longer exist — waiting
            # for them would stall the link forever.
            for stale in [s for s in link.buffer if s < base]:
                del link.buffer[stale]
            link.next_expected = base
            while link.next_expected in link.buffer:
                self._deliver_raw(src, link.buffer.pop(link.next_expected))
                link.next_expected += 1
            # Ack the jump immediately: the sender's reader consumes ACK
            # frames (not WELCOMEs), and its window may be fully in our
            # buffer — without this it would idle until the next PING.
            out += self._ack_frame(link)
        out += encode_frame(
            FRAME_WELCOME,
            encode_value(("welcome", self.pid, epoch, link.next_expected)),
        )
        return src, link

    def _on_data(self, src: int, link: _RecvLink, body: bytes, out: bytearray) -> None:
        if len(body) < SEQ_PREFIX.size:
            self.frame_errors["bad-data"] = (
                self.frame_errors.get("bad-data", 0) + 1
            )
            return
        (seq,) = SEQ_PREFIX.unpack_from(body)
        # Order the seq check before the decode: duplicates and gapped
        # frames are re-acked without paying for a value decode.
        if seq == link.next_expected:
            link.next_expected += 1
            link.since_ack += 1
            self._deliver_raw(src, body[SEQ_PREFIX.size :])
            # Drain the out-of-order run this frame just unblocked.
            buffer = link.buffer
            while link.next_expected in buffer:
                self._deliver_raw(src, buffer.pop(link.next_expected))
                link.next_expected += 1
                link.since_ack += 1
            if self.journal is not None:
                # Coalesced note (dict write): the flush timer persists
                # the highest delivered seq, so a restarted incarnation
                # never re-accepts what this one already handed up.
                self.journal.note_recv(src, link.epoch, link.next_expected)
            if link.since_ack >= self.tconfig.ack_every:
                out += self._ack_frame(link)
        elif seq < link.next_expected:
            link.duplicates += 1
            out += self._ack_frame(link)  # re-ack so the sender advances
        else:
            link.gaps += 1
            if seq not in link.buffer and len(link.buffer) < self.tconfig.window:
                link.buffer[seq] = body[SEQ_PREFIX.size :]
            out += self._ack_frame(link)  # dup-ack: triggers fast retransmit

    def _deliver_raw(self, src: int, raw: bytes) -> None:
        """Decode one in-sequence payload into the inbox.

        The seq is consumed by the caller either way: a CRC-valid frame
        whose value does not decode is a byzantine sender's message —
        dropped per-message, never allowed to stall the link on
        retransmits.
        """
        try:
            payload = decode_value(raw)
        except CodecError:
            self.frame_errors["bad-value"] = (
                self.frame_errors.get("bad-value", 0) + 1
            )
        else:
            self._inbox.put_nowait((src, payload))

    def _ack_frame(self, link: _RecvLink) -> bytes:
        link.since_ack = 0
        return encode_frame(
            FRAME_ACK, encode_value(("ack", link.next_expected - 1))
        )

    def _merge_frame_errors(self, errors: dict[str, int]) -> None:
        for cause, count in errors.items():
            self.frame_errors[cause] = self.frame_errors.get(cause, 0) + count

    async def _pump(self) -> None:
        """Deliver inbox messages through the host's handler table.

        The backpressure gate is awaited *before* each delivery: when the
        outbound backlog is past high water, the node stops consuming the
        inbound traffic that generates replies — honest peers block on
        their own gates in turn, and nothing is dropped anywhere.
        """
        inbox = self._inbox
        host = self.host
        while True:
            src, payload = await inbox.get()
            await self._gate.wait()
            host.deliver(src, payload)
            self.delivered += 1
            self.runtime.events_dispatched += 1

    # -- waits -------------------------------------------------------------
    def notify(self) -> None:
        self._notify_event.set()

    async def wait_for(self, predicate, timeout: float = 30.0) -> None:
        """Wait until ``predicate()`` holds, re-evaluating on every state
        change notification (the async analogue of ``run_until``)."""
        deadline = time.monotonic() + timeout
        while True:
            self.runtime.predicate_evals += 1
            if predicate():
                return
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"node {self.pid}: predicate not true after {timeout}s"
                )
            self._notify_event.clear()
            if predicate():  # re-check: notify may have landed pre-clear
                return
            try:
                await asyncio.wait_for(
                    self._notify_event.wait(), timeout=min(remaining, 0.25)
                )
            except asyncio.TimeoutError:
                pass

    # -- stats -------------------------------------------------------------
    def peer_states(self) -> dict[int, str]:
        return {dst: peer.state for dst, peer in self.peers.items()}

    def stats(self) -> dict:
        return {
            "pid": self.pid,
            "delivered": self.delivered,
            "frame_errors": dict(self.frame_errors),
            "auth_rejected": self.auth_rejected,
            "journal": None if self.journal is None else self.journal.stats(),
            "peers": {
                dst: {
                    "state": peer.state,
                    "backlog": peer.backlog,
                    "sent": peer.stats.sent,
                    "acked": peer.stats.acked,
                    "retransmits": peer.stats.retransmits,
                    "reconnects": peer.stats.reconnects,
                    "connect_failures": peer.stats.connect_failures,
                    "dropped_while_down": peer.stats.dropped_while_down,
                    "went_down": peer.stats.went_down,
                    "auth_challenges": peer.stats.auth_challenges,
                }
                for dst, peer in sorted(self.peers.items())
            },
        }
