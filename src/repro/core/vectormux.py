"""Session-vector transport: one protocol message per MW-SVSS *batch*.

The common coin runs ``n²`` concurrent SVSS sessions — one per
``(dealer, slot)`` — whose per-slot state machines march through the same
step schedule, so each party ends every dispatch step holding ``n``
structurally identical messages for the same counterpart that differ only
in the slot.  The :class:`SessionVectorMux` is the *semantic* aggregation
layer that folds them: instead of ``n`` per-session messages it emits one

    ``("svec", kind, group, ((slot, body), ...))``

logical message per ``(step, dealer-group, kind)``, where ``group`` is the
session id with the slot stripped out (see
:func:`repro.core.sessions.svec_split`).  Both private VSS sends and the
reliable broadcasts ride it — the RB case is where the ~n⁴ → ~n³ logical
message drop comes from, since every folded broadcast saves its whole
O(n²) echo cascade.

Tag reservation
---------------
``"svec"`` is a reserved wire tag, alongside the coalescing transport's
``"env"`` (:data:`repro.sim.process.ENVELOPE_TAG`):

* as a **host tag**, ``("svec", kind, group, entries)`` private messages
  are claimed by every :class:`~repro.core.manager.VSSManager` at wire
  time, so no other module can register it;
* as a **broadcast topic**, ``("svec", ...)`` RB values are claimed by the
  :class:`~repro.core.coin.CommonCoinModule` through its
  ``ProtocolModule._wire`` hook (slot families only exist for coin
  sessions), under bids ``(origin, "svec", seq)``.

Per-session semantics
---------------------
Packing is pure framing — the per-session state machines underneath are
untouched:

* unpacking hands the vector to ``VSSManager.ingest_vector``, which is
  slot-for-slot equivalent to feeding every ``(slot, body)`` through the
  per-session ``VSSManager._ingest`` path: each slot keeps its own DMM
  verdict (a group-level probe stands in only while every sibling agrees),
  its own validation and its own session instance; a missing, malformed,
  delayed or discarded slot degrades *that session only*, never its
  vector siblings;
* a receiver that crashes while processing slot ``k`` (e.g. its crash
  budget ran out mid-reply) drops the remaining slots of the vector,
  exactly as it would drop the remaining per-session events;
* corrupt senders never pack: a host with a byzantine behaviour or an
  outbound filter emits plain per-session messages, so mutators and
  crash-after-N budgets keep acting on logical *slot* messages (a forged
  ``("svec", ...)`` payload is unpacked with full per-slot validation and
  grants nothing beyond sending the slots individually);
* a scheduler may advertise ``splits_slots``
  (:class:`repro.adversary.schedulers.SlotSplittingScheduler`) to veto
  packing entirely — the run then replays the per-session wire stream bit
  for bit, restoring exact per-session adversarial power.

Under fixed-delay schedulers the aggregation is output-pure: coin bits and
every per-session justifier (attach sets, accepted sets, eval sets,
party values) are bit-identical to the slot-split run
(``tests/test_svec.py`` asserts this per seed on both engines); only the
logical message count shrinks (``Runtime.svec_packed`` /
``Runtime.svec_slots`` size the effect).  Vectors may regroup sibling
sessions within one simultaneity bucket — the same framing-not-reordering
latitude the envelope coalescer documents — while every
``(src, dst, session)`` stream keeps its exact per-session sequence.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.sessions import svec_group_wellformed, svec_sid, svec_split

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.manager import VSSManager

#: Reserved wire tag (host tag of private slot-vectors, broadcast topic of
#: RB slot-vectors).  See the module docstring.
SVEC_TAG = "svec"


class SessionVectorMux:
    """Per-process packer/unpacker of slot-vector messages.

    One mux per :class:`~repro.core.manager.VSSManager`.  The send side
    buffers the current dispatch step's per-slot messages keyed by
    ``(dst, group, kind)`` (private) / ``(group, kind)`` (RB) and flushes
    each buffer as one ``("svec", ...)`` message at end-of-step; the
    receive side rebuilds per-slot session ids and re-enters the ordinary
    ingestion path.  Buffers are only filled while the runtime says a step
    is open (``Runtime.svec_buffering``), so driver code outside any step
    falls through to plain per-session sends (as does every send under a
    ``splits_slots`` scheduler, which never opens the window).
    """

    __slots__ = (
        "manager",
        "families",
        "_private",
        "_rb",
        "_deferred",
        "_rb_seq",
        "_splits",
    )

    def __init__(self, manager: "VSSManager"):
        self.manager = manager
        #: Coin session ids whose per-slot sessions are vectorized.  Filled
        #: by ``CommonCoinModule.join`` and by unpacking (receiving a
        #: vector for a family proves the peer speaks svec for it, and the
        #: replies this delivery triggers should ride vectors too).
        self.families: set = set()
        self._private: dict = {}  # (dst, group, kind) -> [(slot, body), ...]
        self._rb: dict = {}  # (group, kind) -> [(slot, body), ...]
        #: sid -> (group, slot) memo for the send-side offers.  Only
        #: *positive* splits are cached: families only ever grow, so a
        #: member sid stays a member, while a cached miss could go stale.
        self._splits: dict = {}
        self._deferred = False
        #: Disambiguates the bids of successive RB flushes of one (group,
        #: kind) — slots that froze a step apart must not collide on a bid
        #: the broadcast layer treats as already sent.
        self._rb_seq = 0

    def register_family(self, csid: object) -> None:
        """Vectorize the per-slot sessions tagged ``(csid, slot)``."""
        self.families.add(csid)

    # -- send side ---------------------------------------------------------
    def _split(self, sid: tuple):
        """``(group, slot)`` when this step may pack ``sid``, else None."""
        manager = self.manager
        if not manager._runtime.svec_buffering or not self.families:
            return None
        host = manager.host
        # Corrupt senders keep the per-session adversarial surface: their
        # outbound filters / crash budgets must see logical slot messages.
        if host.behavior is not None or host.outbound_filter is not None:
            return None
        split = self._splits.get(sid)
        if split is None:
            split = svec_split(sid, self.families)
            if split is not None:
                self._splits[sid] = split
        return split

    def offer_private(self, dst: int, sid: tuple, kind: str, body: object) -> bool:
        """Buffer one private per-slot send; False = caller sends plain."""
        split = self._split(sid)
        if split is None:
            return False
        group, slot = split
        key = (dst, group, kind)
        pending = self._private.get(key)
        if pending is None:
            self._private[key] = [(slot, body)]
        else:
            pending.append((slot, body))
        self._mark_deferred()
        return True

    def offer_rb(self, sid: tuple, kind: str, body: object) -> bool:
        """Buffer one per-slot reliable broadcast; False = caller sends plain."""
        split = self._split(sid)
        if split is None:
            return False
        group, slot = split
        key = (group, kind)
        pending = self._rb.get(key)
        if pending is None:
            self._rb[key] = [(slot, body)]
        else:
            pending.append((slot, body))
        self._mark_deferred()
        return True

    def _mark_deferred(self) -> None:
        if not self._deferred:
            self._deferred = True
            self.manager._runtime.svec_defer(self)

    def flush(self) -> None:
        """Emit the step's buffers: one svec per key, plain for singletons.

        Buffers drain in first-touched order, so within one (src, dst,
        session) stream the kinds leave in exactly the per-session send
        order (slot 1's program order, which every slot shares).
        """
        manager = self.manager
        host = manager.host
        runtime = manager._runtime
        self._deferred = False
        packed = slots = 0
        if self._private:
            private, self._private = self._private, {}
            send = host.send
            for (dst, group, kind), entries in private.items():
                if len(entries) == 1:
                    slot, body = entries[0]
                    send(dst, ("v", svec_sid(group, slot), kind, body), "vss")
                else:
                    send(dst, (SVEC_TAG, kind, group, tuple(entries)), "vss")
                    packed += 1
                    slots += len(entries)
        if self._rb:
            rb, self._rb = self._rb, {}
            broadcast = manager._broadcast
            pid = host.pid
            for (group, kind), entries in rb.items():
                if len(entries) == 1:
                    slot, body = entries[0]
                    sid = svec_sid(group, slot)
                    broadcast.broadcast(
                        (pid, "vss", sid, kind), ("vss", sid, kind, body)
                    )
                else:
                    seq = self._rb_seq
                    self._rb_seq = seq + 1
                    broadcast.broadcast(
                        (pid, SVEC_TAG, seq),
                        (SVEC_TAG, kind, group, tuple(entries)),
                    )
                    packed += 1
                    slots += len(entries)
        if packed:
            runtime.svec_packed += packed
            runtime.svec_slots += slots

    # -- receive side ------------------------------------------------------
    def on_private(self, src: int, payload: tuple) -> None:
        """Host handler for private ``("svec", ...)`` messages."""
        self._unpack(src, payload, self.manager.PRIVATE_KINDS)

    def on_rb(self, origin: int, value: tuple) -> None:
        """Broadcast-topic handler for RB ``("svec", ...)`` values."""
        self._unpack(origin, value, self.manager.RB_KINDS)

    def _unpack(self, src: int, payload: tuple, allowed: frozenset) -> None:
        """Hand one well-formed vector to ``VSSManager.ingest_vector``.

        Transport enforcement (``allowed``) applies to the whole vector —
        a private svec can only carry private kinds and vice versa, exactly
        like the per-session paths.  Everything else is validated per slot
        by the manager; malformed entries are dropped individually.
        """
        if len(payload) != 4:
            return
        _, kind, group, entries = payload
        if not isinstance(kind, str) or kind not in allowed:
            return
        if type(entries) is not tuple or not svec_group_wellformed(group):
            return
        try:
            hash(group)
        except TypeError:
            return  # unhashable ids from a byzantine sender
        # Receiving a vector for this family proves the conversation
        # speaks svec; the replies triggered below should pack too.
        self.families.add(group[1])
        self.manager.ingest_vector(src, group, kind, entries)
