"""Outside-in span tracer for the traced benchmark run.

Nothing under ``src/`` knows about it.  :meth:`Tracer.install` patches the
public entry points of each layer from the outside and :meth:`uninstall`
restores them:

* every handler passed through ``ProcessHost.register_handler`` (one span
  per host tag; ``register_instance_handler`` routes through it) and
  ``BroadcastManager.subscribe``/``subscribe_slot`` (one span per RB
  topic), plus the envelope unpacker ``ProcessHost._deliver_envelope``
  that the host wires at construction instead;
* ``Runtime.run_until`` (the simulator's event loop);
* ``VSSManager.ingest_vector``, ``DMM.filter_verdict`` and
  ``DMM.filter_verdict_group``, and the MW-SVSS/SVSS state machines'
  ``handle``;
* the fast-path/bivariate row functions, patched in the modules that
  call them;
* ``encode_value``/``decode_value`` as the socket transport looks them
  up, ``FrameParser.feed``, ``Journal.append``/``flush_notes`` and the
  journal's ``os.fsync``.

Handlers are wrapped when they are registered, so the tracer must be
installed before the stack or cluster it should see is built.

A span is ``(name, start, end, parent, decision)``; the five columns live
in ``array('q')`` buffers, 40 bytes a span, so the few million spans of a
traced run stay in memory until the run writes them out.  Spans nest through one stack: every wrapped call
is synchronous, so even on the asyncio path a span never crosses an
``await`` except the decision root, which the caller opens and closes.
"""

from __future__ import annotations

import gzip
import importlib
import os
import time
from array import array
from collections import Counter
from pathlib import Path

#: Span name prefix -> layer.  Host tags and RB topics are named
#: ``tag:<tag>`` / ``topic:<topic>``; anything unlisted is ``other``.
LAYER_OF = {
    "sim.run": "sim",
    "tag:env": "sim",
    "tag:b1": "broadcast",
    "tag:b2": "broadcast",
    "tag:b3": "broadcast",
    "tag:v": "manager",
    "topic:vss": "manager",
    "manager.ingest_vector": "manager",
    "tag:svec": "vectormux",
    "topic:svec": "vectormux",
    "mwsvss.handle": "mwsvss",
    "svss.handle": "svss",
    "dmm.filter_verdict": "dmm",
    "dmm.filter_verdict_group": "dmm",
    "topic:coin": "coin",
    "topic:aba": "agreement",
    "topic:abav": "agreement",
    "codec.encode": "codec",
    "codec.decode": "codec",
    "codec.feed": "codec",
    "journal.append": "journal",
    "journal.flush_notes": "journal",
    "journal.fsync": "journal",
}

#: Row-shaped algebra entry points, by the module that looks them up.
ALGEBRA_CALLERS = {
    "repro.core.mwsvss": (
        "evaluate_rows",
        "interpolate_values",
        "interpolate_values_rows",
        "lagrange_basis",
        "interpolate_degree_t",
    ),
    "repro.core.svss": ("interpolate_values_rows", "interpolate_degree_t"),
}

ROOT = "decision"


def layer_of(name: str) -> str:
    if name == ROOT:
        return "root"
    if name.startswith("algebra."):
        return "algebra"
    return LAYER_OF.get(name, "other")


class _FsyncCountingOs:
    """Stand-in for the journal module's ``os``: forwards everything,
    times ``fsync`` as a span."""

    def __init__(self, real, fsync):
        self._real = real
        self.fsync = fsync

    def __getattr__(self, attr):
        return getattr(self._real, attr)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.col_name = array("q")
        self.col_start = array("q")
        self.col_end = array("q")
        self.col_parent = array("q")
        self.col_decision = array("q")
        self._stack = [-1]
        self.decision = -1
        #: Spans recorded before :meth:`stop`; only these are analysed.
        self.limit = 0
        #: Count-only probes (no span): svec vectors/slots as sent, and
        #: rows the vector algebra backend served.
        self.counts: Counter = Counter()
        self._undo: list = []

    # -- spans -------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as one span called ``name``."""
        nid = self._name_id(name)
        col_name = self.col_name
        col_start = self.col_start
        col_end = self.col_end
        col_parent = self.col_parent
        col_decision = self.col_decision
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(col_start)
            col_name.append(nid)
            col_parent.append(stack[-1])
            col_decision.append(tracer.decision)
            col_end.append(0)
            stack.append(idx)
            col_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                col_end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def begin_decision(self, decision: int) -> None:
        """Open the root span of one decision (the caller's one
        outstanding request)."""
        self.decision = decision
        idx = len(self.col_start)
        self.col_name.append(self._name_id(ROOT))
        self.col_parent.append(self._stack[-1])
        self.col_decision.append(decision)
        self.col_end.append(0)
        self._stack.append(idx)
        self.col_start.append(time.perf_counter_ns())

    def end_decision(self) -> None:
        idx = self._stack.pop()
        self.col_end[idx] = time.perf_counter_ns()
        if self.col_name[idx] != self._ids[ROOT]:
            raise RuntimeError("span stack out of balance at decision end")
        self.decision = -1

    def clear(self) -> None:
        """Drop every span recorded so far (none may be open)."""
        if self._stack != [-1]:
            raise RuntimeError("cannot clear spans while a span is open")
        for column in (self.col_name, self.col_start, self.col_end,
                       self.col_parent, self.col_decision):
            del column[:]
        self.counts.clear()

    def stop(self) -> None:
        """Fix the analysed spans to those recorded so far, so counters
        snapshotted at the same instant compare exactly."""
        if self._stack != [-1]:
            raise RuntimeError("cannot stop while a span is open")
        self.limit = len(self.col_start)

    # -- patching ----------------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, value)

    def _patch_method(self, cls, attr: str, name: str) -> None:
        self._patch(cls, attr, self.wrap(name, getattr(cls, attr)))

    def install(self) -> None:
        from repro.broadcast.manager import BroadcastManager
        from repro.core.dmm import DMM
        from repro.core.manager import VSSManager
        from repro.core.mwsvss import MWSVSSInstance
        from repro.core.svss import SVSSInstance
        from repro.field import backend as algebra_backend
        from repro.net import journal as journal_mod
        from repro.net import transport as transport_mod
        from repro.net.codec import FrameParser
        from repro.poly.bivariate import BivariatePolynomial
        from repro.sim.process import ProcessHost
        from repro.sim.runtime import Runtime

        tracer = self
        register_handler = ProcessHost.register_handler

        def traced_register_handler(host, tag, handler):
            return register_handler(host, tag, tracer.wrap(f"tag:{tag}", handler))

        subscribe = BroadcastManager.subscribe

        def traced_subscribe(manager, topic, handler):
            return subscribe(manager, topic, tracer.wrap(f"topic:{topic}", handler))

        subscribe_slot = BroadcastManager.subscribe_slot

        def traced_subscribe_slot(manager, topic, instance_id, handler):
            return subscribe_slot(
                manager, topic, instance_id, tracer.wrap(f"topic:{topic}", handler)
            )

        self._patch(ProcessHost, "register_handler", traced_register_handler)
        self._patch(BroadcastManager, "subscribe", traced_subscribe)
        self._patch(BroadcastManager, "subscribe_slot", traced_subscribe_slot)
        self._patch_method(ProcessHost, "_deliver_envelope", "tag:env")
        self._patch_method(Runtime, "run_until", "sim.run")
        self._patch_method(VSSManager, "ingest_vector", "manager.ingest_vector")
        self._patch_method(DMM, "filter_verdict", "dmm.filter_verdict")
        self._patch_method(DMM, "filter_verdict_group", "dmm.filter_verdict_group")
        self._patch_method(MWSVSSInstance, "handle", "mwsvss.handle")
        self._patch_method(SVSSInstance, "handle", "svss.handle")

        # Sent slot-vectors, counted where they leave the sender: private
        # vectors through ProcessHost.send, RB vectors through
        # BroadcastManager.broadcast (cross-checks svec_packed/svec_slots).
        counts = self.counts
        send = ProcessHost.send

        def counting_send(host, dst, payload, layer):
            if payload[0] == "svec":
                counts["svec_packed"] += 1
                counts["svec_slots"] += len(payload[3])
            return send(host, dst, payload, layer)

        broadcast = BroadcastManager.broadcast

        def counting_broadcast(manager, bid, value):
            if value[0] == "svec":
                counts["svec_packed"] += 1
                counts["svec_slots"] += len(value[3])
            return broadcast(manager, bid, value)

        self._patch(ProcessHost, "send", counting_send)
        self._patch(BroadcastManager, "broadcast", counting_broadcast)

        for module_name, functions in ALGEBRA_CALLERS.items():
            module = importlib.import_module(module_name)
            for fn_name in functions:
                traced = self.wrap(f"algebra.{fn_name}", getattr(module, fn_name))
                self._patch(module, fn_name, traced)
        self._patch_method(BivariatePolynomial, "row_values", "algebra.row_values")
        self._patch_method(BivariatePolynomial, "column_values", "algebra.column_values")

        # Vector-backend kernels: rows served (returned non-None), the
        # program's ``rows_vectorized``, and declines.
        backend_cls = type(algebra_backend.active_backend())
        for kernel in ("evaluate_rows", "interpolate_rows", "batch_inverse"):
            if kernel in backend_cls.__dict__:
                counted = self._counting_kernel(backend_cls.__dict__[kernel])
                self._patch(backend_cls, kernel, counted)

        encode = self._counting_encode(transport_mod.encode_value)
        decode = self.wrap("codec.decode", transport_mod.decode_value)
        self._patch(transport_mod, "encode_value", encode)
        self._patch(transport_mod, "decode_value", decode)
        self._patch_method(FrameParser, "feed", "codec.feed")
        self._patch_method(journal_mod.Journal, "append", "journal.append")
        self._patch_method(journal_mod.Journal, "flush_notes", "journal.flush_notes")
        self._patch(
            journal_mod,
            "os",
            _FsyncCountingOs(os, self.wrap("journal.fsync", os.fsync)),
        )

    def _counting_kernel(self, kernel):
        counts = self.counts

        def counted(backend, prime, *args):
            out = kernel(backend, prime, *args)
            counts["backend_calls"] += 1
            if out is not None:
                counts["rows_vectorized"] += len(out)
                counts["backend_served"] += 1
            return out

        return counted

    def _counting_encode(self, encode):
        counts = self.counts
        traced = self.wrap("codec.encode", encode)

        def encode_counted(value):
            out = traced(value)
            counts["codec_bytes"] += len(out)
            return out

        return encode_counted

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------
    def layer_totals(self) -> dict[str, dict]:
        """Per layer: ``calls`` (spans), ``total_ns`` (span time) and
        ``self_ns`` (span time minus the time of its direct children)."""
        n = self.limit
        start = self.col_start
        end = self.col_end
        parent = self.col_parent
        self_ns = [end[i] - start[i] for i in range(n)]
        for i in range(n):
            p = parent[i]
            if p >= 0:
                self_ns[p] -= end[i] - start[i]
        layers: dict[str, dict] = {}
        col_name = self.col_name
        names = self.names
        for i in range(n):
            name = names[col_name[i]]
            entry = layers.setdefault(
                layer_of(name), {"calls": 0, "total_ns": 0, "self_ns": 0}
            )
            entry["calls"] += 1
            entry["total_ns"] += end[i] - start[i]
            entry["self_ns"] += self_ns[i]
        return layers

    def calls_by_name(self) -> Counter:
        counter = Counter(self.col_name[: self.limit])
        return Counter({self.names[k]: v for k, v in counter.items()})

    def top_level_dispatches(self, parents: set[str]) -> int:
        """Handler spans (``tag:*``) whose parent is one of ``parents``
        (``-1`` for spans outside any other span)."""
        names = self.names
        col_name = self.col_name
        col_parent = self.col_parent
        count = 0
        for i in range(self.limit):
            if not names[col_name[i]].startswith("tag:"):
                continue
            p = col_parent[i]
            parent_name = "-1" if p < 0 else names[col_name[p]]
            if parent_name in parents:
                count += 1
        return count

    def dump(self, path: Path) -> None:
        """Write every span as TSV (name, start_ns, end_ns, parent index,
        decision), gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart_ns\tend_ns\tparent\tdecision\n")
            for i in range(self.limit):
                out.write(
                    f"{names[self.col_name[i]]}\t{self.col_start[i]}\t"
                    f"{self.col_end[i]}\t{self.col_parent[i]}\t"
                    f"{self.col_decision[i]}\n"
                )
