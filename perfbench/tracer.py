"""In-memory span tracer that wraps the program's layer entry points.

The benchmark attributes time to layers without touching the program:
:func:`install` replaces each function or method named in
:data:`LAYERS` by a wrapper that records a span -- name, start, end,
parent span and request id -- and restores the originals on
:func:`uninstall`.  A module-level function is replaced at every name
where a ``repro`` module looks it up (``from .postings import
intersect`` binds a second name in ``repro.core.invfile``), so callers
see the wrapper wherever they resolve the function from.

Spans nest per thread.  A span's *self time* is its duration minus the
durations of the child spans opened on the same thread; summed per
layer, self times partition the traced wall time of a single-threaded
caller.  Work handed to a pool thread (the shard fan-out) records its
spans with the submitting span as parent, but its time is not
subtracted from the waiting parent, which really was blocked.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
from contextlib import contextmanager
from time import perf_counter

#: Layer -> the program's entry points that open a span in that layer.
#: ``module:function`` or ``module:Class.method``; method spans are
#: named ``Class.method``, function spans by the function name.
LAYERS: dict[str, tuple[str, ...]] = {
    "server": (
        "repro.server.protocol:decode_request_body",
        "repro.server.protocol:encode_response_for",
        "repro.server.server:QueryServer._run_group_in_worker",
        "repro.server.server:QueryServer._stats_payload",
        "repro.server.client:ServiceClient.submit",
        "repro.server.client:ServiceClient.next_response",
        "repro.server.client:ServiceClient.call",
    ),
    "shard": (
        "repro.core.shard:ShardedIndex.query",
        "repro.core.shard:ShardedIndex.query_batch",
        "repro.core.shard:ShardedIndex._fan_out",
        "repro.storage.namespace:NamespacedStore.get",
    ),
    "exec": (
        "repro.core.engine:NestedSetIndex.query",
        "repro.core.engine:NestedSetIndex.query_batch",
        "repro.core.exec.compiler:compile_query",
        "repro.core.exec.plan:ExecutionPlan.run",
        "repro.core.invfile:InvertedFile.heads_to_keys",
        "repro.core.batch:memoized_match_nodes",
    ),
    "match": (
        "repro.core.bottomup:bottomup_match_nodes",
        "repro.core.topdown:topdown_match_nodes",
        "repro.core.structural:evaluate_node",
        "repro.core.postings:heads_with_child_in",
        "repro.core.postings:heads_with_descendant_in",
        "repro.core.postings:nav_join",
        "repro.core.postings:nav_join_descendant",
    ),
    "postings": (
        "repro.core.invfile:InvertedFile.postings",
        "repro.core.invfile:InvertedFile.postings_overlapping",
        "repro.core.invfile:InvertedFile.list_length",
        "repro.core.invfile:InvertedFile.intersect_atoms",
        "repro.core.postings:intersect",
        "repro.core.postings:LazyPostingList.block_data",
    ),
    "codec": (
        "repro.storage.codec:decode_blocked_header",
        "repro.storage.codec:decode_packed_arrays",
        "repro.storage.codec:decode_block",
        "repro.storage.codec:encode_blocked",
        "repro.storage.codec:append_blocked",
    ),
    "store": (
        "repro.storage.kvstore:MemoryKVStore.get",
        "repro.storage.kvstore:MemoryKVStore.put",
        "repro.storage.kvstore:MemorySnapshot.get",
        "repro.storage.diskhash:DiskHashTable.get",
        "repro.storage.diskhash:DiskHashTable.put",
        "repro.storage.diskhash:DiskHashSnapshot.get",
        "repro.storage.pager:Pager.commit",
    ),
    "wal": (
        "repro.storage.wal:WriteAheadLog.commit",
        "repro.storage.wal:fsync_file",
        "repro.storage.pager:Pager._checkpoint_locked",
    ),
    "ingest": (
        "repro.data.ingest:StreamIngestor._commit",
        "repro.core.engine:NestedSetIndex.insert_batch",
        "repro.core.updates:IndexWriter.insert",
        "repro.core.updates:IndexWriter.flush",
    ),
    "join": (
        "repro.core.join:containment_join",
        "repro.core.join:_run_prefix",
        "repro.core.prefixjoin:prefix_join_lists",
        "repro.core.prefixjoin:choose_strategy",
        "repro.core.prefixjoin:PrefixTree.candidates",
    ),
}

#: Layers recorded by the benchmark itself: ``loadgen`` spans wrap each
#: request the generator sends; ``other`` is traced wall time outside
#: every root span (loop bookkeeping), measured rather than inferred.
OWN_LAYERS = ("loadgen", "other")
ALL_LAYERS = tuple(LAYERS) + OWN_LAYERS

#: Span name of one shard's share of a fan-out (recorded by the
#: ``ShardExecutor.map`` wrapper on whichever thread runs the task).
SHARD_TASK = "ShardExecutor.task"

#: Stored spans are capped; per-name aggregates cover every span.
SPAN_CAP = 200_000


class _ThreadState:
    __slots__ = ("stack", "agg", "spans", "adopt", "tid")

    def __init__(self, tid: int) -> None:
        self.stack: list[list] = []
        #: name id -> [calls, total_s, self_s, nested_in_same_layer]
        self.agg: dict[int, list] = {}
        self.spans: list[tuple] = []
        #: (parent span id, request id) for work submitted by another
        #: thread; used only while this thread's own stack is empty.
        self.adopt: tuple[int, int] | None = None
        self.tid = tid


class Tracer:
    """Collects spans from every thread that runs a wrapped function."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self.names: list[tuple[str, str]] = []     # id -> (name, layer)
        self._name_ids: dict[tuple[str, str], int] = {}
        self.exec_counters: list = []

    # -- bookkeeping -------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        key = (name, layer)
        if key not in self._name_ids:
            self._name_ids[key] = len(self.names)
            self.names.append(key)
        return self._name_ids[key]

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _open(self, state: _ThreadState, nid: int, new_request: bool):
        stack = state.stack
        sid = next(self._ids)
        layer = self.names[nid][1]
        if stack and not new_request:
            parent = stack[-1]
            frame = [sid, nid, layer, 0.0, parent[4], parent]
        elif state.adopt is not None and not new_request:
            psid, req = state.adopt
            frame = [sid, nid, layer, 0.0, req, psid]
        else:
            frame = [sid, nid, layer, 0.0, sid, None]
        stack.append(frame)
        return frame

    def _close(self, state: _ThreadState, frame: list, t0: float,
               t1: float) -> None:
        state.stack.pop()
        duration = t1 - t0
        parent = frame[5]
        nested = False
        if isinstance(parent, list):
            parent[3] += duration
            nested = parent[2] == frame[2]
            parent_id = parent[0]
        else:
            parent_id = parent if parent is not None else 0
        agg = state.agg.get(frame[1])
        if agg is None:
            agg = state.agg[frame[1]] = [0, 0.0, 0.0, 0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - frame[3]
        if nested:
            agg[3] += 1
        if len(state.spans) < SPAN_CAP:
            state.spans.append((frame[0], parent_id, frame[1], frame[4],
                                t0, t1))

    def wrap(self, fn, name: str, layer: str):
        """A wrapper of ``fn`` that records one span per call."""
        nid = self._name_id(name, layer)

        def traced(*args, **kwargs):
            state = self._state()
            frame = self._open(state, nid, False)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(state, frame, t0, perf_counter())

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def request(self, name: str = "request", layer: str = "loadgen"):
        """A root span for one request of the load generator."""
        state = self._state()
        frame = self._open(state, self._name_id(name, layer), True)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(state, frame, t0, perf_counter())

    # -- results -----------------------------------------------------------

    def _states_of(self, thread: int | None) -> list[_ThreadState]:
        with self._lock:
            return [state for state in self._states
                    if thread is None or state.tid == thread]

    def aggregate(self, thread: int | None = None
                  ) -> dict[str, dict[str, float]]:
        """name -> calls / total_s / self_s / top_calls.

        Over every thread, or only ``thread``.  ``top_calls`` counts
        calls not nested in a span of the same layer, so a decode
        called from another decode counts once.
        """
        out: dict[str, dict[str, float]] = {}
        for state in self._states_of(thread):
            for nid, (calls, total, self_s, nested) in list(
                    state.agg.items()):
                name, _layer = self.names[nid]
                row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                            "self_s": 0.0, "top_calls": 0})
                row["calls"] += calls
                row["total_s"] += total
                row["self_s"] += self_s
                row["top_calls"] += calls - nested
        return out

    def layer_self(self, thread: int | None = None) -> dict[str, float]:
        """Self seconds per layer, over every thread or only ``thread``."""
        out = {layer: 0.0 for layer in ALL_LAYERS}
        for state in self._states_of(thread):
            for nid, (_c, _t, self_s, _n) in list(state.agg.items()):
                out[self.names[nid][1]] += self_s
        return out

    def spans(self) -> list[tuple]:
        """Stored spans ``(id, parent, name id, request, start, end)``."""
        rows: list[tuple] = []
        for state in self._states_of(None):
            rows.extend(state.spans)
        return rows

    def dump(self, path: str) -> int:
        """Write the stored spans as JSON lines; returns the count."""
        rows = self.spans()
        rows.sort(key=lambda row: row[4])
        with open(path, "w") as handle:
            for sid, parent, nid, req, t0, t1 in rows:
                name, layer = self.names[nid]
                handle.write(json.dumps(
                    {"id": sid, "parent": parent, "name": name,
                     "layer": layer, "request": req,
                     "start": round(t0, 7), "end": round(t1, 7)}) + "\n")
        return len(rows)


def _resolve(target: str):
    module_name, _, qual = target.partition(":")
    module = importlib.import_module(module_name)
    if "." in qual:
        cls_name, attr = qual.split(".")
        owner = getattr(module, cls_name)
        if attr not in owner.__dict__:
            raise LookupError(f"{target}: not defined on {cls_name}")
        return owner, attr, owner.__dict__[attr], qual
    return module, qual, getattr(module, qual), qual


class Installation:
    """The patches one :func:`install` made, for :meth:`uninstall`."""

    def __init__(self) -> None:
        self.patches: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap every entry point in :data:`LAYERS` with ``tracer`` spans."""
    done = Installation()
    for layer, targets in LAYERS.items():
        for target in targets:
            owner, attr, original, name = _resolve(target)
            wrapped = tracer.wrap(original, name, layer)
            if isinstance(owner, type):
                done.set(owner, attr, wrapped)
                continue
            # A function: rebind it at every name a repro module uses.
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        done.set(module, key, wrapped)
    _install_fanout(tracer, done)
    _install_context_counters(tracer, done)
    return done


def _install_fanout(tracer: Tracer, done: Installation) -> None:
    """Record one span per shard task, parented on the submitting span."""
    from repro.core.parallel import ShardExecutor

    original_map = ShardExecutor.map
    task = tracer.wrap(lambda fn, item: fn(item), SHARD_TASK, "shard")

    def traced_map(self, fn, items):
        state = tracer._state()
        parent = state.stack[-1] if state.stack else None
        adopt = (parent[0], parent[4]) if parent is not None else None

        def run_item(item):
            worker = tracer._state()
            previous = worker.adopt
            worker.adopt = adopt
            try:
                return task(fn, item)
            finally:
                worker.adopt = previous

        return original_map(self, run_item, items)

    done.set(ShardExecutor, "map", traced_map)


def _install_context_counters(tracer: Tracer, done: Installation) -> None:
    """Keep every execution context's counters (memo reuse, prefix)."""
    from repro.core.exec.context import ExecutionContext

    original_init = ExecutionContext.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        tracer.exec_counters.append(self.counters)

    done.set(ExecutionContext, "__init__", init)
