"""Outside-in tracing: wrap public callables, record spans in memory.

One table (:data:`TARGETS`) maps each layer (a module path under
``repro``) to the public callables that bound it.  :class:`Tracer`
wraps them for the traced pass only and restores every attribute on
exit.  A span is ``(sid, parent, name, start, end, self_s, thread,
request, note)``:

* ``parent`` is the span that *caused* this one, carried in a
  ``contextvars`` variable (so it follows tasks and timers);
* ``self_s`` is the time this span itself kept its thread busy: the
  duration of each of its execution steps minus the steps nested
  inside them.  For a plain function that is "span minus the interval
  its children cover".  A coroutine is driven step by step
  (:func:`_drive`), so time it spends *suspended* — parked in the
  coalescer, waiting on a socket or an executor — is wall time
  (``end - start``) but never busy time.  Self times of all spans on
  one thread therefore sum to that thread's traced busy time, with no
  double counting;
* ``request`` is the id the load generator set for the current request
  (:data:`REQUEST_ID`), ``note`` an optional per-target integer tuple
  (batch rows, kernel shape).

A target that no longer exists is skipped and reported in
``Tracer.missing`` — a later simplification that removes an entry
point degrades the layer view, never the end-to-end gate.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import types
from time import perf_counter

#: Span causing the current execution (None at a root).
CURRENT_SPAN: contextvars.ContextVar = contextvars.ContextVar(
    "ferex_e2e_span", default=None
)
#: Request id set by the load generator around each operation.
REQUEST_ID: contextvars.ContextVar = contextvars.ContextVar(
    "ferex_e2e_request", default=None
)

#: Trace files keep at most this many spans (the serving workloads
#: record millions; the layer numbers use all of them in memory).
MAX_SPANS_WRITTEN = 50_000


def _rows(args, kwargs):
    """Batch rows of a ``(self, batch, ...)`` call."""
    batch = args[1] if len(args) > 1 else next(iter(kwargs.values()), ())
    try:
        return (len(batch),)
    except TypeError:
        return None


def _kernel_shape(args, kwargs):
    """(query rows, stored rows, cells, code itemsize, LUT bytes)."""
    kernel = getattr(args[0], "kernel", args[0])
    return (
        len(args[1]),
        kernel.rows,
        kernel.cells,
        kernel.codes.itemsize,
        kernel.lut.nbytes,
    )


#: (layer, "module:attr", note) — the stable public surface the
#: per-layer numbers hang off.  ``attr`` is ``function`` or
#: ``Class.method``.
TARGETS = (
    ("core.kernel", "repro.core.kernel:LUTKernel.__init__", None),
    ("core.kernel", "repro.core.kernel:LUTKernel.scores", _kernel_shape),
    ("core.kernel", "repro.core.kernel:LUTKernel.scores_gather",
     _kernel_shape),
    ("core.kernel", "repro.core.kernel:QuantizedKernel.row_currents",
     None),
    ("core.kernel", "repro.core.kernel:QuantizedKernel.row_scores", None),
    ("arch.crossbar", "repro.core.engine:FeReX.search_k_batch", _rows),
    ("arch.crossbar", "repro.core.engine:FeReX.readout_batch", None),
    ("arch.crossbar", "repro.core.engine:FeReX.allocate", None),
    ("arch.crossbar", "repro.core.engine:FeReX.write_rows", None),
    ("index.backends", "repro.index.backends:FerexBackend.search", _rows),
    ("index.backends", "repro.index.backends:FerexBackend.add", None),
    ("index.backends", "repro.index.backends:FerexBackend.deactivate",
     None),
    ("index.backends", "repro.index.backends:FerexBackend.rebuild", None),
    ("index.routing", "repro.index.routing:RoutedBackend.search", _rows),
    ("index.routing", "repro.index.routing:RoutedBackend.add", None),
    ("index.routing", "repro.index.routing:RoutedBackend.deactivate",
     None),
    ("index.routing", "repro.index.routing:RoutedBackend.rebuild", None),
    ("index.routing", "repro.index.routing:train_centroids", None),
    ("index.routing", "repro.index.routing:assign_codes", None),
    ("index.index", "repro.index.index:FerexIndex.search", _rows),
    ("index.index", "repro.index.index:FerexIndex.add", _rows),
    ("index.index", "repro.index.index:FerexIndex.remove", _rows),
    ("index.index", "repro.index.index:FerexIndex.compact", None),
    ("index.index", "repro.index.index:FerexIndex.export_state", None),
    ("serve.cache", "repro.serve.cache:QueryCache.key", None),
    ("serve.cache", "repro.serve.cache:QueryCache.get", None),
    ("serve.cache", "repro.serve.cache:QueryCache.peek", None),
    ("serve.cache", "repro.serve.cache:QueryCache.put", None),
    ("serve.cache", "repro.serve.cache:QueryCache.clear", None),
    ("serve.coalescer", "repro.serve.coalescer:RequestCoalescer.submit",
     None),
    ("serve.router", "repro.serve.router:ReplicaRouter.acquire_read",
     None),
    ("serve.router", "repro.serve.router:ReplicaRouter.release_read",
     None),
    ("serve.router", "repro.serve.router:ReplicaRouter.write", None),
    ("serve.server", "repro.serve.server:FerexServer.search", None),
    ("serve.server", "repro.serve.server:FerexServer.search_many", _rows),
    ("serve.server", "repro.serve.server:FerexServer.add", None),
    ("serve.procpool", "repro.serve.procpool:ProcReplicaPool.search",
     _rows),
    ("serve.procpool", "repro.serve.procpool:ProcReplicaPool.republish",
     None),
    ("serve.shm", "repro.serve.shm:publish_index", None),
    ("serve.net.protocol", "repro.serve.net.protocol:read_request", None),
    ("serve.net.protocol", "repro.serve.net.protocol:read_body", None),
    ("serve.net.protocol", "repro.serve.net.protocol:unpack_array_frame",
     None),
    ("serve.net.protocol", "repro.serve.net.protocol:json_body", None),
    ("serve.net.protocol", "repro.serve.net.protocol:pack_result_frame",
     None),
    ("serve.net.protocol", "repro.serve.net.protocol:pack_array_frame",
     None),
    ("serve.net.protocol", "repro.serve.net.protocol:write_response",
     None),
    ("serve.net.admission",
     "repro.serve.net.admission:AdmissionController.try_acquire", None),
    ("serve.net.admission",
     "repro.serve.net.admission:AdmissionController.release", None),
    ("loadgen", "repro.serve.net.client:HttpClient.request", None),
)

#: Parse / encode halves of ``serve.net.protocol``.
PROTOCOL_PARSE = ("read_request", "read_body", "unpack_array_frame")
PROTOCOL_ENCODE = (
    "json_body", "pack_result_frame", "pack_array_frame", "write_response"
)


class _Steps(threading.local):
    """Per-thread stack of running execution steps; each entry
    accumulates the time of the steps nested inside it."""

    def __init__(self):
        self.stack = []


@types.coroutine
def _drive(coro, steps, self_s):
    """Await ``coro`` step by step, adding each step's own busy time
    (step duration minus nested steps) to ``self_s[0]``."""
    stack = steps.stack
    value = exc = None
    while True:
        nested = [0.0]
        stack.append(nested)
        began = perf_counter()
        try:
            if exc is None:
                yielded = coro.send(value)
            else:
                yielded = coro.throw(exc)
        except StopIteration as stop:
            return stop.value
        finally:
            took = perf_counter() - began
            stack.pop()
            self_s[0] += took - nested[0]
            if stack:
                stack[-1][0] += took
        try:
            value, exc = (yield yielded), None
        except BaseException as raised:  # re-thrown into coro above
            value, exc = None, raised


class Tracer:
    """Installs the span wrappers; use as a context manager."""

    def __init__(self, targets=TARGETS):
        self._targets = targets
        self._steps = _Steps()
        self._ids = itertools.count(1)
        self._undo = []
        #: Recorded spans (tuples, see the module docstring).
        self.spans = []
        #: Targets that could not be resolved (layer view degraded).
        self.missing = []
        #: name -> layer for every installed target.
        self.layer_of = {}

    # ------------------------------------------------------------------
    def _wrap_sync(self, fn, name, note):
        spans, steps, ids = self.spans, self._steps, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = CURRENT_SPAN.get()
            sid = next(ids)
            CURRENT_SPAN.set(sid)
            stack = steps.stack
            nested = [0.0]
            stack.append(nested)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                CURRENT_SPAN.set(parent)
                spans.append((
                    sid, parent, name, start, end,
                    end - start - nested[0], threading.get_ident(),
                    REQUEST_ID.get(),
                    note(args, kwargs) if note else None,
                ))

        return wrapper

    def _wrap_async(self, fn, name, note):
        spans, steps, ids = self.spans, self._steps, self._ids

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            parent = CURRENT_SPAN.get()
            sid = next(ids)
            CURRENT_SPAN.set(sid)
            self_s = [0.0]
            start = perf_counter()
            try:
                return await _drive(fn(*args, **kwargs), steps, self_s)
            finally:
                CURRENT_SPAN.set(parent)
                spans.append((
                    sid, parent, name, start, perf_counter(), self_s[0],
                    threading.get_ident(), REQUEST_ID.get(),
                    note(args, kwargs) if note else None,
                ))

        return wrapper

    def _wrapped(self, fn, name, note):
        if inspect.iscoroutinefunction(fn):
            return self._wrap_async(fn, name, note)
        return self._wrap_sync(fn, name, note)

    def _install_one(self, target, note):
        module_name, _, attr = target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        raw = vars(owner)[method]
        if isinstance(raw, (staticmethod, classmethod)):
            new = type(raw)(self._wrapped(raw.__func__, target, note))
        else:
            new = self._wrapped(raw, target, note)
        setattr(owner, method, new)
        self._undo.append((owner, method, raw))
        if owner_name:
            return
        # A module-level function is also bound, by name, in every
        # module that did ``from x import f``.
        for other in list(sys.modules.values()):
            if (
                other is not module
                and getattr(other, "__name__", "").startswith("repro")
                and vars(other).get(method) is raw
            ):
                setattr(other, method, new)
                self._undo.append((other, method, raw))

    def __enter__(self) -> "Tracer":
        for layer, target, note in self._targets:
            try:
                self._install_one(target, note)
            except (ImportError, AttributeError, KeyError) as exc:
                self.missing.append(f"{target}: {exc!r}")
            else:
                self.layer_of[target] = layer
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo = []

    # ------------------------------------------------------------------
    def write(self, path, window) -> None:
        """Dump (a bounded prefix of) the window's spans as JSON."""
        t_open, t_close = window
        inside = [s for s in self.spans if t_open <= s[3] <= t_close]
        payload = {
            "fields": [
                "sid", "parent", "name", "start_s", "end_s", "self_s",
                "thread", "request", "note",
            ],
            "window": [t_open, t_close],
            "n_spans": len(inside),
            "truncated": len(inside) > MAX_SPANS_WRITTEN,
            "missing_targets": self.missing,
            "spans": inside[:MAX_SPANS_WRITTEN],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))
