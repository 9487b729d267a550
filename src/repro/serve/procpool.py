"""`ProcReplicaPool`: N worker processes serving one shared snapshot.

The asyncio serving stack coalesces concurrent callers into micro-batches
(:class:`~repro.serve.coalescer.RequestCoalescer`), but every batch still
evaluates inside one Python process — the GIL caps the server at one
core no matter how many threads carry it.  This module is the step past
that cap:

* the parent publishes the primary index's state once into
  shared-memory segments (:func:`repro.serve.shm.publish_index` — N
  replicas cost ~1x canonical index RAM);
* each worker process attaches the segments zero-copy, verifies the
  content fingerprint, and rebuilds a read-only replica whose answers
  are bit-identical to the primary (:func:`repro.serve.shm.
  attach_index`);
* searches route to idle workers over pipes — many batches genuinely in
  flight at once, one per core; each worker runs on one BLAS thread
  (:func:`repro.core.blas.one_thread`), so a worker is one core, not
  one core plus a spinning OpenBLAS helper;
* writes never touch workers: the caller mutates the primary (through
  the usual single-writer path) and calls :meth:`ProcReplicaPool.
  republish`, which quiesces the pool, publishes a fresh
  generation-stamped segment set, re-attaches every worker (fingerprint
  re-verified), and only then retires the old segments.

Crash discipline: a worker that dies mid-request (OOM-killed, signalled,
kernel-reaped) is detected by its broken pipe, respawned from the
current manifest, and the request retries on another replica — reads
are idempotent, so the caller just sees the answer.  Only when respawns
themselves fail does the pool raise :class:`PoolBrokenError`.

Dispatch: each worker owns a request/response slab pair in shared
memory.  The parent writes the query batch into the request slab and
sends only a tiny header tuple ``(op, shape, dtype, k, generation)``
over the pipe; the worker wraps the slab bytes zero-copy, searches,
writes ``ids``/``distances`` straight into the response slab and
replies with a header.  Slabs start at ``_INITIAL_SLAB_ROWS`` query rows
and grow (and are re-announced to the worker) on overflow; payloads
that cannot ride a slab at all — object dtypes, slab allocation
failure — fall back to pickling the batch over the pipe.  Results are
copied on return: the worker re-enters the idle queue immediately, so
a zero-copy view would race the very next dispatch into the same slab.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
from math import prod
from typing import List, Optional

import numpy as np

from ..core.blas import one_thread
from ..index import FerexIndex, SearchOutcome
from .shm import (
    DispatchSlabs,
    PublishedSegments,
    SegmentManifest,
    SlabManifest,
    attach_index,
    attach_slabs,
    create_slabs,
    publish_index,
)

#: Seconds to wait for a freshly spawned worker's ready handshake
#: (spawn pays interpreter start + import + attach re-program).
_SPAWN_TIMEOUT_S = 120.0
#: Seconds to wait for a worker's re-attach during republish.
_ATTACH_TIMEOUT_S = 120.0


class PoolBrokenError(RuntimeError):
    """The pool can no longer guarantee replica parity (spawn or
    republish failed beyond recovery); refusing to serve."""


class _WorkerUnresponsive(Exception):
    """Internal: a live worker missed its reply deadline (treated like
    a crash: retire, respawn, retry)."""


class _SlabUnavailable(Exception):
    """Internal: a slab could not be allocated or announced for this
    dispatch; the batch falls back to the pickle path (the worker
    itself is healthy)."""


#: Bytes per ``(id, distance)`` result cell: int64 + float64.
_RESULT_CELL_BYTES = 16
#: Query rows (of ``k <= 16`` results) a fresh worker's slabs hold —
#: the server's default ``max_batch_size``.
_INITIAL_SLAB_ROWS = 64


def _slab_capacity(need: int) -> int:
    """Round a byte requirement up to the next power of two (floored at
    4 KiB) so repeated marginal overflows don't re-slab every batch."""
    return max(4096, 1 << max(0, int(need) - 1).bit_length())


def _portable_exc(exc: BaseException) -> BaseException:
    """Best-effort picklable stand-in for an arbitrary exception."""
    try:
        import pickle

        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _slab_search(index, slabs, message) -> tuple:
    """Serve one slab-dispatched search inside the worker: wrap the
    request slab zero-copy, search, write the results into the response
    slab, return the reply header."""
    _, shape, dtype_str, k, generation = message
    queries = np.frombuffer(
        slabs.request.buf, dtype=np.dtype(dtype_str), count=prod(shape)
    ).reshape(shape)
    try:
        outcome = index.search(queries, k=k)
    finally:
        del queries  # release the buffer export before any re-slab
    ids = np.ascontiguousarray(outcome.ids, dtype="<i8")
    distances = np.ascontiguousarray(outcome.distances, dtype="<f8")
    if ids.nbytes + distances.nbytes > slabs.response.size:
        # The parent pre-sizes the response slab from (n, k); reaching
        # this means the two sides disagree about the result shape.
        raise RuntimeError(
            f"result of {ids.nbytes + distances.nbytes} bytes overflows "
            f"the {slabs.response.size}-byte response slab"
        )
    out_ids = np.frombuffer(
        slabs.response.buf, dtype="<i8", count=ids.size
    ).reshape(ids.shape)
    out_ids[...] = ids
    out_distances = np.frombuffer(
        slabs.response.buf,
        dtype="<f8",
        count=distances.size,
        offset=ids.nbytes,
    ).reshape(distances.shape)
    out_distances[...] = distances
    del out_ids, out_distances
    return ("ok_slab", tuple(ids.shape), generation)


@one_thread()
def _worker_main(
    conn, manifest: SegmentManifest, slab_manifest: SlabManifest
) -> None:
    """Worker process body: attach the published snapshot and the
    dispatch slabs, then serve ``search``/``search_slab``/``reslab``/
    ``republish``/``ping`` requests until closed, on one BLAS thread
    (:func:`repro.core.blas.one_thread`)."""
    index = None
    attached = None
    slabs: Optional[DispatchSlabs] = None

    def _attach(new_manifest):
        nonlocal index, attached
        old_index, old_attached = index, attached
        index = attached = None
        # Drop every view over the old buffers before unmapping them.
        del old_index
        if old_attached is not None:
            old_attached.close()
        index, attached = attach_index(new_manifest)

    try:
        try:
            _attach(manifest)
            slabs = attach_slabs(slab_manifest)
        except Exception as exc:
            conn.send(("attach_error", _portable_exc(exc)))
            return
        conn.send(("ready", manifest.generation, manifest.fingerprint))
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return
            op = message[0]
            if op == "search":
                _, queries, k = message
                try:
                    outcome = index.search(queries, k=k)
                    conn.send(("ok", outcome.ids, outcome.distances))
                except Exception as exc:
                    conn.send(("error", _portable_exc(exc)))
            elif op == "search_slab":
                try:
                    if message[4] != attached.manifest.generation:
                        raise RuntimeError(
                            f"slab dispatch stamped generation "
                            f"{message[4]} reached a worker serving "
                            f"{attached.manifest.generation}"
                        )
                    conn.send(_slab_search(index, slabs, message))
                except Exception as exc:
                    conn.send(("error", _portable_exc(exc)))
            elif op == "reslab":
                _, new_slab_manifest = message
                try:
                    old_slabs, slabs = slabs, None
                    if old_slabs is not None:
                        old_slabs.close()
                    slabs = attach_slabs(new_slab_manifest)
                except Exception as exc:
                    conn.send(("attach_error", _portable_exc(exc)))
                    return
                conn.send(("slab_ready",))
            elif op == "republish":
                _, new_manifest = message
                try:
                    _attach(new_manifest)
                except Exception as exc:
                    conn.send(("attach_error", _portable_exc(exc)))
                    return
                conn.send(
                    (
                        "ready",
                        new_manifest.generation,
                        new_manifest.fingerprint,
                    )
                )
            elif op == "ping":
                conn.send(
                    (
                        "pong",
                        attached.manifest.generation,
                        attached.manifest.fingerprint,
                    )
                )
            elif op == "close":
                return
    finally:
        index = None
        if attached is not None:
            attached.close()
        if slabs is not None:
            slabs.close()
        conn.close()


class _Worker:
    """Parent-side handle on one worker process."""

    __slots__ = ("process", "conn", "ordinal", "served", "slabs")

    def __init__(self, process, conn, ordinal: int, slabs: DispatchSlabs):
        self.process = process
        self.conn = conn
        self.ordinal = ordinal
        #: Searches this worker has answered (parent-side count).
        self.served = 0
        #: This worker's dispatch slab pair (parent-owned; ``None``
        #: once retired).
        self.slabs = slabs

    def __repr__(self) -> str:
        alive = self.process.is_alive()
        return (
            f"_Worker(ordinal={self.ordinal}, pid={self.process.pid}, "
            f"alive={alive}, served={self.served})"
        )


class ProcReplicaPool:
    """Multi-process read replicas over shared-memory index segments.

    Parameters
    ----------
    index:
        The primary :class:`FerexIndex`.  The pool publishes its state
        at construction; later mutations reach workers only through
        :meth:`republish`.
    n_workers:
        Worker process count (one busy search per worker at a time; the
        useful ceiling is the machine's core count).
    start_method:
        ``multiprocessing`` start method.  The default ``"spawn"`` is
        safe next to the asyncio server's executor threads; ``"fork"``
        is faster to start but forks whatever locks those threads hold.
    name_prefix:
        Shared-memory block name prefix (diagnostic; names are
        collision-proofed regardless).
    search_timeout_s:
        Reply deadline per routed batch.  A worker that is alive but
        wedged (stuck syscall, deadlocked attach) would otherwise
        block its batch — and, via the quiesce, every later
        republish — forever; missing the deadline is treated exactly
        like a crash (retire, respawn, retry elsewhere).  Generous by
        default: two orders of magnitude above any bench batch.

    Thread safety: :meth:`search` may be called from many threads (the
    server's executor does); workers are checked out of an idle queue,
    so concurrent searches run truly in parallel, one per worker.
    """

    def __init__(
        self,
        index: FerexIndex,
        n_workers: int = 2,
        start_method: str = "spawn",
        name_prefix: str = "ferex",
        search_timeout_s: float = 120.0,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if search_timeout_s <= 0:
            raise ValueError("search_timeout_s must be > 0")
        self.search_timeout_s = search_timeout_s
        self.index = index
        self.n_workers = n_workers
        #: Dispatches that rode a slab / fell back to pickle.
        self.n_slab_dispatches = 0
        self.n_pickle_fallbacks = 0
        #: Slab-overflow regrows (per worker-slab pair).
        self.n_slab_grows = 0
        # High-water slab sizing: respawned workers start at the
        # largest capacity any batch has needed so far.
        self._slab_request_bytes = _slab_capacity(
            _INITIAL_SLAB_ROWS * max(1, index.dims) * 8
        )
        self._slab_response_bytes = _slab_capacity(
            _INITIAL_SLAB_ROWS * 16 * _RESULT_CELL_BYTES
        )
        self._name_prefix = name_prefix
        self._ctx = multiprocessing.get_context(start_method)
        self._lock = threading.Lock()  # _published / _workers / flags
        self._publish_lock = threading.Lock()  # serialises republish
        self._idle: "queue.Queue[_Worker]" = queue.Queue()
        self._workers: List[_Worker] = []
        self._next_ordinal = 0
        self._broken = False
        self._closed = False
        self.respawns = 0
        self._published: Optional[PublishedSegments] = publish_index(
            index, name_prefix=name_prefix
        )
        try:
            for _ in range(n_workers):
                worker = self._spawn_worker(self._published.manifest)
                self._workers.append(worker)
                self._idle.put(worker)
        except Exception:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Primary write generation the workers currently serve
        (``-1`` once the pool is closed)."""
        published = self._published
        return -1 if published is None else published.manifest.generation

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the published snapshot (empty once
        the pool is closed)."""
        published = self._published
        return "" if published is None else published.manifest.fingerprint

    @property
    def broken(self) -> bool:
        """True once the pool lost a worker slot it could not refill;
        every later ``search``/``republish`` raises
        :class:`PoolBrokenError`."""
        return self._broken

    @property
    def workers(self) -> List[_Worker]:
        """Live worker handles (read-only introspection)."""
        return list(self._workers)

    def snapshot(self) -> dict:
        """JSON-ready pool state for stats surfaces and benches."""
        return {
            "n_workers": self.n_workers,
            "generation": self.generation,
            "respawns": self.respawns,
            "n_slab_dispatches": self.n_slab_dispatches,
            "n_pickle_fallbacks": self.n_pickle_fallbacks,
            "n_slab_grows": self.n_slab_grows,
            "slab_request_bytes": self._slab_request_bytes,
            "slab_response_bytes": self._slab_response_bytes,
            "served_per_worker": [w.served for w in self._workers],
        }

    def __repr__(self) -> str:
        return (
            f"ProcReplicaPool(n_workers={self.n_workers}, "
            f"generation={self.generation}, respawns={self.respawns})"
        )

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn_worker(self, manifest: SegmentManifest) -> _Worker:
        slabs = create_slabs(
            self._slab_request_bytes,
            self._slab_response_bytes,
            name_prefix=self._name_prefix,
        )
        try:
            parent_conn, child_conn = self._ctx.Pipe()
            ordinal = self._next_ordinal
            self._next_ordinal += 1
            process = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, manifest, slabs.manifest),
                name=f"{self._name_prefix}-replica-{ordinal}",
                daemon=True,
            )
            process.start()
        except Exception:
            slabs.unlink()
            raise
        child_conn.close()  # the worker owns its end now
        worker = _Worker(process, parent_conn, ordinal, slabs)
        try:
            self._expect_ready(worker, manifest, timeout=_SPAWN_TIMEOUT_S)
        except Exception:
            # A worker that failed its handshake (attach error, parity
            # mismatch, timeout) must not linger as an orphan burning
            # CPU and holding segment mappings.
            self._retire(worker)
            raise
        return worker

    def _expect_ready(
        self, worker: _Worker, manifest: SegmentManifest, timeout: float
    ) -> None:
        """Consume one handshake and verify generation + fingerprint —
        the attach-time parity check, enforced on both ends."""
        try:
            if not worker.conn.poll(timeout):
                raise PoolBrokenError(
                    f"worker {worker.ordinal} did not attach within "
                    f"{timeout:.0f}s"
                )
            reply = worker.conn.recv()
        except (EOFError, OSError) as exc:
            raise PoolBrokenError(
                f"worker {worker.ordinal} died during attach"
            ) from exc
        if reply[0] == "attach_error":
            raise reply[1]
        if reply[0] != "ready" or reply[1:] != (
            manifest.generation,
            manifest.fingerprint,
        ):
            raise PoolBrokenError(
                f"worker {worker.ordinal} attached out of parity: "
                f"{reply!r} != ('ready', {manifest.generation}, "
                f"{manifest.fingerprint})"
            )

    def _retire(self, worker: _Worker) -> None:
        """Hard-stop a dead or misbehaving worker's process + pipe, and
        reclaim its dispatch slabs."""
        try:
            if worker.process.is_alive():
                worker.process.kill()
            worker.process.join(timeout=5)
        except Exception:
            pass
        try:
            worker.conn.close()
        except Exception:
            pass
        slabs, worker.slabs = worker.slabs, None
        if slabs is not None:
            try:
                slabs.unlink()
            except Exception:
                pass

    def _replace(self, worker: _Worker) -> _Worker:
        """Respawn a crashed worker from the current manifest.  Marks
        the pool broken (and re-raises) when the respawn itself fails —
        a pool that cannot hold its replica count must not limp on."""
        self._retire(worker)
        with self._lock:
            if self._closed or self._published is None:
                # close() raced us (it already killed the fleet): the
                # caller sees the same error a fresh search would.
                raise RuntimeError("pool is closed")
            manifest = self._published.manifest
        try:
            replacement = self._spawn_worker(manifest)
        except Exception:
            with self._lock:
                self._broken = True
            raise
        with self._lock:
            if self._closed:
                # close() ran while we were spawning and never saw the
                # replacement; don't leave it orphaned.
                self._retire(replacement)
                raise RuntimeError("pool is closed")
            self._workers = [
                replacement if w is worker else w for w in self._workers
            ]
            self.respawns += 1
        return replacement

    def _get_idle(self) -> _Worker:
        """Check out an idle worker, noticing shutdown/poison while
        waiting (a broken pool must not strand blocked callers)."""
        while True:
            if self._closed:
                raise RuntimeError("pool is closed")
            if self._broken:
                raise PoolBrokenError(
                    "pool lost a worker and could not respawn it"
                )
            try:
                return self._idle.get(timeout=0.1)
            except queue.Empty:
                continue

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    @staticmethod
    def _slab_batch(queries) -> Optional[np.ndarray]:
        """The contiguous 2-D array a slab can carry, or ``None`` when
        this payload must ride the pickle fallback (object dtypes,
        ragged input the array constructor rejects)."""
        try:
            batch = np.ascontiguousarray(queries)
        except Exception:
            return None
        if batch.ndim != 2 or batch.dtype.hasobject:
            return None
        return batch

    def _grow_slabs(
        self, worker: _Worker, need_request: int, need_response: int
    ) -> None:
        """Swap one worker's slab pair for a bigger one (the worker is
        checked out, so nothing else touches its slabs).  Allocation
        failures raise :class:`_SlabUnavailable` (the dispatch falls
        back to pickle); a worker that cannot adopt the new slabs is
        treated like a crash by the caller."""
        old = worker.slabs
        with self._lock:
            self._slab_request_bytes = max(
                self._slab_request_bytes, _slab_capacity(need_request)
            )
            self._slab_response_bytes = max(
                self._slab_response_bytes, _slab_capacity(need_response)
            )
            new_request_bytes = self._slab_request_bytes
            new_response_bytes = self._slab_response_bytes
        try:
            new = create_slabs(
                new_request_bytes,
                new_response_bytes,
                name_prefix=self._name_prefix,
            )
        except Exception as exc:
            raise _SlabUnavailable() from exc
        try:
            worker.conn.send(("reslab", new.manifest))
            if not worker.conn.poll(_ATTACH_TIMEOUT_S):
                raise _WorkerUnresponsive()
            reply = worker.conn.recv()
        except Exception:
            new.unlink()
            raise
        if reply[0] != "slab_ready":
            # attach_error (the worker already exited) or desync.
            new.unlink()
            raise _WorkerUnresponsive()
        worker.slabs = new
        old.unlink()
        with self._lock:
            self.n_slab_grows += 1

    def _dispatch_slab(self, worker: _Worker, batch: np.ndarray, k: int):
        """Send one batch over the worker's slabs; returns the reply
        tuple.  The caller translates worker-death exceptions."""
        need_response = len(batch) * max(int(k), 1) * _RESULT_CELL_BYTES
        if (
            batch.nbytes > worker.slabs.manifest.request_bytes
            or need_response > worker.slabs.manifest.response_bytes
        ):
            self._grow_slabs(worker, batch.nbytes, need_response)
        view = np.frombuffer(
            worker.slabs.request.buf, dtype=batch.dtype, count=batch.size
        ).reshape(batch.shape)
        view[...] = batch
        del view
        worker.conn.send(
            (
                "search_slab",
                batch.shape,
                batch.dtype.str,
                k,
                self.generation,
            )
        )
        if not worker.conn.poll(self.search_timeout_s):
            raise _WorkerUnresponsive()
        return worker.conn.recv()

    def search(self, queries, k: int = 1) -> SearchOutcome:
        """Route one micro-batch to an idle worker; bit-identical to
        ``self.index.search(queries, k)``.

        Blocks while every worker is busy (callers above this layer —
        the coalescer — bound how many batches are in flight).  A
        worker crash mid-request respawns the worker and retries the
        batch on another replica.
        """
        batch = self._slab_batch(queries)
        attempts = 0
        while True:
            worker = self._get_idle()
            try:
                if batch is not None:
                    try:
                        reply = self._dispatch_slab(worker, batch, k)
                    except _SlabUnavailable:
                        reply = self._dispatch_pickle(worker, queries, k)
                else:
                    reply = self._dispatch_pickle(worker, queries, k)
            except (
                BrokenPipeError,
                EOFError,
                OSError,
                _WorkerUnresponsive,
            ):
                # The worker died under us; put a fresh replica in its
                # slot and retry the (idempotent) read elsewhere.
                replacement = self._replace(worker)
                self._idle.put(replacement)
                attempts += 1
                if attempts > self.n_workers:
                    raise PoolBrokenError(
                        f"search failed on {attempts} replicas in a row"
                    )
                continue
            if reply[0] == "ok_slab":
                n, kk = reply[1]
                # Copy out *before* the worker re-enters the idle
                # queue: the very next dispatch reuses this slab.
                ids = (
                    np.frombuffer(
                        worker.slabs.response.buf, dtype="<i8", count=n * kk
                    )
                    .reshape(n, kk)
                    .copy()
                )
                distances = (
                    np.frombuffer(
                        worker.slabs.response.buf,
                        dtype="<f8",
                        count=n * kk,
                        offset=n * kk * 8,
                    )
                    .reshape(n, kk)
                    .copy()
                )
                worker.served += 1
                self._idle.put(worker)
                with self._lock:
                    self.n_slab_dispatches += 1
                return SearchOutcome(ids=ids, distances=distances)
            if reply[0] == "ok":
                worker.served += 1
                self._idle.put(worker)
                with self._lock:
                    self.n_pickle_fallbacks += 1
                return SearchOutcome(ids=reply[1], distances=reply[2])
            if reply[0] == "error" and isinstance(reply[1], BaseException):
                worker.served += 1
                self._idle.put(worker)
                raise reply[1]
            # Protocol desync (should be unreachable): this pipe's
            # request/reply pairing can no longer be trusted, so
            # retire the worker rather than guess at its next reply.
            replacement = self._replace(worker)
            self._idle.put(replacement)
            raise PoolBrokenError(
                f"worker {worker.ordinal} sent an out-of-protocol "
                f"reply {reply[:1]!r}; worker replaced"
            )

    def _dispatch_pickle(self, worker: _Worker, queries, k: int):
        """Pickle the batch over the pipe: the fallback for payloads a
        slab cannot carry."""
        worker.conn.send(("search", queries, k))
        if not worker.conn.poll(self.search_timeout_s):
            raise _WorkerUnresponsive()
        return worker.conn.recv()

    # ------------------------------------------------------------------
    # Write propagation
    # ------------------------------------------------------------------
    def republish(self) -> int:
        """Publish the primary's current state and move every worker to
        it; returns the new generation.

        Quiesces the pool (waits for in-flight searches), publishes a
        fresh segment set stamped with the primary's write generation,
        re-attaches each worker (fingerprint parity re-verified), then
        unlinks the retired generation's segments.

        *Any* per-worker re-attach failure — pipe death, attach
        timeout, integrity error — leaves that worker's state
        unknowable, so it is retired and respawned straight onto the
        new manifest; only confirmed new-generation workers ever return
        to the idle queue.  If even one slot cannot be refilled the
        pool poisons itself (every later ``search``/``republish``
        raises :class:`PoolBrokenError`) rather than serve a fleet
        that straddles generations.
        """
        with self._publish_lock:
            held = [self._get_idle() for _ in range(self.n_workers)]
            try:
                new = publish_index(
                    self.index, name_prefix=self._name_prefix
                )
            except Exception:
                # Nothing swapped yet: the old generation is still the
                # published truth, every held worker still serves it.
                for worker in held:
                    self._idle.put(worker)
                raise
            with self._lock:
                if self._closed or self._published is None:
                    # close() raced us: it already retired the held
                    # workers and unlinked the old generation; drop the
                    # segments we just published instead of leaking
                    # them past the closed pool.
                    new.unlink()
                    raise RuntimeError("pool is closed")
                old, self._published = self._published, new
            manifest = new.manifest
            refreshed = []
            casualties = []
            failures = 0
            # Broadcast first, then collect: the workers re-attach in
            # parallel, so the write stall is ~one attach, not
            # n_workers of them.
            broadcast = []
            for worker in held:
                try:
                    worker.conn.send(("republish", manifest))
                    broadcast.append(worker)
                except Exception:
                    casualties.append(worker)
            for worker in broadcast:
                try:
                    self._expect_ready(
                        worker, manifest, timeout=_ATTACH_TIMEOUT_S
                    )
                    refreshed.append(worker)
                except Exception:
                    casualties.append(worker)
            for worker in casualties:
                try:
                    refreshed.append(self._replace(worker))
                except Exception:
                    failures += 1
                    with self._lock:
                        self._broken = True
            for worker in refreshed:
                self._idle.put(worker)
            # Failed workers were killed, confirmed workers moved on:
            # nothing maps the old generation's segments any more.
            old.unlink()
            if failures:
                raise PoolBrokenError(
                    f"republish could not move {failures} worker(s) to "
                    f"generation {manifest.generation}; pool refuses "
                    f"to serve a generation-straddling fleet"
                )
            return manifest.generation

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop every worker and release the shared segments."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.conn.send(("close",))
            except Exception:
                pass
        for worker in self._workers:
            try:
                worker.process.join(timeout=5)
            except Exception:
                pass
            self._retire(worker)
        self._workers = []
        # Drain any stale idle-queue entries (handles already retired).
        while True:
            try:
                self._idle.get_nowait()
            except queue.Empty:
                break
        published: Optional[PublishedSegments]
        with self._lock:
            published, self._published = self._published, None
        if published is not None:
            published.unlink()

    def __enter__(self) -> "ProcReplicaPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
