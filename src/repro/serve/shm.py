"""Shared-memory index segments: publish once, attach N times.

A :class:`repro.index.FerexIndex` snapshot is three canonical arrays
(``vectors``/``ids``/``alive``) plus a small configuration record —
exactly what :meth:`FerexIndex.export_state` returns.  This module
moves that state across process boundaries without copying it per
replica:

* :func:`publish_index` copies the arrays once into named
  ``multiprocessing.shared_memory`` blocks and returns a
  :class:`PublishedSegments` handle whose picklable
  :class:`SegmentManifest` names every block, its shape/dtype, the
  publisher's write generation, and a content fingerprint;
* :func:`attach_index` (called in a worker process) maps the named
  blocks, wraps them in read-only numpy views, verifies the fingerprint
  (:meth:`FerexIndex.content_fingerprint` recomputed over the attached
  bytes — a torn or mismatched segment raises
  :class:`SegmentIntegrityError` instead of quietly serving), and
  rebuilds a read-only replica via :meth:`FerexIndex.from_state`.

N attached replicas therefore share one copy of the canonical index
state; each worker re-derives its (deterministic) backend simulation
from it, so answers are bit-identical to the publisher by the same
argument that makes ``save``/``load`` round trips exact.

Lifetime discipline: the publisher owns the blocks — workers ``close``
their mappings, the publisher ``unlink``\\ s after every worker has
moved to a newer generation.  Pool workers are ``multiprocessing``
children, so they share the publisher's ``resource_tracker`` process
and POSIX's register-on-attach is a harmless set re-add there: the
blocks stay tracked until the publisher unlinks them, and an abnormal
publisher exit still reclaims every segment.  (A process attaching
from *outside* that tree carries its own tracker and should expect the
stock CPython attach-registration caveat.)
"""

from __future__ import annotations

import gc
import os
import secrets
from dataclasses import dataclass, field
from math import prod
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..index import FerexIndex, state_digest


class SegmentIntegrityError(RuntimeError):
    """Attached segment bytes do not match the published fingerprint."""


@dataclass(frozen=True)
class ArraySpec:
    """One shared block: its OS-level name and numpy layout."""

    name: str
    shape: Tuple[int, ...]
    dtype: str


def _close_blocks(blocks) -> None:
    """Unmap ``blocks``.  A view that lives on only in cyclic garbage
    still exports its buffer, so the first ``BufferError`` costs one
    full collection and a second pass; a view still referenced after
    that keeps its mapping alive rather than crashing the process.
    (``SharedMemory.close`` is idempotent, so the retry skips blocks
    already closed.)"""
    try:
        for block in blocks:
            block.close()
    except BufferError:
        gc.collect()
        for block in blocks:
            try:
                block.close()
            except BufferError:
                pass


@dataclass(frozen=True)
class SegmentManifest:
    """Everything a worker needs to attach one published snapshot.

    Plain picklable data — it travels to workers over pipes (and as the
    spawn argument), never the arrays themselves.
    """

    #: The :meth:`FerexIndex.export_state` configuration record.
    meta: dict
    #: Block specs keyed by state-array name (vectors/ids/alive).
    arrays: Dict[str, ArraySpec]
    #: The publisher's ``write_generation`` at publish time.
    generation: int
    #: The publisher's :meth:`FerexIndex.content_fingerprint`.
    fingerprint: str


@dataclass
class PublishedSegments:
    """Publisher-side handle: the manifest plus owned blocks."""

    manifest: SegmentManifest
    _blocks: List[shared_memory.SharedMemory] = field(default_factory=list)

    def close(self) -> None:
        """Unmap this process's views (blocks stay alive for workers)."""
        _close_blocks(self._blocks)

    def unlink(self) -> None:
        """Destroy the named blocks.  Attached workers keep their
        mappings until they close them (POSIX semantics); new attaches
        fail, which is exactly what retiring a generation means."""
        self.close()
        for block in self._blocks:
            try:
                block.unlink()
            except FileNotFoundError:
                pass


@dataclass
class AttachedSegments:
    """Worker-side handle over mapped blocks; close when re-attaching."""

    manifest: SegmentManifest
    _blocks: List[shared_memory.SharedMemory] = field(default_factory=list)

    def close(self) -> None:
        """Unmap the attached views.  Callers must drop every numpy
        array referencing the buffers first (see :func:`_close_blocks`)."""
        _close_blocks(self._blocks)


@dataclass(frozen=True)
class SlabManifest:
    """Names + byte capacities of one worker's dispatch slab pair.

    Plain picklable data, like :class:`SegmentManifest` — it travels to
    the worker as a spawn argument and over the pipe on re-slab.
    """

    request_name: str
    response_name: str
    request_bytes: int
    response_bytes: int


@dataclass
class DispatchSlabs:
    """One worker's request/response slab pair (either side's handle).

    The parent owns the blocks (creates and unlinks); the worker only
    attaches and closes.  Unlike index segments the slabs are mutable
    scratch — the pipe's strict request/reply alternation is what keeps
    the two sides from ever writing the same slab concurrently.
    """

    manifest: SlabManifest
    request: shared_memory.SharedMemory
    response: shared_memory.SharedMemory

    def close(self) -> None:
        """Unmap this process's views.  Callers drop their numpy views
        first (see :func:`_close_blocks`)."""
        _close_blocks((self.request, self.response))

    def unlink(self) -> None:
        """Destroy the named blocks (parent side, on retire/grow)."""
        self.close()
        for block in (self.request, self.response):
            try:
                block.unlink()
            except FileNotFoundError:
                pass


def create_slabs(
    request_bytes: int,
    response_bytes: int,
    name_prefix: str = "ferex",
) -> DispatchSlabs:
    """Allocate one collision-proof request/response slab pair.

    Capacities are floored at one byte (``SharedMemory`` rejects zero)
    and reported as the OS actually granted them (page-rounded), so the
    overflow check upstream keys off real capacity."""
    token = f"{name_prefix}-slab-{os.getpid()}-{secrets.token_hex(4)}"
    request = shared_memory.SharedMemory(
        name=f"{token}-req", create=True, size=max(1, int(request_bytes))
    )
    try:
        response = shared_memory.SharedMemory(
            name=f"{token}-resp",
            create=True,
            size=max(1, int(response_bytes)),
        )
    except Exception:
        request.close()
        request.unlink()
        raise
    manifest = SlabManifest(
        request_name=request.name,
        response_name=response.name,
        request_bytes=request.size,
        response_bytes=response.size,
    )
    return DispatchSlabs(
        manifest=manifest, request=request, response=response
    )


def attach_slabs(manifest: SlabManifest) -> DispatchSlabs:
    """Map a slab pair published by the parent (worker side)."""
    request = shared_memory.SharedMemory(name=manifest.request_name)
    try:
        response = shared_memory.SharedMemory(name=manifest.response_name)
    except Exception:
        request.close()
        raise
    return DispatchSlabs(
        manifest=manifest, request=request, response=response
    )


def publish_index(
    index: FerexIndex, name_prefix: str = "ferex"
) -> PublishedSegments:
    """Copy ``index``'s exported state into fresh shared-memory blocks.

    The one copy made here is the copy *every* attaching replica
    shares.  Block names are collision-proofed with the pid and a
    random token, so several pools (or generations) can coexist.
    """
    meta, arrays = index.export_state()
    generation = index.write_generation
    token = f"{name_prefix}-{os.getpid()}-{secrets.token_hex(4)}"
    specs: Dict[str, ArraySpec] = {}
    blocks: List[shared_memory.SharedMemory] = []
    views: Dict[str, np.ndarray] = {}
    try:
        for key, array in arrays.items():
            name = f"{token}-{key}"
            block = shared_memory.SharedMemory(
                name=name, create=True, size=max(1, array.nbytes)
            )
            blocks.append(block)
            view = np.frombuffer(
                block.buf, dtype=array.dtype, count=array.size
            ).reshape(array.shape)
            if array.size:
                view[...] = array
            views[key] = view
            del view
            specs[key] = ArraySpec(
                name=name, shape=tuple(array.shape), dtype=str(array.dtype)
            )
        # Fingerprint the bytes actually placed in the segments — the
        # exact data workers will re-hash at attach — not the live
        # index, which a (mis-sequenced) concurrent mutation could have
        # moved on from between the copy and the stamp.
        fingerprint = state_digest(
            meta, views["vectors"], views["ids"], views["alive"]
        )
    except Exception:
        views.clear()
        gc.collect()
        for block in blocks:
            block.close()
            block.unlink()
        raise
    views.clear()
    manifest = SegmentManifest(
        meta=meta,
        arrays=specs,
        generation=generation,
        fingerprint=fingerprint,
    )
    return PublishedSegments(manifest=manifest, _blocks=blocks)


def attach_index(
    manifest: SegmentManifest,
) -> Tuple[FerexIndex, AttachedSegments]:
    """Map a published snapshot and rebuild a read-only replica.

    The replica's canonical arrays are zero-copy views over the shared
    blocks (read-only, enforced both by the numpy flag and the index's
    attached-replica guard).  Raises :class:`SegmentIntegrityError`
    when the attached bytes do not reproduce the published fingerprint.
    """
    attached = AttachedSegments(manifest=manifest)
    arrays: Dict[str, np.ndarray] = {}
    index: Optional[FerexIndex] = None
    try:
        for key, spec in manifest.arrays.items():
            block = shared_memory.SharedMemory(name=spec.name)
            attached._blocks.append(block)
            view = np.frombuffer(
                block.buf, dtype=np.dtype(spec.dtype), count=prod(spec.shape)
            ).reshape(spec.shape)
            view.flags.writeable = False
            arrays[key] = view
            del view
        # Verify the raw bytes *before* the backend rebuild: a torn or
        # corrupted segment must fail fast with the typed integrity
        # error, not feed garbage through minutes of deterministic
        # re-programming first (or crash inside it with an arbitrary
        # error).
        actual = state_digest(
            manifest.meta,
            arrays["vectors"],
            arrays["ids"],
            arrays["alive"],
        )
        if actual != manifest.fingerprint:
            raise SegmentIntegrityError(
                f"attached segments hash to {actual}, publisher "
                f"announced {manifest.fingerprint}; refusing to serve "
                "from a divergent snapshot"
            )
        index = FerexIndex.from_state(
            manifest.meta,
            arrays["vectors"],
            arrays["ids"],
            arrays["alive"],
            read_only=True,
        )
    except Exception:
        # Release every view over the blocks before unmapping, or the
        # mappings (buffers still exported) would outlive the error.
        index = None
        arrays.clear()
        gc.collect()
        attached.close()
        raise
    return index, attached
