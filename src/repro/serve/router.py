"""The single-writer / many-reader gate in front of one index.

A :class:`FerexServer` fronts exactly one :class:`repro.index.FerexIndex`
(read parallelism beyond the GIL comes from
:class:`~repro.serve.procpool.ProcReplicaPool`, not from in-process
copies).  :class:`ReplicaRouter` orders the traffic on it:

* **reads** take a reader slot and run concurrently;
* **writes** serialise behind a lock, stop admitting new reads, wait
  for the in-flight ones to drain, and only then mutate — so every read
  sees the index entirely before or entirely after any write.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Callable

from ..index import FerexIndex


class ReplicaRouter:
    """Admits concurrent reads and exclusive writes on one index."""

    def __init__(self, index: FerexIndex):
        self.index = index
        self._write_lock = asyncio.Lock()
        self._writer_active = False
        self._readers = 0
        self._no_readers = asyncio.Event()
        self._no_readers.set()
        self._read_admitted = asyncio.Event()
        self._read_admitted.set()

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    async def acquire_read(self) -> FerexIndex:
        """Admit one read and return the index; the caller must pair it
        with :meth:`release_read`.  Split out from :meth:`read` so the
        serving hot path skips the async context manager machinery."""
        while self._writer_active:
            await self._read_admitted.wait()
        self._readers += 1
        self._no_readers.clear()
        return self.index

    def release_read(self) -> None:
        """Return a reader slot taken by :meth:`acquire_read`."""
        self._readers -= 1
        if self._readers == 0:
            self._no_readers.set()

    @contextlib.asynccontextmanager
    async def read(self):
        """Admit one read: yields the index while holding a reader slot
        (writers wait for all slots to clear)."""
        index = await self.acquire_read()
        try:
            yield index
        finally:
            self.release_read()

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    async def write(self, mutate: Callable[[FerexIndex], object]):
        """Apply ``mutate`` to the index under the single-writer lock
        and return its result.

        The mutation runs on a worker thread (array re-programming can
        take a while at scale), so the event loop keeps serving cache
        hits and timer flushes; exclusion comes from the writer flag and
        the drained reader count, not from blocking the loop.

        The write is cancellation-atomic: a caller timing out mid-write
        (e.g. ``asyncio.wait_for``) still waits for the mutation to
        finish before reads are re-admitted, so no read ever sees a
        half-applied write.
        """
        loop = asyncio.get_running_loop()
        async with self._write_lock:
            self._writer_active = True
            self._read_admitted.clear()
            try:
                await self._no_readers.wait()
                done = loop.run_in_executor(None, mutate, self.index)
                try:
                    return await asyncio.shield(done)
                except asyncio.CancelledError:
                    # The caller gave up, but the mutation is still
                    # running: wait it out (and consume its outcome)
                    # before propagating.
                    await asyncio.wait([done])
                    if not done.cancelled():
                        done.exception()
                    raise
            finally:
                self._writer_active = False
                self._read_admitted.set()
