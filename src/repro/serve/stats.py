"""The serving-layer stats surface.

:class:`ServerStats` is the one place the server records traffic:
request latencies (submit to result, cache hits included), dispatched
micro-batch sizes, and cache counters folded in at snapshot time.  The
latency summary shape is shared with the eval layer
(:func:`repro.eval.reporting.summarize_latencies`), so benchmark
artifacts and live snapshots diff against each other directly.

Like the query cache, stats are event-loop confined — every recording
call happens on the server's asyncio thread, so plain counters suffice.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from typing import Callable, Optional

from ..eval.reporting import format_table, summarize_latencies


def _json_int(value) -> int:
    """Coerce a counter-like value (incl. numpy integers) to plain int."""
    return int(value)


def _json_float(value) -> float:
    """Coerce a measurement (incl. numpy floats; None -> 0.0) to plain
    float."""
    return 0.0 if value is None else float(value)


class ServerStats:
    """Rolling serving metrics: qps, batch histogram, latency summary.

    Parameters
    ----------
    max_latency_samples:
        Latency ring-buffer depth; the percentile summary covers the
        most recent window of this many requests.
    clock:
        Monotonic time source (seconds); injectable for deterministic
        tests.
    """

    def __init__(
        self,
        max_latency_samples: int = 8192,
        clock: Optional[Callable[[], float]] = None,
    ):
        if max_latency_samples < 1:
            raise ValueError("max_latency_samples must be >= 1")
        self._clock = clock or time.perf_counter
        self._latencies = deque(maxlen=max_latency_samples)
        self.batch_sizes = Counter()
        self.n_requests = 0
        self.n_cache_hits = 0
        self.n_batches = 0
        self.n_errors = 0
        #: Micro-batch rows answered from the LRU at *dispatch* time
        #: (populated between this row's submit-time miss and its
        #: batch's flush), skipping the executor/pool hop.
        self.n_dispatch_cache_hits = 0
        #: Duplicate rows inside one micro-batch folded into a single
        #: backend computation.
        self.n_dispatch_deduped = 0
        #: Pool republishes completed by the write path.
        self.n_republishes = 0
        #: Online reconfigure operations served.
        self.n_reconfigures = 0
        #: Optional gauge probe returning the coalescer's pending-queue
        #: depth (a ``/metrics`` gauge); the server wires it up.
        self.queue_depth_probe: Optional[Callable[[], int]] = None
        #: Optional probe returning the query cache's snapshot dict
        #: (lifetime + windowed hit accounting); the server wires it up
        #: so ``/metrics`` and bench artifacts see cache behaviour per
        #: era.
        self.cache_probe: Optional[Callable[[], dict]] = None
        #: Extra named gauges folded into every snapshot (the server
        #: registers the coalescer EWMAs and deadline-drop count here).
        self._gauges: dict = {}
        self._started = self._clock()

    def register_gauge(
        self, name: str, probe: Callable[[], object]
    ) -> None:
        """Fold ``probe()`` into every :meth:`snapshot` under ``name``.

        The value is coerced to a plain int/float at snapshot time
        (``None`` reads as ``0.0``), preserving the snapshot's
        ``json.dumps``-without-encoders guarantee.
        """
        self._gauges[str(name)] = probe

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_request(
        self, latency_s: float, cache_hit: bool = False
    ) -> None:
        """One completed ``search`` call (hit or dispatched)."""
        self.n_requests += 1
        if cache_hit:
            self.n_cache_hits += 1
        self._latencies.append(float(latency_s))

    def record_batch(self, size: int) -> None:
        """One coalesced micro-batch handed to the index."""
        self.n_batches += 1
        self.batch_sizes[int(size)] += 1

    def record_error(self) -> None:
        """One request that completed with an exception."""
        self.n_errors += 1

    def record_dispatch_hits(self, n: int) -> None:
        """``n`` batch rows served from the cache at dispatch time."""
        self.n_dispatch_cache_hits += int(n)

    def record_dispatch_dedup(self, n: int) -> None:
        """``n`` duplicate batch rows folded into one computation."""
        self.n_dispatch_deduped += int(n)

    def record_republish(self) -> None:
        """One successful process-pool republish."""
        self.n_republishes += 1

    def record_reconfigure(self) -> None:
        """One completed online reconfigure."""
        self.n_reconfigures += 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def elapsed(self) -> float:
        """Seconds since construction (or the last :meth:`reset`)."""
        return max(self._clock() - self._started, 1e-12)

    @property
    def qps(self) -> float:
        """Completed requests per second over the whole window."""
        return self.n_requests / self.elapsed

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of requests answered from the query cache."""
        if self.n_requests == 0:
            return 0.0
        return self.n_cache_hits / self.n_requests

    @property
    def mean_batch_size(self) -> float:
        """Mean dispatched micro-batch size (0.0 before any dispatch)."""
        dispatched = sum(
            size * count for size, count in self.batch_sizes.items()
        )
        return dispatched / self.n_batches if self.n_batches else 0.0

    @property
    def coalescer_queue_depth(self) -> int:
        """Pending (parked, undispatched) requests right now — the
        backlog gauge ``/metrics`` reports (0 when no probe is
        wired)."""
        probe = self.queue_depth_probe
        return int(probe()) if probe is not None else 0

    def snapshot(self) -> dict:
        """One JSON-ready view of every counter, histogram and summary.

        Every value — counters, the histogram buckets, the queue-depth
        gauge, registered gauges, the latency summary — is a plain
        ``int``/``float``/``str``, so the ``/metrics`` endpoint and
        bench artifacts can ``json.dumps`` the snapshot without custom
        encoders, whatever (numpy-typed or ``None``) the recorders and
        probes supplied."""
        latency = {
            key: _json_int(value) if key == "count" else _json_float(value)
            for key, value in summarize_latencies(self._latencies).items()
        }
        snap = {
            "elapsed_s": _json_float(self.elapsed),
            "n_requests": _json_int(self.n_requests),
            "qps": _json_float(self.qps),
            "n_cache_hits": _json_int(self.n_cache_hits),
            "cache_hit_rate": _json_float(self.cache_hit_rate),
            "n_batches": _json_int(self.n_batches),
            "n_errors": _json_int(self.n_errors),
            "n_dispatch_cache_hits": _json_int(self.n_dispatch_cache_hits),
            "n_dispatch_deduped": _json_int(self.n_dispatch_deduped),
            "n_republishes": _json_int(self.n_republishes),
            "n_reconfigures": _json_int(self.n_reconfigures),
            "coalescer_queue_depth": _json_int(self.coalescer_queue_depth),
            "mean_batch_size": _json_float(self.mean_batch_size),
            "batch_size_histogram": {
                str(_json_int(size)): _json_int(count)
                for size, count in sorted(self.batch_sizes.items())
            },
            "latency": latency,
        }
        for name, probe in self._gauges.items():
            value = probe()
            snap[name] = (
                _json_int(value)
                if isinstance(value, int) and not isinstance(value, bool)
                else _json_float(value)
            )
        if self.cache_probe is not None:
            # The cache snapshot is JSON-safe by construction (plain
            # ints/floats).
            snap["cache"] = self.cache_probe()
        return snap

    def reset(self) -> None:
        """Zero every counter and restart the qps window."""
        self._latencies.clear()
        self.batch_sizes.clear()
        self.n_requests = 0
        self.n_cache_hits = 0
        self.n_batches = 0
        self.n_errors = 0
        self.n_dispatch_cache_hits = 0
        self.n_dispatch_deduped = 0
        self.n_republishes = 0
        self.n_reconfigures = 0
        self._started = self._clock()

    def format(self) -> str:
        """Human-readable one-screen summary (ASCII table)."""
        snap = self.snapshot()
        latency = snap["latency"]
        rows = [
            ["requests", f"{snap['n_requests']}"],
            ["qps", f"{snap['qps']:.1f}"],
            ["cache hit rate", f"{snap['cache_hit_rate']:.1%}"],
            ["batches", f"{snap['n_batches']}"],
            ["mean batch size", f"{snap['mean_batch_size']:.1f}"],
            ["p50 latency", f"{latency['p50'] * 1e3:.3f} ms"],
            ["p95 latency", f"{latency['p95'] * 1e3:.3f} ms"],
            ["errors", f"{snap['n_errors']}"],
        ]
        return format_table(
            ["metric", "value"], rows, title="FerexServer stats"
        )
