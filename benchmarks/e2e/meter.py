"""The measuring side of the load generator: one :class:`Meter` per
window, process CPU / RSS readers, percentiles.

A window is fixed-time over a cycling stream, but workloads whose cost
is periodic (a write every N reads, a cache flushed every N requests)
call :meth:`Meter.mark` at each period boundary and the result is read
at the *last mark*: a window that ends mid-period would otherwise swing
throughput by where the cut fell, not by what the code does.
"""

from __future__ import annotations

import math
import os
import pathlib
import statistics
import time

_TICK = os.sysconf("SC_CLK_TCK")
_PROC = pathlib.Path("/proc")


def cpu_seconds(worker_pids=()) -> float:
    """user+sys CPU of this process (all threads) plus ``worker_pids``
    (``/proc/<pid>/stat`` fields 14 and 15)."""
    total = time.process_time()
    for pid in worker_pids:
        try:
            stat = (_PROC / str(pid) / "stat").read_text()
        except OSError:
            continue  # the worker exited; its CPU is gone with it
        fields = stat.rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / _TICK
    return total


def rss_peak_mib(worker_pids=()) -> float:
    """Summed peak resident set (``VmHWM``) of this process and
    ``worker_pids``."""
    total_kib = 0
    for pid in (os.getpid(), *worker_pids):
        try:
            status = (_PROC / str(pid) / "status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kib += int(line.split()[1])
    return total_kib / 1024.0


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile (no interpolation: a reported latency is
    one that happened); 0.0 for an empty sample."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


#: Consecutive blocks the read latencies are cut into (odd, so that one
#: stall, which can straddle two blocks, never reaches the median).
_BLOCKS = 5


def steady_percentile(samples, q: float) -> float:
    """Median over ``_BLOCKS`` consecutive equal-count blocks of each
    block's percentile.

    On a shared machine a single stall of a few hundred ms delays every
    request due during it; in a short open-loop phase that is more than
    5 % of the samples, and the whole-window p95 then reports the
    neighbour, not the code.  The stall spoils one or two blocks; the
    median of five does not move.
    """
    if len(samples) < _BLOCKS:
        return percentile(samples, q)
    size = len(samples) / _BLOCKS
    return statistics.median(
        percentile(samples[round(i * size) : round((i + 1) * size)], q)
        for i in range(_BLOCKS)
    )


class Meter:
    """Collects one window's operations.

    ``read(latency_s, rows)`` / ``write(latency_s)`` record completed
    operations, ``fail()`` a failed, refused, timed-out or wrongly
    answered one; ``mark()`` closes a period.  Open-loop workloads also
    record how late each send ran (``lag``).
    """

    def __init__(self, worker_pids=()):
        self._pids = tuple(worker_pids)
        self.reads = []  # latency_s per read call / request
        self.reads_under_writes = []
        self.writes = []
        self.lags = []
        self.rows = 0
        self.failed = 0
        self.attempted = 0
        self._mark = None
        self.t_open = time.perf_counter()
        self._cpu_open = cpu_seconds(self._pids)

    def read(self, latency_s: float, rows: int) -> None:
        self.attempted += 1
        self.rows += rows
        self.reads.append(latency_s)

    def read_under_writes(self, latency_s: float, rows: int) -> None:
        """A read of the write phase: counts for throughput, but its
        latency is kept apart (writes stall reads by design)."""
        self.attempted += 1
        self.rows += rows
        self.reads_under_writes.append(latency_s)

    def write(self, latency_s: float) -> None:
        self.attempted += 1
        self.writes.append(latency_s)

    def fail(self, n: int = 1) -> None:
        self.attempted += n
        self.failed += n

    def mark(self) -> None:
        self._mark = (
            time.perf_counter(), self.rows, len(self.reads),
            cpu_seconds(self._pids),
        )

    @property
    def t_close(self) -> float:
        """End of the measured interval (the last mark)."""
        return self._mark[0]

    def summary(self) -> dict:
        """Window statistics up to the last mark."""
        if self._mark is None:
            self.mark()
        t_close, rows, n_reads, cpu = self._mark
        elapsed = t_close - self.t_open
        reads = self.reads[:n_reads]
        writes = self.writes
        return {
            "elapsed_s": elapsed,
            "rows": rows,
            "read_samples": len(reads),
            "write_samples": len(writes),
            "under_write_samples": len(self.reads_under_writes),
            "qps": rows / elapsed,
            "latency_p50_ms": steady_percentile(reads, 50) * 1e3,
            "latency_p95_ms": steady_percentile(reads, 95) * 1e3,
            "latency_p99_ms": percentile(reads, 99) * 1e3,
            "write_latency_p50_ms": percentile(writes, 50) * 1e3,
            "read_p95_under_writes_ms": (
                percentile(self.reads_under_writes, 95) * 1e3
            ),
            "sched_lag_p99_ms": percentile(self.lags, 99) * 1e3,
            "cpu_s": cpu - self._cpu_open,
            "cpu_s_per_kquery": (
                (cpu - self._cpu_open) / max(rows, 1) * 1e3
            ),
            "attempted": self.attempted,
            "failed": self.failed,
        }
