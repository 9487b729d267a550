"""Frozen constants: workload sizes, metric catalogue, provenance.

Everything a later change could be tempted to tune lives here and is
hashed into every result (``constants_sha256``), so two results are
comparable exactly when their hashes match.  ``BENCHMARK.json`` at the
repo root is :func:`manifest` written out; the smoke test keeps the two
in step.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import platform
import subprocess
import time

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent.parent
OUT_DIR = HERE / "out"

#: Measured window per run (the contract's ``run_seconds``).
RUN_SECONDS = 10
DEFAULT_SEED = 11
#: Set-up is repeated in fresh subprocesses and the median reported.
SETUP_REPEATS = 3
#: Hard wall-clock cap per child process.
CHILD_TIMEOUT_S = 150
#: Share of a traced run spent untraced first, as the reference the
#: tracing overhead is measured against.
TRACE_REFERENCE_SHARE = 0.3
K = 10

WORKLOADS = {
    "flat_scan": {
        "why": (
            "offline FerexIndex.search, Hamming 1-bit 8192x512 (8 banks), "
            "batches of 32: >=95% kernel gather + crossbar select, so "
            "kernel and one-pipeline changes show here, not in serving"
        ),
        "sizes": {
            "metric": "hamming", "bits": 1, "rows": 8192, "dims": 512,
            "batch": 32, "stream_batches": 64, "verify_queries": 32,
        },
        "smoke": {"rows": 1536, "dims": 64, "stream_batches": 8},
    },
    "routed_churn": {
        "why": (
            "offline routed search, Manhattan 2-bit 100k x 32, 66 "
            "clusters top_p 16, recall<1; then 16-row swaps between "
            "reads: routing, multi-bit codes, write cost beside reads"
        ),
        "sizes": {
            "metric": "manhattan", "bits": 2, "rows": 100_000,
            "dims": 32, "data_centers": 256, "n_clusters": 66,
            "top_p": 16, "routing_seed": 83, "batch": 32,
            "stream_batches": 64, "verify_queries": 64,
            "steady_share": 0.6, "churn_rows": 16, "writes_per_cycle": 3,
            "reads_per_cycle": 2, "primer_rows": 4096,
        },
        "smoke": {
            "rows": 6000, "data_centers": 32, "n_clusters": 8,
            "top_p": 4, "stream_batches": 8, "verify_queries": 32,
            "primer_rows": 256,
        },
    },
    "serve_zipf": {
        "why": (
            "in-process FerexServer, 64 closed-loop callers, Zipf 1.1 "
            "over 8192 queries (8x the cache), an add every 8192 "
            "requests: cache, coalescer, router, server; kernel is small"
        ),
        "sizes": {
            "metric": "hamming", "bits": 1, "rows": 1024, "dims": 512,
            "callers": 64, "universe": 8192, "zipf_s": 1.1,
            "stream_len": 1 << 18, "add_every": 8192, "add_rows": 8,
            "verify_queries": 64,
        },
        "smoke": {
            "rows": 256, "dims": 64, "callers": 16, "universe": 2048,
            "stream_len": 1 << 14, "add_every": 1024,
        },
    },
    "wire_mixed": {
        "why": (
            "HTTP front-end over a 1-worker process pool, open loop at "
            "80 req/s on 2 connections, 75% JSON single / 25% "
            "binary batch-32, cold cache; then adds: parse to encode"
        ),
        "sizes": {
            "metric": "hamming", "bits": 1, "rows": 1024, "dims": 256,
            "rate_per_s": 80, "batch_every": 4, "batch_rows": 32,
            "steady_share": 0.4, "add_every": 40, "add_rows": 8,
            "max_pending": 1024, "n_workers": 1, "verify_queries": 64,
        },
        "smoke": {"rows": 256, "dims": 64, "add_every": 10},
    },
}

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may worsen.  Two of the ten metrics the
#: benchmark was asked for are not here.  ``failed_share`` must stay 0
#: and so cannot be a ratio-bounded metric: it is carried by the
#: contract's ``failed`` / ``attempted`` / ``correct`` fields and by the
#: layer metric ``loadgen.failed_share``.  ``write_latency_p50_ms`` did
#: not repeat (a write is one O(index) array copy, whose cost flips
#: between page-fault regimes from process to process: A/A runs differ
#: by 60 %) and ``flat_scan`` has no writes; it is the unbounded layer
#: metric ``loadgen.write_latency_p50_ms``.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("qps", "rows/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p95_ms", "ms", "lower", 0.25),
    ("recall_at_10", "share", "higher", 0.05),
    ("bytes_per_query", "bytes", "lower", 0.05),
    ("cpu_s_per_kquery", "s/kquery", "lower", 0.25),
    ("rss_peak_mb", "MiB", "lower", 0.15),
)

#: (name, unit, better).  From the traced pass unless the README marks
#: them *counter* or *computed*.  A layer a workload never enters
#: reads 0.
PER_LAYER = (
    ("core.kernel.self_us_per_query", "us", "lower"),
    ("core.kernel.compile_us_per_query", "us", "lower"),
    ("core.kernel.calls_per_query", "count", "lower"),
    ("core.kernel.cells_per_query", "count", "lower"),
    ("core.kernel.bytes_per_query", "bytes", "lower"),
    ("core.kernel.gbytes_per_s", "GB/s", "higher"),
    ("arch.crossbar.self_us_per_query", "us", "lower"),
    ("arch.crossbar.bank_evals_per_query", "count", "lower"),
    ("arch.crossbar.kernel_bank_share", "share", "higher"),
    ("index.backends.self_us_per_query", "us", "lower"),
    ("index.backends.rows_scanned_per_query", "rows", "lower"),
    ("index.routing.self_us_per_query", "us", "lower"),
    ("index.routing.scan_fraction", "share", "lower"),
    ("index.routing.probed_clusters_per_query", "count", "lower"),
    ("index.routing.expanded_query_share", "share", "lower"),
    ("index.routing.train_s", "s", "lower"),
    ("index.routing.compactions", "count", "lower"),
    ("index.index.self_us_per_query", "us", "lower"),
    ("index.index.add_us_per_row", "us", "lower"),
    ("index.index.remove_us_per_row", "us", "lower"),
    ("index.index.build_s", "s", "lower"),
    ("serve.cache.hit_rate", "share", "higher"),
    ("serve.cache.window_hit_rate", "share", "higher"),
    ("serve.cache.evictions", "count", "lower"),
    ("serve.cache.self_us_per_request", "us", "lower"),
    ("serve.coalescer.mean_batch_size", "rows", "higher"),
    ("serve.coalescer.n_batches", "count", "lower"),
    ("serve.coalescer.park_us_p50", "us", "lower"),
    ("serve.coalescer.self_us_per_request", "us", "lower"),
    ("serve.router.self_us_per_batch", "us", "lower"),
    ("serve.router.write_us_p50", "us", "lower"),
    ("serve.server.self_us_per_request", "us", "lower"),
    ("serve.server.write_us_p50", "us", "lower"),
    ("serve.procpool.roundtrip_us_per_batch", "us", "lower"),
    ("serve.procpool.overhead_us_per_batch", "us", "lower"),
    ("serve.procpool.republish_ms_p50", "ms", "lower"),
    ("serve.procpool.slab_dispatch_share", "share", "higher"),
    ("serve.procpool.respawns", "count", "lower"),
    ("serve.procpool.copied_bytes_per_query", "bytes", "lower"),
    ("serve.shm.publish_ms_p50", "ms", "lower"),
    ("serve.shm.segment_bytes", "bytes", "lower"),
    ("serve.net.protocol.parse_us_per_request", "us", "lower"),
    ("serve.net.protocol.encode_us_per_request", "us", "lower"),
    ("serve.net.protocol.bytes_in_per_query", "bytes", "lower"),
    ("serve.net.protocol.bytes_out_per_query", "bytes", "lower"),
    ("serve.net.admission.self_us_per_request", "us", "lower"),
    ("serve.net.admission.peak_pending", "rows", "lower"),
    ("serve.net.admission.shed_share", "share", "lower"),
    ("serve.net.frontend.residual_us_per_request", "us", "lower"),
    ("serve.net.frontend.non200", "count", "lower"),
    ("loadgen.sched_lag_p99_ms", "ms", "lower"),
    ("loadgen.client_us_per_request", "us", "lower"),
    ("loadgen.latency_p99_ms", "ms", "lower"),
    ("loadgen.read_p95_under_writes_ms", "ms", "lower"),
    ("loadgen.write_latency_p50_ms", "ms", "lower"),
    ("loadgen.read_samples", "count", "higher"),
    ("loadgen.write_samples", "count", "higher"),
    ("loadgen.failed_share", "share", "lower"),
    ("loadgen.trace_overhead_share", "share", "lower"),
    ("loadgen.trace_coverage", "share", "higher"),
    ("loadgen.missing_trace_targets", "count", "lower"),
)


def sizes(workload: str, scale: str = "full") -> dict:
    """The frozen sizes of one workload (``smoke`` overlays the small
    sizes the tier-1 test uses)."""
    entry = WORKLOADS[workload]
    merged = dict(entry["sizes"])
    if scale == "smoke":
        merged.update(entry["smoke"])
    elif scale != "full":
        raise ValueError(f"unknown scale {scale!r}")
    return merged


def manifest() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "benchmarks.e2e"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": entry["why"]}
            for name, entry in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


def _utc() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def constants_sha256() -> str:
    """Digest of everything that defines what is measured."""
    frozen = {
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "k": K,
        "trace_reference_share": TRACE_REFERENCE_SHARE,
    }
    return _sha256(json.dumps(frozen, sort_keys=True).encode())


def _git_sha() -> str:
    """The checkout's commit, or ``unversioned`` (the driver's checkout
    is not a git repository)."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, text=True,
            capture_output=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unversioned"
    return done.stdout.strip() if done.returncode == 0 else "unversioned"


def provenance(seed: int) -> dict:
    """Who/where/what produced a result (certificate idiom)."""
    import numpy

    return {
        "git_sha": _git_sha(),
        "seed": int(seed),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "utc": _utc(),
        "constants_sha256": constants_sha256(),
    }
