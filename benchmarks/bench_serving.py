"""Serving throughput: coalesced micro-batching and the multi-process
replica pool vs naive per-query dispatch.

The FeReX batch path amortises one array evaluation over many queries;
:class:`repro.serve.FerexServer` is what converts *concurrent traffic*
into those batches.  This bench measures end-to-end served queries/sec
at client concurrency 1 / 8 / 64 for three configurations:

* **naive** — per-query dispatch (``max_batch_size=1``): every request
  becomes its own one-query index search;
* **coalesced** — the coalescing server (its flush window adapts to
  the arrival rate: sparse traffic dispatches near-directly, bursts
  batch);
* **pool** — the coalescing server over a
  :class:`~repro.serve.ProcReplicaPool` (worker processes attached to
  shared-memory index segments), on a heavier per-query workload where
  real parallelism beyond the GIL pays.

Every workload is seeded explicitly (``SEED_*`` below) so the stored
set and query stream — and therefore every served answer — are
reproducible run-to-run in both quick and full profiles; only the
timings vary.  Everything persists to ``results/BENCH_serving.json``
so the serving trajectory is tracked across PRs alongside the batch
and sharding benches.

Headline assertions:

* at concurrency 64 the coalesced server serves >= 5x the naive
  per-query dispatch rate;
* the process pool serves >= 1.5x the single-process coalesced rate at
  concurrency 64 (enforced when >= 2 cores are available — on a
  single-core host the ratio is recorded but cannot be meaningful).

Runnable either under pytest or as a module::

    PYTHONPATH=src python -m benchmarks.bench_serving --quick
"""

import asyncio
import os
import time

import numpy as np

from repro.eval.reporting import format_table, summarize_latencies
from repro.index import FerexIndex
from repro.serve import FerexServer, ProcReplicaPool

from benchmarks._cli import bench_main, save_artifact, save_json_artifact

#: HDC-inference-shaped serving workload (16 class prototypes x 512-d
#: hypervectors, the classic associative-memory deployment): the fixed
#: per-call cost of a one-query array evaluation dominates, which is
#: precisely the cost coalescing amortises across concurrent callers.
ROWS = 16
DIMS = 512
BITS = 1
K = 3
MAX_BATCH = 64
MAX_WAIT_MS = 2.0
CONCURRENCY = (1, 8, 64)
#: Queries served per concurrency level (quick halves the heavy ones).
N_QUERIES = {1: 64, 8: 256, 64: 1024}
QUICK_N_QUERIES = {1: 32, 8: 128, 64: 512}
#: Queries timed for the serial (direct per-query) reference loop.
NAIVE_SAMPLE = 64
HEADLINE_CONCURRENCY = 64
MIN_SPEEDUP_AT_64 = 5.0

#: Pool workload: many stored rows so per-query work dominates the
#: per-call overhead — the regime where worker processes (instead of
#: one GIL-bound process) buy real throughput.
POOL_ROWS = 256
POOL_DIMS = 1024
POOL_WORKERS = 2
#: Per-worker batch cap: MAX_BATCH split across the workers keeps
#: every worker busy under a fixed closed-loop client count.
POOL_MAX_BATCH = MAX_BATCH // POOL_WORKERS
POOL_N_QUERIES = 512
POOL_QUICK_N_QUERIES = 256
MIN_POOL_SPEEDUP_AT_64 = 1.5

#: Explicit workload seeds: stored set, query stream, pool workload.
SEED_STORED = 31
SEED_QUERIES = 37
SEED_POOL_STORED = 41
SEED_POOL_QUERIES = 43


def _effective_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _deflake_gate(first, remeasure, prefer, passes, max_retries=2):
    """Shared de-flake policy for the timed gates: each compares a
    ratio of two sub-second series, so one noisy scheduler burst can
    fail a healthy configuration.  While ``passes(best)`` is false,
    re-measure (a fresh *paired* ratio each call) up to ``max_retries``
    times and keep the ``prefer``-red value.  The JSON artifacts always
    record the first, unretried measurement — only the gate uses the
    best."""
    best = first
    retries = 0
    while not passes(best) and retries < max_retries:
        best = prefer(best, remeasure())
        retries += 1
    return best


def _build_index(rows=ROWS, dims=DIMS, seed=SEED_STORED) -> FerexIndex:
    index = FerexIndex(dims=dims, metric="hamming", bits=BITS)
    rng = np.random.default_rng(seed)
    index.add(rng.integers(0, 1 << BITS, size=(rows, dims)))
    return index


def _make_queries(n, dims=DIMS, seed=SEED_QUERIES) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << BITS, size=(n, dims))


def _measure_serial_loop(index: FerexIndex, queries: np.ndarray) -> dict:
    """Reference line: a synchronous per-query loop, no serving stack.
    Records per-query latencies so served latency can be read against
    *direct* search latency, not just throughput."""
    index.search(queries[:1], k=K)  # warm the bias tables
    sample = queries[:NAIVE_SAMPLE]
    latencies = []
    t0 = time.perf_counter()
    for query in sample:
        q0 = time.perf_counter()
        index.search(query[None], k=K)
        latencies.append(time.perf_counter() - q0)
    elapsed = time.perf_counter() - t0
    summary = summarize_latencies(latencies)
    return {
        "n_queries_timed": len(sample),
        "qps": len(sample) / elapsed,
        "latency_p50_ms": summary["p50"] * 1e3,
        "latency_p95_ms": summary["p95"] * 1e3,
    }


def _measure_server(
    index: FerexIndex,
    queries: np.ndarray,
    concurrency: int,
    max_batch_size: int,
    pool: "ProcReplicaPool | None" = None,
) -> dict:
    """``concurrency`` client tasks drain a shared queue through one
    server (cache off: every request must hit the array).

    ``max_batch_size=1`` is the naive per-query dispatch baseline;
    ``MAX_BATCH`` is the coalescing configuration under test; ``pool``
    selects the pooled series.
    """

    async def client(server, stream, outcomes):
        while True:
            try:
                row, query = next(stream)
            except StopIteration:
                return
            outcomes[row] = await server.search(query, k=K)

    async def main():
        server = FerexServer(
            index if pool is None else None,
            max_batch_size=max_batch_size,
            max_wait_ms=MAX_WAIT_MS,
            cache_size=0,
            pool=pool,
        )
        async with server:
            await server.search(queries[0], k=K)  # warm-up
            server.stats.reset()
            stream = iter(enumerate(queries))
            outcomes = [None] * len(queries)
            t0 = time.perf_counter()
            await asyncio.gather(
                *(
                    client(server, stream, outcomes)
                    for _ in range(concurrency)
                )
            )
            elapsed = time.perf_counter() - t0
            snapshot = server.stats.snapshot()
        # The serving layer must not change a single answer — pooled or
        # not.
        direct = index.search(queries, k=K)
        ids = np.stack([o.ids for o in outcomes])
        distances = np.stack([o.distances for o in outcomes])
        assert np.array_equal(ids, direct.ids)
        assert np.array_equal(distances, direct.distances)
        return {
            "n_queries": len(queries),
            "qps": len(queries) / elapsed,
            "mean_batch_size": snapshot["mean_batch_size"],
            "n_batches": snapshot["n_batches"],
            "latency_p50_ms": snapshot["latency"]["p50"] * 1e3,
            "latency_p95_ms": snapshot["latency"]["p95"] * 1e3,
        }

    return asyncio.run(main())


def _measure_pool_series(quick: bool) -> dict:
    """Single-process coalesced vs process pool on the heavy workload,
    closed-loop at the headline concurrency."""
    n = POOL_QUICK_N_QUERIES if quick else POOL_N_QUERIES
    index = _build_index(
        rows=POOL_ROWS, dims=POOL_DIMS, seed=SEED_POOL_STORED
    )
    queries = _make_queries(n, dims=POOL_DIMS, seed=SEED_POOL_QUERIES)
    index.search(queries[:MAX_BATCH], k=K)  # warm the bias tables
    single = _measure_server(
        index,
        queries,
        HEADLINE_CONCURRENCY,
        max_batch_size=MAX_BATCH,
    )
    with ProcReplicaPool(index, n_workers=POOL_WORKERS) as pool:
        # Warm every worker with a full-size batch: the first big
        # search in a fresh process pays one-off allocator/page costs
        # that belong to startup, not to steady-state throughput.
        for _ in range(2 * POOL_WORKERS):
            pool.search(queries[:POOL_MAX_BATCH], k=K)
        pooled = _measure_server(
            index,
            queries,
            HEADLINE_CONCURRENCY,
            max_batch_size=POOL_MAX_BATCH,
            pool=pool,
        )
        def _pool_ratio():
            retry_single = _measure_server(
                index,
                queries,
                HEADLINE_CONCURRENCY,
                max_batch_size=MAX_BATCH,
            )
            retry_pooled = _measure_server(
                index,
                queries,
                HEADLINE_CONCURRENCY,
                max_batch_size=POOL_MAX_BATCH,
                pool=pool,
            )
            return retry_pooled["qps"] / retry_single["qps"]

        best_speedup = _deflake_gate(
            pooled["qps"] / single["qps"],
            _pool_ratio,
            prefer=max,
            # Retry only where the gate is enforced: a 1-core host
            # cannot hit the floor however often it re-measures.
            passes=lambda value: (
                _effective_cores() < 2
                or value >= MIN_POOL_SPEEDUP_AT_64
            ),
        )
        pool_snapshot = pool.snapshot()
    return {
        "workload": {
            "rows": POOL_ROWS,
            "dims": POOL_DIMS,
            "bits": BITS,
            "k": K,
            "n_workers": POOL_WORKERS,
            "pool_max_batch_size": POOL_MAX_BATCH,
            "concurrency": HEADLINE_CONCURRENCY,
        },
        "single_process": single,
        "pool": pooled,
        "pool_state": pool_snapshot,
        "speedup_vs_single_process": pooled["qps"] / single["qps"],
        "best_speedup_vs_single_process": best_speedup,
        "effective_cores": _effective_cores(),
    }


def run(quick=False):
    """Bench body shared by the pytest and ``python -m`` entry points."""
    sizes = QUICK_N_QUERIES if quick else N_QUERIES
    index = _build_index()
    all_queries = _make_queries(max(sizes.values()))

    serial_loop = _measure_serial_loop(index, all_queries)
    results = {}
    for concurrency in CONCURRENCY:
        queries = all_queries[: sizes[concurrency]]
        naive = _measure_server(
            index, queries, concurrency, max_batch_size=1
        )
        coalesced = _measure_server(
            index, queries, concurrency, max_batch_size=MAX_BATCH
        )
        results[f"concurrency_{concurrency}"] = {
            "concurrency": concurrency,
            "naive": naive,
            "coalesced": coalesced,
            "speedup_vs_naive": coalesced["qps"] / naive["qps"],
        }

    pool_series = _measure_pool_series(quick)

    rows_out = [
        [
            f"{r['concurrency']}",
            f"{r['coalesced']['n_queries']}",
            f"{r['naive']['qps']:.0f}",
            f"{r['coalesced']['qps']:.0f}",
            f"{r['coalesced']['mean_batch_size']:.1f}",
            f"{r['coalesced']['latency_p50_ms']:.2f}",
            f"{r['speedup_vs_naive']:.1f}x",
        ]
        for r in results.values()
    ]
    text = format_table(
        [
            "Clients",
            "Queries",
            "Naive q/s",
            "Coalesced q/s",
            "Mean batch",
            "Coalesced p50 ms",
            "Speedup",
        ],
        rows_out,
        title=(
            f"FerexServer: coalesced vs naive dispatch "
            f"({ROWS}x{DIMS}, k={K}, serial loop "
            f"{serial_loop['qps']:.0f} q/s, p50 "
            f"{serial_loop['latency_p50_ms']:.2f} ms) | pool "
            f"({POOL_ROWS}x{POOL_DIMS}, {POOL_WORKERS} workers): "
            f"{pool_series['pool']['qps']:.0f} q/s = "
            f"{pool_series['speedup_vs_single_process']:.2f}x "
            f"single-process"
        ),
    )
    save_artifact("serving", text)

    save_json_artifact(
        "BENCH_serving",
        {
            "workload": {
                "rows": ROWS,
                "dims": DIMS,
                "bits": BITS,
                "k": K,
                "max_batch_size": MAX_BATCH,
                "max_wait_ms": MAX_WAIT_MS,
                "quick": quick,
            },
            "seeds": {
                "stored": SEED_STORED,
                "queries": SEED_QUERIES,
                "pool_stored": SEED_POOL_STORED,
                "pool_queries": SEED_POOL_QUERIES,
            },
            "serial_loop": serial_loop,
            "results": results,
            "pool_series": pool_series,
        },
    )

    headline = results[f"concurrency_{HEADLINE_CONCURRENCY}"]
    headline_queries = all_queries[: sizes[HEADLINE_CONCURRENCY]]

    def _headline_ratio():
        retry_naive = _measure_server(
            index, headline_queries, HEADLINE_CONCURRENCY, max_batch_size=1
        )
        retry_coalesced = _measure_server(
            index,
            headline_queries,
            HEADLINE_CONCURRENCY,
            max_batch_size=MAX_BATCH,
        )
        return retry_coalesced["qps"] / retry_naive["qps"]

    speedup = _deflake_gate(
        headline["speedup_vs_naive"],
        _headline_ratio,
        prefer=max,
        passes=lambda value: value >= MIN_SPEEDUP_AT_64,
    )
    assert speedup >= MIN_SPEEDUP_AT_64, (
        f"coalesced serving only {speedup:.1f}x naive dispatch at "
        f"concurrency {HEADLINE_CONCURRENCY}; regression below the "
        f"{MIN_SPEEDUP_AT_64:.0f}x floor"
    )
    # Coalescing must actually coalesce under concurrent load (the
    # adaptive window may shrink, batching must not).
    assert headline["coalesced"]["mean_batch_size"] > 1.5

    # The process pool must beat one GIL-bound process where there are
    # cores to do it with (the CI runner has 2; a 1-core host can only
    # record the series).
    pool_speedup = pool_series["best_speedup_vs_single_process"]
    if pool_series["effective_cores"] >= 2:
        assert pool_speedup >= MIN_POOL_SPEEDUP_AT_64, (
            f"process pool only {pool_speedup:.2f}x single-process "
            f"coalesced throughput at concurrency "
            f"{HEADLINE_CONCURRENCY}; floor is "
            f"{MIN_POOL_SPEEDUP_AT_64:.1f}x"
        )
    else:
        print(
            f"[bench_serving] single core available; pool floor "
            f"({MIN_POOL_SPEEDUP_AT_64:.1f}x) not enforced, measured "
            f"{pool_speedup:.2f}x"
        )

    return results


def test_serving_throughput():
    run()


if __name__ == "__main__":
    bench_main(run, "Serving throughput: coalesced vs naive dispatch")
