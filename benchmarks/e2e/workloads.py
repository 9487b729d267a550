"""The four workloads.

Each is a class with the same five coroutines, driven by
:mod:`benchmarks.e2e.harness`::

    await w.setup()                 # build, program, connect, warm up
    check = await w.verify()        # oracle on a fixed sample
    meter = await w.window(seconds) # the measured window
    w.counters()                    # cumulative public counters
    await w.close()

Stable-surface rule: objects are built with default arguments plus the
sizes frozen in :mod:`benchmarks.e2e.spec` only — never ``transport=``,
``cache_policy=``, ``adaptive_wait=``, ``mode=`` or a legacy positional
constructor — because later changes may delete those knobs and may not
edit this benchmark.  The program under test only ever sees generated
arrays and bytes; the seed stays on this side.
"""

from __future__ import annotations

import asyncio
import json
import os
from collections import deque
from time import perf_counter

import numpy as np

from .meter import Meter
from .spec import RUN_SECONDS, K
from .tracer import REQUEST_ID

#: Elements of one ``pairwise`` temporary (queries x rows x dims).
_ORACLE_CHUNK = 1 << 22
_DEAD = np.iinfo(np.int64).max


def exact_recall(metric, bits, queries, store, alive, ids, k=K) -> float:
    """Tie-tolerant recall@k against exact integer distances.

    ``store[i]`` is the vector with id ``i`` and ``alive[i]`` whether it
    is live.  A returned id counts when its true distance is within the
    true k-th nearest live distance; padding (``-1``), unknown and dead
    ids count as misses.
    """
    n, dims = queries.shape
    table = np.empty((n, len(store)), dtype=np.int64)
    step = max(1, _ORACLE_CHUNK // (n * dims))
    for lo in range(0, len(store), step):
        table[:, lo : lo + step] = metric.pairwise(
            queries, store[lo : lo + step], bits
        )
    table[:, ~alive] = _DEAD
    kth = np.partition(table, k - 1, axis=1)[:, k - 1 : k]
    valid = (ids >= 0) & (ids < len(store))
    returned = np.take_along_axis(table, np.where(valid, ids, 0), axis=1)
    return float(((returned <= kth) & valid).mean())


def scan_bytes_per_query(index) -> tuple:
    """(code bytes one query's flat scan gathers, kernel bank share).

    Computed, not measured: every bank's compiled code table is read
    once per query row (rows x cells x code itemsize).  A bank on the
    float fallback has no code table and adds nothing — the share makes
    that visible.
    """
    engines = index.backend.engines
    kernels = [engine.quantized_kernel() for engine in engines]
    gathered = sum(k.codes.nbytes for k in kernels if k is not None)
    compiled = sum(k is not None for k in kernels)
    return gathered, compiled / max(1, len(engines))


def code_itemsize(metric: str, bits: int, dims: int) -> int:
    """Code-table itemsize for a configuration, read through the public
    surface of a throwaway one-bank index (the routed backend does not
    expose its cluster banks)."""
    from repro.index import FerexIndex

    probe = FerexIndex(dims=dims, metric=metric, bits=bits)
    probe.add(np.zeros((2, dims), dtype=int))
    kernel = probe.backend.engines[0].quantized_kernel()
    return 0 if kernel is None else kernel.codes.itemsize


class Workload:
    """Shared plumbing: sizes, rng, the verification verdict."""

    name = ""

    def __init__(self, sizes: dict, seed: int):
        self.sizes = sizes
        self.rng = np.random.default_rng(seed)
        self.worker_pids = ()
        #: bytes_per_query as computed on the verification sample.
        self.bytes_per_query = 0.0

    def _draw(self, shape) -> np.ndarray:
        return self.rng.integers(0, 1 << self.sizes["bits"], size=shape)

    def _metric(self):
        from repro.core.distance import get_metric

        return get_metric(self.sizes["metric"])

    def counters(self) -> dict:
        """Cumulative public counters, differenced over the window;
        a ``gauge.<layer metric>`` key is read as it stands."""
        return {}

    def bytes_moved(self, counted: dict, stats: dict) -> float:
        """``bytes_per_query`` — computed, not measured: stored-code
        bytes the scans gather plus payload bytes that cross a process
        or wire boundary, per query row."""
        return self.bytes_per_query

    def replay_us_per_batch(self, sizes) -> float:
        """Mean time of batches of ``sizes`` rows through direct
        ``index.search`` in this process (0 without a pool)."""
        return 0.0

    async def close(self) -> None:
        return None


class FlatScan(Workload):
    """Offline ``FerexIndex.search`` on the default backend."""

    name = "flat_scan"

    async def setup(self) -> None:
        from repro.index import FerexIndex

        s = self.sizes
        self.store = self._draw((s["rows"], s["dims"]))
        self.alive = np.ones(s["rows"], dtype=bool)
        self.stream = self._draw(
            (s["stream_batches"], s["batch"], s["dims"])
        )
        self.cursor = 0
        self.index = FerexIndex(
            dims=s["dims"], metric=s["metric"], bits=s["bits"]
        )
        self.index.add(self.store)
        # Warm-up: the first search compiles every bank's kernel.
        self.index.search(self.stream[0], k=K)

    async def verify(self) -> dict:
        s = self.sizes
        queries = self.stream.reshape(-1, s["dims"])[: s["verify_queries"]]
        found = self.index.search(queries, k=K)
        gathered, _ = scan_bytes_per_query(self.index)
        self.bytes_per_query = float(gathered)
        recall = exact_recall(
            self._metric(), s["bits"], queries, self.store, self.alive,
            found.ids,
        )
        return {"recall_at_10": recall, "wrong": int(recall < 1.0)}

    async def window(self, seconds: float) -> Meter:
        index, stream = self.index, self.stream
        meter = Meter()
        deadline = meter.t_open + seconds
        while perf_counter() < deadline:
            batch = stream[self.cursor % len(stream)]
            self.cursor += 1
            began = perf_counter()
            found = index.search(batch, k=K)
            took = perf_counter() - began
            if found.ids.shape == (len(batch), K):
                meter.read(took, len(batch))
            else:
                meter.fail()
            meter.mark()
        return meter

    def counters(self) -> dict:
        _, share = scan_bytes_per_query(self.index)
        return {
            "scanned_rows": (
                self.cursor * self.sizes["batch"] * len(self.store)
            ),
            "gauge.arch.crossbar.kernel_bank_share": share,
        }


#: ``last_routing`` fields summed over a window (the last is derived).
_ROUTING_KEYS = (
    "rows_scanned", "rows_live", "n_queries", "expanded_queries",
    "probed_clusters",
)


class RoutedChurn(Workload):
    """Offline routed search with steady add/remove churn."""

    name = "routed_churn"

    def _near(self, centers: np.ndarray) -> np.ndarray:
        hi = (1 << self.sizes["bits"]) - 1
        noise = self.rng.integers(-1, 2, size=centers.shape)
        return np.clip(centers + noise, 0, hi)

    async def setup(self) -> None:
        from repro.index import FerexIndex

        s = self.sizes
        n_centers, dims = s["data_centers"], s["dims"]
        centers = self._draw((n_centers, dims))

        def clustered(n):
            return self._near(centers[self.rng.integers(0, n_centers, n)])

        stored = clustered(s["rows"])
        self.stream = clustered(s["stream_batches"] * s["batch"]).reshape(
            s["stream_batches"], s["batch"], dims
        )
        self.fresh = clustered(256 * s["churn_rows"]).reshape(
            256, s["churn_rows"], dims
        )
        self.cursor = 0
        self.writes = 0
        self.scanned_rows = 0
        self.routing_sum = dict.fromkeys(_ROUTING_KEYS, 0)
        self.index = FerexIndex(
            dims=dims, metric=s["metric"], bits=s["bits"],
            backend="routed",
            backend_options={
                "n_clusters": s["n_clusters"],
                "top_p": s["top_p"],
                "routing_seed": s["routing_seed"],
            },
        )
        self.live = deque(int(i) for i in self.index.add(stored))
        # The bulk load sizes every cluster bank exactly, so the first
        # row appended to a cluster re-allocates (doubles) its bank.
        # A primer block, added and removed again, pays that one-off
        # growth here rather than in the first writes of the window.
        primer = clustered(s["primer_rows"])
        self.index.remove(self.index.add(primer))
        self.store = [stored, primer]
        self.alive = np.concatenate([
            np.ones(len(stored), dtype=bool),
            np.zeros(len(primer), dtype=bool),
        ])
        self.itemsize = code_itemsize(s["metric"], s["bits"], dims)
        # Warm-up: queries at the data centres reach every cluster, so
        # each cluster bank's kernel is compiled before the window.
        for lo in range(0, n_centers, s["batch"]):
            self.index.search(centers[lo : lo + s["batch"]], k=K)

    def _routing(self) -> dict:
        return self.index.last_routing

    async def verify(self) -> dict:
        s = self.sizes
        queries = self.stream.reshape(-1, s["dims"])[: s["verify_queries"]]
        found = self.index.search(queries, k=K)
        routing = self._routing()
        # Stored codes gathered in the probed clusters plus the
        # centroid pass, per query row.
        self.bytes_per_query = (
            routing["rows_scanned"] / routing["n_queries"]
            + routing["n_clusters"]
        ) * s["dims"] * self.itemsize
        recall = exact_recall(
            self._metric(), s["bits"], queries,
            np.concatenate(self.store), self.alive, found.ids,
        )
        # Approximate by design: wrong means "not what routing
        # promises" — a dead or padded id, or recall far off.
        dead = (found.ids < 0) | ~self.alive[np.maximum(found.ids, 0)]
        return {
            "recall_at_10": recall,
            "wrong": int(dead.any() or recall < 0.9),
        }

    def _read(self, record) -> None:
        batch = self.stream[self.cursor % len(self.stream)]
        self.cursor += 1
        began = perf_counter()
        found = self.index.search(batch, k=K)
        took = perf_counter() - began
        if found.ids.shape == (len(batch), K):
            record(took, len(batch))
        else:
            self.meter.fail()
        routing = self._routing()
        for key in _ROUTING_KEYS[:-1]:
            self.routing_sum[key] += routing[key]
        self.scanned_rows += routing["rows_scanned"]
        self.routing_sum["probed_clusters"] += (
            routing["probed_clusters_mean"] * routing["n_queries"]
        )

    def _write(self) -> None:
        fresh = self.fresh[self.writes % len(self.fresh)]
        self.writes += 1
        oldest = [self.live.popleft() for _ in range(len(fresh))]
        began = perf_counter()
        self.index.remove(oldest)
        ids = self.index.add(fresh)
        self.meter.write(perf_counter() - began)
        self.live.extend(int(i) for i in ids)
        self.alive[oldest] = False
        self.alive = np.concatenate(
            [self.alive, np.ones(len(fresh), dtype=bool)]
        )
        self.store.append(fresh)

    async def window(self, seconds: float) -> Meter:
        """Two phases, because a write makes the next read recompile
        every cluster bank it touched (~20 of them): beside a steady
        read stream those stalled reads would sit right on the p95
        boundary.  *Steady* (reads only) gives the read latencies;
        *churn* (a few writes, then a few reads) gives the write latency and
        ``loadgen.read_p95_under_writes_ms``; throughput and CPU span
        both."""
        s = self.sizes
        self.routing_sum = dict.fromkeys(_ROUTING_KEYS, 0)
        self.meter = meter = Meter()
        steady_until = meter.t_open + seconds * s["steady_share"]
        while perf_counter() < steady_until:
            self._read(meter.read)
        meter.mark()
        deadline = meter.t_open + seconds
        while perf_counter() < deadline:
            for _ in range(s["writes_per_cycle"]):
                self._write()
            for _ in range(s["reads_per_cycle"]):
                self._read(meter.read_under_writes)
            meter.mark()
        return meter

    def counters(self) -> dict:
        done = self.routing_sum
        n = max(1, done["n_queries"])
        return {
            "compactions": self.index.backend.n_auto_compactions,
            "scanned_rows": self.scanned_rows,
            "gauge.index.routing.scan_fraction": (
                done["rows_scanned"] / max(1, done["rows_live"])
            ),
            "gauge.index.routing.probed_clusters_per_query": (
                done["probed_clusters"] / n
            ),
            "gauge.index.routing.expanded_query_share": (
                done["expanded_queries"] / n
            ),
            "gauge.arch.crossbar.kernel_bank_share": float(self.itemsize > 0),
        }


class _Served(Workload):
    """Shared by the two serving workloads: a flat Hamming index, the
    direct-search parity check, the server-side counters."""

    def _build_index(self):
        from repro.index import FerexIndex

        s = self.sizes
        self.store = self._draw((s["rows"], s["dims"]))
        self.index = FerexIndex(
            dims=s["dims"], metric=s["metric"], bits=s["bits"]
        )
        self.index.add(self.store)
        self.sample = self._draw((s["verify_queries"], s["dims"]))

    async def _served(self, queries):
        raise NotImplementedError

    async def verify(self) -> dict:
        """Every served answer in the sample must be bit-identical to
        direct ``index.search`` on the same generation; recall is that
        direct answer against exact distances."""
        s = self.sizes
        direct = self.index.search(self.sample, k=K)
        ids, distances = await self._served(self.sample)
        wrong = int(
            (~(ids == direct.ids).all(axis=1)).sum()
            + (~(distances == direct.distances).all(axis=1)).sum()
        )
        self.scan_bytes, self.kernel_share = scan_bytes_per_query(
            self.index
        )
        recall = exact_recall(
            self._metric(), s["bits"], self.sample, self.store,
            np.ones(len(self.store), dtype=bool), direct.ids,
        )
        return {"recall_at_10": recall, "wrong": wrong + int(recall < 1.0)}

    def _grow(self, rows: np.ndarray) -> None:
        self.store = np.concatenate([self.store, rows])

    @staticmethod
    def _searched_rows(counted: dict) -> int:
        """Query rows that reached ``index.search`` (the rest were
        answered by the cache or folded into a duplicate)."""
        return counted["dispatched_rows"] - counted["dispatch_skipped_rows"]

    def bytes_moved(self, counted: dict, stats: dict) -> float:
        return (
            self._searched_rows(counted) * self.scan_bytes / stats["rows"]
        )

    def _server_counters(self, server) -> dict:
        stats = server.stats.snapshot()
        cache = stats["cache"]
        dispatched = sum(
            int(size) * count
            for size, count in stats["batch_size_histogram"].items()
        )
        skipped = (
            stats["n_dispatch_cache_hits"] + stats["n_dispatch_deduped"]
        )
        return {
            "requests": stats["n_requests"],
            "cache_hits": cache["hits"],
            "cache_lookups": cache["hits"] + cache["misses"],
            "evictions": cache["evictions"],
            "batches": stats["n_batches"],
            "dispatched_rows": dispatched,
            "dispatch_skipped_rows": skipped,
            # The index grows by a few rows per add; the current size
            # stands for the window.
            "scanned_rows": (dispatched - skipped) * len(self.store),
            "errors": stats["n_errors"],
            "gauge.arch.crossbar.kernel_bank_share": self.kernel_share,
        }


class ServeZipf(_Served):
    """In-process ``FerexServer`` under skewed closed-loop traffic."""

    name = "serve_zipf"

    async def setup(self) -> None:
        from repro.serve import FerexServer

        s = self.sizes
        self._build_index()
        self.universe = self._draw((s["universe"], s["dims"]))
        weights = np.arange(1, s["universe"] + 1) ** -float(s["zipf_s"])
        self.stream = self.rng.choice(
            s["universe"], size=s["stream_len"], p=weights / weights.sum()
        )
        self.fresh = self._draw((64, s["add_rows"], s["dims"]))
        self.cursor = 0
        self.adds = 0
        self.era_hit_rates = []
        self.server = FerexServer(self.index)
        await self._served(self.universe[:4])

    async def _served(self, queries):
        found = await self.server.search_many(queries, k=K)
        return found.ids, found.distances

    async def window(self, seconds: float) -> Meter:
        s = self.sizes
        server, universe, stream = self.server, self.universe, self.stream
        period = s["add_every"]
        meter = Meter()
        deadline = meter.t_open + seconds
        # Run to the first period boundary after the deadline, but
        # never past twice the window.
        state = {"stop": False}

        async def caller():
            while not state["stop"]:
                i = self.cursor
                self.cursor += 1
                REQUEST_ID.set(i)
                if i % period == period - 1:
                    rows = self.fresh[self.adds % len(self.fresh)]
                    self.adds += 1
                    # The add empties the cache: read the era's hit
                    # rate just before it goes.
                    self.era_hit_rates.append(server.cache.window_hit_rate)
                    began = perf_counter()
                    await server.add(rows)
                    meter.write(perf_counter() - began)
                    self._grow(rows)
                    meter.mark()
                    state["stop"] = perf_counter() >= deadline
                    continue
                query = universe[stream[i % len(stream)]]
                began = perf_counter()
                try:
                    found = await server.search(query, k=K)
                except Exception:  # counted, reported, run continues
                    meter.fail()
                    continue
                took = perf_counter() - began
                if found.ids.shape == (K,):
                    meter.read(took, 1)
                else:
                    meter.fail()
                if perf_counter() >= deadline + seconds:
                    meter.mark()
                    state["stop"] = True

        await asyncio.gather(*(caller() for _ in range(s["callers"])))
        return meter

    def counters(self) -> dict:
        counters = self._server_counters(self.server)
        eras = self.era_hit_rates
        counters["gauge.serve.cache.window_hit_rate"] = (
            sum(eras) / max(1, len(eras))
        )
        return counters

    async def close(self) -> None:
        await self.server.close()


class WireMixed(_Served):
    """The HTTP front-end over a one-worker process pool, open loop."""

    name = "wire_mixed"

    async def setup(self) -> None:
        from repro.serve import FerexServer
        from repro.serve.net import (
            AdmissionController,
            HttpClient,
            NetFrontend,
            pack_array_frame,
        )
        from repro.serve.procpool import ProcReplicaPool

        s = self.sizes
        self._build_index()
        self.pool = ProcReplicaPool(self.index, n_workers=s["n_workers"])
        self.worker_pids = tuple(
            worker.process.pid for worker in self.pool.workers
        )
        self.server = FerexServer(pool=self.pool)
        self.admission = AdmissionController(max_pending=s["max_pending"])
        self.frontend = NetFrontend(self.server, admission=self.admission)
        _, port = await self.frontend.start()
        self.clients = [
            await HttpClient.connect("127.0.0.1", port)
            for _ in range(min(2, os.cpu_count() or 1))
        ]
        # One window's worth of distinct, pre-encoded requests.
        self.ops = []
        for i in range(int(s["rate_per_s"] * RUN_SECONDS)):
            if i % s["batch_every"] == s["batch_every"] - 1:
                queries = self._draw((s["batch_rows"], s["dims"]))
                body = pack_array_frame(queries, k=K)
            else:
                queries = self._draw((1, s["dims"]))
                body = json.dumps(
                    {"query": queries[0].tolist(), "k": K}
                ).encode()
            self.ops.append((queries, body))
        self.fresh = [
            self._draw((s["add_rows"], s["dims"])) for _ in range(64)
        ]
        self.fresh_frames = [pack_array_frame(rows) for rows in self.fresh]
        self.added = {}  # first assigned id -> rows, as acknowledged
        self.cursor = 0
        self.adds = 0
        await self._served(self.sample[:2])

    # -- wire helpers --------------------------------------------------
    async def _search(self, client, body, binary):
        """One read request; returns (ids, distances) as (n, k), or
        None when it was refused."""
        from repro.serve.net import BINARY_CONTENT_TYPE, unpack_result_frame

        if not binary:
            response = await client.request(
                "POST", "/v1/search", body=body
            )
            if response.status != 200:
                return None
            payload = response.json()
            return (
                np.asarray([payload["ids"]], dtype=np.int64),
                np.asarray([payload["distances"]], dtype=float),
            )
        response = await client.request(
            "POST", "/v1/search_batch", body=body,
            content_type=BINARY_CONTENT_TYPE,
            headers=[("Accept", BINARY_CONTENT_TYPE)],
        )
        if response.status != 200:
            return None
        return unpack_result_frame(response.body)

    async def _served(self, queries):
        """The verification sample over the wire: first half as JSON
        singles, second half as one binary batch."""
        from repro.serve.net import pack_array_frame

        half = len(queries) // 2
        parts = []
        for query in queries[:half]:
            body = json.dumps({"query": query.tolist(), "k": K}).encode()
            parts.append(await self._search(self.clients[0], body, False))
        parts.append(
            await self._search(
                self.clients[-1], pack_array_frame(queries[half:], k=K),
                True,
            )
        )
        if any(part is None for part in parts):
            raise RuntimeError("verification request refused")
        return (
            np.concatenate([ids for ids, _ in parts]),
            np.concatenate([distances for _, distances in parts]),
        )

    async def _phase(self, meter, n_ops, with_writes, answers):
        """Open loop: op ``j`` is due at ``t0 + j / rate`` whatever the
        system does; each connection takes the next due op, and latency
        runs from the due instant."""
        from repro.serve.net import BINARY_CONTENT_TYPE, unpack_array_frame

        s = self.sizes
        gap = 1.0 / s["rate_per_s"]
        t0 = perf_counter()
        taken = iter(range(n_ops))

        async def connection(client):
            for j in taken:
                due = t0 + j * gap
                wait = due - perf_counter()
                if wait > 0:
                    await asyncio.sleep(wait)
                meter.lags.append(max(0.0, perf_counter() - due))
                REQUEST_ID.set(self.cursor)
                if with_writes and j % s["add_every"] == s["add_every"] - 1:
                    pick = self.adds % len(self.fresh)
                    self.adds += 1
                    response = await client.request(
                        "POST", "/v1/add", body=self.fresh_frames[pick],
                        content_type=BINARY_CONTENT_TYPE,
                        headers=[("Accept", BINARY_CONTENT_TYPE)],
                    )
                    if response.status == 200:
                        meter.write(perf_counter() - due)
                        ids, _ = unpack_array_frame(response.body)
                        self.added[int(ids[0])] = self.fresh[pick]
                    else:
                        meter.fail()
                    continue
                op = self.cursor
                self.cursor += 1
                queries, body = self.ops[op % len(self.ops)]
                answer = await self._search(client, body, len(queries) > 1)
                took = perf_counter() - due
                if answer is None or answer[0].shape != (len(queries), K):
                    meter.fail()
                elif with_writes:
                    meter.read_under_writes(took, len(queries))
                else:
                    meter.read(took, len(queries))
                    answers[op] = answer

        await asyncio.gather(*(connection(c) for c in self.clients))
        meter.mark()

    async def window(self, seconds: float) -> Meter:
        s = self.sizes
        n_ops = max(2, int(s["rate_per_s"] * seconds))
        n_steady = max(1, int(n_ops * s["steady_share"]))
        # The steady phase has no writes, so its answers belong to the
        # generation current now: direct answers for a sample of its
        # requests are taken before the window opens.
        sample = range(self.cursor, self.cursor + s["verify_queries"])
        expected = [
            self.index.search(self.ops[i % len(self.ops)][0], k=K)
            for i in sample
        ]
        meter = Meter(self.worker_pids)
        answers = {}
        await self._phase(meter, n_steady, False, answers)
        await self._phase(meter, n_ops - n_steady, True, {})
        # Responses are checked after the window closes (a refused one
        # was already counted as failed).
        for op, direct in zip(sample, expected):
            ids, distances = answers.get(op, direct)
            if not (
                np.array_equal(ids, direct.ids)
                and np.array_equal(distances, direct.distances)
            ):
                meter.failed += 1
        # Keep the oracle's copy of the store in step, in id order.
        for first_id in sorted(self.added):
            if first_id == len(self.store):
                self._grow(self.added.pop(first_id))
        return meter

    def _copied_bytes_per_row(self) -> int:
        """Slab traffic per searched row: the int64 query in, ids and
        distances out."""
        return self.sizes["dims"] * 8 + K * 16

    def bytes_moved(self, counted: dict, stats: dict) -> float:
        searched = self._searched_rows(counted)
        moved = (
            searched * (self.scan_bytes + self._copied_bytes_per_row())
            + counted["bytes_in"] + counted["bytes_out"]
        )
        return moved / stats["rows"]

    def replay_us_per_batch(self, sizes) -> float:
        sizes = sizes[:200]
        if not sizes:
            return 0.0
        pool = np.concatenate([self.sample] * 2)
        self.index.search(pool[:1], k=K)  # recompile after the adds
        began = perf_counter()
        for n in sizes:
            self.index.search(pool[:n], k=K)
        return (perf_counter() - began) / len(sizes) * 1e6

    def counters(self) -> dict:
        net = self.frontend.snapshot()
        admission = self.admission.snapshot()
        pool = self.pool.snapshot()
        counters = self._server_counters(self.server)
        counters.update({
            "wire_requests": net["n_requests"],
            "bytes_in": net["bytes_in"],
            "bytes_out": net["bytes_out"],
            "non200": sum(
                count for status, count in net["status_counts"].items()
                if status != "200"
            ),
            "admitted": admission["n_admitted"],
            "rejected": admission["n_rejected"],
            "slab_dispatches": pool["n_slab_dispatches"],
            "pickle_fallbacks": pool["n_pickle_fallbacks"],
            "respawns": pool["respawns"],
            "gauge.serve.net.admission.peak_pending": (
                admission["peak_pending"]
            ),
            "gauge.serve.shm.segment_bytes": sum(
                array.nbytes
                for array in self.index.export_state()[1].values()
            ),
            "gauge.serve.procpool.copied_bytes_per_query": (
                self._copied_bytes_per_row()
            ),
        })
        return counters

    async def close(self) -> None:
        for client in self.clients:
            await client.close()
        await self.frontend.close()
        await self.server.close()
        self.pool.close()


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (FlatScan, RoutedChurn, ServeZipf, WireMixed)
}
