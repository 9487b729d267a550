"""Per-layer metrics from one traced window.

Inputs are the tracer's spans, the deltas of the workload's public
counters over the window, its gauges, and the window statistics.  Every
name in :data:`benchmarks.e2e.spec.PER_LAYER` gets a number; a layer
the workload never enters reads 0.  ``*_us_per_query`` is summed span
self time over query rows (see :mod:`benchmarks.e2e.tracer` for what
self time means for a coroutine).
"""

from __future__ import annotations

import bisect
import threading
from collections import defaultdict

from .meter import percentile
from .spec import PER_LAYER
from .tracer import PROTOCOL_ENCODE, PROTOCOL_PARSE

# Span tuple fields.
_SID, _PARENT, _NAME, _START, _END, _SELF, _THREAD = range(7)
_NOTE = 8


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class _Spans:
    """The window's spans, grouped by target name."""

    def __init__(self, spans, layer_of, window):
        t_open, t_close = window
        self.by_name = defaultdict(list)
        self.layer_self = defaultdict(float)
        self.thread_self = defaultdict(float)
        for span in spans:
            if not t_open <= span[_START] <= t_close:
                continue
            self.by_name[span[_NAME]].append(span)
            self.layer_self[layer_of[span[_NAME]]] += span[_SELF]
            self.thread_self[span[_THREAD]] += span[_SELF]

    def named(self, *attrs):
        """Spans of the targets whose ``attr`` part is in ``attrs``."""
        return [
            span
            for name, spans in self.by_name.items()
            if name.rpartition(":")[2] in attrs
            for span in spans
        ]

    @staticmethod
    def self_s(spans) -> float:
        return sum(span[_SELF] for span in spans)

    @staticmethod
    def wall_s(spans) -> list:
        return [span[_END] - span[_START] for span in spans]


def setup_metrics(spans) -> dict:
    """Numbers that come from the traced set-up rather than the window:
    k-means training, the initial build, segment publishes."""
    train = [s for s in spans if s[_NAME].endswith(":train_centroids")]
    adds = [s for s in spans if s[_NAME].endswith(":FerexIndex.add")]
    return {
        "index.routing.train_s": sum(s[_END] - s[_START] for s in train),
        "index.index.build_s": max(
            (s[_END] - s[_START] for s in adds), default=0.0
        ),
    }


def compute(
    spans, layer_of, window, stats, reference, delta, gauges,
    replay_us_per_batch, n_missing,
) -> tuple:
    """(all per-layer metrics of one traced window, each layer's share
    of the window's traced busy time).

    ``replay_us_per_batch(sizes)`` times batches of those sizes through
    direct ``index.search``; ``gauges`` are keyed ``gauge.<metric>``.
    """
    g = _Spans(spans, layer_of, window)
    rows = max(1, stats["rows"])
    reads = stats["read_samples"] + stats["under_write_samples"]
    requests = max(1, reads)
    us = 1e6
    out = dict.fromkeys((name for name, _, _ in PER_LAYER), 0.0)

    def per_query(layer):
        return g.layer_self[layer] / rows * us

    # -- core.kernel ---------------------------------------------------
    compiles = g.named("LUTKernel.__init__")
    scores = g.named("LUTKernel.scores", "LUTKernel.scores_gather")
    out["core.kernel.self_us_per_query"] = (
        per_query("core.kernel") - g.self_s(compiles) / rows * us
    )
    out["core.kernel.compile_us_per_query"] = (
        g.self_s(compiles) / rows * us
    )
    out["core.kernel.calls_per_query"] = len(scores) / rows
    cells = moved = 0
    for span in scores:
        n, stored, width, itemsize, lut_bytes = span[_NOTE]
        cells += n * stored * width
        # Computed: codes gathered + LUT + the (n, stored) accumulator.
        moved += n * stored * width * itemsize + lut_bytes + n * stored * 8
    out["core.kernel.cells_per_query"] = cells / rows
    out["core.kernel.bytes_per_query"] = moved / rows
    out["core.kernel.gbytes_per_s"] = _ratio(moved, g.self_s(scores)) / 1e9

    # -- arch.crossbar / index.* ---------------------------------------
    out["arch.crossbar.self_us_per_query"] = per_query("arch.crossbar")
    out["arch.crossbar.bank_evals_per_query"] = (
        sum(s[_NOTE][0] for s in g.named("FeReX.search_k_batch")) / rows
    )
    out["index.backends.self_us_per_query"] = per_query("index.backends")
    out["index.backends.rows_scanned_per_query"] = (
        delta.get("scanned_rows", 0) / rows
    )
    out["index.routing.self_us_per_query"] = per_query("index.routing")
    searches = g.named("FerexIndex.search")
    out["index.index.self_us_per_query"] = g.self_s(searches) / rows * us
    for verb in ("add", "remove"):
        calls = g.named(f"FerexIndex.{verb}")
        out[f"index.index.{verb}_us_per_row"] = _ratio(
            sum(g.wall_s(calls)) * us, sum(s[_NOTE][0] for s in calls)
        )
    out["index.routing.compactions"] = delta.get("compactions", 0)
    out.update(setup_metrics(spans))

    # -- serve.* -------------------------------------------------------
    out["serve.cache.hit_rate"] = _ratio(
        delta.get("cache_hits", 0), delta.get("cache_lookups", 0)
    )
    out["serve.cache.evictions"] = delta.get("evictions", 0)
    out["serve.cache.self_us_per_request"] = (
        g.layer_self["serve.cache"] / requests * us
    )
    out["serve.coalescer.n_batches"] = delta.get("batches", 0)
    out["serve.coalescer.mean_batch_size"] = _ratio(
        delta.get("dispatched_rows", 0), delta.get("batches", 0)
    )
    submits = g.named("RequestCoalescer.submit")
    acquires = g.named("ReplicaRouter.acquire_read")
    dispatch_starts = sorted(span[_START] for span in acquires)
    parks = []
    for span in submits:
        # A flush takes the whole pending list, so a request's batch is
        # the first dispatch that starts after it parked.
        at = bisect.bisect_left(dispatch_starts, span[_START])
        if at < len(dispatch_starts):
            parks.append(dispatch_starts[at] - span[_START])
    out["serve.coalescer.park_us_p50"] = percentile(parks, 50) * us
    out["serve.coalescer.self_us_per_request"] = (
        g.self_s(submits) / requests * us
    )
    out["serve.router.self_us_per_batch"] = _ratio(
        g.self_s(acquires + g.named("ReplicaRouter.release_read")) * us,
        len(acquires),
    )
    out["serve.router.write_us_p50"] = (
        percentile(g.wall_s(g.named("ReplicaRouter.write")), 50) * us
    )
    served = g.named("FerexServer.search", "FerexServer.search_many")
    out["serve.server.self_us_per_request"] = (
        g.self_s(served) / requests * us
    )
    server_adds = g.named("FerexServer.add")
    out["serve.server.write_us_p50"] = (
        percentile(g.wall_s(server_adds), 50) * us
    )
    pooled = g.named("ProcReplicaPool.search")
    roundtrip = _ratio(sum(g.wall_s(pooled)) * us, len(pooled))
    out["serve.procpool.roundtrip_us_per_batch"] = roundtrip
    if pooled:
        out["serve.procpool.overhead_us_per_batch"] = (
            roundtrip - replay_us_per_batch([s[_NOTE][0] for s in pooled])
        )
    out["serve.procpool.republish_ms_p50"] = (
        percentile(g.wall_s(g.named("ProcReplicaPool.republish")), 50) * 1e3
    )
    out["serve.procpool.slab_dispatch_share"] = _ratio(
        delta.get("slab_dispatches", 0),
        delta.get("slab_dispatches", 0) + delta.get("pickle_fallbacks", 0),
    )
    out["serve.procpool.respawns"] = delta.get("respawns", 0)
    out["serve.shm.publish_ms_p50"] = (
        percentile(g.wall_s(g.named("publish_index")), 50) * 1e3
    )

    # -- serve.net.* ---------------------------------------------------
    wire = delta.get("wire_requests", 0)
    parse = g.named(*PROTOCOL_PARSE)
    encode = g.named(*PROTOCOL_ENCODE)
    out["serve.net.protocol.parse_us_per_request"] = _ratio(
        g.self_s(parse) * us, wire
    )
    out["serve.net.protocol.encode_us_per_request"] = _ratio(
        g.self_s(encode) * us, wire
    )
    out["serve.net.protocol.bytes_in_per_query"] = (
        delta.get("bytes_in", 0) / rows
    )
    out["serve.net.protocol.bytes_out_per_query"] = (
        delta.get("bytes_out", 0) / rows
    )
    out["serve.net.admission.self_us_per_request"] = _ratio(
        g.layer_self["serve.net.admission"] * us, wire
    )
    out["serve.net.admission.shed_share"] = _ratio(
        delta.get("rejected", 0),
        delta.get("rejected", 0) + delta.get("admitted", 0),
    )
    out["serve.net.frontend.non200"] = delta.get("non200", 0)
    sent = g.named("HttpClient.request")
    if sent:
        # search_many fans out into nested search calls: count the
        # serving call of each request once.
        fanned = {s[_SID] for s in g.named("FerexServer.search_many")}
        inside = server_adds + [
            s for s in served if s[_PARENT] not in fanned
        ]
        accounted = (
            g.self_s(parse) + g.self_s(encode) + g.self_s(sent)
            + g.layer_self["serve.net.admission"]
        )
        # Client-observed time minus the serving call and the protocol
        # and client work: handler glue, socket, loop scheduling.
        out["serve.net.frontend.residual_us_per_request"] = (
            sum(g.wall_s(sent)) - sum(g.wall_s(inside)) - accounted
        ) / len(sent) * us
        out["loadgen.client_us_per_request"] = (
            g.self_s(sent) / len(sent) * us
        )

    # -- loadgen (the benchmark itself) --------------------------------
    for name in ("sched_lag_p99_ms", "latency_p99_ms",
                 "read_p95_under_writes_ms", "write_latency_p50_ms",
                 "read_samples", "write_samples"):
        out[f"loadgen.{name}"] = stats[name]
    out["loadgen.failed_share"] = _ratio(
        stats["failed"], stats["attempted"]
    )
    out["loadgen.trace_overhead_share"] = (
        _ratio(stats["cpu_s_per_kquery"], reference["cpu_s_per_kquery"])
        - 1.0
    )
    out["loadgen.trace_coverage"] = _ratio(
        g.thread_self[threading.get_ident()], stats["elapsed_s"]
    )
    out["loadgen.missing_trace_targets"] = n_missing

    for key, value in gauges.items():
        out[key.removeprefix("gauge.")] = value
    busy = sum(g.layer_self.values())
    shares = {
        layer: _ratio(self_s, busy)
        for layer, self_s in sorted(g.layer_self.items())
    }
    return out, shares
