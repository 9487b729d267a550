"""The serving layer: async batching and caching on top of one
:class:`repro.index.FerexIndex`.

* :class:`FerexServer` — the facade: coalesced + cached search that
  stays bit-identical to direct index search;
* :class:`RequestCoalescer` — micro-batches concurrent requests so they
  ride the index's batched search path, with a flush window sized from
  the observed arrival and service rates;
* :class:`QueryCache` — LRU cache keyed on (query bytes, k,
  write-generation), invalidated by every index mutation;
* :class:`ReplicaRouter` — the single-writer / many-reader gate in
  front of the index;
* :class:`ProcReplicaPool` — N worker *processes* attached zero-copy to
  the index's shared-memory segments (:mod:`repro.serve.shm`), for read
  parallelism beyond the GIL; writes drain through the single-writer
  path and republish a fresh generation;
* :class:`ServerStats` — qps, batch-size histogram, cache hit rate and
  latency percentiles for benchmarks and tests;
* :mod:`repro.serve.net` — the HTTP wire on top: front-end and
  admission control (:class:`~repro.serve.net.NetFrontend`,
  :class:`~repro.serve.net.AdmissionController`).
"""

#: Public name -> submodule.  Loaded on first access (PEP 562), so a
#: pool worker, which imports only :mod:`repro.serve.procpool`, never
#: pays for the asyncio front half.
_LAZY_EXPORTS = {
    "DeadlineExceededError": "coalescer",
    "FerexServer": "server",
    "PoolBrokenError": "procpool",
    "ProcReplicaPool": "procpool",
    "QueryCache": "cache",
    "ReplicaRouter": "router",
    "RequestCoalescer": "coalescer",
    "SegmentIntegrityError": "shm",
    "SegmentManifest": "shm",
    "ServerStats": "stats",
    "attach_index": "shm",
    "canonical_int_query": "cache",
    "publish_index": "shm",
}

__all__ = sorted(_LAZY_EXPORTS)


def __getattr__(name: str):
    """PEP 562 lazy loader for the serving layer's exports."""
    try:
        module = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
