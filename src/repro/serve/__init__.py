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
* :mod:`repro.serve.net` — the HTTP wire on top: front-end, admission
  control and the pool autoscaler (:class:`~repro.serve.net.
  NetFrontend`, :class:`~repro.serve.net.AdmissionController`,
  :class:`~repro.serve.net.Autoscaler`).
"""

from .cache import QueryCache, canonical_int_query
from .coalescer import DeadlineExceededError, RequestCoalescer
from .procpool import PoolBrokenError, ProcReplicaPool
from .router import ReplicaRouter
from .server import FerexServer
from .shm import (
    SegmentIntegrityError,
    SegmentManifest,
    attach_index,
    publish_index,
)
from .stats import ServerStats

__all__ = [
    "DeadlineExceededError",
    "FerexServer",
    "PoolBrokenError",
    "ProcReplicaPool",
    "QueryCache",
    "ReplicaRouter",
    "RequestCoalescer",
    "SegmentIntegrityError",
    "SegmentManifest",
    "ServerStats",
    "attach_index",
    "canonical_int_query",
    "publish_index",
]
