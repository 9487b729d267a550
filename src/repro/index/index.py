"""The :class:`FerexIndex` facade: a vector-database-style API over
sharded FeReX banks.

The paper deploys FeReX as an associative-memory accelerator serving
nearest-neighbor queries at scale (Fig. 7 Monte Carlo KNN, Fig. 8 HDC
inference).  This module packages that deployment story as a first-class
index:

>>> import numpy as np
>>> from repro.index import FerexIndex
>>> index = FerexIndex(dims=8, metric="hamming", bits=2, bank_rows=16)
>>> rng = np.random.default_rng(0)
>>> ids = index.add(rng.integers(0, 4, size=(40, 8)))   # 3 banks open
>>> ids2 = index.add(rng.integers(0, 4, size=(5, 8)))   # tail bank grows
>>> result = index.search(rng.integers(0, 4, size=(10, 8)), k=3)
>>> result.ids.shape
(10, 3)

Incremental ``add`` reuses the crossbar's row-level write path and is
bit-identical to one-shot programming; ``remove`` tombstones rows out of
the LTA competition until ``compact`` physically re-programs the live
set; ``save``/``load`` persist stored vectors, encoding configuration
and variation seeds so an index survives process restarts with
bit-identical search results.

``export_state``/``from_state`` expose the same snapshot as in-memory
arrays instead of an ``.npz`` file: a publisher process can place the
arrays in ``multiprocessing.shared_memory`` segments and N reader
processes can attach them zero-copy (see :mod:`repro.serve.shm`), each
rebuilding a read-only replica whose searches are bit-identical to the
source index — the foundation of the multi-process replica pool
(:class:`repro.serve.ProcReplicaPool`).

Reconfigurability — the paper's "R" — is first-class: the index carries
a :class:`repro.core.BankConfig` (metric + bits), the whole index may
be re-voltaged *online* at a new config via :meth:`reconfigure`
(re-programmed from the retained stored codes, bit-identical to a fresh
index built at the target config), and ``backend="tiered"`` (or
``backend="routed"`` with ``inner="tiered"``) runs a cheap low-bit
coarse pass with a full-precision rescore of the shortlist — the
coarse-to-fine pattern reconfigurable precision exists to enable.

Search itself is one line of policy here: :meth:`FerexIndex.search`
validates, asks the configured backend for positions, maps them to ids
and pads.  *How* rows are scored and selected is the backend's
business (:mod:`repro.index.backends`), so there is exactly one search
path per index and no per-call mode.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from ..core.config import BankConfig
from ..core.distance import DistanceMetric
from ..core.engine import NotProgrammedError
from .backends import BACKENDS, RowStore, SearchBackend
from .routing import RoutedBackend

#: Bumped when the on-disk layout changes.  Version 2 added
#: ``bank_configs`` and ``backend_options``; both are optional, so
#: version-1 files load.  ``bank_configs`` is always ``None`` now that
#: every bank runs at the index config: it stays in the record so the
#: persisted meta and both fingerprints keep their version-2 bytes, and
#: a state that records per-bank configs is refused on load.
_FORMAT_VERSION = 2


def _buffer(array: np.ndarray) -> "bytes | memoryview":
    """Bytes-like view of an array for digest updates — zero-copy for
    the (usual) C-contiguous case, so fingerprinting a large index
    never materialises a second copy of its state."""
    if array.flags.c_contiguous:
        return array.data
    return array.tobytes()


def state_digest(
    meta: dict,
    vectors: np.ndarray,
    ids: np.ndarray,
    alive: np.ndarray,
) -> str:
    """Digest of one exported index state (configuration + canonical
    arrays in their fixed dtypes).

    Shared by :meth:`FerexIndex.content_fingerprint` and the
    shared-memory attach path (:mod:`repro.serve.shm`), which must be
    able to verify raw segment bytes *before* paying the backend
    rebuild — so the digest is a free function over ``(meta, arrays)``
    rather than an index method only.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(json.dumps(meta, sort_keys=True).encode())
    digest.update(_buffer(np.ascontiguousarray(vectors, dtype=np.int64)))
    digest.update(_buffer(np.ascontiguousarray(ids, dtype=np.int64)))
    digest.update(_buffer(np.ascontiguousarray(alive, dtype=bool)))
    return digest.hexdigest()


def as_integral(values, what: str = "queries") -> np.ndarray:
    """``values`` as contiguous ``int64``, *rejecting* non-integral
    input instead of truncating it — the index's one integral-coercion
    rule for vectors, queries and ids (and the serving cache's key).

    Integer and bool arrays pass, integral floats (``1.0``) convert;
    fractional, non-finite or non-numeric input raises ``ValueError``.
    A silent ``astype(int64)`` would store ``0.6`` as ``0``, answer a
    ``0.9`` query as if it were ``0``, remove id 2 for ``2.9`` and alias
    the queries ``1.2`` and ``1.7`` onto one cache key.
    """
    arr = np.asarray(values)
    if arr.dtype == object:
        # Python objects (e.g. a pickled batch of ints): judge the
        # values, not the container.
        arr = np.array(arr.tolist())
    if arr.dtype.kind in "biu":
        return np.ascontiguousarray(arr, dtype=np.int64)
    if arr.dtype.kind != "f":
        raise ValueError(
            f"{what} must be integer-valued, got dtype {arr.dtype}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite, got non-finite values")
    canonical = arr.astype(np.int64)
    if not np.array_equal(canonical, arr):
        raise ValueError(
            f"{what} must be integer-valued; refusing to truncate "
            "fractional values"
        )
    return np.ascontiguousarray(canonical)


class SearchOutcome(NamedTuple):
    """Uniform batch search result: unpacks as ``ids, distances``."""

    #: (n_queries, k) ids of the nearest stored vectors, nearest first.
    #: When ``k`` exceeds the live row count the tail is padded with
    #: ``-1`` (no id is ever negative).
    ids: np.ndarray
    #: (n_queries, k) distances — analog unit currents for the ferex
    #: backend, exact integer distances (as floats) for
    #: exact/gpu/tiered.  Padded entries hold ``inf``.
    distances: np.ndarray


class FerexIndex:
    """Sharded multi-bank vector index with pluggable search backends.

    Parameters
    ----------
    dims / metric / bits:
        Vector geometry and the configured distance function (any
        registered metric name or a :class:`DistanceMetric`).  Metric
        names are validated eagerly — an unknown name raises here, not
        at the first search.  ``config=`` accepts the same pair as one
        :class:`BankConfig` value object.
    backend:
        ``"ferex"`` (sharded array simulation — the default), ``"exact"``
        (software reference), ``"gpu"`` (exact winners + roofline
        estimates), ``"tiered"`` (low-bit coarse pass + full-precision
        rescore — a one-cluster ``"routed"`` index with
        ``inner="tiered"``), ``"routed"`` (cluster-routed bank
        selection — queries probe only the ``top_p`` nearest clusters'
        banks), or a ready :class:`SearchBackend` instance.
    bank_rows:
        Shard height: vectors per physical array bank (ferex backend).
    encoder / seed:
        Passed to the per-bank engines; ``seed`` enables device
        variation (bank ``b`` uses ``seed + b``), ``None`` keeps ideal
        devices.
    backend_options:
        Extra JSON-able keyword arguments for registry-kind backends
        (e.g. ``{"coarse_bits": 1, "refine_factor": 8}`` for
        ``"tiered"``); persisted with the index so ``save``/``load``
        rebuilds the identical backend.
    """

    def __init__(
        self,
        dims: int,
        metric: "str | DistanceMetric" = "hamming",
        bits: int = 2,
        backend: Union[str, SearchBackend] = "ferex",
        bank_rows: int = 1024,
        encoder: str = "auto",
        seed: Optional[int] = None,
        config: Optional[BankConfig] = None,
        backend_options: Optional[dict] = None,
    ):
        if dims < 1:
            raise ValueError("dims must be >= 1")
        if bank_rows < 1:
            raise ValueError("bank_rows must be >= 1")
        # Eager validation: BankConfig rejects bits < 1 and unknown
        # metric names at construction time.
        self._config = (
            config if config is not None else BankConfig(metric, bits)
        )
        self.dims = dims
        self.bank_rows = bank_rows
        self.encoder = encoder
        self.seed = seed
        #: Registry kind when the index built the backend itself; None
        #: for caller-supplied instances (whose configuration the index
        #: cannot see, so it refuses to persist or reconfigure them).
        self._backend_kind = backend if isinstance(backend, str) else None
        self._backend_options = dict(backend_options or {})
        self._backend = self._make_backend(backend)
        self._hold(
            np.empty((0, dims), dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=bool),
        )
        self._id_to_pos: dict = {}
        self._next_id = 0
        self._write_generation = 0
        self._mutation_digest = hashlib.blake2b(digest_size=16)
        #: True for replicas attached over shared-memory state
        #: (:meth:`from_state` with ``read_only=True``): their canonical
        #: arrays alias another process's segments, so mutation is
        #: refused — writes go to the publisher, which republishes.
        self._read_only = False

    def _hold(
        self, vectors: np.ndarray, ids: np.ndarray, alive: np.ndarray
    ) -> None:
        """Hold the canonical state in a fresh :class:`RowStore` over
        these arrays (adopted uncopied); ``add`` appends to it."""
        self._rows = RowStore(vectors, ids, alive)
        self._vectors, self._ids, self._alive = self._rows.columns

    def _make_backend(
        self, backend: Union[str, SearchBackend]
    ) -> SearchBackend:
        if not isinstance(backend, str):
            return backend
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; known: {sorted(BACKENDS)}"
            )
        if backend in ("ferex", "tiered", "routed"):
            return BACKENDS[backend](
                self._config,
                dims=self.dims,
                bank_rows=self.bank_rows,
                encoder=self.encoder,
                seed=self.seed,
                **self._backend_options,
            )
        return BACKENDS[backend](
            self._config, dims=self.dims, **self._backend_options
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def config(self) -> BankConfig:
        """The index-level :class:`BankConfig` (storage alphabet +
        metric); every bank is voltaged at it."""
        return self._config

    @property
    def metric(self):
        """The configured metric, as passed (name or instance)."""
        return self._config.metric

    @property
    def bits(self) -> int:
        """Bit width of the stored alphabet."""
        return self._config.bits

    @property
    def bank_configs(self) -> "tuple[BankConfig, ...]":
        """Per-bank voltage configurations, each equal to
        :attr:`config` (empty for unbanked backends)."""
        return getattr(self._backend, "bank_configs", ())

    @property
    def backend(self) -> SearchBackend:
        """The live backend instance."""
        return self._backend

    @property
    def ntotal(self) -> int:
        """Number of live (searchable) vectors."""
        return int(self._alive.sum())

    @property
    def last_routing(self) -> Optional[dict]:
        """Honest routing accounting for the most recent search on a
        routed or tiered backend (probed clusters, scanned-row
        fraction, forced probe expansions; tiered search reports its
        one cluster); ``None`` for other backends or before any
        search."""
        return getattr(self._backend, "last_routing", None)

    @property
    def n_banks(self) -> int:
        """Physical banks behind the index (0 for unbanked backends)."""
        return getattr(self._backend, "n_banks", 0)

    @property
    def write_generation(self) -> int:
        """Monotonic mutation counter: bumped by every successful
        ``add``/``remove``/``compact``/``reconfigure`` (and once by
        ``load``).

        Serving layers key query caches on ``(query bytes, k,
        write_generation)`` so any mutation implicitly invalidates every
        cached result — no callback protocol needed.
        """
        return self._write_generation

    def fingerprint(self) -> str:
        """Cheap stable digest of configuration + mutation history.

        The digest folds in the index configuration (dims, metric, bits,
        backend kind, bank geometry, seed) and a
        rolling hash of every mutation applied (op tag + ids + vector
        payload), so it is O(1) to read and O(delta) to maintain — no
        re-hash of the stored set.

        Two indexes report the same fingerprint iff they were built with
        the same configuration and driven through the same mutation
        sequence, which is exactly the single-writer replica discipline
        :class:`repro.serve.FerexServer` enforces; the replica router
        uses fingerprint equality as its bit-identity parity check.
        (``load`` replays persistence as one bulk mutation, so two
        ``load``\\ s of the same file also match each other.)
        """
        payload = json.dumps(
            {
                "dims": self.dims,
                "metric": self._metric_name(),
                "bits": self.bits,
                "backend": self._backend_kind
                or type(self._backend).__name__,
                "bank_rows": self.bank_rows,
                "bank_configs": None,
                "backend_options": self._backend_options,
                "encoder": self.encoder,
                "seed": self.seed,
                "write_generation": self._write_generation,
                "ntotal": self.ntotal,
                "next_id": self._next_id,
            },
            sort_keys=True,
        ).encode()
        digest = self._mutation_digest.copy()
        digest.update(payload)
        return digest.hexdigest()

    def content_fingerprint(self) -> str:
        """Digest of configuration + the full stored state (vectors,
        ids, liveness) — O(n), unlike the O(1) rolling
        :meth:`fingerprint`.

        Because it hashes *content* rather than mutation history, an
        index and a replica rebuilt from its exported state report the
        same value; :mod:`repro.serve.shm` uses it as the
        publish/attach parity check (a torn or corrupted segment can
        never serve quietly).
        """
        return state_digest(
            self._state_meta(), self._vectors, self._ids, self._alive
        )

    def _note_mutation(self, op: bytes, *parts) -> None:
        """Bump the write generation and fold the mutation into the
        rolling fingerprint digest (``parts`` are bytes-like)."""
        self._write_generation += 1
        self._mutation_digest.update(op)
        for part in parts:
            self._mutation_digest.update(part)

    def __len__(self) -> int:
        return self.ntotal

    def __repr__(self) -> str:
        name = getattr(self._backend, "name", type(self._backend).__name__)
        return (
            f"FerexIndex(dims={self.dims}, metric={self._metric_name()!r}, "
            f"bits={self.bits}, backend={name!r}, ntotal={self.ntotal})"
        )

    def _metric_name(self) -> str:
        return self._config.metric_name

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def _validate_vectors(self, vectors: np.ndarray) -> np.ndarray:
        vectors = as_integral(vectors, "vectors")
        if vectors.ndim != 2 or vectors.shape[1] != self.dims:
            raise ValueError(
                f"expected (n, {self.dims}) vectors, got {vectors.shape}"
            )
        hi = 1 << self.bits
        if vectors.size and (vectors.min() < 0 or vectors.max() >= hi):
            raise ValueError(f"vector values outside [0, {hi})")
        return vectors

    def _check_writable(self) -> None:
        if self._read_only:
            raise ValueError(
                "this index is a read-only replica attached over "
                "shared-memory state; mutate the publishing index and "
                "republish its segments instead"
            )

    def add(
        self,
        vectors: np.ndarray,
        ids: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Store vectors, opening new banks as capacity fills.

        Returns the assigned ids (auto-assigned sequentially unless
        given; given ids must be unique, non-negative and not already
        stored).  Incremental calls are bit-identical to one big call:
        each vector's physical row — and its sampled device variation —
        is fixed by its insertion position alone.
        """
        self._check_writable()
        vectors = self._validate_vectors(vectors)
        n = len(vectors)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        if ids is None:
            ids = np.arange(self._next_id, self._next_id + n, dtype=np.int64)
        else:
            ids = as_integral(ids, "ids")
            if ids.shape != (n,):
                raise ValueError(f"expected {n} ids, got shape {ids.shape}")
            if ids.min() < 0:
                # -1 pads search results; a stored -1 would be
                # indistinguishable from it.
                raise ValueError("ids must be non-negative")
            if len(np.unique(ids)) != n:
                raise ValueError("ids must be unique")
            clashes = [int(i) for i in ids if int(i) in self._id_to_pos]
            if clashes:
                raise ValueError(f"ids already in the index: {clashes[:5]}")
        # Backend first: if it fails (e.g. ConfigurationError while the
        # first bank's cell encoding is solved), the index bookkeeping
        # must not report vectors the backend never admitted.
        self._backend.add(vectors)
        start = len(self._vectors)
        self._vectors, self._ids, self._alive = self._rows.append(
            vectors, ids, np.ones(n, dtype=bool)
        )
        for offset, id_ in enumerate(ids):
            self._id_to_pos[int(id_)] = start + offset
        self._next_id = max(self._next_id, int(ids.max()) + 1)
        self._note_mutation(b"add", _buffer(ids), _buffer(vectors))
        return ids

    def remove(self, ids: Sequence[int]) -> int:
        """Tombstone vectors by id: their rows stay programmed but are
        masked out of every subsequent LTA competition.  Returns the
        number removed; unknown or repeated ids raise ``KeyError``
        before anything mutates."""
        self._check_writable()
        ids = np.atleast_1d(as_integral(ids, "ids"))
        if len(np.unique(ids)) != len(ids):
            raise KeyError("duplicate ids in remove request")
        positions = []
        for id_ in ids:
            if int(id_) not in self._id_to_pos:
                raise KeyError(f"id {int(id_)} not in the index")
            positions.append(self._id_to_pos[int(id_)])
        for id_ in ids:
            del self._id_to_pos[int(id_)]
        positions = np.asarray(positions, dtype=int)
        self._alive[positions] = False
        self._backend.deactivate(positions)
        self._note_mutation(b"remove", ids.tobytes())
        return len(positions)

    def compact(self) -> None:
        """Physically re-program the live set, reclaiming tombstoned
        rows.  Ids survive; positions (and therefore per-row variation
        instances) are reassigned."""
        self._check_writable()
        live = np.flatnonzero(self._alive)
        self._hold(
            self._vectors[live],
            self._ids[live],
            np.ones(len(live), dtype=bool),
        )
        self._id_to_pos = {
            int(id_): pos for pos, id_ in enumerate(self._ids)
        }
        self._backend.rebuild(self._vectors)
        self._note_mutation(b"compact")

    # ------------------------------------------------------------------
    # Reconfiguration
    # ------------------------------------------------------------------
    def reconfigure(
        self,
        bits: Optional[int] = None,
        metric: "str | DistanceMetric | None" = None,
    ) -> BankConfig:
        """Re-voltage the whole index at a new (metric, bits)
        configuration, online, from the retained stored codes.  Returns
        the target :class:`BankConfig`.

        The backend is rebuilt at the target config through the same
        deterministic write path ``from_state`` replays, so the result
        is **bit-identical to a fresh index built at the target config**
        from the same vectors (ids, tombstones, per-row variation draws
        and all).  Stored codes must fit the target alphabet — exactly
        the constraint a fresh build would enforce.

        The re-voltage is atomic (a config with no feasible cell
        encoding raises without mutating anything), bumps the write
        generation — invalidating every serving-layer cache entry — and
        flows through the single-writer + pool-republish path when
        driven via :meth:`repro.serve.FerexServer.reconfigure`, so it is
        safe under live traffic.  A coarse low-bit tier is
        ``backend="tiered"``, not a subset of re-voltaged banks.
        """
        self._check_writable()
        config = BankConfig(
            metric=self._config.metric if metric is None else metric,
            bits=self.bits if bits is None else bits,
        )
        if self._backend_kind is None:
            raise ValueError(
                "only index-constructed backends (a registry kind) "
                "can be reconfigured; this index wraps a "
                f"caller-supplied {type(self._backend).__name__} "
                "instance the index cannot rebuild"
            )
        if len(self._vectors) and int(self._vectors.max()) >= config.n_values:
            raise ValueError(
                f"stored codes exceed the {config.bits}-bit "
                "alphabet; reconfigure to a wider width"
            )
        previous = self._config
        self._config = config
        try:
            backend = self._make_backend(self._backend_kind)
            if len(self._vectors):
                backend.add(self._vectors)
                dead = np.flatnonzero(~self._alive)
                if len(dead):
                    backend.deactivate(dead)
        except Exception:
            self._config = previous
            raise
        self._backend = backend
        # "banks": None keeps the mutation record, and with it every
        # later fingerprint, byte-identical to format-2 history.
        self._note_mutation(
            b"reconfigure",
            json.dumps(
                {"config": config.as_dict(), "banks": None},
                sort_keys=True,
            ).encode(),
        )
        return config

    def reconfigure_routing(
        self,
        top_p: Optional[int] = None,
        n_clusters: Optional[int] = None,
    ) -> "tuple[int, int]":
        """Online routing reconfigure (routed or tiered backend): move the
        probe width ``top_p`` (instant — a search-time knob) and/or the
        cluster count ``n_clusters`` (re-trains k-means on the live set
        and re-pins every cluster to banks).  Returns the effective
        ``(top_p, n_clusters)``.

        Ids, positions and the stored set are untouched either way; the
        write generation bumps, so serving-layer caches (keyed on it)
        never serve a result routed under the old geometry.  Driven via
        :meth:`repro.serve.FerexServer.reconfigure_routing` it flows
        through the single-writer + pool-republish path, safe under
        live traffic.
        """
        self._check_writable()
        if top_p is None and n_clusters is None:
            raise ValueError("pass top_p and/or n_clusters")
        if not isinstance(self._backend, RoutedBackend):
            raise ValueError(
                "routing reconfigure needs the routed backend, not "
                f"{type(self._backend).__name__}"
            )
        effective = self._backend.reconfigure_routing(
            top_p=top_p, n_clusters=n_clusters
        )
        self._backend_options["top_p"] = effective[0]
        self._backend_options["n_clusters"] = effective[1]
        self._note_mutation(
            b"reroute",
            json.dumps(
                {"top_p": effective[0], "n_clusters": effective[1]},
                sort_keys=True,
            ).encode(),
        )
        return effective

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(self, queries: np.ndarray, k: int = 1) -> SearchOutcome:
        """Batch k-nearest search: (n, dims) queries to a
        :class:`SearchOutcome` of (n, k) ids and distances.

        The configured backend decides how rows are scored and
        selected — full-precision LTA search for ``"ferex"``, a
        low-bit coarse pass plus exact rescore for ``"tiered"``
        (typically severalfold faster at high recall;
        ``benchmarks/bench_reconfig.py`` tracks the trade),
        cluster-routed bank selection for ``"routed"``.

        When ``k`` exceeds the number of live (non-tombstoned) rows the
        trailing columns are padded with ``(-1, inf)`` — every backend
        only ever competes the live set, so the padding is identical
        across backends by construction and the output shape is always
        ``(n, k)``.
        """
        if self.ntotal == 0:
            raise NotProgrammedError(
                "add() must be called before search(): the index is empty"
            )
        if k < 1:
            raise ValueError("k must be >= 1")
        queries = self._validate_vectors(queries)
        k_eff = min(k, self.ntotal)
        n = len(queries)
        if n == 0:
            return SearchOutcome(
                ids=np.empty((0, k), dtype=np.int64),
                distances=np.empty((0, k)),
            )
        positions, distances = self._backend.search(queries, k_eff)
        ids = self._ids[positions]
        if k_eff < k:
            pad = k - k_eff
            ids = np.concatenate(
                [ids, np.full((n, pad), -1, dtype=np.int64)], axis=1
            )
            distances = np.concatenate(
                [distances, np.full((n, pad), np.inf)], axis=1
            )
        return SearchOutcome(ids=ids, distances=distances)

    # ------------------------------------------------------------------
    # Persistence and state export
    # ------------------------------------------------------------------
    def _state_meta(self) -> dict:
        """The JSON-able configuration record shared by ``save``,
        ``export_state`` and :meth:`content_fingerprint`.

        Only index-constructed backends (a registry kind) can be
        described — a caller-supplied instance may carry configuration
        this record cannot see, and a silently different rebuild would
        break the bit-identity guarantee.
        """
        if self._backend_kind is None:
            raise ValueError(
                "only index-constructed backends (backend='ferex'/'exact'/"
                "'gpu'/'tiered'/'routed') can be exported; this index "
                f"wraps a caller-supplied {type(self._backend).__name__} "
                "instance whose configuration the index-level metadata "
                "cannot see"
            )
        # Backends may carry *derived* configuration a snapshot cannot
        # re-derive (the routed backend's trained centroids depend on
        # insertion history); an ``export_options`` hook folds it into
        # the persisted options so replicas rebuild identically.
        options = dict(self._backend_options)
        export = getattr(self._backend, "export_options", None)
        if export is not None:
            options.update(export())
        return {
            "format_version": _FORMAT_VERSION,
            "dims": self.dims,
            "metric": self._metric_name(),
            "bits": self.bits,
            "backend": self._backend_kind,
            "bank_rows": self.bank_rows,
            "bank_configs": None,
            "backend_options": options,
            "encoder": self.encoder,
            "seed": self.seed,
            "next_id": self._next_id,
        }

    def export_state(self) -> "tuple[dict, dict]":
        """Snapshot the index as ``(meta, arrays)`` without touching
        disk.

        ``meta`` is the same configuration record :meth:`save` persists;
        ``arrays`` holds the canonical state in fixed dtypes —
        ``vectors``/``ids`` as ``int64``, ``alive`` as ``bool`` — every
        physically written row included (tombstones keep the bank
        layout, and with it each row's variation draw).  The arrays are
        the index's own buffers whenever dtypes already match, so
        copying (e.g. into a shared-memory segment) is the caller's
        decision.  :meth:`from_state` rebuilds a bit-identical index
        from the pair.
        """
        return self._state_meta(), {
            "vectors": np.ascontiguousarray(self._vectors, dtype=np.int64),
            "ids": np.ascontiguousarray(self._ids, dtype=np.int64),
            "alive": np.ascontiguousarray(self._alive, dtype=bool),
        }

    @classmethod
    def from_state(
        cls,
        meta: dict,
        vectors: np.ndarray,
        ids: np.ndarray,
        alive: np.ndarray,
        read_only: bool = False,
    ) -> "FerexIndex":
        """Rebuild an index from :meth:`export_state` output.

        Vectors re-program through the identical deterministic write
        path (same positions, same per-bank variation seeds), so search
        results are bit-identical to the exporting index.  A state that
        records ``bank_configs`` (a heterogeneous fleet) raises
        ``ValueError``: every bank runs at the index config.

        With ``read_only=True`` the arrays are adopted *without
        copying* — pass views over ``multiprocessing.shared_memory``
        buffers for a zero-copy attach — and the replica is marked
        immutable (``add``/``remove``/``compact`` raise), the
        discipline shared buffers require.  A mutable rebuild (the
        default) copies instead: ``remove`` flips liveness in place,
        which must never reach back into the exporter's state.
        """
        if meta["format_version"] > _FORMAT_VERSION:
            raise ValueError(
                f"index state format {meta['format_version']} is newer "
                f"than this library ({_FORMAT_VERSION})"
            )
        if meta.get("bank_configs"):
            # Format 2 recorded per-bank configs only for a fleet whose
            # banks diverged from the index config.
            raise ValueError(
                "index state has heterogeneous bank_configs "
                f"{meta['bank_configs']}; every bank must run at the "
                "index config"
            )
        index = cls(
            dims=meta["dims"],
            metric=meta["metric"],
            bits=meta["bits"],
            backend=meta["backend"],
            bank_rows=meta["bank_rows"],
            encoder=meta["encoder"],
            seed=meta["seed"],
            backend_options=meta.get("backend_options") or None,
        )
        adopt = np.asarray if read_only else np.array
        # Explicit int64 (not platform-int): exported state is int64,
        # and a platform where int != int64 would otherwise silently
        # copy — defeating the zero-copy shared-memory attach.
        index._hold(
            adopt(vectors, dtype=np.int64),
            adopt(ids, dtype=np.int64),
            adopt(alive, dtype=bool),
        )
        index._id_to_pos = {
            int(id_): pos
            for pos, (id_, live) in enumerate(zip(index._ids, index._alive))
            if live
        }
        index._next_id = int(meta["next_id"])
        if len(index._vectors):
            index._backend.add(index._vectors)
            dead = np.flatnonzero(~index._alive)
            if len(dead):
                index._backend.deactivate(dead)
        # State adoption replays as one bulk mutation: two rebuilds of
        # the same state report equal fingerprints and a fresh
        # (non-zero) write generation, so serving caches never bleed
        # across a reload or re-attach.
        index._note_mutation(
            b"load",
            _buffer(index._vectors),
            _buffer(index._ids),
            _buffer(index._alive),
        )
        index._read_only = read_only
        return index

    def save(self, path: "str | Path") -> None:
        """Persist the index to ``path`` (numpy ``.npz``).

        Stored: every physically written vector (tombstones included, so
        bank layout — and with it each row's variation draw — survives),
        ids, liveness, and the full configuration (metric, bits,
        encoding mode, bank geometry, variation seed).  Only backends
        the index constructed itself (a registry kind:
        ferex/exact/gpu/tiered/routed) can be persisted — see
        :meth:`export_state`.
        """
        meta, arrays = self.export_state()
        np.savez_compressed(
            path,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            vectors=arrays["vectors"],
            ids=arrays["ids"],
            alive=arrays["alive"],
        )

    @classmethod
    def load(cls, path: "str | Path") -> "FerexIndex":
        """Rebuild an index saved with :meth:`save` (bit-identical
        search results; see :meth:`from_state`).

        Accepts the same path that was given to :meth:`save`:
        ``np.savez_compressed`` appends ``.npz`` when missing, so load
        mirrors that rule.
        """
        path = str(path)
        if not path.endswith(".npz"):
            path += ".npz"
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            vectors = data["vectors"]
            ids = data["ids"]
            alive = data["alive"]
        # No astype here: from_state's mutable path already normalises
        # dtypes with one copy — converting twice would peak at 2x the
        # array memory on large indexes.
        return cls.from_state(meta, vectors, ids, alive)
