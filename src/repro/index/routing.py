"""Cluster-routed bank selection: IVF-style sublinear search at scale.

Every other backend scans *all* banks per query.  That is faithful to a
single CAM tile but not to how a multi-bank FeFET deployment reaches
millions of rows: the multi-bit CAM literature (arxiv 2011.07095)
organises arrays into banks and activates only the few a query can win
in.  :class:`RoutedBackend` reproduces that organisation in software:

1. **cluster** — k-means over the stored integer codes, with the
   assignment step riding the crossbar's exact integer kernel
   (:class:`repro.core.kernel.LUTKernel` over the metric's per-element
   distance table);
2. **pin** — each row is pinned to its nearest centroid at ``add`` /
   ``compact`` time; a cluster is the list of its rows' global
   positions, so cluster membership *is* bank placement;
3. **route** — a search first scores the query against the centroids
   (one tiny kernel evaluation) and only the ``top_p`` nearest
   clusters are scored.  The scan cost per query drops from O(all
   rows) to O(top_p clusters' rows) — sublinear in the stored set
   for a fixed cluster geometry.

A probed cluster is scored as **one kernel**: its written codes, taken
from the backend's narrow code mirror in local-row order, compiled on
first search against the configuration's (query value x stored value)
integer current LUT (:meth:`repro.core.FeReX.value_lut`).  A write
costs the rows it writes: an add appends the new rows' codes to each
touched cluster's compiled kernel (:meth:`LUTKernel.append`, equal to a
recompile bit for bit), a tombstone only flips the cluster's alive
mask, and only a compaction, ``rebuild`` or re-pin recompiles.
Every bank of one configuration compiles at that same quantum, so the
cluster kernel's scores are exactly the ones banks holding its rows
would read; the kernel scores a whole cluster as one BLAS product.  One
:func:`repro.circuits.lta.integer_top_k` over the cluster's alive mask
nominates, and only the winners convert to unit currents.  Like FeReX's
arrays, which all search at once and let only their winners out, the
probed clusters nominate side by side: a search hands them to every
idle lane (:func:`repro.core.blas.fan_out`) and merges their nominees
on its own thread, in cluster order, with every product on one BLAS
thread (:func:`repro.core.blas.one_thread`).  A cluster is therefore
its codes plus the one engine per backend that supplies the LUT: no
write programs a bank.  Only where no exact kernel exists does a
cluster program transient :class:`FerexBackend` banks from its codes
to answer, kept until its next write.  :attr:`RoutedBackend.n_banks`
counts the banks the clusters' written rows would fill.  Two inner
modes:

* ``inner="flat"`` (default) — each probed cluster nominates its
  ``k`` nearest rows by (row current, position) and candidates merge
  on (analog distance, global position), exactly like the flat
  backend's bank merge.  With ``top_p >= n_clusters`` every cluster
  is probed and results are **bit-identical to flat search** (the
  property test sweeps metrics x bits, including after remove /
  compact / reconfigure).
* ``inner="tiered"`` — probed clusters are voltaged at ``coarse_bits``
  and nominate ``refine_factor * k`` candidates by row-current
  readout; one exact full-precision rescore
  (:func:`repro.index.backends.refine`) decides across the routed
  subset.

Tiered search (``backend="tiered"``, :class:`TieredBackend`) is this
backend with one cluster probed in ``inner="tiered"`` mode: a coarse
pass over every row, then the rescore.  A one-centroid index skips the
centroid pass altogether — every row and query belongs to cluster 0 —
so it never builds the ``4**bits`` routing table and has no width limit
(:data:`MAX_ROUTED_BITS` bounds only multi-cluster indexes).

Routing is approximate exactly insofar as a true neighbor lives in an
unprobed cluster.  The accounting is honest: every search records
:attr:`RoutedBackend.last_routing` (probed clusters, scanned-row
fraction, forced probe expansions), ``benchmarks/bench_routing.py``
tracks recall@10 against exhaustive search, and a query whose ``top_p``
clusters hold fewer than ``k`` live rows automatically widens its probe
set in routing order — the backend never pads a result row it could
have answered.

Streaming ingest at scale rides two maintenance behaviours:

* **watermark compaction** — ``deactivate`` tracks each cluster's
  tombstone ratio and compacts any cluster crossing
  ``compact_watermark`` in the background of the write (global
  positions are untouched; only cluster-local rows move), so a
  long-lived index under churn never accumulates dead rows that
  searches keep scanning;
* **deterministic re-pinning** — ``rebuild`` (the index ``compact``)
  and :meth:`reconfigure_routing` re-train and re-pin from the live
  set.

Persistence discipline
----------------------
Centroids are *derived but not re-derivable* state: an index grown
incrementally trained on its first batch, while a replica rebuilt from
a snapshot would train on the whole set.  The backend therefore exports
its trained centroids through :meth:`export_options` (folded into the
index's ``backend_options`` metadata by ``save``/``export_state``), and
adopting a snapshot assigns every row to its nearest *exported*
centroid — the same rule every incremental ``add`` used, so replicas
(including shared-memory pool workers) route and answer exactly like
the publisher.

Device variation note: per-row variation draws are keyed by physical
placement, which routing reassigns on every re-pin; clusters are
therefore scored on ideal devices, keeping routed answers deterministic
and the ``top_p = n_clusters`` flat parity exact.
"""

from __future__ import annotations

import threading
import weakref
from functools import partialmethod
from typing import List, Optional, Tuple

import numpy as np

from ..circuits.lta import integer_top_k
from ..core.blas import fan_out, one_thread
from ..core.config import BankConfig, quantize_codes
from ..core.distance import metric_element_lut
from ..core.engine import FeReX
from ..core.kernel import KernelOverflowError, LUTKernel
from .backends import (
    BACKENDS,
    PAD_POSITION,
    FerexBackend,
    RowStore,
    code_store,
    merge_top_k,
    refine,
)

#: Widest code a multi-cluster routed index accepts.  Its centroid
#: kernel needs the ``4**bits``-entry element table
#: (:func:`repro.core.distance.metric_element_lut`), built
#: one ``metric.element`` call at a time: 0.5-0.9 s at 10 bits and
#: 2.5-4.5 s at 11 on one Xeon core, about 4x per bit beyond (16 bits
#: would be ~4.3e9 calls and a 32 GiB table).  One cluster needs no
#: table, so ``n_clusters=1`` has no limit.  Checked before any state
#: moves: at every ``add`` and in :meth:`RoutedBackend.reconfigure_routing`.
MAX_ROUTED_BITS = 10


def _check_width(n_clusters: int, config: BankConfig) -> None:
    if n_clusters > 1 and config.bits > MAX_ROUTED_BITS:
        raise ValueError(
            f"a {config.bits}-bit routed index cannot have "
            f"{n_clusters} clusters: centroid routing needs a "
            f"4**bits-entry table, built only up to {MAX_ROUTED_BITS} "
            "bits; use n_clusters=1 (no centroid pass) for wider codes"
        )


def train_centroids(
    vectors: np.ndarray,
    n_clusters: int,
    config: BankConfig,
    iters: int = 8,
    seed: int = 0,
) -> np.ndarray:
    """k-means over integer codes under ``config``'s metric — exact
    integer assignment distances via :class:`LUTKernel`, centroid
    updates snapped back onto the code alphabet.

    Returns ``(m, dims)`` integer centroids with
    ``m = min(n_clusters, len(vectors))``.  Deterministic under
    ``seed`` (initial picks and empty-cluster reseeds); assignment ties
    break to the lowest cluster index.  One centroid owns every row, so
    ``m == 1`` assigns without scoring (and without the kernel's
    ``4**bits`` table).
    """
    vectors = np.asarray(vectors, dtype=int)
    if vectors.ndim != 2 or not len(vectors):
        raise ValueError("training needs a (n, dims) code matrix")
    if n_clusters < 1:
        raise ValueError("n_clusters must be >= 1")
    rng = np.random.default_rng(seed)
    m = min(int(n_clusters), len(vectors))
    picks = rng.choice(len(vectors), size=m, replace=False)
    centroids = vectors[np.sort(picks)].copy()
    hi = config.n_values - 1
    for _ in range(max(1, int(iters))):
        assign = (
            np.zeros(len(vectors), dtype=np.int64)
            if m == 1
            else assign_codes(vectors, centroids, config)
        )
        sums = np.zeros((m, vectors.shape[1]), dtype=np.int64)
        np.add.at(sums, assign, vectors)
        counts = np.bincount(assign, minlength=m)
        empty = counts == 0
        if empty.any():
            # Reseed dead centroids onto random members; the update
            # below then leaves them exactly on those codes.
            reseeds = rng.choice(len(vectors), size=int(empty.sum()))
            sums[empty] = vectors[reseeds]
            counts[empty] = 1
        updated = np.clip(
            np.rint(sums / counts[:, None]).astype(int), 0, hi
        )
        if np.array_equal(updated, centroids):
            break
        centroids = updated
    return centroids


def assign_codes(
    vectors: np.ndarray, centroids: np.ndarray, config: BankConfig
) -> np.ndarray:
    """Nearest-centroid assignment under the config's exact metric
    (ties to the lowest cluster index) — one kernel evaluation."""
    table = _routing_kernel(centroids, config).scores(
        np.asarray(vectors, dtype=np.int64)
    )
    return np.argmin(table, axis=1)


def _routing_kernel(centroids: np.ndarray, config: BankConfig) -> LUTKernel:
    """The centroid-scoring kernel: stored codes are the centroids, the
    LUT is the metric's per-element distance table.  Compiled, not
    :meth:`DistanceMetric.pairwise`: many rows are scored against a few
    reused centroids, which a compiled table does several times faster
    over Lloyd training plus assignment."""
    return LUTKernel(
        np.asarray(centroids, dtype=np.int64),
        metric_element_lut(config.resolved, config.bits),
    )


class _Cluster:
    """One routing cell: the global insertion positions of its local
    rows, which of them still compete, and the kernel a search scores
    them with.  The codes themselves are the routed backend's mirror
    rows at those positions; the cluster stores none."""

    def __init__(self, owner: RoutedBackend):
        # Weak: a dropped backend's clusters and kernels go with it,
        # not with the next cyclic collection.
        self._owner = weakref.ref(owner)
        self.reset(np.empty(0, dtype=np.int64))

    def reset(self, globals_: np.ndarray) -> None:
        """Hold the rows at ``globals_``, every one live, uncompiled."""
        self._rows = RowStore(globals_, np.ones(len(globals_), dtype=bool))
        #: (written,) global position of each local row, strictly
        #: ascending — the invariant that makes local (current,
        #: position) tie-breaks equal global ones — and whether the
        #: local row still competes.
        self.globals_, self.alive = self._rows.columns
        #: The written codes compiled against the configuration's value
        #: LUT; ``None`` until a search compiles it.  An append extends
        #: it (:meth:`LUTKernel.append`); a tombstone only changes
        #: ``alive``.
        self.kernel: Optional[LUTKernel] = None
        self._sub: Optional[FerexBackend] = None

    def append(self, globals_: np.ndarray) -> None:
        """Hold new live rows at ``globals_`` (past every held one)."""
        self.globals_, self.alive = self._rows.append(
            globals_, np.ones(len(globals_), dtype=bool)
        )
        self._sub = None

    def kill(self, locals_: np.ndarray) -> None:
        """Tombstone local rows."""
        self.alive[locals_] = False
        self._sub = None

    @property
    def sub(self) -> FerexBackend:
        """Banks programmed from the cluster's codes, dead rows
        deactivated — the answer where no exact kernel exists.  Built
        on first use, kept until the cluster's next write."""
        owner = self._owner()
        with owner._compile_lock:
            if self._sub is None:
                self._sub = owner._banks(self)
            return self._sub

    @property
    def written(self) -> int:
        return len(self.globals_)

    @property
    def n_live(self) -> int:
        return int(self.alive.sum())

    @property
    def n_dead(self) -> int:
        return self.written - self.n_live


class RoutedBackend:
    """Cluster-routed search: k-means routing over clusters of stored
    codes, each probed cluster scored as one kernel.

    Parameters beyond the common backend set
    ----------------------------------------
    n_clusters:
        Routing cells to train (clamped to the training-set size).
        Above 1, codes may be at most :data:`MAX_ROUTED_BITS` wide.
    top_p:
        Clusters probed per query (IVF's ``nprobe``).  Automatically
        widened per query when the probed clusters hold fewer than
        ``k`` live rows.
    routing_seed / kmeans_iters / train_rows:
        k-means determinism knobs: RNG seed, Lloyd iterations, and the
        insertion-order prefix size training sees.
    compact_watermark:
        Tombstone ratio beyond which ``deactivate`` compacts a cluster
        in the background of the write.
    inner:
        ``"flat"`` (full-precision LTA within probed clusters) or
        ``"tiered"`` (coarse ``coarse_bits`` clusters + exact rescore
        of ``refine_factor * k`` nominees).
    centroids:
        Trained centroids to adopt (the persistence path; see
        :meth:`export_options`).  Ignored when they do not fit the
        configured alphabet — e.g. after ``reconfigure`` to fewer
        bits — in which case training re-runs on the next ``add``.
    seed:
        Accepted for registry-signature compatibility; clusters are
        scored on ideal devices regardless (see the module docstring).
    """

    name = "routed"

    def __init__(
        self,
        config: BankConfig,
        dims: int,
        bank_rows: int = 1024,
        encoder: str = "auto",
        seed: Optional[int] = None,
        n_clusters: int = 16,
        top_p: int = 4,
        routing_seed: int = 0,
        kmeans_iters: int = 8,
        train_rows: int = 32768,
        compact_watermark: float = 0.35,
        inner: str = "flat",
        coarse_bits: int = 1,
        refine_factor: int = 8,
        centroids: Optional[list] = None,
    ):
        if n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if top_p < 1:
            raise ValueError("top_p must be >= 1")
        if kmeans_iters < 1:
            raise ValueError("kmeans_iters must be >= 1")
        if train_rows < 1:
            raise ValueError("train_rows must be >= 1")
        if not 0.0 < compact_watermark <= 1.0:
            raise ValueError("compact_watermark must be in (0, 1]")
        if inner not in ("flat", "tiered"):
            raise ValueError(
                f"unknown inner mode {inner!r}; known: 'flat', 'tiered'"
            )
        if coarse_bits < 1:
            raise ValueError("coarse_bits must be >= 1")
        if refine_factor < 1:
            raise ValueError("refine_factor must be >= 1")
        self.config = config
        self.dims = dims
        self.bank_rows = bank_rows
        self.encoder = encoder
        self.seed = seed
        self.n_clusters = int(n_clusters)
        self.top_p = int(top_p)
        self.routing_seed = int(routing_seed)
        self.kmeans_iters = int(kmeans_iters)
        self.train_rows = int(train_rows)
        self.compact_watermark = float(compact_watermark)
        self.inner = inner
        self.coarse_bits = min(int(coarse_bits), self.config.bits)
        self.refine_factor = int(refine_factor)
        #: Auto-compactions performed by the tombstone watermark.
        self.n_auto_compactions = 0
        #: Accounting for the most recent search (None before one):
        #: probed clusters, scanned rows, scan fraction, expansions.
        self.last_routing: Optional[dict] = None
        # Rescore / re-pin mirror of everything physically written,
        # plus the global -> (cluster, local row) maps.  -1 in the
        # local map marks a tombstone whose row a watermark compaction
        # already reclaimed.
        self._reset_rows()
        self._centroids: Optional[np.ndarray] = None
        self._clusters: List[_Cluster] = []
        self._router: Optional[LUTKernel] = None
        # The clusters' (lut, quantum, unit current), () where no exact
        # kernel exists; see _value_lut.
        self._lut: Optional[tuple] = None
        # Single flight: concurrent readers compile each cluster once;
        # an append extends a compiled kernel under the same lock.
        self._compile_lock = threading.Lock()
        if centroids is not None:
            adopted = np.asarray(centroids, dtype=int)
            if (
                adopted.ndim == 2
                and adopted.shape[1] == dims
                and len(adopted)
                and adopted.min() >= 0
                and adopted.max() < self.config.n_values
            ):
                self._install_centroids(adopted)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_banks(self) -> int:
        """Banks the clusters' written rows (tombstones included) fill,
        ``bank_rows`` to a bank."""
        return sum(-(-c.written // self.bank_rows) for c in self._clusters)

    @property
    def n_trained_clusters(self) -> int:
        """Routing cells actually trained (0 before the first add)."""
        return len(self._clusters)

    @property
    def centroids(self) -> Optional[np.ndarray]:
        """Trained (m, dims) centroid codes; None before training."""
        if self._centroids is None:
            return None
        return self._centroids.copy()

    def cluster_sizes(self) -> np.ndarray:
        """(m,) live rows per cluster (the routing-fanout histogram)."""
        return np.array(
            [cluster.n_live for cluster in self._clusters], dtype=np.int64
        )

    def export_options(self) -> dict:
        """The backend's live routing configuration as JSON-able
        ``backend_options`` — including the trained centroids, which a
        snapshot cannot re-derive (training depended on insertion
        history).  ``FerexIndex`` folds this into persistence metadata
        so replicas route exactly like the exporter."""
        return {
            "n_clusters": self.n_clusters,
            "top_p": self.top_p,
            "routing_seed": self.routing_seed,
            "kmeans_iters": self.kmeans_iters,
            "train_rows": self.train_rows,
            "compact_watermark": self.compact_watermark,
            "inner": self.inner,
            "coarse_bits": self.coarse_bits,
            "refine_factor": self.refine_factor,
            "centroids": (
                None
                if self._centroids is None
                else self._centroids.tolist()
            ),
        }

    # ------------------------------------------------------------------
    # Cluster plumbing
    # ------------------------------------------------------------------
    def _sub_config(self) -> BankConfig:
        if self.inner == "tiered":
            return BankConfig(self.config.metric, self.coarse_bits)
        return BankConfig(self.config.metric, self.config.bits)

    def _sub_codes(self, codes: np.ndarray) -> np.ndarray:
        """Codes as a cluster scores them (their top ``coarse_bits``
        for the tiered inner mode)."""
        return quantize_codes(codes, self.config.bits, self._sub_config().bits)

    def _install_centroids(self, centroids: np.ndarray) -> None:
        """Adopt trained centroids: one empty cluster per centroid.  The
        first install also reads the clusters' ``(lut, quantum, unit
        current)`` from one engine (:meth:`FeReX.value_lut`), or ``()``
        where no exact kernel exists and :attr:`_Cluster.sub` answers."""
        self._centroids = np.asarray(centroids, dtype=int)
        self._router = None
        self._clusters = [_Cluster(self) for _ in self._centroids]
        if self._lut is None:
            engine = FeReX(
                dims=self.dims, encoder=self.encoder, config=self._sub_config()
            )
            try:
                lut, quantum = engine.value_lut()
                self._lut = (lut, quantum, engine.tech.cell.unit_current)
            except KernelOverflowError:
                self._lut = ()

    def _codes(self, cluster: _Cluster) -> np.ndarray:
        """A cluster's written codes, from the narrow code mirror in
        local-row order: what its kernel compiles and its banks hold."""
        return quantize_codes(
            self._vectors[cluster.globals_],
            self.config.bits,
            self._sub_config().bits,
        )

    def _banks(self, cluster: _Cluster) -> FerexBackend:
        """Ideal-device banks holding a cluster's codes in local-row
        order, its dead rows deactivated."""
        banks = FerexBackend(
            self._sub_config(), self.dims, self.bank_rows, self.encoder
        )
        banks.rebuild(self._codes(cluster))
        banks.deactivate(np.flatnonzero(~cluster.alive))
        return banks

    #: Rows per centroid-kernel evaluation during assignment: bounds
    #: the transient (chunk, n_clusters) score table so pinning a
    #: million-row ingest never materialises a gigabyte intermediate.
    _ASSIGN_CHUNK = 65536

    def _assign(self, vectors: np.ndarray) -> np.ndarray:
        vectors = np.asarray(vectors, dtype=np.int64)
        out = np.empty(len(vectors), dtype=np.int64)
        for lo in range(0, len(vectors), self._ASSIGN_CHUNK):
            block = vectors[lo : lo + self._ASSIGN_CHUNK]
            out[lo : lo + len(block)] = np.argmin(self._route(block), axis=1)
        return out

    def _route(self, codes: np.ndarray) -> np.ndarray:
        """(n, m) exact code-to-centroid distances.  A lone centroid
        is everyone's nearest, so one cluster skips the kernel (and
        its ``4**bits`` table) and reads all zeros."""
        if len(self._centroids) == 1:
            return np.zeros((len(codes), 1), dtype=np.int64)
        if self._router is None:
            self._router = _routing_kernel(self._centroids, self.config)
        return self._router.scores(np.asarray(codes, dtype=np.int64))

    def _append(self, vectors: np.ndarray, globals_: np.ndarray) -> None:
        """Pin vectors (at ascending global positions ``globals_``) to
        their nearest clusters, keeping each cluster's local order
        global-position ascending.  A cluster with a compiled kernel
        appends the new rows' codes to it."""
        assign = self._assign(vectors)
        for ci in np.unique(assign):
            members = np.flatnonzero(assign == ci)
            cluster = self._clusters[ci]
            local_start = cluster.written
            with self._compile_lock:
                if cluster.kernel is not None:
                    cluster.kernel.append(self._sub_codes(vectors[members]))
            positions = globals_[members]
            cluster.append(positions)
            self._cluster_of[positions] = ci
            self._local_of[positions] = local_start + np.arange(
                len(members), dtype=np.int64
            )

    # ------------------------------------------------------------------
    # Mutation (the SearchBackend protocol)
    # ------------------------------------------------------------------
    def _reset_rows(self) -> None:
        """Empty rescore / re-pin mirror and position maps."""
        self._rows = RowStore(
            code_store(self.dims, self.config.bits),
            np.empty(0, dtype=bool),
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.int64),
        )
        self._take_rows(self._rows.columns)

    def _take_rows(self, columns: tuple) -> None:
        self._vectors, self._alive, self._cluster_of, self._local_of = columns

    def add(self, vectors: np.ndarray) -> None:
        _check_width(self.n_clusters, self.config)
        vectors = np.asarray(vectors, dtype=int)
        n = len(vectors)
        if not n:
            return
        start = len(self._vectors)
        self._take_rows(
            self._rows.append(
                vectors,
                np.ones(n, dtype=bool),
                np.full(n, -1, dtype=np.int32),
                np.full(n, -1, dtype=np.int64),
            )
        )
        if self._centroids is None:
            prefix = np.asarray(
                self._vectors[: min(len(self._vectors), self.train_rows)],
                dtype=int,
            )
            self._install_centroids(
                train_centroids(
                    prefix,
                    self.n_clusters,
                    self.config,
                    iters=self.kmeans_iters,
                    seed=self.routing_seed,
                )
            )
        self._append(vectors, np.arange(start, len(self._vectors)))

    def deactivate(self, positions: np.ndarray) -> None:
        positions = np.asarray(positions, dtype=np.int64)
        self._alive[positions] = False
        owners = self._cluster_of[positions]
        for ci in np.unique(owners):
            cluster = self._clusters[ci]
            cluster.kill(self._local_of[positions[owners == ci]])
            if cluster.n_dead / cluster.written >= self.compact_watermark:
                self._compact_cluster(ci)

    def _compact_cluster(self, ci: int) -> None:
        """Drop one tombstone-heavy cluster's dead rows; its kernel
        recompiles from the live ones on the next search.

        Global positions are untouched — only cluster-local rows move —
        so the index (and every position-keyed guarantee above it)
        never notices; reclaimed tombstones simply stop occupying kernel
        rows the search would otherwise mask per query.
        """
        cluster = self._clusters[ci]
        self._local_of[cluster.globals_[~cluster.alive]] = -1
        live = cluster.globals_[cluster.alive]
        cluster.reset(live)
        self._local_of[live] = np.arange(len(live), dtype=np.int64)
        self.n_auto_compactions += 1

    def rebuild(self, vectors: np.ndarray) -> None:
        """Fresh build of the live set (the index ``compact``):
        re-train on the new insertion order and re-pin everything."""
        vectors = np.asarray(vectors, dtype=int)
        self._reset_rows()
        self._centroids = None
        self._router = None
        self._clusters = []
        if len(vectors):
            self.add(vectors)

    # ------------------------------------------------------------------
    # Routing reconfiguration
    # ------------------------------------------------------------------
    def reconfigure_routing(
        self,
        top_p: Optional[int] = None,
        n_clusters: Optional[int] = None,
    ) -> Tuple[int, int]:
        """Online routing reconfigure: ``top_p`` moves instantly (it is
        a search-time knob); ``n_clusters`` re-trains k-means on the
        live set and re-pins every cluster.  Returns the effective
        ``(top_p, n_clusters)``.  Global positions survive either way.
        """
        if n_clusters is not None:
            if int(n_clusters) < 1:
                raise ValueError("n_clusters must be >= 1")
            _check_width(int(n_clusters), self.config)
        if top_p is not None:
            if int(top_p) < 1:
                raise ValueError("top_p must be >= 1")
            self.top_p = int(top_p)
        if n_clusters is not None:
            self.n_clusters = int(n_clusters)
            if self._centroids is not None:
                self._repin()
        return self.top_p, self.n_clusters

    def _repin(self) -> None:
        """Re-train on the live rows (insertion-order prefix) and
        re-pin them; reclaimed tombstones drop out entirely."""
        live = np.flatnonzero(self._alive)
        if not len(live):
            self._centroids = None
            self._router = None
            self._clusters = []
            return
        vectors = self._vectors[live].astype(int)
        self._install_centroids(
            train_centroids(
                vectors[: self.train_rows],
                self.n_clusters,
                self.config,
                iters=self.kmeans_iters,
                seed=self.routing_seed,
            )
        )
        self._cluster_of[:] = -1
        self._local_of[:] = -1
        self._append(vectors, live)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _probe_plan(
        self, queries: np.ndarray, need: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Routing pass: per query, the clusters to probe.

        Returns ``(member, live_counts)`` where ``member`` is an
        (n, m) boolean probe matrix covering the ``top_p`` nearest
        clusters by (centroid distance, cluster index) — widened per
        query, in routing order, until the probed clusters hold at
        least ``need`` live rows.
        """
        n = len(queries)
        m = len(self._clusters)
        distances = self._route(queries)
        order = np.argsort(distances, axis=1, kind="stable")
        live_counts = self.cluster_sizes()
        cum = np.cumsum(live_counts[order], axis=1)
        base = min(self.top_p, m)
        needed = np.sum(cum < need, axis=1) + 1
        p_eff = np.minimum(np.maximum(base, needed), m)
        max_p = int(p_eff.max())
        probe = order[:, :max_p]
        mask = np.arange(max_p)[None, :] < p_eff[:, None]
        member = np.zeros((n, m), dtype=bool)
        member[np.arange(n)[:, None], probe] = mask
        self.last_routing = {
            "n_queries": n,
            "n_clusters": m,
            "top_p": base,
            "probed_clusters_mean": float(p_eff.mean()),
            "expanded_queries": int((p_eff > base).sum()),
            "rows_scanned": int((live_counts[probe] * mask).sum()),
            "rows_live": int(live_counts.sum()) * n,
        }
        self.last_routing["scan_fraction"] = (
            self.last_routing["rows_scanned"]
            / max(1, self.last_routing["rows_live"])
        )
        return member, live_counts

    def _value_lut(self) -> Optional[tuple]:
        """The clusters' ``(lut, quantum, unit current)``, read at the
        first install; ``None`` where no exact kernel exists."""
        return self._lut or None

    def _kernel(self, cluster: _Cluster) -> LUTKernel:
        """The cluster's kernel: its written codes, from the narrow code
        mirror in local-row order, against the configuration's value
        LUT — compiled once, however many readers ask at once, then
        appended to by :meth:`_append`."""
        with self._compile_lock:
            if cluster.kernel is None:
                cluster.kernel = LUTKernel(
                    self._codes(cluster), self._value_lut()[0]
                )
            return cluster.kernel

    def _nominate(
        self, cluster: _Cluster, scorer, queries: np.ndarray, c: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """A cluster's ``c`` nearest live local rows in (row current,
        local row) order, with their unit currents: ``scorer``, the
        cluster's kernel, scores every written row, one
        :func:`integer_top_k` selects over the alive mask, and only the
        winners convert to units.  Without an exact kernel ``scorer``
        is the cluster's transient banks, which answer instead."""
        lut = self._value_lut()
        if lut is None:
            if self.inner == "tiered":
                return scorer.shortlist(queries, c, with_units=True)
            return scorer.search(queries, c)
        _, quantum, unit_current = lut
        raw = scorer.scores(queries).astype(np.int64)
        local = integer_top_k(raw, c, cluster.alive)
        score = raw[np.arange(len(raw))[:, None], local]
        return local, score * quantum / unit_current

    def _gather(
        self, queries: np.ndarray, need: int, count: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Route, then scatter every probed cluster's nominees into
        per-query candidate slots.

        The probe plan covers at least ``need`` live rows per query;
        each probed cluster contributes its ``min(count, live rows)``
        best through :meth:`_nominate`, on every idle lane
        (:func:`repro.core.blas.fan_out`).  The scatter runs here, in
        cluster order, so the candidates do not depend on the lanes.
        Returns (n, cap) global positions and unit currents, unfilled
        slots holding ``(PAD_POSITION, inf)``.
        """
        member, live_counts = self._probe_plan(queries, need)
        n = len(queries)
        contributions = np.minimum(live_counts[None, :], count) * member
        cap = int(contributions.sum(axis=1).max())
        cand_pos = np.full((n, cap), PAD_POSITION, dtype=np.int64)
        cand_score = np.full((n, cap), np.inf)
        fill = np.zeros(n, dtype=np.int64)
        # Quantise once for the whole batch; the per-cluster code is an
        # elementwise function of the query row, so slicing rows out of
        # the precomputed table is bit-identical to re-encoding them.
        sub_queries = self._sub_codes(queries)
        exact = self._value_lut() is not None
        jobs = []
        for ci, cluster in enumerate(self._clusters):
            rows = np.flatnonzero(member[:, ci])
            c = min(count, int(live_counts[ci]))
            if len(rows) and c:
                # Kernels and banks are built here, so lanes only score.
                scorer = self._kernel(cluster) if exact else cluster.sub
                jobs.append((cluster, scorer, rows, c))

        def nominate(job: int) -> Tuple[np.ndarray, np.ndarray]:
            cluster, scorer, rows, c = jobs[job]
            return self._nominate(cluster, scorer, sub_queries[rows], c)

        nominees = fan_out(nominate, len(jobs))
        for (cluster, _, rows, c), (local, score) in zip(jobs, nominees):
            cols = fill[rows, None] + np.arange(c)[None, :]
            cand_pos[rows[:, None], cols] = cluster.globals_[local]
            cand_score[rows[:, None], cols] = score
            fill[rows] += c
        return cand_pos, cand_score

    def search(
        self, queries: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Route, score the probed clusters, merge on (distance, global
        position).

        Each probed cluster is one kernel evaluation
        (:meth:`_nominate`).
        ``inner="flat"`` clusters nominate ``k`` rows each and
        distances are unit currents, bit-identical to what the flat
        backend reports; ``inner="tiered"`` clusters score at
        ``coarse_bits`` and nominate ``refine_factor * k`` rows each,
        and one exact full-precision :func:`refine` across the union
        decides, so distances are exact integer rescores (as floats).
        Probed clusters are scored on every idle lane
        (:func:`repro.core.blas.fan_out`) and merged on the calling
        thread in cluster order, so the answer does not depend on the
        lanes; every product runs on one BLAS thread.
        """
        with one_thread():
            if self.inner == "tiered":
                candidates, _ = self._gather(
                    queries, k, max(k * self.refine_factor, k)
                )
                return refine(
                    self.config, self._vectors, queries, candidates, k
                )
            return merge_top_k(*self._gather(queries, k, k), k)

    def shortlist(self, queries: np.ndarray, c: int) -> np.ndarray:
        """(n, c) nearest global positions by row-current readout
        within the routed subset — the probe plan widens until the
        probed clusters hold ``c`` live rows, then per-cluster
        nominees merge on (unit current, global position).  Runs on
        one BLAS thread, like :meth:`search`."""
        with one_thread():
            return merge_top_k(*self._gather(queries, c, c), c)[0]


class TieredBackend(RoutedBackend):
    """Coarse-to-fine search: a low-bit FeReX pass nominates, an exact
    full-precision rescore decides — a :class:`RoutedBackend` with one
    cluster, probed in ``inner="tiered"`` mode.

    The cluster is scored at ``coarse_bits`` (default 1), on the top
    bits of every stored code: a search takes the
    ``max(k * refine_factor, k)`` nearest rows per query by row-current
    readout — a much cheaper array evaluation, since the low-bit cell
    needs fewer FeFETs per element — then rescores only those with
    exact full-precision distances (:func:`refine`).
    Returned distances are therefore exact integer distances (as
    floats), and results are approximate exactly insofar as the
    shortlist misses a true neighbor (``benchmarks/bench_reconfig.py``
    tracks that recall).  ``coarse_bits >= bits`` degenerates
    gracefully: the coarse pass runs at full precision and the rescore
    only re-ranks ties.

    Everything else is the routed backend's, by decision: tombstone
    watermark compaction (a cluster past ``compact_watermark`` dead
    rows is recompiled from its live rows — same answers, fewer rows
    read, one coarse recompile per crossing), ``last_routing``
    accounting, persisted options, and :meth:`reconfigure_routing`
    to more clusters.  Only the defaults differ: ``n_clusters=1``,
    ``top_p=1``, ``inner="tiered"``.
    """

    name = "tiered"
    __init__ = partialmethod(
        RoutedBackend.__init__, n_clusters=1, top_p=1, inner="tiered"
    )


BACKENDS[RoutedBackend.name] = RoutedBackend
BACKENDS[TieredBackend.name] = TieredBackend
