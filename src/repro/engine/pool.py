"""Stable-id point storage with mask-based pool membership.

The legacy driver re-materialized the experiment state every round:
``concatenate`` for the growing labeled set, a boolean-mask copy for the
shrinking pool, and (under non-NumPy backends) a fresh host-to-device
transfer of the whole pool per selection.  The **pool store** layer replaces
that churn with one master array and bookkeeping over **stable global point
ids**:

* every point (initially labeled + pool) gets an id ``0..N-1`` once;
* pool membership is a boolean mask over ids — labeling flips bits, nothing
  is copied or reindexed;
* the labeled set is an id list in acquisition order, so views reproduce the
  legacy concatenation order bit-for-bit;
* a backend-resident promoted copy of the master array serves the Fisher
  solvers: per-round pool views become device-side gathers, so under the
  torch backend the pool stays device-resident across rounds.

:class:`PoolStore` is the protocol the session engine programs against —
stable ids, mask membership, host/compute views, :meth:`~PoolStore.label`,
:meth:`~PoolStore.extend` — with all of the shared bookkeeping implemented
once.  The compute copy is kept per contiguous id **region**: a fresh store
has one region, every :meth:`~PoolStore.extend` appends one (so growth
promotes only the new rows), and a sharded store starts with one region per
shard.  Three implementations ship with the engine:

* :class:`DensePointStore` (this module) — one in-memory host master array,
  the pre-refactor behavior bit-for-bit, growable between rounds (the
  pool-refresh setting of Pinsler et al.'s batch-construction experiments);
* :class:`~repro.engine.stores.ShardedPointStore` — the pool id range is
  partitioned into per-rank contiguous shards with per-shard masks and
  per-shard compute regions, feeding the distributed solvers' shard-aware
  scatter;
* :class:`~repro.engine.stores.MmapPointStore` — the master lives on disk,
  for pools larger than host RAM.

Host views are materialized on demand (a gather per round — the classifier
is a host-side model); the master array is reallocated only when the pool
grows.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.backend import Array, get_backend
from repro.utils.validation import require

__all__ = ["PoolStore", "DensePointStore", "gather_region_compute"]


def _to_host(a) -> np.ndarray:
    """Return ``a`` as a host ndarray (no copy when it already is one)."""

    if isinstance(a, np.ndarray):
        return a
    return get_backend().to_numpy(a)


def gather_region_compute(backend, region_bounds: np.ndarray, ids: np.ndarray, region_gather):
    """Gather promoted features for ``ids`` from contiguous per-region masters.

    The routing core of :meth:`PoolStore.compute_features`, whose compute
    master is split into contiguous global-id regions (growth epochs,
    per-shard masters): each id is routed to its owning region via one
    ``searchsorted`` over the ascending ``region_bounds`` (length
    ``R + 1``), ``region_gather(region, local_ids)`` produces that region's
    promoted rows **already on the backend's primary device**, and the
    pieces are concatenated and reordered back to caller order — value-exact
    relative to a single-master gather.

    Returns ``None`` for empty ``ids`` so callers can supply their own empty
    view.
    """

    region = np.searchsorted(region_bounds[1:-1], ids, side="right")
    pieces, positions = [], []
    for r in range(len(region_bounds) - 1):
        sel = np.flatnonzero(region == r)
        if sel.size == 0:
            continue
        local = ids[sel] - int(region_bounds[r])
        pieces.append(region_gather(r, local))
        positions.append(sel)
    if not pieces:
        return None
    gathered = pieces[0] if len(pieces) == 1 else backend.xp.concatenate(pieces, axis=0)
    order = np.concatenate(positions)
    if bool(np.all(order[:-1] < order[1:])):  # already in caller order
        return gathered
    return gathered[backend.from_host(np.argsort(order, kind="stable"))]


class PoolStore:
    """Master point arrays plus pool/labeled membership over stable ids.

    This base class implements the full store contract — subclasses
    specialize *where* the points live (one dense block, per-rank shards, a
    file on disk), not *what* the session engine can ask of them.  The
    contract every implementation preserves:

    * **Stable global ids** — a point's id never changes once assigned, no
      matter how the pool shrinks (labeling) or grows (:meth:`extend`).
    * **Mask membership** — :attr:`in_pool` is a boolean mask over ids;
      :meth:`label` flips bits and appends to the acquisition-ordered
      labeled id list.
    * **Host views** — ``*_host`` methods gather host ndarrays for the
      host-side classifier, in pool order / acquisition order.
    * **Compute views** — :meth:`compute_features` gathers promoted
      (compute-dtype, device-resident under torch) features from cached
      per-region master copies; promotion is value-exact.
    * **Growth** — :meth:`extend` appends unlabeled points under fresh ids.

    Parameters
    ----------
    initial_features / initial_labels:
        The initially labeled points; they receive ids ``0..m0-1`` and start
        in the labeled set.
    pool_features / pool_labels:
        The unlabeled pool; ids ``m0..N-1``, all initially in the pool.
        ``pool_labels`` plays the oracle and is only revealed by
        :meth:`label`.
    """

    #: Store flavor advertised to strategies via ``SessionInfo.store_kind``.
    kind: str = "dense"

    def __init__(self, initial_features, initial_labels, pool_features, pool_labels):
        init_f = _to_host(initial_features)
        pool_f = _to_host(pool_features)
        require(init_f.ndim == 2 and pool_f.ndim == 2, "features must be 2-D")
        require(init_f.shape[1] == pool_f.shape[1], "feature dimensions must match")
        self.features: np.ndarray = self._build_master(init_f, pool_f)
        self.labels: np.ndarray = np.concatenate(
            [np.asarray(_to_host(initial_labels), dtype=np.int64),
             np.asarray(_to_host(pool_labels), dtype=np.int64)],
            axis=0,
        )
        require(self.features.shape[0] == self.labels.shape[0], "features and labels must align")
        self._init_bookkeeping(int(init_f.shape[0]))

    def _build_master(self, init_f: np.ndarray, pool_f: np.ndarray) -> np.ndarray:
        """Materialize the master feature array (hook for out-of-core stores).

        The base implementation is the one-dense-host-block layout every
        in-memory store uses; :class:`~repro.engine.stores.MmapPointStore`
        overrides it to stream both blocks into a disk-backed memmap without
        ever holding the concatenation in RAM.
        """

        return np.concatenate([init_f, pool_f], axis=0)

    def _init_bookkeeping(self, num_initial: int) -> None:
        """Initialize membership/caches over already-set master arrays.

        Factored out of ``__init__`` so alternate constructors
        (``MmapPointStore.from_file`` reopening an existing master) can skip
        the array-building half and still get identical bookkeeping.
        """

        self.num_initial = int(num_initial)
        self.total_points = int(self.features.shape[0])
        self.in_pool = np.zeros(self.total_points, dtype=bool)
        self.in_pool[self.num_initial:] = True
        self._labeled_ids = list(range(self.num_initial))
        self._pool_ids_cache: Optional[np.ndarray] = None
        # Global-id boundaries of the compute regions (ascending, length
        # R + 1) and their promoted masters, built on demand per backend.
        self._region_bounds = np.asarray([0, self.total_points], dtype=np.int64)
        self._region_masters: List[Optional[Array]] = [None]
        self._compute_backend = None
        #: Cumulative count of master rows promoted to compute storage
        #: (re-promotion after a backend switch counts again).
        self.promoted_rows = 0

    @classmethod
    def from_problem(cls, problem, **kwargs) -> "PoolStore":
        """Build a store from an :class:`~repro.active.ActiveLearningProblem`."""

        return cls(
            problem.initial_features,
            problem.initial_labels,
            problem.pool_features,
            problem.pool_labels,
            **kwargs,
        )

    @classmethod
    def factory(cls, **kwargs):
        """A ``problem -> store`` callable for ``SessionConfig.store``.

        Binds constructor keywords now, defers array wiring to the session:
        ``SessionConfig(store=ShardedPointStore.factory(num_shards=4))``.
        """

        def build(problem) -> "PoolStore":
            return cls.from_problem(problem, **kwargs)

        build.store_cls = cls
        return build

    # ------------------------------------------------------------------ #
    # sizes / id views
    # ------------------------------------------------------------------ #
    @property
    def dimension(self) -> int:
        return int(self.features.shape[1])

    @property
    def pool_size(self) -> int:
        return int(self.in_pool.sum())

    @property
    def num_labeled(self) -> int:
        return len(self._labeled_ids)

    @property
    def pool_ids(self) -> np.ndarray:
        """Sorted global ids of the current pool (cached between labelings)."""

        if self._pool_ids_cache is None:
            self._pool_ids_cache = np.flatnonzero(self.in_pool).astype(np.int64)
        return self._pool_ids_cache

    @property
    def labeled_ids(self) -> np.ndarray:
        """Global ids of the labeled set in acquisition order."""

        return np.asarray(self._labeled_ids, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # host views (for the host-side classifier and legacy-compatible paths)
    # ------------------------------------------------------------------ #
    def features_host(self, ids: np.ndarray) -> np.ndarray:
        """Host features for arbitrary global ``ids`` (gather from the master)."""

        return self.features[np.asarray(ids, dtype=np.int64)]

    def labels_host(self, ids: np.ndarray) -> np.ndarray:
        """Host labels for arbitrary global ``ids``."""

        return self.labels[np.asarray(ids, dtype=np.int64)]

    def pool_features_host(self) -> np.ndarray:
        return self.features_host(self.pool_ids)

    def pool_labels_host(self) -> np.ndarray:
        return self.labels_host(self.pool_ids)

    def labeled_features_host(self) -> np.ndarray:
        return self.features_host(self.labeled_ids)

    def labeled_labels_host(self) -> np.ndarray:
        return self.labels_host(self.labeled_ids)

    # ------------------------------------------------------------------ #
    # backend-resident compute views
    # ------------------------------------------------------------------ #
    def _checked_ids(self, ids) -> np.ndarray:
        """``ids`` as a flat int64 array, refusing ids outside ``0..N-1``."""

        ids = np.asarray(ids, dtype=np.int64).ravel()
        require(
            bool(ids.size == 0 or (ids.min() >= 0 and ids.max() < self.total_points)),
            "id out of range",
        )
        return ids

    def _region_backend(self, region: int, backend):
        """Backend placing ``region``'s master (the primary device here)."""

        return backend

    def _region_master(self, region: int, backend) -> Array:
        if self._compute_backend is not backend:
            self._region_masters = [None] * len(self._region_masters)
            self._compute_backend = backend
        if self._region_masters[region] is None:
            lo, hi = int(self._region_bounds[region]), int(self._region_bounds[region + 1])
            self._region_masters[region] = self._region_backend(region, backend).ascompute(
                self.features[lo:hi]
            )
            self.promoted_rows += hi - lo
        return self._region_masters[region]

    def compute_features(self, ids: np.ndarray) -> Array:
        """Promoted (compute-dtype) features for ``ids``, gathered backend-side.

        Each region's master is promoted/uploaded **once** (per backend);
        each call is then a device-side gather instead of a fresh host
        conversion of the round's pool.  Ids are routed to their owning
        region, gathered there — device-side when the region is pinned —
        and only the gathered rows travel to the primary device.  Float
        promotion is value-exact, so views carry bit-identical values to
        promoting the host view.
        """

        backend = get_backend()
        ids = self._checked_ids(ids)

        def gather(region: int, local: np.ndarray) -> Array:
            region_backend = self._region_backend(region, backend)
            piece = self._region_master(region, backend)[region_backend.from_host(local)]
            return backend.to_device(piece, backend.device)

        out = gather_region_compute(backend, self._region_bounds, ids, gather)
        if out is None:
            return backend.ascompute(self.features[:0])
        return out

    # ------------------------------------------------------------------ #
    # growth
    # ------------------------------------------------------------------ #
    def _check_extension(self, features, labels):
        """Validate an :meth:`extend` batch; return it as host arrays."""

        new_f = _to_host(features)
        new_y = np.asarray(_to_host(labels), dtype=np.int64).ravel()
        require(new_f.ndim == 2, "features must be 2-D")
        require(new_f.shape[0] > 0, "extend requires at least one point")
        require(int(new_f.shape[1]) == self.dimension, "feature dimensions must match")
        require(int(new_f.shape[0]) == int(new_y.shape[0]), "features and labels must align")
        return new_f, new_y

    def extend(self, features, labels) -> np.ndarray:
        """Append new unlabeled points to the pool; return their global ids.

        Ids assigned before an extend never change, so selections, labeled
        history and per-id strategy state stay valid across replenishment.
        ``labels`` join the hidden oracle side of the store — they are only
        revealed when :meth:`label` selects the points.  The new rows form
        one new compute region, so already-promoted regions stay valid and
        only the appended rows are promoted on the next compute view.
        """

        new_f, new_y = self._check_extension(features, labels)
        self.features = np.concatenate([self.features, new_f], axis=0)
        return self._append_region(new_y)

    def _append_region(self, new_labels: np.ndarray) -> np.ndarray:
        """Bookkeeping for rows just appended to :attr:`features`.

        The rows join the pool as one new compute region; returns their ids.
        """

        old_total = self.total_points
        self.labels = np.concatenate([self.labels, new_labels], axis=0)
        self.total_points = int(self.features.shape[0])
        self.in_pool = np.concatenate(
            [self.in_pool, np.ones(self.total_points - old_total, dtype=bool)]
        )
        self._pool_ids_cache = None
        self._region_bounds = np.append(self._region_bounds, self.total_points)
        self._region_masters.append(None)
        return np.arange(old_total, self.total_points, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # labeling
    # ------------------------------------------------------------------ #
    def provide_labels(self, ids: np.ndarray, labels: np.ndarray) -> None:
        """Overwrite the oracle labels of global ``ids`` with external answers.

        The serving path: a remote labeler answers a
        :class:`~repro.engine.session.QueryProposal`, and the session writes
        those answers into the label master *before* :meth:`label` reveals
        them — so retraining, pool accuracy and checkpoints all see the
        external labels.  Benchmarks and tests, whose stores are built with
        synthetic oracle columns, never need this.
        """

        ids = np.asarray(ids, dtype=np.int64).ravel()
        provided = np.asarray(labels, dtype=np.int64).ravel()
        require(ids.size == provided.size, "one label per id is required")
        require(
            bool(ids.size == 0 or (int(ids.min()) >= 0 and int(ids.max()) < self.total_points)),
            "label id out of range for this store",
        )
        self.labels[ids] = provided

    def label(self, pool_indices: np.ndarray):
        """Reveal the labels of pool-view rows ``pool_indices``.

        ``pool_indices`` are positions in the *current* pool view (what a
        :class:`~repro.baselines.SelectionStrategy` returns), in selection
        order; the points move from the pool to the labeled set in that
        order.  Returns ``(global_ids, labels)``.
        """

        pool_ids = self.pool_ids
        indices = np.asarray(pool_indices, dtype=np.int64).ravel()
        require(indices.size > 0, "at least one point must be labeled")
        require(
            bool(np.all((indices >= 0) & (indices < pool_ids.size))),
            "pool index out of range",
        )
        require(np.unique(indices).size == indices.size, "duplicate pool indices")
        global_ids = pool_ids[indices]
        self.in_pool[global_ids] = False
        self._labeled_ids.extend(int(g) for g in global_ids)
        self._pool_ids_cache = None
        return global_ids, self.labels[global_ids]

    def restore_membership(self, labeled_ids: np.ndarray) -> None:
        """Reset pool/labeled membership to a checkpointed acquisition history.

        ``labeled_ids`` is the complete labeled id list in acquisition order,
        starting with the initial block ``0..m0-1`` (how every session
        begins); all other ids return to the pool.  Used by
        ``ActiveSession.resume`` — membership is pure bookkeeping over the
        master arrays, so restoring it is exact regardless of store flavor
        (sharded masks are views into :attr:`in_pool`, pool growth is
        replayed before this call).
        """

        ids = np.asarray(labeled_ids, dtype=np.int64).ravel()
        require(ids.size >= self.num_initial, "labeled history is shorter than the initial block")
        require(
            bool(np.array_equal(ids[: self.num_initial], np.arange(self.num_initial))),
            "labeled history must start with the initial block in id order",
        )
        require(np.unique(ids).size == ids.size, "duplicate ids in the labeled history")
        acquired = ids[self.num_initial:]
        require(
            bool(
                acquired.size == 0
                or (int(acquired.min()) >= self.num_initial and int(acquired.max()) < self.total_points)
            ),
            "labeled id out of range for this store",
        )
        self.in_pool[:] = True
        self.in_pool[: self.num_initial] = False
        self.in_pool[acquired] = False
        self._labeled_ids = [int(i) for i in ids]
        self._pool_ids_cache = None


class DensePointStore(PoolStore):
    """The in-memory store: one dense host master array.

    This is the pre-refactor single-array store behavior bit-for-bit (the
    legacy-equivalence suite pins it against the frozen pre-session driver
    for every strategy), and it grows between rounds via :meth:`extend`;
    the base class implements everything, this subclass only fixes the
    ``kind`` tag.
    """

    kind = "dense"

