"""Common interface and lifecycle protocol for batch selection strategies.

The active-learning drivers (the legacy :func:`repro.active.run_active_learning`
wrapper and the stateful :class:`repro.engine.ActiveSession`) treat every
method — Random, K-Means, Entropy, Exact-FIRAL, Approx-FIRAL — as a
:class:`SelectionStrategy`: given the current pool, the current classifier's
probabilities and the labeling budget, return the indices to label next.

Strategies additionally participate in a **session lifecycle** so that
methods with cross-round state (FIRAL's reused η, importance-weighted pools,
incremental posteriors) can persist it through a run:

* :meth:`SelectionStrategy.begin_session` — called once before the first
  round with a :class:`SessionInfo` describing the run;
* :meth:`SelectionStrategy.select` — called once per round;
* :meth:`SelectionStrategy.observe_labels` — called after each round's oracle
  reveal with a :class:`LabelObservation`.

Both lifecycle hooks default to no-ops, so the stateless baselines are
untouched call sites; duck-typed objects that only implement ``select`` are
wrapped by :func:`ensure_lifecycle` into a :class:`StatelessStrategyAdapter`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.fisher.operators import FisherDataset
from repro.utils.random import as_generator
from repro.utils.validation import check_features, check_probabilities, require

__all__ = [
    "SelectionContext",
    "SelectionStrategy",
    "SessionInfo",
    "LabelObservation",
    "StatelessStrategyAdapter",
    "ensure_lifecycle",
    "FIRALStrategy",
]


@dataclass
class SessionInfo:
    """Run-level facts handed to strategies at ``begin_session``.

    Attributes
    ----------
    num_classes / dimension:
        Problem shape.
    budget_per_round:
        Points labeled per round (``b``).
    pool_size:
        Pool size at session start.
    num_rounds:
        Planned number of rounds, when the driver knows it (``None`` for
        open-ended sessions driven round by round).
    reuse_eta:
        Whether the session asks FIRAL-style strategies to reuse the previous
        round's winning FTRL learning rate η instead of re-running the § IV-A
        grid search every round (see ``SessionConfig.reuse_eta``).
    parallel_ranks:
        When set, the session asks FIRAL-style strategies to execute their
        selection step (RELAX + ROUND) across this many ranks of the
        distributed solvers (see ``SessionConfig.parallel_ranks``).
        Strategies without a distributed formulation ignore it.
    parallel_transport:
        Transport for ``parallel_ranks``: ``"simulated"`` (threads) or
        ``"shared_memory"`` (real spawned OS processes).
    store_kind:
        Which :class:`~repro.engine.PoolStore` flavor backs the session
        (``"dense"`` / ``"sharded"`` / ``"streaming"``).  Strategies need no
        store-specific code — the store contract is uniform — but stateful
        ones may use this to anticipate e.g. pool growth under a streaming
        store.
    num_store_shards:
        Shard count of a sharded store (``None`` otherwise).  When set
        together with ``parallel_ranks``, each rank's scatter follows the
        store's shard ownership (``SelectionContext.shard_offsets``).
    prefilter:
        Kind name of the session's candidate prefilter
        (:class:`~repro.engine.prefilter.CandidateFilter`), or ``None`` when
        every round scores the whole pool.  When set, each round's
        :class:`SelectionContext` carries :attr:`~SelectionContext.candidate_ids`
        and strategies score only the restricted candidate set.
    on_rank_failure:
        Session policy when a multi-rank selection loses a rank
        (``SessionConfig.on_rank_failure``): ``"abort"`` propagates the
        failure, ``"repartition_retry"`` asks FIRAL-style strategies to
        re-partition the pool over fewer ranks and re-run the round.
        Strategies without a distributed formulation ignore it.
    fault_plan:
        Optional :class:`~repro.parallel.faults.FaultPlan` the session
        injects into every multi-rank launch (chaos testing); ``None`` in
        production.
    """

    num_classes: int
    dimension: int
    budget_per_round: int
    pool_size: int
    num_rounds: Optional[int] = None
    reuse_eta: bool = False
    parallel_ranks: Optional[int] = None
    parallel_transport: str = "simulated"
    store_kind: str = "dense"
    num_store_shards: Optional[int] = None
    prefilter: Optional[str] = None
    on_rank_failure: str = "abort"
    fault_plan: Optional[object] = None


@dataclass
class LabelObservation:
    """What the oracle revealed after one round's selection.

    Attributes
    ----------
    round_index:
        0-based index of the round that just finished.
    pool_indices:
        The selected indices *as returned by the strategy* — positions in the
        pool view that round's :class:`SelectionContext` exposed.
    global_ids:
        Stable point ids of the same selection (ids never shift as the pool
        shrinks; see :class:`repro.engine.DensePointStore`).  Empty when the
        driver does not track global ids.
    labels:
        The revealed labels, aligned with ``pool_indices``.
    """

    round_index: int
    pool_indices: np.ndarray
    global_ids: np.ndarray
    labels: np.ndarray


@dataclass
class SelectionContext:
    """Everything a selection strategy may consult in one round.

    Attributes
    ----------
    pool_features:
        Unlabeled candidate features ``X_u``, shape ``(n, d)``.
    pool_probabilities:
        Current classifier probabilities on the pool, shape ``(n, c)``.
    labeled_features:
        Already-labeled features ``X_o``, shape ``(m, d)``.
    labeled_probabilities:
        Current classifier probabilities on the labeled points, ``(m, c)``.
    budget:
        Number of points ``b`` to pick this round.
    rng:
        Generator for stochastic strategies (Random, K-Means init).
    pool_ids:
        Optional stable global ids of the pool rows (session engine only).
        ``pool_ids[i]`` identifies ``pool_features[i]`` across rounds even as
        the pool shrinks; stateful strategies use it to carry per-point state
        forward.
    round_index:
        Optional 0-based round counter (session engine only).
    prepared_fisher:
        Optional pre-assembled Fisher dataset.  The session engine builds it
        from session-resident (possibly device-resident) arrays — including a
        cached/incremental ``B(H_o)`` — so :meth:`fisher_dataset` can return
        it instead of re-deriving everything from the host views above.
    shard_offsets:
        Optional pool-view partition boundaries by owning shard (length
        ``num_shards + 1``), present when the session's store is sharded.
        Rows ``shard_offsets[r] : shard_offsets[r + 1]`` of the pool view
        belong to shard ``r``; multi-rank FIRAL selection scatters along
        these boundaries instead of re-balancing the pool every round.
    shard_devices:
        Optional per-shard device strings (one per shard of
        ``shard_offsets``), present when the session's store pins each
        shard's compute master to its own device.  Multi-rank FIRAL
        selection forwards them so each rank promotes its shard on the
        shard's device; absent (or on single-device backends) ranks use the
        backend's primary device, the pre-pinning behavior.
    candidate_ids:
        Optional sorted stable ids of this round's **candidate set** — the
        subset of ``pool_ids`` that survived the session's
        :class:`~repro.engine.prefilter.CandidateFilter`.  When present,
        strategies must score only the candidate rows
        (:meth:`candidate_positions` gives their pool-view positions) and
        still return *pool-view* indices, mapping candidate-local results
        back through those positions.  ``None`` means every pool row is a
        candidate (the exact path).
    """

    pool_features: np.ndarray
    pool_probabilities: np.ndarray
    labeled_features: np.ndarray
    labeled_probabilities: np.ndarray
    budget: int
    rng: np.random.Generator
    pool_ids: Optional[np.ndarray] = None
    round_index: Optional[int] = None
    prepared_fisher: Optional[FisherDataset] = field(default=None, repr=False)
    shard_offsets: Optional[np.ndarray] = None
    shard_devices: Optional[tuple] = None
    candidate_ids: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.pool_features = check_features(self.pool_features, "pool_features")
        self.pool_probabilities = check_probabilities(self.pool_probabilities, name="pool_probabilities")
        self.labeled_features = check_features(self.labeled_features, "labeled_features")
        self.labeled_probabilities = check_probabilities(
            self.labeled_probabilities, name="labeled_probabilities"
        )
        require(self.budget > 0, "budget must be positive")
        require(
            self.budget <= self.pool_features.shape[0],
            "budget exceeds the number of pool points",
        )
        self.rng = as_generator(self.rng)
        if self.pool_ids is not None:
            self.pool_ids = np.asarray(self.pool_ids, dtype=np.int64).ravel()
            require(
                self.pool_ids.shape[0] == self.pool_features.shape[0],
                "pool_ids must have one id per pool point",
            )
        if self.shard_offsets is not None:
            self.shard_offsets = np.asarray(self.shard_offsets, dtype=np.int64).ravel()
            require(self.shard_offsets.shape[0] >= 2, "shard_offsets needs at least one shard")
            require(
                int(self.shard_offsets[0]) == 0
                and int(self.shard_offsets[-1]) == self.pool_features.shape[0]
                and bool(np.all(np.diff(self.shard_offsets) >= 0)),
                "shard_offsets must partition the pool view",
            )
        if self.shard_devices is not None:
            self.shard_devices = tuple(str(d) for d in self.shard_devices)
            require(
                self.shard_offsets is not None
                and len(self.shard_devices) == self.shard_offsets.shape[0] - 1,
                "shard_devices must name one device per shard of shard_offsets",
            )
        self._candidate_positions: Optional[np.ndarray] = None
        if self.candidate_ids is not None:
            require(
                self.pool_ids is not None,
                "candidate_ids requires pool_ids (session-engine contexts)",
            )
            require(
                bool(np.all(np.diff(self.pool_ids) > 0)),
                "candidate_ids requires sorted pool_ids (the position mapping "
                "uses binary search)",
            )
            self.candidate_ids = np.asarray(self.candidate_ids, dtype=np.int64).ravel()
            require(
                self.candidate_ids.size >= self.budget,
                "candidate set is smaller than the budget",
            )
            require(
                self.candidate_ids.size <= self.pool_ids.size,
                "candidate set is larger than the pool",
            )
            require(
                bool(np.all(np.diff(self.candidate_ids) > 0)),
                "candidate_ids must be sorted and unique",
            )
            positions = np.searchsorted(self.pool_ids, self.candidate_ids)
            require(
                bool(np.all(positions < self.pool_ids.size))
                and bool(np.all(self.pool_ids[positions] == self.candidate_ids)),
                "candidate_ids must be a subset of pool_ids",
            )
            self._candidate_positions = positions

    def candidate_positions(self) -> Optional[np.ndarray]:
        """Pool-view row positions of the candidate set (``None`` when unfiltered).

        Positions are sorted ascending (candidate ids are sorted and pool ids
        are kept sorted by the session engine), so for any candidate-local
        index array ``local``, ``positions[local]`` maps it back to pool-view
        indices while preserving relative order.
        """

        return self._candidate_positions

    def fisher_dataset(self) -> FisherDataset:
        """Bundle the context into the Fisher container FIRAL consumes.

        When the driver threaded in a :attr:`prepared_fisher` (the session
        engine's resident-pool path), that instance is returned directly —
        under a prefiltered session it is already restricted to the candidate
        rows.  Otherwise the full ``(n, c)`` probability matrices are
        converted to the paper's reduced ``(n, c-1)`` parameterization
        (Eq. 1), which removes the softmax null space and keeps ``Sigma_z``
        well conditioned; when :attr:`candidate_ids` is present, only the
        candidate rows enter the pool side, so RELAX, the η grid search and
        ROUND all run on the restricted dataset and their indices are
        candidate-local.
        """

        if self.prepared_fisher is not None:
            return self.prepared_fisher

        from repro.models.softmax import reduced_probabilities

        pool_features = self.pool_features
        pool_probabilities = self.pool_probabilities
        if self._candidate_positions is not None:
            from repro.backend import get_backend

            idx = get_backend().from_host(self._candidate_positions)
            pool_features = pool_features[idx]
            pool_probabilities = pool_probabilities[idx]
        return FisherDataset(
            pool_features=pool_features,
            pool_probabilities=reduced_probabilities(pool_probabilities),
            labeled_features=self.labeled_features,
            labeled_probabilities=reduced_probabilities(self.labeled_probabilities),
        )


class SelectionStrategy(abc.ABC):
    """Base class for batch selection methods.

    Subclasses implement :meth:`select`; the lifecycle hooks
    :meth:`begin_session` / :meth:`observe_labels` / :meth:`end_session`
    default to no-ops so stateless strategies need not know sessions exist.
    """

    #: human-readable method name used in result tables / plots
    name: str = "strategy"

    #: whether repeated trials with different seeds give different selections
    is_stochastic: bool = False

    #: whether :meth:`select` calls ``context.fisher_dataset()``.  Drivers use
    #: this to skip pre-assembling Fisher inputs (promoted gathers, the
    #: ``B(H_o)`` cache) for strategies that never read them; a strategy that
    #: leaves it ``False`` and still calls ``fisher_dataset()`` just gets the
    #: host-array fallback construction.
    consumes_fisher: bool = False

    def begin_session(self, info: SessionInfo) -> None:
        """Lifecycle hook: a multi-round session is starting (no-op default)."""

    @abc.abstractmethod
    def select(self, context: SelectionContext) -> np.ndarray:
        """Return ``budget`` distinct pool indices to label next."""

    def observe_labels(self, observation: LabelObservation) -> None:
        """Lifecycle hook: the oracle revealed a round's labels (no-op default)."""

    def end_session(self) -> None:
        """Lifecycle hook: release what the session held (no-op default).

        The session calls it after its last planned round and when it is
        closed.  A strategy asked to select again afterwards must still
        work, re-acquiring what it released.
        """

    def state_dict(self) -> dict:
        """JSON-serializable cross-round state for session checkpointing.

        Stateless strategies return ``{}`` (the default); stateful ones
        return everything :meth:`load_state_dict` needs to resume
        bit-identically mid-session.
        """

        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore cross-round state saved by :meth:`state_dict` (no-op default)."""

    def _validate_selection(self, indices: np.ndarray, context: SelectionContext) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64).ravel()
        require(indices.size == context.budget, "strategy returned the wrong number of indices")
        require(np.unique(indices).size == indices.size, "strategy returned duplicate indices")
        require(
            bool(np.all((indices >= 0) & (indices < context.pool_features.shape[0]))),
            "strategy returned out-of-range indices",
        )
        return indices


class StatelessStrategyAdapter(SelectionStrategy):
    """Wrap a bare ``select(context)`` object into the lifecycle protocol.

    Lets externally defined duck-typed strategies (anything exposing
    ``select``) run under the session engine without subclassing
    :class:`SelectionStrategy`; the lifecycle hooks stay no-ops.
    """

    def __init__(self, strategy):
        require(hasattr(strategy, "select"), "strategy must expose a select() method")
        self.wrapped = strategy
        self.name = getattr(strategy, "name", type(strategy).__name__)
        self.is_stochastic = bool(getattr(strategy, "is_stochastic", False))
        self.consumes_fisher = bool(getattr(strategy, "consumes_fisher", False))

    def select(self, context: SelectionContext) -> np.ndarray:
        return self._validate_selection(self.wrapped.select(context), context)


def ensure_lifecycle(strategy) -> SelectionStrategy:
    """Return ``strategy`` if it already speaks the lifecycle protocol, else wrap it."""

    if isinstance(strategy, SelectionStrategy):
        return strategy
    if hasattr(strategy, "begin_session") and hasattr(strategy, "observe_labels"):
        return strategy
    return StatelessStrategyAdapter(strategy)


class FIRALStrategy(SelectionStrategy):
    """Adapter exposing ``ExactFIRAL`` / ``ApproxFIRAL`` as a strategy.

    The adapter is lifecycle-aware and carries one piece of cross-round
    state under the session engine: **η reuse** (``reuse_eta`` on the
    session, or ``reuse_eta=True`` here).  The § IV-A grid search re-runs the
    ROUND solver for every candidate η *every round*, yet the winning η is a
    property of the problem scale and is stable across rounds; after the
    first round's full search, subsequent rounds reuse the winner (one ROUND
    solve instead of ``len(eta_grid)``).  Every round's RELAX solve starts
    from the uniform simplex point, as Algorithm 2 prescribes.

    A second session request is **multi-rank execution**
    (``parallel_ranks`` on the session, or ``parallel_ranks=N`` here): when
    the wrapped selector is an :class:`~repro.core.firal.ApproxFIRAL`, its
    RELAX + ROUND solves are routed through
    :class:`~repro.parallel.firal.DistributedApproxFIRAL` over ``N`` ranks of
    the requested transport — threads (``"simulated"``) or real spawned OS
    processes (``"shared_memory"``).  Those processes stay alive across
    rounds; :meth:`end_session` stops them, and so does replacing the
    distributed selector.  The distributed RELAX solver runs its fixed
    iteration budget without objective tracking, so the wrapped selector's
    ``relax_config`` is normalized to ``track_objective="none"`` (see
    :mod:`repro.parallel.firal`); Exact-FIRAL has no distributed
    formulation and rejects the request.

    Under a **prefiltered session** (``SessionConfig.prefilter``) the round's
    :attr:`SelectionContext.candidate_ids` restricts the Fisher dataset to
    the candidate rows, so RELAX, the η grid search and ROUND all run at
    candidate scale; the solver's candidate-local selection is mapped back to
    pool-view indices and shard scatter boundaries are translated to the
    candidate view.

    Parameters
    ----------
    selector:
        An object with a ``select(dataset, budget) -> SelectionResult``
        method and a ``name`` attribute (both FIRAL classes qualify).
    reuse_eta:
        Force cross-round η reuse on/off; ``None`` (default) defers to the
        session's ``SessionInfo.reuse_eta``.
    parallel_ranks:
        Force multi-rank selection with this many ranks; ``None`` (default)
        defers to the session's ``SessionInfo.parallel_ranks``.
    parallel_transport:
        Transport used when multi-rank selection is active; ``None``
        (default) defers to the session's ``SessionInfo.parallel_transport``.
    on_rank_failure:
        Force the rank-failure policy (``"abort"`` / ``"repartition_retry"``);
        ``None`` (default) defers to the session's
        ``SessionInfo.on_rank_failure``.  Under ``"repartition_retry"`` a
        multi-rank round that loses a rank is re-run over the survivors: the
        pool is re-partitioned with the balanced split (the same fallback a
        dried-up shard takes) and the round replays deterministically —
        FIRAL's selection consumes no session RNG and is rank-count
        invariant, so the recovered round selects exactly what the failed
        one would have.  Subsequent rounds stay at the reduced rank count
        (the dead rank does not come back); each recovery is appended to
        :attr:`recovery_events`.
    fault_plan:
        Force a :class:`~repro.parallel.faults.FaultPlan` into every
        multi-rank launch; ``None`` (default) defers to the session's
        ``SessionInfo.fault_plan``.
    """

    is_stochastic = False
    consumes_fisher = True

    def __init__(
        self,
        selector,
        *,
        reuse_eta: Optional[bool] = None,
        parallel_ranks: Optional[int] = None,
        parallel_transport: Optional[str] = None,
        on_rank_failure: Optional[str] = None,
        fault_plan=None,
    ):
        require(hasattr(selector, "select"), "selector must expose a select() method")
        require(
            on_rank_failure in (None, "abort", "repartition_retry"),
            "on_rank_failure must be 'abort' or 'repartition_retry'",
        )
        self.selector = selector
        self.name = getattr(selector, "name", "firal")
        self.reuse_eta = reuse_eta
        self.parallel_ranks = parallel_ranks
        self.parallel_transport = parallel_transport
        self.on_rank_failure = on_rank_failure
        self.fault_plan = fault_plan
        self.last_result = None
        #: One dict per recovered rank failure (round-robin diagnostics):
        #: ``{"error", "failed_rank", "collective", "retry_ranks"}``.
        self.recovery_events: list = []
        self._session_reuse_eta = False
        self._session_parallel_ranks: Optional[int] = None
        self._session_parallel_transport = "simulated"
        self._session_on_rank_failure = "abort"
        self._session_fault_plan = None
        self._recovered_ranks: Optional[int] = None
        self._distributed_selector = None
        self._previous_eta: Optional[float] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def begin_session(self, info: SessionInfo) -> None:
        self._session_reuse_eta = bool(info.reuse_eta)
        self._session_parallel_ranks = info.parallel_ranks
        self._session_parallel_transport = info.parallel_transport
        self._session_on_rank_failure = info.on_rank_failure
        self._session_fault_plan = info.fault_plan
        self._recovered_ranks = None
        self._replace_distributed_selector(None)
        self._previous_eta = None
        self.last_result = None
        self.recovery_events = []
        if self._parallel_ranks_active is not None:
            # Fail at session start, not round N, if the selector cannot run
            # distributed — and build the distributed selector eagerly so the
            # first round already executes multi-rank.
            self._effective_selector()

    def end_session(self) -> None:
        if self._distributed_selector is not None:
            self._distributed_selector.close()

    def _replace_distributed_selector(self, selector) -> None:
        """Swap the distributed selector, stopping the old one's rank processes."""

        if self._distributed_selector is not None and self._distributed_selector is not selector:
            self._distributed_selector.close()
        self._distributed_selector = selector

    @property
    def _reuse_eta_active(self) -> bool:
        if self.reuse_eta is not None:
            return self.reuse_eta
        return self._session_reuse_eta

    @property
    def _parallel_ranks_active(self) -> Optional[int]:
        if self.parallel_ranks is not None:
            return self.parallel_ranks
        return self._session_parallel_ranks

    @property
    def _parallel_transport_active(self) -> str:
        if self.parallel_transport is not None:
            return self.parallel_transport
        return self._session_parallel_transport

    @property
    def _on_rank_failure_active(self) -> str:
        if self.on_rank_failure is not None:
            return self.on_rank_failure
        return self._session_on_rank_failure

    @property
    def _fault_plan_active(self):
        if self.fault_plan is not None:
            return self.fault_plan
        return self._session_fault_plan

    def _build_distributed_selector(self, ranks: int):
        from repro.core.firal import ApproxFIRAL
        from repro.parallel.firal import DistributedApproxFIRAL

        require(
            isinstance(self.selector, ApproxFIRAL),
            "parallel_ranks requires an ApproxFIRAL selector — Exact-FIRAL has no "
            "distributed formulation (Table II restricts it to small problems)",
        )
        return DistributedApproxFIRAL(
            self.selector.relax_config,
            self.selector.round_config,
            num_ranks=int(ranks),
            transport=self._parallel_transport_active,
            fault_plan=self._fault_plan_active,
        )

    def _effective_selector(self):
        """The wrapped selector, or its distributed twin when ranks are requested."""

        ranks = self._parallel_ranks_active
        if ranks is None:
            return self.selector
        if self._recovered_ranks is not None:
            # A previous round lost ranks; the session keeps running degraded
            # on the survivors rather than resurrecting the dead rank.
            ranks = self._recovered_ranks
        if (
            self._distributed_selector is None
            or self._distributed_selector.num_ranks != int(ranks)
            or self._distributed_selector.transport != self._parallel_transport_active
            or self._distributed_selector.fault_plan is not self._fault_plan_active
        ):
            self._replace_distributed_selector(self._build_distributed_selector(int(ranks)))
        return self._distributed_selector

    def _select_with_recovery(self, selector, dataset, context: SelectionContext, kwargs):
        """Run the solver, re-partitioning over fewer ranks on rank failure.

        Deterministic by construction: FIRAL's selection step consumes no
        session RNG (RELAX probes come from ``RelaxConfig.seed``) and the
        distributed solvers are rank-count invariant (pinned by the parallel
        test suite), so replaying the round on the surviving ranks under the
        balanced split selects exactly the points the failed launch would
        have.  Ranks are retired one at a time — a fault plan pinned to a
        retired rank becomes inert, which is precisely how a real dead node
        behaves — until the round completes or one rank remains and still
        fails (then the last error propagates).
        """

        from repro.parallel.comm import CommError

        try:
            return selector.select(dataset, context.budget, **kwargs)
        except CommError as exc:
            if (
                self._on_rank_failure_active != "repartition_retry"
                or not hasattr(selector, "num_ranks")
            ):
                raise
            last_error: CommError = exc
            ranks = int(selector.num_ranks)
            while ranks > 1:
                ranks -= 1
                recovery = self._build_distributed_selector(ranks)
                # The failed launch's shard boundaries assumed the old rank
                # count; the survivors take the balanced re-split (the same
                # fallback an empty shard takes).
                recovery.partition_offsets = None
                if hasattr(recovery, "rank_devices"):
                    recovery.rank_devices = None
                try:
                    result = recovery.select(dataset, context.budget, **kwargs)
                except CommError as retry_error:
                    last_error = retry_error
                    continue
                self.recovery_events.append(
                    {
                        "round_index": context.round_index,
                        "error": type(last_error).__name__,
                        "failed_rank": last_error.rank,
                        "collective": last_error.collective,
                        "retry_ranks": ranks,
                    }
                )
                self._recovered_ranks = ranks
                self._replace_distributed_selector(recovery)
                return result
            raise last_error

    # ------------------------------------------------------------------ #
    def select(self, context: SelectionContext) -> np.ndarray:
        dataset = context.fisher_dataset()
        candidate_positions = context.candidate_positions()
        kwargs = {}
        if self._reuse_eta_active and self._previous_eta is not None:
            kwargs["eta"] = self._previous_eta
        selector = self._effective_selector()
        if hasattr(selector, "partition_offsets"):
            # Shard-aware scatter: a sharded store's session publishes the
            # round's ownership boundaries; the distributed selector splits
            # along them (None restores the balanced default).  Refreshed
            # every round — labeling shrinks shards unevenly, and a shard
            # that ran completely dry cannot be a rank (every rank must hold
            # at least one candidate for the local argmax), so the round
            # falls back to the balanced split until the pool is replenished.
            offsets = context.shard_offsets
            if offsets is not None and candidate_positions is not None:
                # The solvers see the candidate view, so the scatter
                # boundaries must be candidate-local.  Prefilters keep
                # candidates grouped by owning shard, so each pool-view
                # boundary maps to the count of candidates before it.
                offsets = np.searchsorted(candidate_positions, offsets)
            if offsets is not None and bool(np.any(np.diff(offsets) == 0)):
                offsets = None
            selector.partition_offsets = offsets
            if hasattr(selector, "rank_devices"):
                # Device-pinned sharded store: each rank promotes its shard
                # on the shard's own device.  The device map only makes sense
                # together with the matching ownership scatter — when the
                # offsets fell back to the balanced split, so does placement.
                selector.rank_devices = context.shard_devices if offsets is not None else None
        result = self._select_with_recovery(selector, dataset, context, kwargs)
        self.last_result = result
        if self._reuse_eta_active:
            round_result = getattr(result, "round", None)
            if round_result is not None and getattr(round_result, "eta", None) is not None:
                self._previous_eta = float(round_result.eta)
        selected = np.asarray(result.selected_indices, dtype=np.int64).ravel()
        if candidate_positions is not None:
            # The solvers returned candidate-local indices; map them back to
            # pool-view positions before validating against the full pool.
            selected = candidate_positions[selected]
        return self._validate_selection(selected, context)

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """Cross-round state a checkpoint must carry to resume bit-identically.

        The reused η is the only state that changes which points later rounds
        select; diagnostics (``last_result``, ``recovery_events``) are
        deliberately not checkpointed.
        """

        state: dict = {}
        if self._previous_eta is not None:
            state["previous_eta"] = float(self._previous_eta)
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore checkpointed state — a *full* restore, not a merge.

        Keys absent from ``state`` reset the corresponding field: the
        session engine rolls a live strategy back to a pre-proposal
        boundary with this hook (``ActiveSession.invalidate_proposal``), so
        state acquired after the snapshot must not survive the load.
        """

        if state.get("previous_eta") is not None:
            self._previous_eta = float(state["previous_eta"])
        else:
            self._previous_eta = None
