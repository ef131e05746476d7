"""Distributed (SPMD) formulation of the block-diagonal ROUND solver.

:func:`round_rank_main` is the per-rank program (§ III-C, Algorithm 3).  Per
selection iteration:

* every rank scores its local pool shard with Proposition 4's objective and
  the global argmax is found with an ``MPI_Allreduce`` (MAXLOC-style, ties
  to the lowest rank),
* the owner of the winner broadcasts ``x_it`` and ``h_it`` (``MPI_Bcast`` of
  ``c + d`` floats),
* the ``c`` class-block eigenvalue problems are distributed across ranks and
  collected with ``MPI_Allgather``,
* the FTRL constant ν and the refreshed ``B_{t+1}^{-1}`` are computed
  redundantly on every rank (replicated ``O(c d^3)`` work).

:func:`round_search_rank_main` is the per-rank program of the **in-rank
§ IV-A η grid search**: one launch runs the η-independent setup once, then
every grid trial's full selection loop plus the min-eigenvalue scoring rule
(each rank contributes the block-Hessian partial of the selected points it
owns; one ``MPI_Allreduce`` of ``c d^2`` floats per trial) — the SPMD
analogue of the serial path where ``select_eta`` threads one
``RoundPrecompute`` through every trial.  Launch cost and the ``Sigma_*``
assembly are paid once per *grid*, not once per trial.

:func:`distributed_round` / :func:`distributed_round_search` are the
drivers: they partition the dataset (balanced by default, or along a
sharded pool store's ownership boundaries via ``offsets=``) and run the
rank program over threads (``transport="simulated"``) or real OS
processes (``transport="shared_memory"``, on the caller's ``pool`` when
given) via :func:`repro.parallel.launcher.run_spmd`, then merge the
per-rank outputs.
All shard data and collective payloads are arrays of the active backend; the
per-class generalized eigensolves go through the backend's promoted linear
algebra (``eigh_generalized``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np  # host-side timing/offset bookkeeping only

from repro.backend import Array, COMPUTE_DTYPE, Workspace, get_backend
from repro.core.approx_round import generalized_block_eigenvalues
from repro.core.config import RoundConfig
from repro.fisher.hessian import block_diagonal_of_sum, point_block_coefficients
from repro.fisher.operators import FisherDataset
from repro.linalg.bisection import find_ftrl_nu
from repro.linalg.block_diag import BlockDiagonalMatrix
from repro.linalg.sherman_morrison import fused_round_scores
from repro.parallel.comm import Comm, CommunicationLog
from repro.parallel.launcher import (
    ComponentTimers,
    collective_log,
    enter_rank_device,
    merge_component_seconds,
    run_spmd,
    ship_array,
    validate_rank_devices,
)
from repro.parallel.partition import block_partition, partition_pool, pool_offsets
from repro.utils.validation import require

__all__ = [
    "DistributedRoundResult",
    "RoundRankSpec",
    "RoundRankOutput",
    "RoundSearchRankOutput",
    "distributed_round",
    "distributed_round_search",
    "round_rank_main",
    "round_search_rank_main",
]

#: Timer components of the ROUND rank mains; ``eta_scoring`` only accrues in
#: the grid-search program.
_ROUND_COMPONENTS = (
    "score", "compute_eigenvalues", "update_accumulated", "refresh_inverse", "setup", "eta_scoring",
)


@dataclass
class DistributedRoundResult:
    """Output of a distributed ROUND solve (see ``DistributedRelaxResult``).

    ``eta_score`` is only set by :func:`distributed_round_search` (the
    winning trial's ``min_k lambda_min(H_k)``), mirroring
    ``RoundResult.eta_score`` on the serial path.
    """

    selected_indices: np.ndarray
    eta: float
    num_ranks: int
    transport: str = "simulated"
    per_rank_seconds: Dict[str, np.ndarray] = field(default_factory=dict)
    comm_log: CommunicationLog = field(default_factory=CommunicationLog)
    eta_score: Optional[float] = None

    def max_rank_seconds(self, component: str) -> float:
        values = self.per_rank_seconds.get(component)
        return float(values.max()) if values is not None and values.size else 0.0

    def compute_seconds(self) -> float:
        return float(sum(self.max_rank_seconds(name) for name in self.per_rank_seconds))


@dataclass
class RoundRankSpec:
    """Picklable per-rank inputs of :func:`round_rank_main`.

    ``eta_grid`` is only read by :func:`round_search_rank_main` (the in-rank
    grid search); the single-η program uses ``eta``.
    """

    pool_features: Array
    pool_probabilities: Array
    labeled_features: Array
    labeled_probabilities: Array
    z_local: Array
    offsets: np.ndarray
    budget: int
    eta: float
    config: RoundConfig
    labeled_block_cache: Optional[Array] = None
    eta_grid: Optional[Tuple[float, ...]] = None
    #: Device the rank pins its shard and local math to (``devices=`` on the
    #: drivers); ``None`` keeps the backend's default placement.
    device: Optional[str] = None


@dataclass
class RoundRankOutput:
    """What one rank reports back to the driver."""

    rank: int
    selected_indices: np.ndarray
    seconds: Dict[str, float]
    log: CommunicationLog


@dataclass
class RoundSearchRankOutput(RoundRankOutput):
    """Grid-search rank report: the winning trial's selection, η and score."""

    eta: float = 0.0
    eta_score: float = -math.inf


class _RoundRankState:
    """η-independent per-rank state of Algorithm 3 (Line 3 + promotions).

    Built once per SPMD launch; the single-η program consumes it once, the
    grid-search program reuses it across every trial — the rank-side
    analogue of the serial ``RoundPrecompute``.
    """

    def __init__(self, comm: Comm, spec: RoundRankSpec, timers: ComponentTimers):
        cfg = spec.config
        backend = get_backend()
        cache = (
            BlockDiagonalMatrix(backend.asarray(spec.labeled_block_cache), copy=False)
            if spec.labeled_block_cache is not None
            else None
        )
        shard = FisherDataset(
            pool_features=spec.pool_features,
            pool_probabilities=spec.pool_probabilities,
            labeled_features=spec.labeled_features,
            labeled_probabilities=spec.labeled_probabilities,
            labeled_block_cache=cache,
        )
        local_z = backend.ascompute(spec.z_local).ravel()
        require(int(local_z.shape[0]) == shard.num_pool, "z slice must match the shard size")

        self.cfg = cfg
        self.budget = int(spec.budget)
        self.offsets = np.asarray(spec.offsets, dtype=np.int64)
        self.num_local = shard.num_pool
        self.d = shard.dimension
        self.c = shard.num_classes
        self.dc = self.d * self.c

        # Line 3: Sigma_* block diagonal from per-rank partial sums + H_o.
        with timers.timed("setup"):
            partial = block_diagonal_of_sum(
                shard.pool_features, shard.pool_probabilities, weights=local_z
            )
        summed = comm.allreduce(partial.blocks)
        with timers.timed("setup"):
            # Replicated per rank (labeled set + allreduced blocks are replicated).
            self.labeled_blocks = shard.labeled_block_diagonal()
            sigma_star = BlockDiagonalMatrix(summed, copy=False) + self.labeled_blocks
            if cfg.regularization > 0.0:
                sigma_star = sigma_star.add_identity(cfg.regularization)
            self.sigma_star = sigma_star
            self.labeled_over_budget = backend.ascompute(self.labeled_blocks.blocks) / self.budget

            # Shard promotions hoisted out of the selection loop (the serial
            # solver's RoundPrecompute analogue).
            self.local_X = backend.ascompute(shard.pool_features)
            self.local_gammas = point_block_coefficients(shard.pool_probabilities)
            self.workspace = Workspace(backend)
            self.class_slice = block_partition(self.c, comm.size)[comm.rank]


def _select_with_eta(
    comm: Comm, state: _RoundRankState, eta: float, timers: ComponentTimers
) -> np.ndarray:
    """One full Algorithm-3 selection pass at a fixed η (Lines 4-11).

    Replicated state — ``B_t^{-1}``, the accumulated rank-one sum, ν — is
    recomputed identically on every rank from allreduced / broadcast inputs,
    so the selected index sequence is identical on every rank; the drivers
    cross-check this.
    """

    cfg = state.cfg
    budget = state.budget
    backend = get_backend()
    xp = backend.xp
    _timed = timers.timed

    with _timed("setup"):
        # Line 4: B_1^{-1}.
        bt_inv = (
            state.sigma_star * math.sqrt(state.dc)
            + state.labeled_blocks * (eta / budget)
        ).inverse()
        accumulated = BlockDiagonalMatrix.zeros(state.c, state.d, dtype=COMPUTE_DTYPE)
        available = backend.ones((state.num_local,), dtype=bool)

    selected: List[int] = []
    for _ in range(1, budget + 1):
        # Line 7: local scoring + global MAXLOC argmax.
        with _timed("score"):
            scores = fused_round_scores(
                bt_inv,
                state.sigma_star,
                state.local_X,
                state.local_gammas,
                eta,
                chunk_size=cfg.score_chunk_size,
                workspace=state.workspace,
            )
            scores = xp.where(available, scores, -xp.inf)
            best_local = int(xp.argmax(scores))
            best_value = float(scores[best_local])
        owner, owner_local_index, best_value = comm.argmax_allreduce(best_value, best_local)
        require(math.isfinite(best_value), "no candidate available for selection")
        global_index = int(state.offsets[owner] + owner_local_index)
        selected.append(global_index)
        if comm.rank == owner:
            available[owner_local_index] = False

        # Line 8 + bcast of the winner's (x, h) to all ranks.
        x_sel = comm.bcast(
            state.local_X[owner_local_index] if comm.rank == owner else None, root=owner
        )
        gamma_sel = comm.bcast(
            state.local_gammas[owner_local_index] if comm.rank == owner else None, root=owner
        )
        with _timed("update_accumulated"):
            # Same elementwise formulation as the serial solver so the SPMD
            # trajectory matches it bit-for-bit.
            rank_one = gamma_sel[:, None, None] * (x_sel[:, None] * x_sel[None, :])[None]
            accumulated = BlockDiagonalMatrix(
                accumulated.blocks + state.labeled_over_budget + rank_one,
                copy=False,
            )

        # Line 9: class blocks distributed across ranks, then allgathered.
        with _timed("compute_eigenvalues"):
            class_slice = state.class_slice
            if class_slice.stop > class_slice.start:
                local_eigs = generalized_block_eigenvalues(
                    accumulated.blocks[class_slice.start : class_slice.stop],
                    state.sigma_star.blocks[class_slice.start : class_slice.stop],
                )
            else:
                local_eigs = backend.zeros((0, state.d), dtype=COMPUTE_DTYPE)
        eigenvalues = comm.allgather(local_eigs)

        # Lines 10-11: nu bisection and the refreshed B_{t+1}^{-1} (replicated).
        with _timed("refresh_inverse"):
            nu = find_ftrl_nu(eta * eigenvalues)
            bt_inv = (
                state.sigma_star * nu + accumulated * eta + state.labeled_blocks * (eta / budget)
            ).inverse()

    return np.asarray(selected, dtype=np.int64)


def _local_selection_blocks(comm: Comm, state: _RoundRankState, selected: np.ndarray) -> Array:
    """This rank's block-Hessian partial over the selected points it owns.

    The § IV-A scoring rule needs ``B(sum_i H_i)`` over the selected batch;
    each rank contributes the rank-one blocks of its shard's winners, the
    caller allreduces.
    """

    backend = get_backend()
    lo = int(state.offsets[comm.rank])
    hi = int(state.offsets[comm.rank + 1])
    owned = (selected >= lo) & (selected < hi)
    if not bool(np.any(owned)):
        return backend.zeros((state.c, state.d, state.d), dtype=COMPUTE_DTYPE)
    local = backend.from_host(selected[owned] - lo)
    X_sel = state.local_X[local]
    coeff = state.local_gammas[local]
    return backend.einsum("ik,id,ie->kde", coeff, X_sel, X_sel, optimize=True)


def round_rank_main(comm: Comm, spec: RoundRankSpec) -> RoundRankOutput:
    """SPMD body of Algorithm 3 for one rank, at the spec's fixed η."""

    backend = get_backend()
    with backend.device_context(spec.device):
        comm, spec = enter_rank_device(comm, spec)
        timers = ComponentTimers(_ROUND_COMPONENTS[:-1])
        state = _RoundRankState(comm, spec, timers)
        selected = _select_with_eta(comm, state, float(spec.eta), timers)
    return RoundRankOutput(
        rank=comm.rank,
        selected_indices=selected,
        seconds=timers.seconds,
        log=comm.log,
    )


def round_search_rank_main(comm: Comm, spec: RoundRankSpec) -> RoundSearchRankOutput:
    """SPMD body of the § IV-A η grid search for one rank.

    The whole grid runs inside this one launch: the η-independent setup
    (``Sigma_*`` assembly, shard promotions, the class partition) is built
    once, every trial reruns only the η-dependent selection loop, and each
    trial's batch is scored with the paper's ``min_k lambda_min(H_k)`` rule
    via one allreduce of the per-rank block-Hessian partials.  Scores and
    the best-so-far rule are replicated, so every rank picks the same
    winner (ties keep the earliest grid entry, exactly like the serial
    ``select_eta``).
    """

    require(spec.eta_grid is not None and len(spec.eta_grid) > 0, "eta grid must not be empty")
    backend = get_backend()
    with backend.device_context(spec.device):
        comm, spec = enter_rank_device(comm, spec)
        timers = ComponentTimers(_ROUND_COMPONENTS)
        state = _RoundRankState(comm, spec, timers)

        best_selected: Optional[np.ndarray] = None
        best_eta = float(spec.eta_grid[0])
        best_score = -math.inf
        for eta in spec.eta_grid:
            selected = _select_with_eta(comm, state, float(eta), timers)
            with timers.timed("eta_scoring"):
                partial = _local_selection_blocks(comm, state, selected)
            blocks = comm.allreduce(partial)
            with timers.timed("eta_scoring"):
                score = BlockDiagonalMatrix(blocks, copy=False).min_eigenvalue()
            if score > best_score:
                best_score = float(score)
                best_eta = float(eta)
                best_selected = selected

    assert best_selected is not None
    return RoundSearchRankOutput(
        rank=comm.rank,
        selected_indices=best_selected,
        seconds=timers.seconds,
        log=comm.log,
        eta=best_eta,
        eta_score=best_score,
    )


def round_message_bytes(num_classes: int, dimension: int) -> int:
    """Tight upper bound on one ROUND collective contribution, in bytes.

    Dominated by the ``c × d × d`` block-diagonal partial (the grid search's
    per-trial scoring partial has the same shape); the per-iteration
    payloads (winner feature/coefficients, per-rank eigenvalue slices) are
    strictly smaller.
    """

    itemsize = np.dtype(np.float64).itemsize
    return itemsize * max(num_classes * dimension * dimension, 1)


def _wrap_entry(entry, fault_plan):
    """Wrap an SPMD entry for fault injection when a plan is given."""

    if fault_plan is None:
        return entry
    from repro.parallel.faults import FaultInjectingEntry

    return FaultInjectingEntry(entry, fault_plan)


def _build_rank_specs(
    dataset: FisherDataset,
    z_relaxed: Array,
    budget: int,
    eta: float,
    cfg: RoundConfig,
    num_ranks: int,
    transport: str,
    offsets: Optional[np.ndarray],
    eta_grid: Optional[Tuple[float, ...]] = None,
    devices: Optional[Sequence[str]] = None,
) -> List[RoundRankSpec]:
    """Partition the pool and assemble one picklable spec per rank."""

    backend = get_backend()
    devices = validate_rank_devices(devices, num_ranks)
    shards = partition_pool(dataset, num_ranks, offsets=offsets)
    offsets = pool_offsets(dataset.num_pool, num_ranks, offsets)
    cache_blocks = (
        dataset.labeled_block_cache.blocks if dataset.labeled_block_cache is not None else None
    )
    specs = []
    for rank, shard in enumerate(shards):
        z_local = z_relaxed[int(offsets[rank]) : int(offsets[rank + 1])]
        specs.append(
            RoundRankSpec(
                pool_features=ship_array(backend, shard.pool_features, transport),
                pool_probabilities=ship_array(backend, shard.pool_probabilities, transport),
                labeled_features=ship_array(backend, shard.labeled_features, transport),
                labeled_probabilities=ship_array(backend, shard.labeled_probabilities, transport),
                z_local=ship_array(backend, z_local, transport),
                offsets=offsets,
                budget=int(budget),
                eta=float(eta),
                config=cfg,
                labeled_block_cache=(
                    ship_array(backend, cache_blocks, transport) if cache_blocks is not None else None
                ),
                eta_grid=eta_grid,
                device=None if devices is None else devices[rank],
            )
        )
    return specs




def distributed_round(
    dataset: FisherDataset,
    z_relaxed: Array,
    budget: int,
    eta: float,
    *,
    num_ranks: int,
    config: Optional[RoundConfig] = None,
    transport: str = "simulated",
    timeout: float = 120.0,
    offsets: Optional[np.ndarray] = None,
    fault_plan=None,
    devices: Optional[Sequence[str]] = None,
    pool=None,
) -> DistributedRoundResult:
    """Run Algorithm 3 over ``num_ranks`` ranks of the chosen transport.

    Selects the same points as :func:`repro.core.approx_round.approx_round`
    (verified by the test suite) while recording per-rank compute time and
    the collective-communication pattern; ties in the global argmax resolve
    to the lowest rank on every transport (MPI ``MAXLOC`` semantics).
    ``offsets`` overrides the balanced pool split with explicit shard
    boundaries (a sharded pool store's ownership table).  ``devices`` pins
    each rank's shard and local math to the named device (one entry per
    rank, e.g. ``round_robin_device_map``'s output); collectives are then
    staged through the host, and on host backends the pinned run is
    bit-identical to the unpinned one.  ``pool`` is the
    :class:`~repro.parallel.launcher.RankPool` a shared-memory launch runs
    on; ``None`` runs it on a one-shot pool.
    """

    require(budget > 0, "budget must be positive")
    require(eta > 0, "eta must be positive")
    require(num_ranks > 0, "num_ranks must be positive")
    cfg = config or RoundConfig(eta=eta)
    backend = get_backend()

    z_relaxed = backend.ascompute(z_relaxed).ravel()
    require(tuple(z_relaxed.shape) == (dataset.num_pool,), "z_relaxed must match the pool size")

    specs = _build_rank_specs(
        dataset, z_relaxed, budget, eta, cfg, num_ranks, transport, offsets, devices=devices
    )
    outputs = run_spmd(
        _wrap_entry(round_rank_main, fault_plan),
        specs,
        transport=transport,
        max_message_bytes=round_message_bytes(dataset.num_classes, dataset.dimension),
        timeout=timeout,
        pool=pool,
    )
    selected = outputs[0].selected_indices
    for output in outputs[1:]:
        require(
            bool(np.array_equal(output.selected_indices, selected)),
            "ranks diverged: replicated selection state differs across ranks",
        )
    return DistributedRoundResult(
        selected_indices=np.asarray(selected, dtype=np.int64),
        eta=float(eta),
        num_ranks=num_ranks,
        transport=transport,
        per_rank_seconds=merge_component_seconds(outputs),
        comm_log=collective_log(outputs),
    )


def distributed_round_search(
    dataset: FisherDataset,
    z_relaxed: Array,
    budget: int,
    *,
    eta_grid=None,
    num_ranks: int,
    config: Optional[RoundConfig] = None,
    transport: str = "simulated",
    timeout: float = 120.0,
    offsets: Optional[np.ndarray] = None,
    fault_plan=None,
    devices: Optional[Sequence[str]] = None,
    pool=None,
) -> Tuple[DistributedRoundResult, float]:
    """Run the § IV-A η grid search inside **one** ``run_spmd`` launch.

    The serial path (:func:`repro.core.eta_selection.select_eta`) already
    hoists the η-independent ``RoundPrecompute`` out of the grid loop; this
    is its distributed analogue — one launch, one shard scatter and one
    ``Sigma_*`` assembly for the whole grid, instead of one full
    :func:`distributed_round` launch per trial.  Returns ``(result, score)``
    with the same semantics as ``select_eta``: the winning trial's
    selection, η and ``min_k lambda_min(H_k)`` score, ties keeping the
    earliest grid entry.  ``pool`` is the
    :class:`~repro.parallel.launcher.RankPool` a shared-memory launch runs
    on (see :func:`~repro.parallel.launcher.run_spmd`); a session's selector
    passes the one it keeps, so rank processes start once per session.
    """

    require(budget > 0, "budget must be positive")
    require(num_ranks > 0, "num_ranks must be positive")
    cfg = config or RoundConfig()
    if eta_grid is None:
        from repro.core.eta_selection import default_eta_grid

        eta_grid = default_eta_grid(dataset.joint_dimension)
    grid = tuple(float(e) for e in eta_grid)
    require(len(grid) > 0, "eta grid must not be empty")
    require(all(e > 0 for e in grid), "eta values must be positive")
    backend = get_backend()

    z_relaxed = backend.ascompute(z_relaxed).ravel()
    require(tuple(z_relaxed.shape) == (dataset.num_pool,), "z_relaxed must match the pool size")

    specs = _build_rank_specs(
        dataset, z_relaxed, budget, grid[0], cfg, num_ranks, transport, offsets,
        eta_grid=grid, devices=devices,
    )
    outputs = run_spmd(
        _wrap_entry(round_search_rank_main, fault_plan),
        specs,
        transport=transport,
        max_message_bytes=round_message_bytes(dataset.num_classes, dataset.dimension),
        timeout=timeout,
        pool=pool,
    )
    selected = outputs[0].selected_indices
    for output in outputs[1:]:
        require(
            bool(np.array_equal(output.selected_indices, selected))
            and output.eta == outputs[0].eta,
            "ranks diverged: replicated grid-search state differs across ranks",
        )
    result = DistributedRoundResult(
        selected_indices=np.asarray(selected, dtype=np.int64),
        eta=float(outputs[0].eta),
        num_ranks=num_ranks,
        transport=transport,
        per_rank_seconds=merge_component_seconds(outputs),
        comm_log=collective_log(outputs),
        eta_score=float(outputs[0].eta_score),
    )
    return result, float(outputs[0].eta_score)
