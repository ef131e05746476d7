"""Distributed (SPMD) formulation of the fast RELAX solver (Algorithm 2).

The pool is partitioned across ``p`` ranks; the labeled set is replicated.
:func:`relax_rank_main` is the **per-rank program**: it holds one shard, one
slice of the mirror-descent iterate ``z``, and a
:class:`~repro.parallel.comm.Comm` handle, and per iteration follows the
communication pattern of § III-C:

* probes are broadcast from rank 0 (``MPI_Bcast``),
* the block-diagonal preconditioner is assembled from per-rank partial sums
  (``MPI_Allreduce`` of ``c d^2`` floats), with the labeled term and the
  ``O(c d^3)`` inversion replicated on every rank exactly as in the real
  code,
* every CG iteration allreduces the per-rank partial matvecs
  (``MPI_Allreduce`` of ``c d s`` floats); the CG vector arithmetic itself
  operates on replicated ``dc``-dimensional state and is therefore identical
  on every rank,
* the gradient and the ``z`` update are purely local except for the simplex
  normalization (allreduces of scalars).

:func:`distributed_relax` is the driver: it partitions the dataset, launches
the rank program over the requested transport — threads
(``transport="simulated"``) or real OS processes
(``transport="shared_memory"``) via :func:`repro.parallel.launcher.run_spmd`
— and merges the per-rank outputs.  Per-rank compute seconds are measured for
each component so the strong/weak scaling figures can combine
``max``-over-ranks compute with the analytic communication model; the
communication log records every collective with its message size, with
identical accounting on both transports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np  # host-side timing/bookkeeping only; array math uses the backend

from repro.backend import Array, COMPUTE_DTYPE, get_backend
from repro.core.config import RelaxConfig
from repro.fisher.hessian import block_diagonal_of_sum
from repro.fisher.matvec import hessian_sum_matvec, probe_hessian_quadratic_forms
from repro.fisher.operators import FisherDataset
from repro.linalg.block_diag import BlockDiagonalMatrix
from repro.linalg.cg import conjugate_gradient
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
from repro.parallel.partition import partition_pool
from repro.utils.random import as_generator
from repro.utils.validation import require

__all__ = [
    "DistributedRelaxResult",
    "RelaxRankSpec",
    "RelaxRankOutput",
    "distributed_relax",
    "relax_rank_main",
]


@dataclass
class DistributedRelaxResult:
    """Output of a distributed RELAX solve.

    ``per_rank_seconds`` maps a component name (``"setup_preconditioner"``,
    ``"cg"``, ``"gradient"``, ``"other"``) to an array of per-rank compute
    seconds; the parallel compute estimate for a component is its max over
    ranks.  ``comm_log`` records every collective with its message size.
    """

    weights: Array
    iterations: int
    cg_iterations: int
    num_ranks: int
    transport: str = "simulated"
    per_rank_seconds: Dict[str, np.ndarray] = field(default_factory=dict)
    comm_log: CommunicationLog = field(default_factory=CommunicationLog)

    def max_rank_seconds(self, component: str) -> float:
        values = self.per_rank_seconds.get(component)
        return float(values.max()) if values is not None and values.size else 0.0

    def compute_seconds(self) -> float:
        """Modeled parallel compute time: sum over components of max over ranks."""

        return float(sum(self.max_rank_seconds(name) for name in self.per_rank_seconds))


@dataclass
class RelaxRankSpec:
    """Picklable per-rank inputs of :func:`relax_rank_main`.

    Arrays are the rank's pool shard plus the replicated labeled set; under
    the simulated transport they may be backend-resident (threads share
    memory), under the shared-memory transport the driver ships host arrays.
    """

    pool_features: Array
    pool_probabilities: Array
    labeled_features: Array
    labeled_probabilities: Array
    z0_local: Array
    budget: int
    config: RelaxConfig
    labeled_block_cache: Optional[Array] = None
    #: Device the rank pins its shard and local math to (``devices=`` on the
    #: driver); ``None`` keeps the backend's default placement.
    device: Optional[str] = None


@dataclass
class RelaxRankOutput:
    """What one rank reports back to the driver."""

    rank: int
    weights: Array
    iterations: int
    cg_iterations: int
    seconds: Dict[str, float]
    log: CommunicationLog


def relax_rank_main(comm: Comm, spec: RelaxRankSpec) -> RelaxRankOutput:
    """SPMD body of Algorithm 2 for one rank.

    Every collective below is matched by the same call on every peer rank —
    the transports validate this with sequence numbers and collective tags.
    Replicated state (probes, CG iterates, the preconditioner) is bit-identical
    across ranks because every rank computes it from identical allreduced
    inputs with identical arithmetic.  A pinned ``spec.device`` keeps the
    shard and all local math on that device (collectives host-staged); on a
    host backend the pinned run is bit-identical to the unpinned one.
    """

    with get_backend().device_context(spec.device):
        comm, spec = enter_rank_device(comm, spec)
        return _relax_rank_body(comm, spec)


def _relax_rank_body(comm: Comm, spec: RelaxRankSpec) -> RelaxRankOutput:
    cfg = spec.config
    budget = int(spec.budget)
    backend = get_backend()
    xp = backend.xp
    timers = ComponentTimers()

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
    dc = shard.joint_dimension
    local_z = backend.ascompute(spec.z0_local).ravel()
    require(int(local_z.shape[0]) == shard.num_pool, "z0 slice must match the shard size")

    # Rank 0 owns the probe RNG stream (Line 4); peers receive via bcast.
    rng = as_generator(cfg.seed) if comm.rank == 0 else None

    total_cg_iterations = 0
    iterations = 0
    for t in range(1, cfg.max_iterations + 1):
        iterations = t

        probes = None
        if comm.rank == 0:
            probes = backend.rademacher((dc, cfg.num_probes), rng=rng, dtype=COMPUTE_DTYPE)
        probes = comm.bcast(probes, root=0)

        # Line 5: per-rank partial block diagonals of H_z, allreduced, plus H_o.
        with timers.timed("setup_preconditioner"):
            partial = block_diagonal_of_sum(
                shard.pool_features, shard.pool_probabilities, weights=budget * local_z
            )
        summed = comm.allreduce(partial.blocks)
        with timers.timed("setup_preconditioner"):
            # Replicated on every rank, exactly as in the real code (the
            # labeled set and the allreduced pool blocks are replicated).
            sigma_blocks = BlockDiagonalMatrix(summed, copy=False) + shard.labeled_block_diagonal()
            if cfg.regularization > 0.0:
                sigma_blocks = sigma_blocks.add_identity(cfg.regularization)
            preconditioner = sigma_blocks.inverse()

        def sigma_matvec(V: Array) -> Array:
            """Distributed Sigma_z matvec: local partial + allreduce + H_o."""

            with timers.timed("cg"):
                partial = hessian_sum_matvec(
                    shard.pool_features, shard.pool_probabilities, V, weights=budget * local_z
                )
            reduced = comm.allreduce(partial)
            with timers.timed("cg"):
                out = reduced + shard.labeled_hessian_matvec(V)
                if cfg.regularization > 0.0:
                    out = out + cfg.regularization * xp.asarray(V)
            return out

        def pool_matvec(V: Array) -> Array:
            """Distributed H_p matvec (unweighted pool sum)."""

            with timers.timed("other"):
                partial = hessian_sum_matvec(shard.pool_features, shard.pool_probabilities, V)
            return comm.allreduce(partial)

        # Lines 6-8: two preconditioned CG solves around an H_p application.
        # The CG state is replicated: every rank runs the same iteration over allreduced
        # matvecs, so the per-rank trajectories coincide.
        first = conjugate_gradient(
            sigma_matvec,
            probes,
            preconditioner=preconditioner.matvec,
            rtol=cfg.cg_tolerance,
            max_iterations=cfg.cg_max_iterations,
            record_history=False,
        )
        total_cg_iterations += first.iterations
        applied = pool_matvec(first.solution)
        second = conjugate_gradient(
            sigma_matvec,
            applied,
            preconditioner=preconditioner.matvec,
            rtol=cfg.cg_tolerance,
            max_iterations=cfg.cg_max_iterations,
            record_history=False,
        )
        total_cg_iterations += second.iterations

        # Line 9: local gradient estimate over the shard.
        with timers.timed("gradient"):
            local_grad = -probe_hessian_quadratic_forms(
                shard.pool_features, shard.pool_probabilities, probes, second.solution
            )

        # Lines 10-11: exponentiated-gradient update with global normalization.
        local_max = float(xp.abs(local_grad).max()) if int(local_grad.shape[0]) else 0.0
        global_scale = float(
            comm.allreduce(backend.ascompute(xp.asarray([local_max])), op="max")[0]
        )
        beta = cfg.step_size(t, global_scale)

        with timers.timed("other"):
            log_z = xp.log(xp.clip(local_z, 1e-300, None)) - beta * local_grad
            local_log_max = float(log_z.max()) if int(log_z.shape[0]) else -float(np.inf)
        global_log_max = float(
            comm.allreduce(backend.ascompute(xp.asarray([local_log_max])), op="max")[0]
        )
        with timers.timed("other"):
            expd = xp.exp(log_z - global_log_max)
            local_sum = backend.ascompute(xp.asarray([float(expd.sum())]))
        total = float(comm.allreduce(local_sum)[0])
        local_z = expd / total

    weights = comm.allgather(budget * local_z)
    return RelaxRankOutput(
        rank=comm.rank,
        weights=weights,
        iterations=iterations,
        cg_iterations=total_cg_iterations,
        seconds=timers.seconds,
        log=comm.log,
    )


def relax_message_bytes(num_pool: int, joint_dimension: int, num_classes: int,
                        dimension: int, num_probes: int) -> int:
    """Tight upper bound on one RELAX collective contribution, in bytes.

    The largest payloads are the probe block / CG partials (``dc × s``
    float64), the block-diagonal partial sums (``c × d × d`` float64) and a
    rank's final weight shard (``≤ n`` float64).
    """

    itemsize = np.dtype(np.float64).itemsize
    return itemsize * max(
        joint_dimension * num_probes,
        num_classes * dimension * dimension,
        num_pool,
        1,
    )


def distributed_relax(
    dataset: FisherDataset,
    budget: int,
    *,
    num_ranks: int,
    config: Optional[RelaxConfig] = None,
    transport: str = "simulated",
    timeout: float = 120.0,
    offsets: Optional[np.ndarray] = None,
    fault_plan=None,
    devices: Optional[Sequence[str]] = None,
    pool=None,
) -> DistributedRelaxResult:
    """Run Algorithm 2 over ``num_ranks`` ranks of the chosen transport.

    ``offsets`` overrides the balanced pool split with explicit shard
    boundaries (a sharded pool store's ownership table); see
    :func:`repro.parallel.partition.partition_pool`.  ``fault_plan`` wraps
    every rank's communicator in a
    :class:`~repro.parallel.faults.FaultInjectingComm` firing the plan — the
    chaos-testing hook the recovery tests and benchmarks use.  ``devices``
    pins each rank's shard and local math to the named device (one entry
    per rank); collectives are then staged through the host, and on host
    backends the pinned run is bit-identical to the unpinned one.

    Numerically equivalent (up to reduction order) to
    :func:`repro.core.approx_relax.approx_relax` with the same configuration,
    which the test suite verifies; with ``transport="simulated"`` and one
    rank the trajectory is bit-identical to the serial solver.
    ``transport="shared_memory"`` runs every rank as a real OS process
    communicating over shared memory, on the processes of ``pool`` (a
    :class:`~repro.parallel.launcher.RankPool`) when given and on a one-shot
    pool otherwise; results match the simulated transport up to the
    floating-point effects of crossing a process boundary (none on the NumPy
    backend — the wire format is exact).
    """

    require(budget > 0, "budget must be positive")
    require(num_ranks > 0, "num_ranks must be positive")
    cfg = config or RelaxConfig(track_objective="none")
    require(
        cfg.track_objective == "none",
        "distributed_relax does not track the objective; use track_objective='none'",
    )
    backend = get_backend()
    devices = validate_rank_devices(devices, num_ranks)

    shards = partition_pool(dataset, num_ranks, offsets=offsets)
    z0 = backend.full((dataset.num_pool,), 1.0 / dataset.num_pool, dtype=COMPUTE_DTYPE)
    cache_blocks = (
        dataset.labeled_block_cache.blocks if dataset.labeled_block_cache is not None else None
    )
    specs = []
    start = 0
    for shard in shards:
        stop = start + shard.num_pool
        specs.append(
            RelaxRankSpec(
                pool_features=ship_array(backend, shard.pool_features, transport),
                pool_probabilities=ship_array(backend, shard.pool_probabilities, transport),
                labeled_features=ship_array(backend, shard.labeled_features, transport),
                labeled_probabilities=ship_array(backend, shard.labeled_probabilities, transport),
                z0_local=ship_array(backend, z0[start:stop], transport),
                budget=int(budget),
                config=cfg,
                labeled_block_cache=(
                    ship_array(backend, cache_blocks, transport) if cache_blocks is not None else None
                ),
                device=None if devices is None else devices[len(specs)],
            )
        )
        start = stop

    entry = relax_rank_main
    if fault_plan is not None:
        from repro.parallel.faults import FaultInjectingEntry

        entry = FaultInjectingEntry(relax_rank_main, fault_plan)
    outputs = run_spmd(
        entry,
        specs,
        transport=transport,
        max_message_bytes=relax_message_bytes(
            dataset.num_pool,
            dataset.joint_dimension,
            dataset.num_classes,
            dataset.dimension,
            cfg.num_probes,
        ),
        timeout=timeout,
        pool=pool,
    )
    require(
        len({output.iterations for output in outputs}) == 1,
        "ranks diverged: unequal mirror-descent iteration counts",
    )
    return DistributedRelaxResult(
        weights=backend.asarray(outputs[0].weights),
        iterations=outputs[0].iterations,
        cg_iterations=outputs[0].cg_iterations,
        num_ranks=num_ranks,
        transport=transport,
        per_rank_seconds=merge_component_seconds(outputs),
        comm_log=collective_log(outputs),
    )
