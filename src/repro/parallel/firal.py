"""Approx-FIRAL over the distributed solvers: the multi-rank selector.

:class:`DistributedApproxFIRAL` exposes the same
``select(dataset, budget, *, eta=None)`` contract as
:class:`repro.core.firal.ApproxFIRAL`, but executes the RELAX mirror descent
and every ROUND solve (including the § IV-A η grid search) across
``num_ranks`` ranks of the chosen transport — threads
(``transport="simulated"``) or real spawned OS processes
(``transport="shared_memory"``).  It is what
:class:`repro.baselines.FIRALStrategy` swaps in when a session is configured
with ``SessionConfig.parallel_ranks``, so a whole active-learning run can
execute its selection step across processes while the engine, strategies and
oracle loop stay unchanged.

Numerics: the distributed RELAX solver runs a fixed iteration budget and does
not track the mirror-descent objective (the paper's multi-GPU implementation
behaves the same way — objective tracking is a serial-diagnostics feature).
The ``relax_config`` is therefore normalized to ``track_objective="none"``;
a serial :class:`ApproxFIRAL` with that same configuration selects
identically on the NumPy backend, which the engine test suite pins.

The § IV-A η grid search runs **in-rank**: one ``run_spmd`` launch executes
the whole grid plus the min-eigenvalue scoring
(:func:`repro.parallel.distributed_round.distributed_round_search`), so the
launch cost and the η-independent ``Sigma_*`` setup are amortized over the
grid exactly the way the serial path hoists them once via
``RoundPrecompute``.  A round is therefore two launches: RELAX, then the
grid search.

Under ``transport="shared_memory"`` the selector keeps one
:class:`~repro.parallel.launcher.RankPool`, so both launches of every round
run on the same rank processes.  They are spawned at the first launch
(building the selector starts nothing) and stopped by :meth:`close` — which
``FIRALStrategy`` calls when the session ends or the selector is replaced —
by a failed launch (the next one respawns) or when the selector is
garbage-collected.  A rank process left running past its owner would keep
multiprocessing's resource-tracker pipe open, and a program that stops the
tracker at exit would then wait on it forever.

When the driving session stores its pool in a
:class:`~repro.engine.ShardedPointStore`, the per-round shard boundaries are
threaded in through :attr:`DistributedApproxFIRAL.partition_offsets`
(``SelectionContext.shard_offsets`` → ``FIRALStrategy``), so every scatter
follows the store's per-rank ownership instead of re-balancing the pool.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from repro.backend import Array
from repro.core.config import RelaxConfig, RoundConfig
from repro.core.firal import _FIRALBase
from repro.fisher.operators import FisherDataset
from repro.parallel.distributed_relax import distributed_relax
from repro.parallel.distributed_round import distributed_round, distributed_round_search
from repro.parallel.launcher import TRANSPORTS, RankPool
from repro.utils.validation import require

__all__ = ["DistributedApproxFIRAL"]


class DistributedApproxFIRAL(_FIRALBase):
    """Approx-FIRAL (Algorithms 2 + 3) executed over ``num_ranks`` ranks.

    Parameters
    ----------
    relax_config / round_config:
        Solver options, as for :class:`~repro.core.firal.ApproxFIRAL`.
        ``relax_config.track_objective`` is forced to ``"none"`` (see the
        module docstring); everything else is preserved.
    num_ranks:
        Communicator size — threads (simulated) or processes (shared memory).
        Under shared memory the processes are those of :attr:`pool`.
    transport:
        ``"simulated"`` or ``"shared_memory"``.
    timeout:
        Seconds a rank may wait at a collective before the run is declared
        dead (shared-memory transport).
    fault_plan:
        Optional :class:`~repro.parallel.faults.FaultPlan` injected into
        every SPMD launch this selector makes — the chaos-testing hook a
        session's ``SessionConfig.fault_plan`` threads down.
    """

    #: same algorithm as the serial selector — only the execution substrate
    #: differs, so results/labels stay comparable across runs.
    name = "approx-firal"

    def __init__(
        self,
        relax_config: Optional[RelaxConfig] = None,
        round_config: Optional[RoundConfig] = None,
        *,
        num_ranks: int,
        transport: str = "simulated",
        timeout: float = 120.0,
        fault_plan=None,
    ):
        require(num_ranks > 0, "num_ranks must be positive")
        require(transport in TRANSPORTS, f"unknown transport '{transport}'; use one of {TRANSPORTS}")
        relax_config = relax_config or RelaxConfig()
        if relax_config.track_objective != "none":
            relax_config = replace(relax_config, track_objective="none")
        super().__init__(relax_config, round_config)
        self.num_ranks = int(num_ranks)
        self.transport = transport
        self.timeout = float(timeout)
        self.fault_plan = fault_plan
        #: Explicit per-rank pool boundaries for the next ``select`` call
        #: (set per round by ``FIRALStrategy`` from
        #: ``SelectionContext.shard_offsets``); ``None`` means the balanced
        #: default split.
        self.partition_offsets: Optional[np.ndarray] = None
        #: Per-rank device pins for the next ``select`` call (set per round
        #: by ``FIRALStrategy`` from ``SelectionContext.shard_devices``, i.e.
        #: a device-pinned sharded store's placement map); ``None`` leaves
        #: placement to the backend.
        self.rank_devices: Optional[tuple] = None
        #: The rank processes every shared-memory launch runs on (``None``
        #: under the simulated transport); see the module docstring.
        self.pool: Optional[RankPool] = (
            RankPool(self.num_ranks) if transport == "shared_memory" else None
        )

    def close(self) -> None:
        """Stop the rank processes, if any run; a later ``select`` respawns them."""

        if self.pool is not None:
            self.pool.close()

    # ------------------------------------------------------------------ #
    # _FIRALBase hooks
    # ------------------------------------------------------------------ #
    def _relax(self, dataset: FisherDataset, budget: int):
        return distributed_relax(
            dataset,
            budget,
            num_ranks=self.num_ranks,
            config=self.relax_config,
            transport=self.transport,
            timeout=self.timeout,
            offsets=self.partition_offsets,
            fault_plan=self.fault_plan,
            devices=self.rank_devices,
            pool=self.pool,
        )

    def _round_solver_call(self, dataset, z_relaxed, budget, eta, config):
        """ROUND-solver adapter with the serial solvers' call signature."""

        return distributed_round(
            dataset,
            z_relaxed,
            int(budget),
            float(eta),
            num_ranks=self.num_ranks,
            config=config,
            transport=self.transport,
            timeout=self.timeout,
            offsets=self.partition_offsets,
            fault_plan=self.fault_plan,
            devices=self.rank_devices,
            pool=self.pool,
        )

    def _round(self, dataset: FisherDataset, weights: Array, budget: int, eta: float):
        return self._round_solver_call(dataset, weights, budget, eta, self.round_config)

    def _round_search(self, dataset: FisherDataset, weights: Array, budget: int):
        return distributed_round_search(
            dataset,
            weights,
            budget,
            eta_grid=self.round_config.eta_grid,
            num_ranks=self.num_ranks,
            config=self.round_config,
            transport=self.transport,
            timeout=self.timeout,
            offsets=self.partition_offsets,
            fault_plan=self.fault_plan,
            devices=self.rank_devices,
            pool=self.pool,
        )
