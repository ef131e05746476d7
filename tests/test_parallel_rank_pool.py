"""Lifetime of the shared-memory rank processes (``RankPool``).

A pool spawns its rank processes at the first launch and reuses them for
every later one; a failed launch, ``close()``, the end of a session, the
replacement of a strategy's distributed selector and garbage collection stop
them.  The ``multiprocess``-marked tests spawn real OS processes.
"""

from __future__ import annotations

import asyncio
import gc
import multiprocessing
import os

import numpy as np
import pytest

from repro.baselines import FIRALStrategy
from repro.core.config import RelaxConfig, RoundConfig
from repro.core.firal import ApproxFIRAL
from repro.engine import ActiveSession, SessionConfig
from repro.parallel.faults import FaultInjectingEntry, FaultPlan, current_attempt
from repro.parallel.firal import DistributedApproxFIRAL
from repro.parallel.launcher import RankFailedError, RankPool, run_spmd
from repro.serve import ServeConfig, SessionManager, SessionSpec
from tests.conftest import make_fisher_dataset

from test_engine_session import _small_problem

SHM = SessionConfig(parallel_ranks=2, parallel_transport="shared_memory")


# --------------------------------------------------------------------- #
# module-level rank bodies (picklable for the rank processes)
# --------------------------------------------------------------------- #
def pid_rank(comm, arg):
    comm.barrier()
    return os.getpid()


def attempt_rank(comm, arg):
    comm.barrier()
    return comm.rank, current_attempt()


def _strategy():
    # RoundConfig() searches the η grid, so every round makes two launches:
    # RELAX, then the in-rank grid search.
    relax = RelaxConfig(max_iterations=3, track_objective="none", seed=0)
    return FIRALStrategy(ApproxFIRAL(relax, RoundConfig()))


def _session(problem, strategy, rounds=2, config=SHM):
    return ActiveSession(problem, strategy, budget_per_round=3, num_rounds=rounds, seed=0, config=config)


def _rank_children():
    return [child for child in multiprocessing.active_children() if child.name.startswith("spmd-rank-")]


@pytest.fixture(scope="module")
def problem():
    return _small_problem(seed=4)


@pytest.fixture
def launch_pids(monkeypatch):
    """Record the pool's rank PIDs after every launch."""

    seen = []
    original = RankPool.launch

    def recording(self, *args, **kwargs):
        outputs = original(self, *args, **kwargs)
        seen.append(self.pids)
        return outputs

    monkeypatch.setattr(RankPool, "launch", recording)
    return seen


class TestLazySpawn:
    def test_pool_spawns_nothing_at_construction(self):
        pool = RankPool(2)
        assert not pool.alive
        assert pool.pids == ()
        pool.close()  # closing a never-spawned pool is a no-op

    def test_selector_and_session_spawn_nothing(self, problem):
        selector = DistributedApproxFIRAL(num_ranks=2, transport="shared_memory")
        assert selector.pool is not None and not selector.pool.alive
        _session(problem, _strategy())
        assert _rank_children() == []

    def test_simulated_selector_has_no_pool(self):
        assert DistributedApproxFIRAL(num_ranks=2).pool is None

    def test_pool_rejects_simulated_transport(self):
        with pytest.raises(ValueError, match="shared_memory"):
            run_spmd(pid_rank, [None, None], pool=RankPool(2))


@pytest.mark.multiprocess
class TestRankPool:
    def test_launches_reuse_the_same_processes(self):
        pool = RankPool(2)
        try:
            first = run_spmd(pid_rank, [None, None], transport="shared_memory", pool=pool)
            second = run_spmd(pid_rank, [None, None], transport="shared_memory", pool=pool)
            assert first == second == list(pool.pids)
            assert os.getpid() not in first
        finally:
            pool.close()
        assert not pool.alive
        assert _rank_children() == []

    def test_attempt_travels_with_each_launch(self):
        pool = RankPool(2)
        try:
            assert pool.launch(attempt_rank, [None, None], 1024, 30.0, attempt=0) == [(0, 0), (1, 0)]
            pids = pool.pids
            assert pool.launch(attempt_rank, [None, None], 1024, 30.0, attempt=1) == [(0, 1), (1, 1)]
            assert pool.pids == pids
        finally:
            pool.close()

    def test_retry_on_a_pool_succeeds_on_attempt_one(self):
        """An attempt-gated kill fails attempt 0; attempt 1 runs on fresh ranks."""

        pool = RankPool(2)
        try:
            run_spmd(pid_rank, [None, None], transport="shared_memory", pool=pool)
            before = pool.pids
            outputs = run_spmd(
                FaultInjectingEntry(attempt_rank, FaultPlan(rank=1, mode="kill", attempt=0)),
                [None, None],
                transport="shared_memory",
                max_message_bytes=1024,
                max_retries=1,
                retry_backoff=0.0,
                pool=pool,
            )
            assert outputs == [(0, 1), (1, 1)]
            assert pool.alive and set(pool.pids).isdisjoint(before)
        finally:
            pool.close()

    def test_one_shot_launch_leaves_no_process(self):
        assert run_spmd(attempt_rank, [None, None], transport="shared_memory") == [(0, 0), (1, 0)]
        assert _rank_children() == []

    def test_wrong_rank_count_rejected(self):
        with pytest.raises(ValueError, match="2-rank pool"):
            run_spmd(pid_rank, [None, None, None], transport="shared_memory", pool=RankPool(2))


@pytest.mark.multiprocess
class TestSelectorPool:
    @pytest.fixture(scope="class")
    def dataset(self):
        return make_fisher_dataset(seed=31, num_pool=40, num_labeled=8, dimension=4, num_classes=3)

    def test_kill_then_fresh_processes_select_the_clean_points(self, dataset):
        selector = DistributedApproxFIRAL(
            RelaxConfig(max_iterations=3, track_objective="none", seed=0),
            num_ranks=2,
            transport="shared_memory",
        )
        try:
            clean = selector.select(dataset, 5)
            clean_pids = selector.pool.pids
            selector.fault_plan = FaultPlan(rank=1, mode="kill", at_call=3)
            with pytest.raises(RankFailedError):
                selector.select(dataset, 5)
            assert not selector.pool.alive
            selector.fault_plan = None
            again = selector.select(dataset, 5)
            assert selector.pool.alive and set(selector.pool.pids).isdisjoint(clean_pids)
            np.testing.assert_array_equal(again.selected_indices, clean.selected_indices)
        finally:
            selector.close()


@pytest.mark.multiprocess
class TestSessionLifetime:
    def test_one_set_of_ranks_serves_every_launch_of_a_session(self, problem, launch_pids):
        session = _session(problem, _strategy(), rounds=3)
        for _ in range(3):
            session.step()
            if session.round_index < 3:
                assert len(_rank_children()) == 2
        # RELAX + η search per round, all on one pair of processes.
        assert len(launch_pids) == 6
        assert len(set(launch_pids)) == 1 and len(launch_pids[0]) == 2
        # The last planned observe() ended the session and its ranks.
        assert _rank_children() == []

    def test_selections_match_the_simulated_transport(self, problem):
        def labeled(config):
            session = _session(problem, _strategy(), rounds=3, config=config)
            session.run()
            return session.store.labeled_ids.copy()

        np.testing.assert_array_equal(labeled(SHM), labeled(SessionConfig(parallel_ranks=2)))

    def test_session_close_stops_the_ranks(self, problem):
        session = _session(problem, _strategy(), rounds=3)
        session.step()
        assert len(_rank_children()) == 2
        session.close()
        assert _rank_children() == []
        session.step()  # a later round respawns
        assert len(_rank_children()) == 2
        session.close()
        assert _rank_children() == []

    def test_replaced_selector_stops_its_ranks(self, problem):
        strategy = _strategy()
        _session(problem, strategy, rounds=2).step()
        assert len(_rank_children()) == 2
        _session(problem, strategy, rounds=2)  # begin_session replaces the selector
        assert _rank_children() == []

    def test_garbage_collected_selector_stops_its_ranks(self, problem):
        strategy = _strategy()
        session = _session(problem, strategy, rounds=2)
        session.step()
        assert len(_rank_children()) == 2
        del session, strategy
        gc.collect()
        assert _rank_children() == []

    def test_close_session_and_aclose_stop_the_ranks(self, problem):
        def spec():
            return SessionSpec(
                problem=problem,
                strategy_factory=_strategy,
                budget_per_round=3,
                num_rounds=3,
                seed=0,
                config=SHM,
            )

        async def drive():
            manager = SessionManager(ServeConfig(max_workers=1))
            try:
                for name in ("a", "b"):
                    await manager.open_session(name, spec())
                    await manager.propose(name)
                    await manager.observe(name)
                assert len(_rank_children()) == 4
                await manager.close_session("a", checkpoint=False)
                assert len(_rank_children()) == 2
            finally:
                await manager.aclose(checkpoint=False)
            assert _rank_children() == []

        asyncio.run(drive())
