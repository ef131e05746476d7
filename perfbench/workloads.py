"""The benchmark's workloads and the closed loops that drive them.

Every workload is a closed loop: a labeler asks for a proposal, waits for it,
labels the proposed points itself and posts the labels back before it asks
again.  Three workloads drive :class:`repro.engine.ActiveSession` directly
from one thread; ``serve_tenants8`` drives eight such labelers as asyncio
tasks through :class:`repro.serve.AsyncSessionClient`.

A direct run keeps starting sessions while the previous session's duration
still fits in the measurement window, so every session in a run is complete
and the per-round latency mix does not depend on where the window happens
to end.  A serving run keeps every labeler busy until the window closes, so
the service stays loaded throughout.  Each session gets its own inputs,
derived from ``(seed, tenant, index)``; the program sees only the generated
problem.

Each proposal and observation is checked against the benchmark's own
ledger of which ids are labeled (see :class:`Ledger`); a failed check makes
the run incorrect, and any exception from the program is counted as a
failed operation instead of ending the run.
"""

from __future__ import annotations

import asyncio
import math
import os
import pathlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.baselines import FIRALStrategy
from repro.core.config import RelaxConfig
from repro.core.firal import ApproxFIRAL
from repro.datasets import DatasetSpec, build_problem
from repro.engine import ActiveSession, SessionConfig, ShardedPointStore
from repro.models import LogisticRegressionClassifier
from repro.serve import AsyncSessionClient, ServeConfig, SessionManager, SessionSpec

__all__ = [
    "WORKLOADS",
    "InputCache",
    "Pass",
    "ProposalRecord",
    "Workload",
    "build_session",
    "run_direct_session",
    "run_pass",
]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``relax_iterations`` is the only solver setting a workload names; every
    other solver and session knob stays at the library default, so a later
    change of a default shows up in the numbers.
    """

    name: str
    dataset: object  # a registered dataset name or a DatasetSpec
    scale: float
    budget: int
    rounds: int
    relax_iterations: int
    tenants: int = 0  # > 0: drive the serving layer with this many labelers
    ranks: Optional[int] = None  # multi-rank selection over a sharded store
    think_mean_s: float = 0.0  # mean labeler think time (serve only)

    @property
    def serve(self) -> bool:
        return self.tenants > 0


#: The round-bound shape: a synthetic 10-class pool of 800 points in d=32,
#: labeled 100 at a time, so the η grid's ROUND solves outweigh RELAX.
BIGBATCH_SPEC = DatasetSpec("synthetic-c10-d32", 10, 32, 1, 800, 2, 100, 1_000)

#: Every workload the benchmark can run.  ``BENCHMARK.json`` gates only
#: ``serve_tenants8`` and ``ranks2_shm``; the two single-session shapes stay
#: runnable by name but were too unsteady on a shared 2-core machine to gate
#: (see README.md).
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Reference shape 1: RELAX (mostly CG) is ~90% of a round.
        Workload("relax_cifar10", "cifar10", 0.25, budget=10, rounds=10, relax_iterations=20),
        # ROUND-bound: the η grid's scoring and eigenvalue work dominates.
        Workload("round_bigbatch", BIGBATCH_SPEC, 1.0, budget=100, rounds=2, relax_iterations=10),
        # Eight labelers on one service: queueing, eager prefetch, checkpoint I/O.
        # The mean think time is about one direct selection at this shape.
        Workload(
            "serve_tenants8",
            "cifar10",
            0.1,
            budget=5,
            rounds=4,
            relax_iterations=5,
            tenants=8,
            think_mean_s=0.2,
        ),
        # Reference shape 1 over two OS processes on a two-shard store.
        Workload(
            "ranks2_shm", "cifar10", 0.25, budget=10, rounds=5, relax_iterations=20, ranks=2
        ),
    )
}


#: ``setup_s`` is the median of at least this many timed session set-ups per
#: run: set-up takes milliseconds, so one slow instant must not decide it.
MIN_SETUPS = 21

#: The host's speed drifts over seconds while a set-up takes milliseconds, so
#: set-ups are timed all through the window, not in one burst: every
#: ``SETUP_INTERVAL_S`` on a serving run, and ``SETUPS_PER_ROUND`` after each
#: round of a direct run, whose selection keeps every core busy until the
#: round ends.
SETUP_INTERVAL_S = 0.5
SETUPS_PER_ROUND = 3

#: The checkout this benchmark runs in; serving checkpoints go under it.
CHECKOUT = pathlib.Path(__file__).resolve().parent.parent

#: Sessions per labeler whose inputs are generated before a serving pass
#: starts; in a 50 s run a labeler runs about seven.
SERVE_PREFILL_SESSIONS = 8


# ---------------------------------------------------------------------- #
# inputs and output checks
# ---------------------------------------------------------------------- #
@dataclass
class SessionInputs:
    """Everything one session needs, generated from the run seed alone."""

    problem: object
    seed: int
    labels_by_id: np.ndarray
    initial_accuracy: float


def session_seed(seed: int, tenant: int, index: int) -> int:
    return int(np.random.SeedSequence([int(seed), int(tenant), int(index)]).generate_state(1)[0])


def make_inputs(workload: Workload, seed: int, tenant: int, index: int) -> SessionInputs:
    """The problem, oracle labels and initial-only accuracy of one session.

    Stores number the initial points first and the pool after them, so a
    global id indexes the concatenated label column.
    """

    sub_seed = session_seed(seed, tenant, index)
    problem = build_problem(workload.dataset, scale=workload.scale, seed=sub_seed)
    baseline = LogisticRegressionClassifier(problem.num_classes)
    baseline.fit(problem.initial_features, problem.initial_labels)
    initial_accuracy = float(np.mean(baseline.predict(problem.eval_features) == problem.eval_labels))
    return SessionInputs(
        problem=problem,
        seed=sub_seed,
        labels_by_id=np.concatenate([problem.initial_labels, problem.pool_labels]).astype(np.int64),
        initial_accuracy=initial_accuracy,
    )


class InputCache:
    """``(tenant, index) -> SessionInputs``, generated once and kept."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = int(seed)
        self._inputs: Dict[Tuple[int, int], SessionInputs] = {}

    def __call__(self, tenant: int, index: int) -> SessionInputs:
        key = (int(tenant), int(index))
        if key not in self._inputs:
            self._inputs[key] = make_inputs(self.workload, self.seed, tenant, index)
        return self._inputs[key]

    def prefill(self, plan: List[int]) -> "InputCache":
        for tenant, count in enumerate(plan):
            for index in range(count):
                self(tenant, index)
        return self


class Ledger:
    """The benchmark's own record of one session's labeled set."""

    def __init__(self, inputs: SessionInputs, budget: int):
        problem = inputs.problem
        self.budget = int(budget)
        self.initial_accuracy = inputs.initial_accuracy
        self.unlabeled = set(range(problem.initial_size, problem.initial_size + problem.pool_size))
        self.num_labeled = problem.initial_size

    def check_proposal(self, ids) -> List[str]:
        ids = [int(i) for i in ids]
        problems = []
        if len(ids) != self.budget:
            problems.append(f"proposal has {len(ids)} ids, expected {self.budget}")
        if len(set(ids)) != len(ids):
            problems.append("proposal repeats an id")
        stray = [i for i in ids if i not in self.unlabeled]
        if stray:
            problems.append(f"proposal holds ids that are not unlabeled pool ids: {stray[:5]}")
        self.unlabeled.difference_update(ids)
        return problems

    def check_observed(self, num_labeled: int) -> List[str]:
        self.num_labeled += self.budget
        if int(num_labeled) != self.num_labeled:
            return [f"labeled count is {num_labeled}, expected {self.num_labeled}"]
        return []

    def check_final(self, accuracy: float, run: "Pass") -> List[str]:
        run.final_accuracy.append(float(accuracy))
        run.initial_accuracy.append(self.initial_accuracy)
        if not math.isfinite(accuracy):
            return [f"final accuracy {accuracy!r} is not finite"]
        return []


def check_accuracy(run: "Pass") -> List[str]:
    """``final_accuracy`` (the mean over sessions) must reach the initial-only mean.

    A single small session may end a little below its initial-only accuracy;
    the run's mean may not.
    """

    if not run.final_accuracy:
        return []
    final = float(np.mean(run.final_accuracy))
    initial = float(np.mean(run.initial_accuracy))
    if final < initial:
        return [f"final accuracy {final:.4f} is below the initial-only {initial:.4f}"]
    return []


# ---------------------------------------------------------------------- #
# what one pass observed
# ---------------------------------------------------------------------- #
@dataclass
class ProposalRecord:
    """One client-observed proposal: its window and the engine's own timings."""

    session: str
    round_index: int
    start: float
    end: float
    setup_s: float
    selection_s: float

    @property
    def latency(self) -> float:
        return self.end - self.start


@dataclass
class Pass:
    """Everything one closed-loop pass observed."""

    proposals: List[ProposalRecord] = field(default_factory=list)
    observe_s: List[float] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    final_accuracy: List[float] = field(default_factory=list)
    initial_accuracy: List[float] = field(default_factory=list)
    selections: Dict[str, List[Tuple[int, ...]]] = field(default_factory=dict)
    #: what a replay must repeat: sessions per tenant (direct workloads) or
    #: rounds per tenant (serving)
    plan: List[int] = field(default_factory=list)
    #: sessions each tenant started
    sessions: List[int] = field(default_factory=list)
    queue_depth: List[int] = field(default_factory=list)
    serve_stats: Dict[str, int] = field(default_factory=dict)
    #: session id -> strategy object, so traced selections map to sessions
    strategies: Dict[str, object] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    wall_s: float = 0.0
    #: time spent in thrown-away set-ups; a direct pass leaves it out of wall_s
    sampling_s: float = 0.0

    def fail(self, exc: BaseException) -> None:
        self.failed += 1
        self.errors.append(f"{type(exc).__name__}: {exc}")


#: ``tamper(kind, value)`` lets tests corrupt what the loop sees: ``kind`` is
#: ``"proposal"`` (the proposed global ids) or ``"labels"`` (the labels about
#: to be posted).  It returns the value to use instead.
Tamper = Callable[[str, np.ndarray], np.ndarray]


def _untampered(kind: str, value: np.ndarray) -> np.ndarray:
    return value


def make_strategy(workload: Workload) -> FIRALStrategy:
    return FIRALStrategy(ApproxFIRAL(RelaxConfig(max_iterations=workload.relax_iterations)))


def make_config(workload: Workload) -> SessionConfig:
    if workload.ranks is None:
        return SessionConfig()
    return SessionConfig(
        store=ShardedPointStore.factory(num_shards=workload.ranks),
        parallel_ranks=workload.ranks,
        parallel_transport="shared_memory",
    )


def build_session(workload: Workload, inputs: SessionInputs, strategy=None) -> ActiveSession:
    return ActiveSession(
        inputs.problem,
        strategy if strategy is not None else make_strategy(workload),
        budget_per_round=workload.budget,
        num_rounds=workload.rounds,
        seed=inputs.seed,
        config=make_config(workload),
    )


def time_setups(workload: Workload, inputs: SessionInputs, run: "Pass", count: int) -> None:
    """Build ``count`` sessions that are thrown away, timing each into ``run.setup_s``."""

    for _ in range(count):
        began = time.perf_counter()
        build_session(workload, inputs)
        run.setup_s.append(time.perf_counter() - began)
        run.sampling_s += run.setup_s[-1]


# ---------------------------------------------------------------------- #
# direct closed loop
# ---------------------------------------------------------------------- #
def run_direct_session(
    workload: Workload,
    inputs: SessionInputs,
    key: str,
    run: Pass,
    tamper: Tamper = _untampered,
    setups_per_round: int = 0,
) -> None:
    """Build one session and run its rounds as a closed loop, checking every output.

    After each round, ``setups_per_round`` extra set-ups are timed.
    """

    strategy = make_strategy(workload)
    run.strategies[key] = strategy
    run.attempted += 1
    try:
        start = time.perf_counter()
        session = build_session(workload, inputs, strategy)
        run.setup_s.append(time.perf_counter() - start)
    except Exception as exc:  # counted, not raised: the loop must keep running
        run.fail(exc)
        return
    ledger = Ledger(inputs, workload.budget)
    record = None
    for round_index in range(workload.rounds):
        run.attempted += 1
        try:
            start = time.perf_counter()
            proposal = session.propose()
            end = time.perf_counter()
        except Exception as exc:
            run.fail(exc)
            return
        run.proposals.append(
            ProposalRecord(
                key, round_index, start, end, proposal.setup_seconds, proposal.selection_seconds
            )
        )
        ids = np.asarray(tamper("proposal", np.asarray(proposal.global_ids, dtype=np.int64)))
        run.selections.setdefault(key, []).append(tuple(int(i) for i in ids))
        run.problems.extend(ledger.check_proposal(ids))
        labels = tamper("labels", inputs.labels_by_id[np.asarray(proposal.global_ids)])
        run.attempted += 1
        try:
            start = time.perf_counter()
            record = session.observe(labels=labels)
            run.observe_s.append(time.perf_counter() - start)
        except Exception as exc:
            run.fail(exc)
            return
        run.rounds += 1
        run.problems.extend(ledger.check_observed(record.num_labeled))
        time_setups(workload, inputs, run, setups_per_round)
    run.problems.extend(ledger.check_final(float(record.eval_accuracy), run))


def _direct_pass(workload, seconds, plan, inputs_for, tamper) -> Pass:
    run = Pass()
    start = time.perf_counter()
    deadline = start + seconds
    index, last_s = 0, 0.0
    setups = SETUPS_PER_ROUND if plan is None else 0

    def another_session() -> bool:
        if plan is not None:
            return index < plan[0]
        return index == 0 or time.perf_counter() + last_s <= deadline

    while another_session():
        began = time.perf_counter()
        run_direct_session(workload, inputs_for(0, index), f"t0s{index}", run, tamper, setups)
        last_s = time.perf_counter() - began
        index += 1
    run.wall_s = time.perf_counter() - start - run.sampling_s
    run.plan = [index]
    run.sessions = [index]
    run.problems.extend(check_accuracy(run))
    return run


# ---------------------------------------------------------------------- #
# serving closed loop
# ---------------------------------------------------------------------- #
async def _serve_pass_async(workload, seed, seconds, plan, inputs_for, tamper, scratch) -> Pass:
    """Every labeler runs sessions back to back until the window closes.

    A labeler checks the clock before each proposal, so the service stays
    loaded until the end and at most one round per labeler runs past it.
    Every labeler completes at least one session.
    ``plan`` holds each labeler's round count; a replay runs exactly those.
    """

    run = Pass()
    manager = SessionManager(
        ServeConfig(
            max_workers=len(os.sched_getaffinity(0)),
            checkpoint_policy="round",
            checkpoint_dir=scratch,
            pipeline="eager",
        )
    )
    client = AsyncSessionClient(manager)
    start = time.perf_counter()
    deadline = start + seconds
    rounds_done = [0] * workload.tenants
    sessions = [0] * workload.tenants

    def strategy_factory(key: str):
        def build():
            strategy = make_strategy(workload)
            run.strategies[key] = strategy
            return strategy

        return build

    def more(tenant: int) -> bool:
        if plan is not None:
            return rounds_done[tenant] < plan[tenant]
        return rounds_done[tenant] < workload.rounds or time.perf_counter() < deadline

    async def labeler(tenant: int) -> None:
        think = np.random.default_rng([int(seed), tenant, 1])
        index = 0
        while more(tenant):
            await serve_session(tenant, index, think)
            index += 1
            sessions[tenant] = index

    async def serve_session(tenant: int, index: int, think) -> None:
        inputs = inputs_for(tenant, index)
        key = f"t{tenant}s{index}"
        spec = SessionSpec(
            problem=inputs.problem,
            strategy_factory=strategy_factory(key),
            budget_per_round=workload.budget,
            num_rounds=workload.rounds,
            seed=inputs.seed,
        )
        run.attempted += 1
        try:
            await client.open(key, spec)
        except Exception as exc:  # counted, not raised: the loop must keep running
            run.fail(exc)
            rounds_done[tenant] += 1  # a replay must not spin on a failing open
            return
        ledger = Ledger(inputs, workload.budget)
        record = None
        try:
            for round_index in range(workload.rounds):
                if not more(tenant):
                    break
                run.queue_depth.append(manager.inflight)
                run.attempted += 1
                began = time.perf_counter()
                proposal = await client.propose(key)
                end = time.perf_counter()
                run.proposals.append(
                    ProposalRecord(
                        key,
                        round_index,
                        began,
                        end,
                        proposal["setup_seconds"],
                        proposal["selection_seconds"],
                    )
                )
                proposed = np.asarray(proposal["global_ids"], dtype=np.int64)
                ids = np.asarray(tamper("proposal", proposed))
                run.selections.setdefault(key, []).append(tuple(int(i) for i in ids))
                run.problems.extend(ledger.check_proposal(ids))
                labels = tamper("labels", inputs.labels_by_id[proposed])
                # The labeler labels the batch before posting it back.
                await asyncio.sleep(float(think.exponential(workload.think_mean_s)))
                run.attempted += 1
                began = time.perf_counter()
                record = await client.observe(key, labels=[int(y) for y in labels])
                run.observe_s.append(time.perf_counter() - began)
                run.rounds += 1
                rounds_done[tenant] += 1
                run.problems.extend(ledger.check_observed(record["num_labeled"]))
        except Exception as exc:  # AdmissionError / ProtocolError included
            run.fail(exc)
            rounds_done[tenant] += 1
        else:
            if len(run.selections.get(key, ())) == workload.rounds:
                run.problems.extend(ledger.check_final(float(record["eval_accuracy"]), run))
        try:
            await client.close(key, checkpoint=False)
        except Exception as exc:
            run.errors.append(f"close {key}: {type(exc).__name__}: {exc}")

    async def sample_setups() -> None:
        while plan is None:  # a replay times no set-ups
            await asyncio.sleep(SETUP_INTERVAL_S)
            if time.perf_counter() >= deadline:
                return
            time_setups(workload, inputs_for(0, 0), run, 1)

    sampler = asyncio.ensure_future(sample_setups())
    try:
        await asyncio.gather(*(labeler(t) for t in range(workload.tenants)))
        run.wall_s = time.perf_counter() - start
        await manager.flush_checkpoints()
    finally:
        sampler.cancel()
        await asyncio.gather(sampler, return_exceptions=True)
        await manager.aclose(checkpoint=False)
    run.plan = rounds_done
    run.sessions = sessions
    run.serve_stats = dict(manager.stats)
    run.problems.extend(check_accuracy(run))
    return run


def _serve_pass(workload, seed, seconds, plan, inputs_for, tamper) -> Pass:
    scratch_root = CHECKOUT / ".perfbench_tmp"
    scratch_root.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="checkpoints-", dir=scratch_root)
    try:
        return asyncio.run(
            _serve_pass_async(workload, seed, seconds, plan, inputs_for, tamper, scratch)
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still uses it


def run_pass(
    workload: Workload,
    seed: int,
    seconds: float,
    *,
    plan: Optional[List[int]] = None,
    inputs_for: Optional[Callable[[int, int], SessionInputs]] = None,
    tamper: Tamper = _untampered,
) -> Pass:
    """Run one closed-loop pass of ``workload``.

    Without ``plan`` the pass fills ``seconds``; with a timed pass's
    ``Pass.plan`` it repeats that pass's sessions and rounds exactly (the
    traced replay).
    Serving checkpoints live under ``.perfbench_tmp`` in the checkout while
    the pass runs.
    """

    if inputs_for is None:
        # Generate inputs before the clock starts: a labeler that generates
        # its next problem mid-run would stall the others' event loop.
        inputs_for = InputCache(workload, seed).prefill(
            [SERVE_PREFILL_SESSIONS] * workload.tenants if workload.serve else [1]
        )
    if workload.serve:
        run = _serve_pass(workload, seed, seconds, plan, inputs_for, tamper)
    else:
        run = _direct_pass(workload, seconds, plan, inputs_for, tamper)
    if plan is None:
        # A short window leaves too few set-ups: time the rest after it.
        time_setups(workload, inputs_for(0, 0), run, MIN_SETUPS - len(run.setup_s))
    return run
