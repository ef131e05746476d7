"""SPMD launcher: run one rank entry point per rank over a chosen transport.

The distributed solvers are written as *per-rank* functions
(``relax_rank_main`` / ``round_rank_main``) taking a
:class:`~repro.parallel.comm.Comm` handle plus a picklable per-rank argument
object.  :func:`run_spmd` executes ``len(rank_args)`` such ranks and returns
their outputs in rank order, over either transport:

* ``transport="simulated"`` — ranks are threads of this process over
  :class:`~repro.parallel.comm.SimulatedComm`.  Collectives rendezvous at a
  ``threading.Barrier``; NumPy/torch kernels release the GIL, so rank compute
  genuinely overlaps.  A failing rank aborts the barrier so its peers raise
  :class:`~repro.parallel.comm.CommAbortedError` instead of deadlocking.
* ``transport="shared_memory"`` — ranks are real OS processes of a
  :class:`RankPool`, started with the spawn-safe ``multiprocessing`` context
  and communicating through a :class:`~repro.parallel.comm.SharedMemoryComm`
  over one shared-memory segment per launch.  A pool's processes serve
  launch after launch, so an owner that keeps one pool (a
  :class:`~repro.parallel.firal.DistributedApproxFIRAL` keeps one per
  session) pays the process start-up once; a launch without a pool runs on
  a one-shot pool.  The entry point and per-rank arguments must be
  picklable (the entry point must be a module-level function); results come
  back over one pipe per rank.

Both transports produce per-rank outputs the drivers in
``distributed_relax`` / ``distributed_round`` merge into one result;
``collective_log`` picks the canonical communication log of a run (the
shared log for threads, rank 0's log for processes — all ranks' logs are
identical by construction).
"""

from __future__ import annotations

import os
import threading
import time
import traceback
import weakref
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro.parallel.comm import (
    Comm,
    CommAbortedError,
    CommError,
    CommunicationLog,
    SharedMemoryComm,
    SimulatedComm,
    _HEADER_BYTES,
    create_communicators,
)
from repro.utils.validation import require

__all__ = [
    "ComponentTimers",
    "RankFailedError",
    "RankPool",
    "SPMD_ATTEMPT_ENV",
    "TRANSPORTS",
    "collective_log",
    "enter_rank_device",
    "merge_component_seconds",
    "run_spmd",
    "ship_array",
    "validate_rank_devices",
]

TRANSPORTS = ("simulated", "shared_memory")

#: Default per-rank slot capacity (bytes) when the caller gives no bound.
DEFAULT_MESSAGE_BYTES = 1 << 22

#: Environment variable carrying the zero-based launch attempt of the current
#: :func:`run_spmd` call.  Set for both transports (a pool's rank processes
#: receive the attempt with each launch message and set it themselves), so
#: attempt-gated fault plans (`FaultPlan.attempt`) can model *transient*
#: failures that vanish on retry.
SPMD_ATTEMPT_ENV = "REPRO_SPMD_ATTEMPT"

RankMain = Callable[[Comm, Any], Any]


class RankFailedError(CommError):
    """One or more ranks raised; carries the first failure's rank and traceback.

    Inherits the structured :class:`~repro.parallel.comm.CommError` fields;
    for failures that crossed a process boundary (shared-memory transport)
    ``cause_type`` additionally names the original exception class, so
    recovery code can distinguish a root cause from a peer's
    ``CommAbortedError`` echo without parsing the traceback text.
    """

    def __init__(
        self,
        rank: int,
        message: str,
        *,
        sequence: Optional[int] = None,
        tag: Optional[int] = None,
        collective: Optional[str] = None,
        cause_type: Optional[str] = None,
    ):
        super().__init__(
            f"rank {rank} failed: {message}",
            rank=rank,
            sequence=sequence,
            tag=tag,
            collective=collective,
        )
        self.cause_type = cause_type


class ComponentTimers:
    """Per-component wall-clock accumulators for one rank.

    Both rank mains (``relax_rank_main`` / ``round_rank_main``) time their
    local compute segments through this one class so the per-rank seconds
    the driver merges (:func:`merge_component_seconds`) share one clock and
    one accumulation rule.
    """

    def __init__(self, components: Sequence[str] = ()):
        self.seconds = {name: 0.0 for name in components}

    def timed(self, component: str) -> "_TimedSpan":
        return _TimedSpan(self.seconds, component)


class _TimedSpan:
    """Context manager adding its wall-clock span to ``seconds[component]``."""

    __slots__ = ("_seconds", "_component", "_start")

    def __init__(self, seconds: dict, component: str):
        self._seconds = seconds
        self._component = component

    def __enter__(self) -> "_TimedSpan":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        elapsed = time.perf_counter() - self._start
        self._seconds[self._component] = self._seconds.get(self._component, 0.0) + elapsed
        return False


def ship_array(backend, array, transport: str):
    """Prepare an array for a rank spec.

    The shared-memory transport pickles specs to its rank processes, so
    backend arrays are converted to contiguous host arrays; the simulated
    transport shares memory with its rank threads, so (possibly
    device-resident) arrays pass through untouched.
    """

    if transport == "shared_memory":
        return np.ascontiguousarray(backend.to_numpy(array))
    return array


#: Array fields of the rank specs that :func:`enter_rank_device` moves onto
#: the rank's pinned device (missing/None fields are skipped, so one list
#: serves both the RELAX and ROUND specs).
_RANK_SPEC_ARRAY_FIELDS = (
    "pool_features",
    "pool_probabilities",
    "labeled_features",
    "labeled_probabilities",
    "z_local",
    "z0_local",
    "labeled_block_cache",
)


def validate_rank_devices(devices: Optional[Sequence[str]], num_ranks: int):
    """Normalize a per-rank device list: ``None`` or exactly one str per rank."""

    if devices is None:
        return None
    devices = tuple(str(d) for d in devices)
    require(
        len(devices) == num_ranks,
        f"devices must name one device per rank (got {len(devices)} for {num_ranks} ranks)",
    )
    return devices


def enter_rank_device(comm: Comm, spec):
    """Pin a rank body to ``spec.device``: staged comm + device-local shard.

    Returns ``(comm, spec)`` unchanged when the spec is unpinned.  When
    pinned, the rank's collective traffic is staged through the host
    (:class:`~repro.parallel.comm.HostStagedComm` — cross-device stacking
    never reaches the transport) and the spec's shard arrays are moved to
    the rank's device so every downstream promotion/gather stays
    device-local.  On a host backend (``device == "cpu"``) both steps are
    exact identities, which is what makes the pinned path testable without
    an accelerator.  Callers run the returned pair inside
    ``backend.device_context(spec.device)`` so unindexed allocations follow
    the rank's card.
    """

    if getattr(spec, "device", None) is None:
        return comm, spec
    from dataclasses import replace

    from repro.backend import get_backend
    from repro.parallel.comm import HostStagedComm

    backend = get_backend()
    moved = {}
    for name in _RANK_SPEC_ARRAY_FIELDS:
        value = getattr(spec, name, None)
        if value is not None:
            moved[name] = backend.to_device(value, spec.device)
    return HostStagedComm(comm, backend), replace(spec, **moved)


def merge_component_seconds(outputs: Sequence[Any]) -> dict:
    """Per-rank ``seconds`` dicts → component name → array of per-rank seconds.

    Component order follows first appearance across ranks, so rank 0's
    ordering (the canonical SPMD program order) leads.
    """

    components: List[str] = []
    for output in outputs:
        for name in output.seconds:
            if name not in components:
                components.append(name)
    return {
        name: np.asarray([output.seconds.get(name, 0.0) for output in outputs], dtype=np.float64)
        for name in components
    }


def collective_log(outputs: Sequence[Any]) -> CommunicationLog:
    """The canonical :class:`CommunicationLog` of a finished SPMD run.

    Every rank output is expected to expose a ``log`` attribute.  Under the
    simulated transport all ranks share one log object and rank 0 records;
    under the shared-memory transport each rank records privately but the
    logs are identical — either way rank 0's log *is* the run's log.
    """

    require(len(outputs) > 0, "no rank outputs")
    return outputs[0].log


def run_spmd(
    entry: RankMain,
    rank_args: Sequence[Any],
    *,
    transport: str = "simulated",
    max_message_bytes: Optional[int] = None,
    timeout: float = 120.0,
    max_retries: int = 0,
    retry_backoff: float = 0.05,
    pool: Optional[RankPool] = None,
) -> List[Any]:
    """Run ``entry(comm, rank_args[rank])`` on every rank; return outputs in rank order.

    Parameters
    ----------
    entry:
        The per-rank SPMD body.  For the shared-memory transport it must be a
        module-level (picklable) function.
    rank_args:
        One argument object per rank; its length fixes the communicator size.
    transport:
        ``"simulated"`` (threads, default) or ``"shared_memory"`` (rank
        processes).
    max_message_bytes:
        Upper bound on a single collective contribution, sizing the per-rank
        shared-memory slots.  Ignored by the simulated transport.  The
        distributed solvers compute a tight bound from the problem shape.
    timeout:
        Seconds a rank waits at a collective barrier before declaring the
        run deadlocked (both transports) — a peer that never posts the
        matching collective surfaces as
        :class:`~repro.parallel.comm.CommAbortedError` instead of a hang.
        For shared memory the parent additionally waits for results
        indefinitely while rank processes are alive — a long solve is not a
        failure — and raises :class:`RankFailedError` only when a rank
        reports an error or dies without reporting.
    max_retries:
        Relaunch the whole SPMD program up to this many extra times when a
        launch fails with a :class:`~repro.parallel.comm.CommError`
        (rank failure, barrier abort, protocol divergence).  Safe because a
        launch is all-or-nothing: per-rank state lives only inside the
        failed launch, so a relaunch replays the identical deterministic
        program, on fresh rank processes since the failure stopped the
        pool's.  Non-communicator errors (a bug in the rank body) propagate
        immediately.  The zero-based attempt index is exported as
        ``SPMD_ATTEMPT_ENV`` for fault plans gated on a specific attempt.
    retry_backoff:
        Base of the exponential backoff between attempts:
        ``retry_backoff * 2**attempt`` seconds after attempt ``attempt``.
    pool:
        The :class:`RankPool` whose processes run a shared-memory launch;
        it must have one process per rank.  ``None`` runs the launch on a
        one-shot pool that is closed before this call returns.  Only the
        shared-memory transport takes a pool.
    """

    require(len(rank_args) > 0, "at least one rank is required")
    require(transport in TRANSPORTS, f"unknown transport '{transport}'; use one of {TRANSPORTS}")
    require(max_retries >= 0, "max_retries must be non-negative")
    require(retry_backoff >= 0, "retry_backoff must be non-negative")
    require(pool is None or transport == "shared_memory", "only the shared_memory transport takes a pool")
    capacity = int(max_message_bytes or DEFAULT_MESSAGE_BYTES)
    launch_pool = pool
    if transport == "shared_memory" and pool is None:
        launch_pool = RankPool(len(rank_args))

    previous_attempt = os.environ.get(SPMD_ATTEMPT_ENV)
    try:
        attempt = 0
        while True:
            os.environ[SPMD_ATTEMPT_ENV] = str(attempt)
            try:
                if transport == "simulated":
                    return _run_threads(entry, rank_args, timeout)
                return launch_pool.launch(entry, rank_args, capacity, timeout, attempt)
            except CommError:
                if attempt >= max_retries:
                    raise
                time.sleep(retry_backoff * (2**attempt))
                attempt += 1
    finally:
        if previous_attempt is None:
            os.environ.pop(SPMD_ATTEMPT_ENV, None)
        else:
            os.environ[SPMD_ATTEMPT_ENV] = previous_attempt
        if pool is None and launch_pool is not None:
            launch_pool.close()


# --------------------------------------------------------------------- #
# simulated transport: threads
# --------------------------------------------------------------------- #
def _run_threads(entry: RankMain, rank_args: Sequence[Any], timeout: float) -> List[Any]:
    num_ranks = len(rank_args)
    comms = create_communicators(num_ranks, timeout=timeout)
    if num_ranks == 1:
        # A single rank never blocks on the barrier; run it inline so stack
        # traces, profilers and debuggers see a plain call.
        return [entry(comms[0], rank_args[0])]

    outputs: List[Any] = [None] * num_ranks
    failures: List[Optional[BaseException]] = [None] * num_ranks

    def _rank_body(rank: int, comm: SimulatedComm) -> None:
        try:
            outputs[rank] = entry(comm, rank_args[rank])
        except BaseException as exc:  # noqa: BLE001 - repropagated below
            failures[rank] = exc
            comm.abort()  # unblock peers waiting at the rendezvous

    threads = [
        threading.Thread(target=_rank_body, args=(rank, comms[rank]), name=f"spmd-rank-{rank}")
        for rank in range(num_ranks)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    # Prefer the root cause over the CommAbortedError echoes of its peers.
    primary = next(
        (exc for exc in failures if exc is not None and not isinstance(exc, CommAbortedError)),
        next((exc for exc in failures if exc is not None), None),
    )
    if primary is not None:
        raise primary
    return outputs


# --------------------------------------------------------------------- #
# shared-memory transport: a pool of spawned rank processes
# --------------------------------------------------------------------- #
#: Seconds :meth:`RankPool.close` waits for an idle rank to exit before it
#: terminates the process.
_STOP_GRACE_S = 5.0


def _comm_error_fields(exc: BaseException) -> dict:
    """Structured context of a failure, picklable for the reply pipe."""

    if isinstance(exc, CommError):
        return {
            "sequence": exc.sequence,
            "tag": exc.tag,
            "collective": exc.collective,
        }
    return {}


def _run_launch(rank, size, barrier, message) -> tuple:
    """Run one launch message on this rank; return its ``(ok, payload)`` reply."""

    entry, shm_name, capacity, timeout, args, attempt = message
    os.environ[SPMD_ATTEMPT_ENV] = str(attempt)
    comm = None
    try:
        comm = SharedMemoryComm(rank, size, shm_name, barrier, capacity, timeout=timeout)
        return True, entry(comm, args)
    except BaseException as exc:  # noqa: BLE001 - serialized back to the parent
        # Break the shared barrier so peer ranks stop waiting for this rank
        # instead of blocking until the timeout.
        barrier.abort()
        return False, (type(exc).__name__, traceback.format_exc(), _comm_error_fields(exc))
    finally:
        if comm is not None:
            comm.close()


def _pool_rank_main(rank, size, barrier, conn):
    """Module-level rank process body (spawn requires an importable target).

    Serves launch messages until the pool closes its end of the pipe.
    """

    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        conn.send(_run_launch(rank, size, barrier, message))


def _stop_ranks(processes, conns) -> None:
    """Stop a pool's ranks: idle ones exit on end-of-file, stragglers are terminated."""

    for conn in conns:
        conn.close()
    for process in processes:
        if process.pid is None:  # never started
            continue
        process.join(timeout=_STOP_GRACE_S)
        if process.is_alive():
            process.terminate()
            process.join()


class RankPool:
    """``num_ranks`` spawned rank processes that serve many SPMD launches.

    Starting a rank process costs an interpreter start plus the package
    import, about a second.  A pool pays that once and runs every later
    launch on the same processes: each rank loops over launch messages
    ``(entry, segment name, slot capacity, timeout, rank spec, attempt)``,
    attaches a :class:`~repro.parallel.comm.SharedMemoryComm` to the
    launch's segment, runs the entry and replies with its output or its
    failure.  The parent creates and unlinks one segment per launch, since
    RELAX and ROUND launches size their slots differently.

    The processes are spawned by the first launch, not at construction.
    They stop on :meth:`close`, when a launch fails (a rank may be stuck
    mid-collective and the barrier is broken; the next launch spawns fresh
    processes), and when the pool is garbage-collected.  A pool serves one
    launch at a time.
    """

    def __init__(self, num_ranks: int):
        require(num_ranks > 0, "num_ranks must be positive")
        self.num_ranks = int(num_ranks)
        self._processes: list = []
        self._conns: list = []
        #: Held while the ranks run: the barrier's semaphores are released
        #: when the parent's handle is collected.
        self._barrier = None
        self._finalizer: Optional[weakref.finalize] = None

    @property
    def alive(self) -> bool:
        """Whether rank processes are running (spawned and not yet stopped)."""

        return self._finalizer is not None and self._finalizer.alive

    @property
    def pids(self) -> tuple:
        """Process ids of the running ranks in rank order; empty when stopped."""

        return tuple(process.pid for process in self._processes) if self.alive else ()

    def close(self) -> None:
        """Stop the rank processes; a later launch spawns new ones."""

        if self._finalizer is not None:
            self._finalizer()

    def _spawn(self) -> None:
        import multiprocessing as mp

        ctx = mp.get_context("spawn")
        barrier = ctx.Barrier(self.num_ranks)
        pipes = [ctx.Pipe() for _ in range(self.num_ranks)]
        processes = [
            ctx.Process(
                target=_pool_rank_main,
                args=(rank, self.num_ranks, barrier, child),
                name=f"spmd-rank-{rank}",
                daemon=True,
            )
            for rank, (_, child) in enumerate(pipes)
        ]
        conns = [parent for parent, _ in pipes]
        self._processes, self._conns, self._barrier = processes, conns, barrier
        self._finalizer = weakref.finalize(self, _stop_ranks, processes, conns)
        try:
            for process in processes:
                process.start()
        except BaseException:
            self.close()
            raise
        finally:
            for _, child in pipes:
                child.close()

    def _abandon(self) -> None:
        """Terminate the ranks of a failed launch, then stop the pool."""

        for process in self._processes:
            if process.is_alive():
                process.terminate()
        self.close()

    def launch(
        self, entry: RankMain, rank_args: Sequence[Any], capacity: int, timeout: float, attempt: int = 0
    ) -> List[Any]:
        """Run ``entry`` on every rank over a fresh segment; return outputs in rank order."""

        from multiprocessing import shared_memory

        require(
            len(rank_args) == self.num_ranks,
            f"a {self.num_ranks}-rank pool got {len(rank_args)} rank arguments",
        )
        require(capacity > 0, "max_message_bytes must be positive")
        if not self.alive:
            self._spawn()
        segment = shared_memory.SharedMemory(
            create=True, size=self.num_ranks * (_HEADER_BYTES + capacity)
        )
        try:
            for rank, conn in enumerate(self._conns):
                message = (entry, segment.name, capacity, timeout, rank_args[rank], attempt)
                try:
                    conn.send(message)
                except OSError:
                    raise self._lost(rank) from None
            return self._collect()
        except BaseException:
            self._abandon()
            raise
        finally:
            # Always unlink the /dev/shm segment — leaking it would pin
            # num_ranks * slot_bytes of shared memory until reboot.
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def _lost(self, rank: int) -> RankFailedError:
        process = self._processes[rank]
        process.join(timeout=1.0)
        return RankFailedError(
            rank,
            f"rank process exited without reporting a result (exit code: {process.exitcode})",
        )

    def _collect(self) -> List[Any]:
        """Wait for every rank's reply; raise the root cause of any failure.

        A long solve is not a failure: the parent waits while ranks are
        alive, and deadlocks are bounded by the ranks' own barrier timeout.
        A rank that dies without replying (hard crash, OOM kill) closes its
        pipe, which ends the wait at once.
        """

        from multiprocessing.connection import wait

        outputs: List[Any] = [None] * self.num_ranks
        failures: List[tuple] = []
        pending = {conn: rank for rank, conn in enumerate(self._conns)}
        while pending:
            for conn in wait(list(pending)):
                rank = pending.pop(conn)
                try:
                    ok, payload = conn.recv()
                except EOFError:
                    raise self._lost(rank) from None
                if ok:
                    outputs[rank] = payload
                else:
                    failures.append((rank, *payload))
        if failures:
            # Reply order races between ranks; report the root cause, not a
            # peer's CommAbortedError echo of it.
            primary = next(
                (f for f in failures if f[1] != CommAbortedError.__name__), failures[0]
            )
            raise RankFailedError(primary[0], f"\n{primary[2]}", cause_type=primary[1], **primary[3])
        return outputs
