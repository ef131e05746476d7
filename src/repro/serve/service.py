"""Asyncio multi-tenant session service over the propose/observe protocol.

:class:`SessionManager` owns many concurrent
:class:`~repro.engine.ActiveSession`\\ s and puts the engine "behind
traffic": every session gets an :class:`asyncio.Lock` (its rounds are
strictly ordered even under concurrent clients), the CPU-heavy halves —
session construction, ``propose()``'s η-search/ROUND selection,
``observe()``'s retrain — run on a **bounded worker pool**
(:class:`~concurrent.futures.ThreadPoolExecutor`, NumPy's BLAS kernels
release the GIL) so the event loop never blocks, and three serving policies
wrap the PR 7 crash-safety machinery:

* **admission control** — at most ``max_sessions`` live sessions and
  (optionally) ``max_pending_requests`` in-flight requests; excess traffic
  is rejected with :class:`AdmissionError` instead of queueing unboundedly;
* **request batching** — dispatches within ``batch_window_seconds`` are
  coalesced and submitted to the worker pool together, so a burst of
  proposals costs one wakeup sweep instead of one per request;
* **checkpoint/restore** — ``checkpoint_policy`` writes each session's
  crash-safe snapshot after every round (``"round"``) or once the session
  goes idle (``"idle"``), and ``restore_on_open`` resumes a session from
  its checkpoint when a client re-opens it after a crash.  A session that
  crashed **mid-proposal** restores to the pre-proposal round boundary with
  the pending proposal *invalidated* (surfaced in the open-info payload,
  never silently dropped — see ``ActiveSession.invalidated_proposal``); the
  client simply re-proposes.  Snapshot *capture* runs on the compute pool
  under the session lock, but the file *write* runs on a dedicated
  single-worker I/O executor — a slow checkpoint disk backs up only its own
  queue, never the event loop or other tenants' requests;
* **eager proposal pipelining** — with ``pipeline="eager"`` (per service,
  spec, or ``open``), ``observe()`` schedules the next round's proposal
  onto the compute pool before returning, so the labeler's think-time hides
  the selection latency and the client's next ``propose`` adopts the
  bit-identical precomputed result (``ActiveSession.prefetch_proposal``).
  State changes that would make the speculative proposal stale —
  ``invalidate_proposal``, ``extend_pool``, close/checkpoint — cancel or
  quiesce it under the session lock; a stale proposal is never served.

The service is transport-agnostic: :class:`AsyncSessionClient` is the
in-process client speaking JSON-shaped dict payloads — the exact client
loop of the exemplar AL drivers (submit unlabeled batch, receive query set,
post labels) — and :class:`repro.serve.http.HttpFrontend` puts the same
payloads behind a thin stdlib-only HTTP front.
"""

from __future__ import annotations

import asyncio
import pathlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Union

import numpy as np

from repro.active.problem import ActiveLearningProblem
from repro.active.results import RoundRecord
from repro.engine.session import ActiveSession, QueryProposal, SessionConfig
from repro.utils.validation import require

__all__ = [
    "ServeConfig",
    "SessionSpec",
    "SessionManager",
    "AsyncSessionClient",
    "ServeError",
    "AdmissionError",
    "ProtocolError",
    "SessionExistsError",
    "SessionNotFoundError",
]


class ServeError(RuntimeError):
    """Base class for serving-layer failures."""


class SessionNotFoundError(ServeError):
    """No live session under the requested id."""


class SessionExistsError(ServeError):
    """A live session already holds the requested id."""


class AdmissionError(ServeError):
    """The service is at capacity (sessions or in-flight requests)."""


class ProtocolError(ServeError):
    """The request violates the session's half-round protocol.

    Raised when the underlying :class:`~repro.engine.ActiveSession` rejects
    the call — proposing while a proposal is pending, observing without one,
    posting misaligned labels.  The session itself is left intact.
    """


#: Checkpoint policies :class:`ServeConfig.checkpoint_policy` accepts.
CHECKPOINT_POLICIES = ("never", "round", "idle")

#: Proposal pipelining policies (:class:`ServeConfig.pipeline` /
#: :class:`SessionSpec.pipeline` / ``open_session(pipeline=...)``).
PIPELINE_MODES = ("sync", "eager")


@dataclass
class ServeConfig:
    """Service-level knobs for :class:`SessionManager`.

    Parameters
    ----------
    max_sessions:
        Admission ceiling on concurrently open sessions; opening one more
        raises :class:`AdmissionError`.
    max_workers:
        Size of the bounded worker pool running the CPU-heavy session halves
        off the event loop.
    max_pending_requests:
        Optional admission ceiling on in-flight propose/observe/open
        requests across all sessions (queued + running).  ``None`` (default)
        admits everything the per-session locks can order.
    batch_window_seconds:
        When positive, worker dispatches arriving within this window are
        coalesced and submitted to the pool together (see the module
        docstring).  ``0.0`` (default) dispatches immediately.
    batch_max_size:
        A batching window flushes early once this many dispatches are
        queued, bounding the latency a full window adds.
    checkpoint_policy:
        ``"never"`` (default): sessions are only checkpointed explicitly or
        at close.  ``"round"``: after every completed round.  ``"idle"``:
        after a completed round once the session has been quiet for
        ``idle_grace_seconds`` — heavy traffic coalesces many rounds into
        one write.
    idle_grace_seconds:
        Quiet period that counts as idle under ``checkpoint_policy="idle"``.
    checkpoint_dir:
        Directory holding one ``<session_id>.json`` crash-safe snapshot per
        session.  Required by any policy other than ``"never"`` and by
        ``restore_on_open``.
    restore_on_open:
        When a client opens a session id whose checkpoint exists, resume it
        (``ActiveSession.resume``) instead of starting fresh — the
        crash-recovery path.  Requires ``checkpoint_dir``.
    pipeline:
        Default proposal-pipelining policy for sessions that do not choose
        one themselves (``SessionSpec.pipeline`` or the ``open_session``
        argument override per session).  ``"sync"`` (default): every
        ``propose`` computes the selection on the request path.
        ``"eager"``: after ``observe`` commits a round (and after ``open``),
        the session's next proposal is precomputed on the worker pool, so
        the client's ``propose`` returns the bit-identical result near
        instantly once the background selection has landed — labeler
        think-time hides selection latency (see the README's pipelining
        section and ``ActiveSession.prefetch_proposal``).
    """

    max_sessions: int = 64
    max_workers: int = 4
    max_pending_requests: Optional[int] = None
    batch_window_seconds: float = 0.0
    batch_max_size: int = 16
    checkpoint_policy: str = "never"
    idle_grace_seconds: float = 0.05
    checkpoint_dir: Optional[Union[str, pathlib.Path]] = None
    restore_on_open: bool = False
    pipeline: str = "sync"

    def validate(self) -> "ServeConfig":
        """Field-named validation, mirroring ``SessionConfig.validate``."""

        require(
            int(self.max_sessions) > 0,
            f"ServeConfig.max_sessions must be positive (got {self.max_sessions!r})",
        )
        require(
            int(self.max_workers) > 0,
            f"ServeConfig.max_workers must be positive (got {self.max_workers!r})",
        )
        if self.max_pending_requests is not None:
            require(
                int(self.max_pending_requests) > 0,
                "ServeConfig.max_pending_requests must be positive "
                f"(got {self.max_pending_requests!r})",
            )
        require(
            float(self.batch_window_seconds) >= 0.0,
            "ServeConfig.batch_window_seconds must be non-negative "
            f"(got {self.batch_window_seconds!r})",
        )
        require(
            int(self.batch_max_size) > 0,
            f"ServeConfig.batch_max_size must be positive (got {self.batch_max_size!r})",
        )
        require(
            self.checkpoint_policy in CHECKPOINT_POLICIES,
            f"ServeConfig.checkpoint_policy must be one of {CHECKPOINT_POLICIES} "
            f"(got {self.checkpoint_policy!r})",
        )
        require(
            float(self.idle_grace_seconds) >= 0.0,
            "ServeConfig.idle_grace_seconds must be non-negative "
            f"(got {self.idle_grace_seconds!r})",
        )
        if self.checkpoint_policy != "never" or self.restore_on_open:
            require(
                self.checkpoint_dir is not None,
                "ServeConfig.checkpoint_dir is required by "
                f"checkpoint_policy={self.checkpoint_policy!r} / restore_on_open",
            )
        require(
            self.pipeline in PIPELINE_MODES,
            f"ServeConfig.pipeline must be one of {PIPELINE_MODES} "
            f"(got {self.pipeline!r})",
        )
        return self


@dataclass
class SessionSpec:
    """Everything needed to (re)build one tenant's session.

    The checkpoint file holds the run *state*, not the experiment
    definition (``ActiveSession.resume``'s contract), so the service keeps
    the definition here: opening a session builds it fresh, re-opening one
    with ``restore_on_open`` rebuilds it from the same spec and resumes.
    ``strategy_factory`` / ``classifier_factory`` are factories, not
    instances — every (re)build must start from virgin strategy state.
    """

    problem: ActiveLearningProblem
    strategy_factory: Callable[[], Any]
    budget_per_round: int
    num_rounds: Optional[int] = None
    classifier_factory: Optional[Callable[[], Any]] = None
    seed: Any = 0
    config: Optional[SessionConfig] = None
    #: Per-session pipelining policy (``"sync"`` / ``"eager"``); ``None``
    #: defers to :class:`ServeConfig.pipeline`.
    pipeline: Optional[str] = None

    def build(self) -> ActiveSession:
        return ActiveSession(
            self.problem,
            self.strategy_factory(),
            budget_per_round=self.budget_per_round,
            num_rounds=self.num_rounds,
            classifier=None if self.classifier_factory is None else self.classifier_factory(),
            seed=self.seed,
            config=self.config,
        )

    def resume(self, path: pathlib.Path) -> ActiveSession:
        return ActiveSession.resume(
            path,
            self.problem,
            self.strategy_factory(),
            classifier=None if self.classifier_factory is None else self.classifier_factory(),
            config=self.config,
        )


class _Slot:
    """One live session plus its serving bookkeeping."""

    __slots__ = ("session", "lock", "seq", "closed", "restored", "eager")

    def __init__(self, session: ActiveSession, *, restored: bool, eager: bool = False):
        self.session = session
        self.lock = asyncio.Lock()
        #: Bumped on every request touching the session; the idle-checkpoint
        #: task re-checks it after the grace period, so any interleaved
        #: request cancels the write.
        self.seq = 0
        self.closed = False
        self.restored = restored
        #: Whether this session runs the eager proposal pipeline.
        self.eager = eager


class _BatchGate:
    """Coalesce worker-pool dispatches inside a short window.

    With a zero window this is a transparent ``run_in_executor``.  With a
    positive one, jobs arriving within the window are submitted to the pool
    in one sweep — under bursty multi-tenant traffic the event loop wakes
    once per batch instead of once per request, and the pool's queue is fed
    in arrival order so per-session latency stays fair.  A full batch
    (``batch_max_size``) flushes early.
    """

    def __init__(self, loop, executor, window: float, max_size: int, stats: Dict[str, int]):
        self._loop = loop
        self._executor = executor
        self._window = float(window)
        self._max_size = int(max_size)
        self._stats = stats
        self._pending: List[tuple] = []
        self._handle = None

    async def run(self, fn):
        if self._window <= 0.0:
            return await self._loop.run_in_executor(self._executor, fn)
        fut = self._loop.create_future()
        self._pending.append((fn, fut))
        if len(self._pending) >= self._max_size:
            self._flush()
        elif self._handle is None:
            self._handle = self._loop.call_later(self._window, self._flush)
        return await fut

    def _flush(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        batch, self._pending = self._pending, []
        if not batch:
            return
        self._stats["batches"] += 1
        self._stats["batched_jobs"] += len(batch)
        for fn, fut in batch:
            task = self._loop.run_in_executor(self._executor, fn)
            task.add_done_callback(lambda done, fut=fut: self._transfer(done, fut))

    @staticmethod
    def _transfer(done, fut) -> None:
        if fut.cancelled():
            return
        exc = done.exception()
        if exc is not None:
            fut.set_exception(exc)
        else:
            fut.set_result(done.result())

    def drain(self) -> None:
        """Submit anything still queued (used at shutdown)."""

        self._flush()


class SessionManager:
    """The multi-tenant session service (see the module docstring).

    All public coroutines are safe to call concurrently from one event
    loop; per-session ordering is enforced by the slot lock, cross-session
    parallelism by the worker pool.  The manager is *not* thread-safe — use
    it from the loop that created it (the HTTP front and the in-process
    client both do).
    """

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = (config or ServeConfig()).validate()
        self._slots: Dict[str, _Slot] = {}
        self._executor: Optional[ThreadPoolExecutor] = None
        self._gate: Optional[_BatchGate] = None
        self._loop = None
        self._inflight = 0
        self._idle_tasks: set = set()
        #: Dedicated single-worker pool for checkpoint file writes: I/O never
        #: competes with (or stalls behind) the CPU-heavy compute pool, and a
        #: slow disk only backs up this queue — never the event loop.
        self._io: Optional[ThreadPoolExecutor] = None
        self._checkpoint_tasks: set = set()
        #: Monotonic serving counters (surfaced by benchmarks and ``/healthz``).
        self.stats: Dict[str, int] = {
            "proposals": 0,
            "observations": 0,
            "batches": 0,
            "batched_jobs": 0,
            "admission_rejections": 0,
            "restored_sessions": 0,
            "invalidated_proposals": 0,
            "checkpoints": 0,
            "eager_scheduled": 0,
            "eager_hits": 0,
        }

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    def _ensure_loop(self):
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
            self._executor = ThreadPoolExecutor(
                max_workers=self.config.max_workers,
                thread_name_prefix="repro-serve",
            )
            self._gate = _BatchGate(
                loop,
                self._executor,
                self.config.batch_window_seconds,
                self.config.batch_max_size,
                self.stats,
            )
            self._io = ThreadPoolExecutor(
                max_workers=1,
                thread_name_prefix="repro-serve-io",
            )
        return loop

    def _slot(self, session_id: str) -> _Slot:
        slot = self._slots.get(session_id)
        if slot is None:
            raise SessionNotFoundError(f"no live session {session_id!r}")
        return slot

    @staticmethod
    def _live(session_id: str, slot: _Slot) -> ActiveSession:
        """The slot's session, re-checked after waiting on its lock.

        A waiter can acquire the lock after the session failed to build or
        was closed underneath it; both read as "no live session".
        """

        if slot.session is None or slot.closed:
            raise SessionNotFoundError(f"no live session {session_id!r}")
        return slot.session

    def _checkpoint_path(self, session_id: str) -> Optional[pathlib.Path]:
        if self.config.checkpoint_dir is None:
            return None
        return pathlib.Path(self.config.checkpoint_dir) / f"{session_id}.json"

    def _schedule_checkpoint_write(self, payload: Dict[str, Any], path: pathlib.Path):
        """Write a captured checkpoint payload on the I/O executor.

        The capture half (``ActiveSession.checkpoint_payload``) runs under
        the session lock; this half is pure file I/O on a self-contained
        payload, so it runs on the dedicated single-worker I/O pool —
        per-session writes land in capture order (one worker = FIFO), and a
        slow disk stalls neither the event loop nor other tenants' compute.
        Returns the awaitable write future (callers that must guarantee the
        file exists — close, explicit checkpoint — await it; the round /
        idle policies fire and forget, see :meth:`flush_checkpoints`).
        """

        fut = self._loop.run_in_executor(
            self._io, lambda: ActiveSession.write_checkpoint(payload, path)
        )
        self._checkpoint_tasks.add(fut)
        fut.add_done_callback(self._finish_checkpoint_write)
        return fut

    def _finish_checkpoint_write(self, fut) -> None:
        self._checkpoint_tasks.discard(fut)
        if not fut.cancelled() and fut.exception() is None:
            self.stats["checkpoints"] += 1

    async def flush_checkpoints(self) -> None:
        """Wait until every scheduled background checkpoint write has landed.

        Re-raises the first write failure (the scheduling path is
        fire-and-forget, so this is where policy-write errors surface).
        """

        while self._checkpoint_tasks:
            await asyncio.gather(*list(self._checkpoint_tasks))

    async def _run(self, fn):
        """Run a CPU-heavy session half on the worker pool, under admission."""

        self._ensure_loop()
        limit = self.config.max_pending_requests
        if limit is not None and self._inflight >= int(limit):
            self.stats["admission_rejections"] += 1
            raise AdmissionError(
                f"service saturated: {self._inflight} requests in flight "
                f"(max_pending_requests={limit})"
            )
        self._inflight += 1
        try:
            return await self._gate.run(fn)
        finally:
            self._inflight -= 1

    @staticmethod
    def _protocol(call):
        """Map the session's protocol ``ValueError``\\ s to :class:`ProtocolError`."""

        def wrapped(*args, **kwargs):
            try:
                return call(*args, **kwargs)
            except ValueError as exc:
                raise ProtocolError(str(exc)) from exc

        return wrapped

    def _info(self, session_id: str, slot: _Slot) -> Dict[str, Any]:
        session = slot.session
        if session is None:
            # Concurrent caller raced an in-progress open (the id is reserved
            # before the off-loop build finishes).
            raise SessionNotFoundError(f"session {session_id!r} is still opening")
        pending = session.pending_proposal
        invalidated = session.invalidated_proposal
        return {
            "session_id": session_id,
            "strategy": session.strategy.name,
            "round_index": int(session.round_index),
            "num_labeled": int(session.num_labeled),
            "pool_size": int(session.pool_size),
            "planned_rounds": session.planned_rounds,
            "pending_round_index": None if pending is None else int(pending.round_index),
            "restored": bool(slot.restored),
            "pipeline": "eager" if slot.eager else "sync",
            "invalidated_proposal": (
                None
                if invalidated is None
                else {
                    "round_index": int(invalidated["round_index"]),
                    "global_ids": [int(i) for i in invalidated["global_ids"]],
                    "num_labeled": int(invalidated["num_labeled"]),
                }
            ),
        }

    def _schedule_prefetch(self, slot: _Slot) -> None:
        """Kick off the slot session's next proposal in the background.

        The eager-pipeline hook: submitted **directly** to the compute pool,
        bypassing the batch gate and admission control — the prefetch is the
        service's own speculative work, not client traffic, and direct
        submission guarantees the job is enqueued ahead of any later
        ``propose()`` that will join it, so a FIFO pool cannot deadlock even
        at ``max_workers=1``.
        """

        session = slot.session
        if session is None or slot.closed:
            return
        try:
            if session.prefetch_proposal(self._executor):
                self.stats["eager_scheduled"] += 1
        except ValueError:
            # A proposal (or another prefetch) is already open — the session
            # is not at a schedulable round boundary; nothing to do.
            pass

    @property
    def inflight(self) -> int:
        """Admitted propose/observe/open requests in flight (queued + running)."""

        return self._inflight

    # ------------------------------------------------------------------ #
    # session lifecycle
    # ------------------------------------------------------------------ #
    def session_ids(self) -> List[str]:
        return sorted(self._slots)

    def session_info(self, session_id: str) -> Dict[str, Any]:
        return self._info(session_id, self._slot(session_id))

    async def open_session(
        self,
        session_id: str,
        spec: SessionSpec,
        *,
        pipeline: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Admit and build (or restore) one tenant session.

        With ``restore_on_open`` and an existing checkpoint the session
        resumes mid-run; a checkpoint taken mid-proposal resumes at the
        pre-proposal boundary with ``invalidated_proposal`` set in the
        returned info — the client's cue to re-propose.

        ``pipeline`` overrides the session's proposal-pipelining policy for
        this open (else ``spec.pipeline``, else ``ServeConfig.pipeline``).
        An ``"eager"`` session schedules its first background proposal
        immediately, so even the opening ``propose`` can be a pipeline hit.
        """

        self._ensure_loop()
        mode = pipeline or spec.pipeline or self.config.pipeline
        require(
            mode in PIPELINE_MODES,
            f"pipeline must be one of {PIPELINE_MODES} (got {mode!r})",
        )
        if session_id in self._slots:
            raise SessionExistsError(f"session {session_id!r} is already open")
        if len(self._slots) >= int(self.config.max_sessions):
            self.stats["admission_rejections"] += 1
            raise AdmissionError(
                f"service full: {len(self._slots)} sessions open "
                f"(max_sessions={self.config.max_sessions})"
            )
        path = self._checkpoint_path(session_id)
        restore = bool(
            self.config.restore_on_open and path is not None and path.exists()
        )
        # Reserve the id before the (slow, off-loop) build so two concurrent
        # opens of the same id cannot both pass the existence check.
        self._slots[session_id] = placeholder = _Slot(
            None, restored=restore, eager=(mode == "eager")
        )
        try:
            async with placeholder.lock:
                build = (lambda: spec.resume(path)) if restore else spec.build
                session = await self._run(self._protocol(build))
                placeholder.session = session
                if placeholder.eager:
                    self._schedule_prefetch(placeholder)
        except BaseException:
            self._slots.pop(session_id, None)
            raise
        if restore:
            self.stats["restored_sessions"] += 1
            if session.invalidated_proposal is not None:
                self.stats["invalidated_proposals"] += 1
        return self._info(session_id, placeholder)

    async def close_session(self, session_id: str, *, checkpoint: bool = True) -> Dict[str, Any]:
        """Retire a session, checkpointing it first when a directory is set.

        Closing with a pending proposal is legal: the final checkpoint
        carries the pre-proposal boundary plus the ``pending_proposal``
        marker, so a later ``open`` restores and surfaces it.  An in-flight
        eager prefetch is quiesced by the payload capture and checkpointed
        the same way — restored invalidated-and-surfaced, never dropped.
        The session's strategy then releases what it held across rounds
        (:meth:`ActiveSession.close`), such as multi-rank selection's rank
        processes.
        """

        slot = self._slot(session_id)
        async with slot.lock:
            slot.closed = True
            path = self._checkpoint_path(session_id)
            if checkpoint and path is not None:
                payload = await self._run(self._protocol(slot.session.checkpoint_payload))
                await self._schedule_checkpoint_write(payload, path)
            # On the compute pool: closing joins an in-flight prefetch.
            # Outside admission control, so a saturated service still
            # releases the session's rank processes.
            await self._ensure_loop().run_in_executor(self._executor, slot.session.close)
            info = self._info(session_id, slot)
            del self._slots[session_id]
        return info

    async def checkpoint_session(self, session_id: str) -> pathlib.Path:
        """Explicitly write one session's crash-safe snapshot now.

        Capture runs on the compute pool under the session lock; the file
        write runs on the I/O executor and is awaited — the returned path
        exists on return, but the event loop never blocks on the disk.
        """

        slot = self._slot(session_id)
        path = self._checkpoint_path(session_id)
        require(path is not None, "ServeConfig.checkpoint_dir is not configured")
        async with slot.lock:
            payload = await self._run(self._protocol(slot.session.checkpoint_payload))
            written = await self._schedule_checkpoint_write(payload, path)
        return written

    # ------------------------------------------------------------------ #
    # the serving protocol
    # ------------------------------------------------------------------ #
    async def propose(self, session_id: str) -> QueryProposal:
        """Run the session's ``propose()`` half on the worker pool.

        On an eager session this joins and adopts the prefetched proposal
        when one is in flight (``stats["eager_hits"]``) — bit-identical to
        the synchronous computation, near-zero latency once the background
        selection has landed.  The join happens *here*, on the event loop:
        dispatching ``session.propose`` while the prefetch still runs
        would park a worker inside the blocking join, halving effective
        pool parallelism under saturation.  Waiting is observation only —
        adoption (and re-raising a stashed prefetch failure) stays inside
        ``session.propose`` under the session lock.
        """

        slot = self._slot(session_id)
        async with slot.lock:
            session = self._live(session_id, slot)
            slot.seq += 1
            prefetch = session.prefetch_future
            if prefetch is not None:
                done, _ = await asyncio.wait([asyncio.wrap_future(prefetch)])
                for waiter in done:  # consume: adoption re-raises, not the wait
                    waiter.exception()
            proposal = await self._run(self._protocol(session.propose))
            if session.last_propose_prefetched:
                self.stats["eager_hits"] += 1
        self.stats["proposals"] += 1
        return proposal

    async def observe(self, session_id: str, labels=None) -> RoundRecord:
        """Complete the session's pending round with the labeler's answers.

        On an eager session, the next round's proposal is scheduled onto the
        compute pool before this returns — the labeler's think-time then
        hides the selection latency.  Under ``checkpoint_policy="round"``
        the snapshot is captured *before* the prefetch is scheduled, so the
        round checkpoint describes the same marker-free round boundary sync
        mode writes; the file write itself is fire-and-forget on the I/O
        executor (see :meth:`flush_checkpoints`).
        """

        slot = self._slot(session_id)
        payload = None
        async with slot.lock:
            session = self._live(session_id, slot)
            slot.seq += 1
            record = await self._run(self._protocol(lambda: session.observe(labels)))
            self.stats["observations"] += 1
            if self.config.checkpoint_policy == "round":
                payload = await self._run(self._protocol(session.checkpoint_payload))
            if slot.eager:
                self._schedule_prefetch(slot)
        if payload is not None:
            self._schedule_checkpoint_write(payload, self._checkpoint_path(session_id))
        if self.config.checkpoint_policy == "idle":
            self._schedule_idle_checkpoint(session_id, slot)
        return record

    def proposal_features(self, session_id: str, proposal: QueryProposal) -> np.ndarray:
        """Host features of a proposal's points (what a labeler labels)."""

        slot = self._slot(session_id)
        return slot.session.store.features_host(np.asarray(proposal.global_ids, dtype=np.int64))

    # ------------------------------------------------------------------ #
    # idle checkpointing
    # ------------------------------------------------------------------ #
    def _schedule_idle_checkpoint(self, session_id: str, slot: _Slot) -> None:
        seq = slot.seq
        task = self._loop.create_task(self._idle_checkpoint(session_id, slot, seq))
        self._idle_tasks.add(task)
        task.add_done_callback(self._idle_tasks.discard)

    async def _idle_checkpoint(self, session_id: str, slot: _Slot, seq: int) -> None:
        await asyncio.sleep(self.config.idle_grace_seconds)
        if slot.closed or slot.seq != seq or self._slots.get(session_id) is not slot:
            return  # a newer request arrived (or the session closed): not idle
        async with slot.lock:
            if slot.closed or slot.seq != seq:
                return
            payload = await self._run(self._protocol(slot.session.checkpoint_payload))
        # Write outside the lock: a slow disk must not serialize against the
        # session's next request (this task already runs off the hot path).
        await self._schedule_checkpoint_write(payload, self._checkpoint_path(session_id))

    # ------------------------------------------------------------------ #
    # shutdown
    # ------------------------------------------------------------------ #
    async def aclose(self, *, checkpoint: bool = True) -> None:
        """Close every session (checkpointing by default) and stop the pool."""

        for session_id in list(self._slots):
            if session_id in self._slots:
                await self.close_session(session_id, checkpoint=checkpoint)
        for task in list(self._idle_tasks):
            task.cancel()
        await self.flush_checkpoints()
        if self._gate is not None:
            self._gate.drain()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
            self._gate = None
            self._loop = None
        if self._io is not None:
            self._io.shutdown(wait=True)
            self._io = None


class AsyncSessionClient:
    """In-process client speaking JSON-shaped payloads.

    The exemplar AL driver loop (submit pool → receive query set → post
    labels) against a :class:`SessionManager`, with every payload a plain
    dict of JSON types — the exact bodies
    :class:`repro.serve.http.HttpFrontend` serves over the wire, so a client
    written against this class ports to the HTTP front by swapping the
    transport.
    """

    def __init__(self, manager: SessionManager):
        self.manager = manager

    async def open(
        self,
        session_id: str,
        spec: SessionSpec,
        *,
        pipeline: Optional[str] = None,
    ) -> Dict[str, Any]:
        return await self.manager.open_session(session_id, spec, pipeline=pipeline)

    async def propose(self, session_id: str, *, include_features: bool = False) -> Dict[str, Any]:
        proposal = await self.manager.propose(session_id)
        payload: Dict[str, Any] = {
            "session_id": session_id,
            "round_index": int(proposal.round_index),
            "global_ids": [int(i) for i in proposal.global_ids],
            "pool_indices": [int(i) for i in proposal.pool_indices],
            "num_labeled": int(proposal.num_labeled),
            "budget": int(proposal.budget),
            "setup_seconds": float(proposal.setup_seconds),
            "selection_seconds": float(proposal.selection_seconds),
        }
        if include_features:
            features = self.manager.proposal_features(session_id, proposal)
            payload["features"] = np.asarray(features, dtype=np.float64).tolist()
        return payload

    async def observe(self, session_id: str, labels=None) -> Dict[str, Any]:
        record = await self.manager.observe(session_id, labels)
        payload = {"session_id": session_id}
        payload.update(record.as_dict())
        return payload

    async def info(self, session_id: str) -> Dict[str, Any]:
        return self.manager.session_info(session_id)

    async def close(self, session_id: str, *, checkpoint: bool = True) -> Dict[str, Any]:
        return await self.manager.close_session(session_id, checkpoint=checkpoint)
