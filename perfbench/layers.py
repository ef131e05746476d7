"""The traced run: per-layer numbers gathered from outside the program.

:class:`Tracer` times calls into each layer by wrapping a few names the
program looks up at call time, and reads the diagnostics the program already
returns (``FIRALStrategy.last_result`` with its ``RelaxResult`` /
``RoundResult`` timings, or the distributed results' ``per_rank_seconds`` and
``comm_log``).  It never replaces ``approx_relax`` or ``approx_round``:
``select_eta`` and ``_FIRALBase._relax`` dispatch on their identity.

:func:`layer_metrics` turns one traced pass into the per-layer metrics.  Every
time and count is a mean per proposal (per round), so runs of different
length compare.  The propose wall time splits as::

    propose_wall_s = engine.propose_setup_s + relax.s + eta_search.s
                     + parallel.launch_overhead_s - serve.prefetch_hidden_s
                     + unattributed_s

``serve.prefetch_hidden_s`` is selection work that ran outside the client's
propose call (the eager pipeline starts it when the labels arrive), and
``unattributed_s`` is whatever no named layer covers.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
import time
from typing import Dict, Iterator, List, Optional

import numpy as np

import repro.core.firal as firal_module
from repro.baselines import FIRALStrategy
from repro.core.eta_selection import default_eta_grid
from repro.engine import ActiveSession, PoolStore
from repro.models import LogisticRegressionClassifier

from perfbench.workloads import Pass, Workload

__all__ = ["LAYER_METRICS", "Tracer", "layer_metrics"]

#: Every per-layer metric with its unit, in report order.
LAYER_METRICS: Dict[str, str] = {
    "propose_wall_s": "s",
    "unattributed_s": "s",
    "trace_overhead_ratio": "ratio",
    "serve.queue_depth_p50": "count",
    "serve.worker_compute_p50_s": "s",
    "serve.contention_ratio": "ratio",
    "serve.eager_hit_ratio": "ratio",
    "serve.prefetch_hidden_s": "s",
    "serve.checkpoint_write_p50_s": "s",
    "serve.checkpoint_bytes": "bytes",
    "engine.propose_setup_s": "s",
    "engine.selection_s": "s",
    "engine.provide_labels_s": "s",
    "models.fit_s": "s",
    "models.fit_calls": "count",
    "models.predict_s": "s",
    "models.predict_calls": "count",
    "relax.s": "s",
    "relax.cg_s": "s",
    "relax.precond_s": "s",
    "relax.objective_s": "s",
    "relax.gradient_s": "s",
    "relax.other_s": "s",
    "relax.iterations": "count",
    "relax.capped_rounds": "ratio",
    "relax.cg_iterations": "count",
    "linalg.cg_s_per_iteration": "s",
    "eta_search.s": "s",
    "eta_search.trials": "count",
    "round.score_s": "s",
    "round.eigen_s": "s",
    "round.update_s": "s",
    "round.refresh_inverse_s": "s",
    "comm.allreduce_calls": "count",
    "comm.bcast_calls": "count",
    "comm.allgather_calls": "count",
    "comm.bytes": "bytes",
    "parallel.rank_compute_s": "s",
    "parallel.rank_imbalance": "ratio",
    "parallel.launch_overhead_s": "s",
}

#: RelaxResult / RoundResult timing components -> metric names.
_RELAX_PARTS = {
    "cg": "relax.cg_s",
    "setup_preconditioner": "relax.precond_s",
    "objective": "relax.objective_s",
    "gradient": "relax.gradient_s",
    "other": "relax.other_s",
}
_ROUND_PARTS = {
    "score": "round.score_s",
    "compute_eigenvalues": "round.eigen_s",
    "update_accumulated": "round.update_s",
    "refresh_inverse": "round.refresh_inverse_s",
}


def _components(result) -> Dict[str, float]:
    """Seconds per component: serial ``timings``, or the slowest rank's."""

    timings = getattr(result, "timings", None)
    if timings is not None:
        return dict(timings.as_dict())
    per_rank = getattr(result, "per_rank_seconds", None) or {}
    return {name: float(np.max(values)) for name, values in per_rank.items()}


def _selection_diagnostics(strategy, max_iterations: int) -> dict:
    """Copy what the round's ``SelectionResult`` says before the next round replaces it."""

    result = strategy.last_result
    relax, round_result = result.relax, result.round
    relax_parts = _components(relax)
    round_parts = _components(round_result)
    diag = {
        "relax_parts": relax_parts,
        "round_parts": round_parts,
        "relax_iterations": int(relax.iterations),
        "relax_capped": int(relax.iterations) >= max_iterations
        and not bool(getattr(relax, "converged", False)),
        "cg_iterations": int(relax.cg_iterations),
        "distributed": hasattr(relax, "per_rank_seconds"),
    }
    if diag["distributed"]:
        calls: Dict[str, int] = {}
        moved = 0
        for log in (relax.comm_log, round_result.comm_log):
            for name, count in log.calls.items():
                calls[name] = calls.get(name, 0) + int(count)
            moved += log.total_bytes()
        per_rank = sum(
            np.asarray(values, dtype=np.float64)
            for part in (relax.per_rank_seconds, round_result.per_rank_seconds)
            for values in part.values()
        )
        round_config = strategy.selector.round_config
        diag.update(
            eta_trials=1 if round_config.eta is not None else len(round_config.eta_grid),
            comm_calls=calls,
            comm_bytes=moved,
            rank_totals=[float(v) for v in np.atleast_1d(per_rank)],
        )
    return diag


class Tracer:
    """Records spans around calls into the program's layers.

    Wrappers record only the outermost call of a layer on a thread, so
    ``predict`` calling ``predict_proba`` counts once.  Spans are kept in
    memory; :meth:`installed` patches the names for the duration of a
    ``with`` block and restores them on exit.
    """

    def __init__(self, max_iterations: int):
        self.max_iterations = int(max_iterations)
        self.spans: Dict[str, List[dict]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _record(self, layer: str, span: dict) -> None:
        with self._lock:
            self.spans.setdefault(layer, []).append(span)

    def _wrap(self, layer: str, fn, describe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_layers = tracer._local.__dict__.setdefault("open", set())
            if layer in open_layers:
                return fn(*args, **kwargs)
            open_layers.add(layer)
            outer = getattr(tracer._local, "selection", None)
            span: dict = {}
            if layer == "engine.selection":
                tracer._local.selection = span
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_layers.discard(layer)
                if layer == "engine.selection":
                    tracer._local.selection = outer
            span.update(start=start, end=end)
            if describe is not None:
                span.update(describe(args, kwargs, result))
            if layer == "eta_search" and outer is not None:
                outer["eta_s"] = outer.get("eta_s", 0.0) + (end - start)
                outer["eta_trials"] = outer.get("eta_trials", 0) + span["trials"]
            tracer._record(layer, span)
            return result

        return wrapper

    def _describe_selection(self, args, kwargs, result) -> dict:
        strategy = args[0]
        return {"strategy": id(strategy), **_selection_diagnostics(strategy, self.max_iterations)}

    @staticmethod
    def _describe_eta(args, kwargs, result) -> dict:
        dataset = args[1] if len(args) > 1 else kwargs["dataset"]
        grid = kwargs.get("eta_grid")
        if grid is None:
            grid = default_eta_grid(dataset.joint_dimension)
        return {"trials": len(tuple(grid))}

    @staticmethod
    def _describe_checkpoint(args, kwargs, result) -> dict:
        return {"bytes": os.path.getsize(result)}

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        patches = [
            (firal_module, "select_eta", self._wrap("eta_search", firal_module.select_eta, self._describe_eta)),
            (LogisticRegressionClassifier, "fit", self._wrap("models.fit", LogisticRegressionClassifier.fit)),
            (
                LogisticRegressionClassifier,
                "predict_proba",
                self._wrap("models.predict", LogisticRegressionClassifier.predict_proba),
            ),
            (
                LogisticRegressionClassifier,
                "predict",
                self._wrap("models.predict", LogisticRegressionClassifier.predict),
            ),
            (FIRALStrategy, "select", self._wrap("engine.selection", FIRALStrategy.select, self._describe_selection)),
            (
                ActiveSession,
                "write_checkpoint",
                staticmethod(
                    self._wrap("serve.checkpoint_write", ActiveSession.write_checkpoint, self._describe_checkpoint)
                ),
            ),
            (PoolStore, "provide_labels", self._wrap("engine.provide_labels", PoolStore.provide_labels)),
        ]
        originals = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
        try:
            for owner, name, wrapper in patches:
                setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, original in originals:
                setattr(owner, name, original)


def _overlap(a0: float, a1: float, b0: float, b1: float) -> float:
    return max(0.0, min(a1, b1) - max(a0, b0))


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(
    workload: Workload,
    traced: Pass,
    tracer: Tracer,
    *,
    untraced_wall_s: float,
    direct_compute_s: Optional[float] = None,
    served_compute_s: Optional[float] = None,
) -> Dict[str, float]:
    """Per-round layer metrics of one traced pass (see the module docstring)."""

    rounds = max(len(traced.proposals), 1)
    spans = tracer.spans
    by_strategy: Dict[int, List[dict]] = {}
    for span in sorted(spans.get("engine.selection", []), key=lambda s: s["start"]):
        by_strategy.setdefault(span["strategy"], []).append(span)
    strategy_ids = {key: id(obj) for key, obj in traced.strategies.items()}
    next_span: Dict[str, int] = {}

    total = {name: 0.0 for name in LAYER_METRICS}
    rank_imbalance: List[float] = []
    for proposal in traced.proposals:
        candidates = by_strategy.get(strategy_ids.get(proposal.session), [])
        position = next_span.get(proposal.session, 0)
        next_span[proposal.session] = position + 1
        if position >= len(candidates):
            continue  # the selection failed before it returned
        span = candidates[position]
        duration = span["end"] - span["start"]
        setup_start = span["start"] - proposal.setup_s
        inside = _overlap(setup_start, span["start"], proposal.start, proposal.end) + _overlap(
            span["start"], span["end"], proposal.start, proposal.end
        )
        relax_s = sum(span["relax_parts"].values())
        if span["distributed"]:
            eta_s = sum(span["round_parts"].values())
            launch_s = max(duration - relax_s - eta_s, 0.0)
            trials = span["eta_trials"]
            total["parallel.rank_compute_s"] += relax_s + eta_s
            total["parallel.launch_overhead_s"] += launch_s
            for name in ("allreduce", "bcast", "allgather"):
                total[f"comm.{name}_calls"] += span["comm_calls"].get(name, 0)
            total["comm.bytes"] += span["comm_bytes"]
            ranks = np.asarray(span["rank_totals"])
            rank_imbalance.append(float(ranks.max() / ranks.mean()) if ranks.mean() > 0 else 1.0)
        else:
            eta_s = span.get("eta_s", 0.0)
            trials = span.get("eta_trials", 0)
            launch_s = 0.0
        total["propose_wall_s"] += proposal.latency
        total["engine.propose_setup_s"] += proposal.setup_s
        total["engine.selection_s"] += duration
        total["serve.prefetch_hidden_s"] += proposal.setup_s + duration - inside
        total["relax.s"] += relax_s
        for part, metric in _RELAX_PARTS.items():
            total[metric] += span["relax_parts"].get(part, 0.0)
        total["relax.iterations"] += span["relax_iterations"]
        total["relax.capped_rounds"] += float(span["relax_capped"])
        total["relax.cg_iterations"] += span["cg_iterations"]
        total["eta_search.s"] += eta_s
        total["eta_search.trials"] += trials
        for part, metric in _ROUND_PARTS.items():
            total[metric] += span["round_parts"].get(part, 0.0)

    for layer in ("models.fit", "models.predict"):
        layer_spans = spans.get(layer, [])
        total[f"{layer}_s"] = sum(s["end"] - s["start"] for s in layer_spans)
        total[f"{layer}_calls"] = len(layer_spans)
    total["engine.provide_labels_s"] = sum(
        s["end"] - s["start"] for s in spans.get("engine.provide_labels", [])
    )

    metrics = {name: value / rounds for name, value in total.items()}
    metrics["unattributed_s"] = metrics["propose_wall_s"] - (
        metrics["engine.propose_setup_s"]
        + metrics["relax.s"]
        + metrics["eta_search.s"]
        + metrics["parallel.launch_overhead_s"]
        - metrics["serve.prefetch_hidden_s"]
    )
    metrics["linalg.cg_s_per_iteration"] = (
        total["relax.cg_s"] / total["relax.cg_iterations"] if total["relax.cg_iterations"] else 0.0
    )
    metrics["parallel.rank_imbalance"] = _median(rank_imbalance)
    metrics["trace_overhead_ratio"] = traced.wall_s / untraced_wall_s - 1.0 if untraced_wall_s else 0.0

    checkpoints = spans.get("serve.checkpoint_write", [])
    metrics["serve.checkpoint_write_p50_s"] = _median([s["end"] - s["start"] for s in checkpoints])
    metrics["serve.checkpoint_bytes"] = _median([s["bytes"] for s in checkpoints])
    metrics["serve.queue_depth_p50"] = _median(traced.queue_depth)
    if workload.serve:
        metrics["serve.worker_compute_p50_s"] = _median(
            [p.setup_s + p.selection_s for p in traced.proposals]
        )
        stats = traced.serve_stats
        metrics["serve.eager_hit_ratio"] = stats.get("eager_hits", 0) / max(stats.get("proposals", 0), 1)
        if direct_compute_s and served_compute_s is not None:
            metrics["serve.contention_ratio"] = served_compute_s / direct_compute_s
    return {name: float(metrics[name]) for name in LAYER_METRICS}
