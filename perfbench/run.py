#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_tenants8 --seed 1 --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics of a closed-loop pass that fills
``--seconds``.  ``--trace 1`` runs an untraced pass over half the window,
replays the same sessions with the layer tracer installed, checks that both
passes selected the same points, and prints the per-layer metrics.  Human
readable lines come first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every output check passed.

The BLAS thread count is fixed to one before NumPy is imported: the
selection loop is interpreter-bound, and a shared thread pool makes
contraction times swing by an order of magnitude between runs.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import signal
import statistics
import sys

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

#: End-to-end metrics: name -> unit.  ``error_rate`` is printed with them but
#: travels in the result's ``attempted`` / ``failed`` counts, since it reads
#: zero on a healthy run.
END_TO_END = {
    "setup_s": "s",
    "propose_p50_s": "s",
    "propose_tail_s": "s",
    "observe_p50_s": "s",
    "rounds_per_s": "1/s",
    "final_accuracy": "ratio",
    "peak_rss_mb": "MB",
}

def tail_latency(samples):
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``.  Below twenty samples no percentile
    above the median has ten samples beyond it, so the median is reported.
    """

    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    """What produced the numbers: library versions, BLAS, threads and cores."""

    import numpy
    import scipy

    def blas_of(module) -> str:
        try:
            blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{blas.get('name')} {blas.get('version')}"
        except Exception:  # the dict layout is not a stable API
            return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_blas": blas_of(numpy),
        "scipy": scipy.__version__,
        "scipy_blas": blas_of(scipy),
        "blas_threads": int(BLAS_THREADS),
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def end_to_end_metrics(run):
    latencies = [p.latency for p in run.proposals]
    tail, percentile = tail_latency(latencies)
    metrics = {
        "setup_s": statistics.median(run.setup_s),
        "propose_p50_s": statistics.median(latencies),
        "propose_tail_s": tail,
        "observe_p50_s": statistics.median(run.observe_s),
        "rounds_per_s": run.rounds / run.wall_s,
        "final_accuracy": statistics.fmean(run.final_accuracy),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "propose_samples": len(latencies),
        "propose_tail_percentile": percentile,
        "setup_samples": len(run.setup_s),
        "sessions": len(run.final_accuracy),
    }
    return metrics, notes


def traced_run(workload, seed, seconds):
    """Untraced pass, traced replay of the same sessions, then the layer metrics."""

    from perfbench.layers import Tracer, layer_metrics
    from perfbench.workloads import InputCache, Pass, run_direct_session, run_pass

    untraced = run_pass(workload, seed, seconds / 2.0)
    plan = untraced.plan
    inputs = InputCache(workload, seed).prefill(untraced.sessions)
    tracer = Tracer(workload.relax_iterations)
    with tracer.installed():
        traced = run_pass(workload, seed, 0.0, plan=plan, inputs_for=inputs)
    problems = list(untraced.problems) + list(traced.problems)
    if traced.selections != untraced.selections:
        problems.append("traced selections differ from the untraced ones")
    direct_s = served_s = None
    if workload.serve:
        # Contention: the first tenant's first session, served vs. alone.
        direct = Pass()
        run_direct_session(workload, inputs(0, 0), "direct", direct)
        problems.extend(direct.problems)
        direct_s = sum(p.setup_s + p.selection_s for p in direct.proposals)
        served_s = sum(p.setup_s + p.selection_s for p in traced.proposals if p.session == "t0s0")
    metrics = layer_metrics(
        workload,
        traced,
        tracer,
        untraced_wall_s=untraced.wall_s,
        direct_compute_s=direct_s,
        served_compute_s=served_s,
    )
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    return metrics, problems, attempted, failed, untraced.errors + traced.errors


def child_pids() -> list:
    """Process ids whose parent is this process."""

    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = (pathlib.Path("/proc") / entry / "stat").read_text()
        except OSError:
            continue  # it ended while we looked
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def stop_helper_processes() -> None:
    """Stop every process this run started and wait until each has ended.

    The program joins its rank processes itself, but the shared-memory
    transport also starts multiprocessing's resource tracker, which is meant
    to outlive its parent.  Pending finalizers run first, since they report
    to the tracker and would start a new one once it is gone.  Any child
    still running after that is killed.
    """

    import gc

    gc.collect()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()  # the tracker ignores SIGTERM; closing its pipe ends it
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass  # already ended or reaped


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import repro  # noqa: F401 - the program under test must be importable
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from perfbench.layers import LAYER_METRICS
    from perfbench.workloads import WORKLOADS, run_pass

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    print(f"# workload {workload}")

    if args.trace:
        metrics, problems, attempted, failed, errors = traced_run(workload, args.seed, args.seconds)
        units = LAYER_METRICS
    else:
        run = run_pass(workload, args.seed, args.seconds)
        problems, attempted, failed, errors = run.problems, run.attempted, run.failed, run.errors
        if not run.proposals or not run.observe_s or not run.final_accuracy:
            problems = problems + ["no session ran to completion"]
            metrics = None
        else:
            metrics, notes = end_to_end_metrics(run)
            print(f"# samples {json.dumps(notes, sort_keys=True)}")
        units = END_TO_END

    for error in errors:
        print(f"# failed operation: {error}")
    for problem in problems:
        print(f"# output check failed: {problem}")
    if metrics is None:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1
    for name, unit in units.items():
        print(f"{name:<30} {metrics[name]:>14.6g} {unit}")
    if not args.trace:
        print(f"{'error_rate':<30} {failed / max(attempted, 1):>14.6g} ratio ({failed} of {attempted} operations)")
    correct = not problems
    result = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_helper_processes()
    sys.exit(code)
