"""The repository benchmark: three fleet workloads through ``CloudSimulator.run``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fcfs_stream --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  One run
sets a workload up from nothing (estimator training, fleet, simulator,
arrivals) and drives ``sim.run`` over it; the benchmark repeats runs on
the same seed until ``--seconds`` have passed (at least three runs) and
reports medians.  ``--trace 1`` alternates untraced and traced runs and
reports the per-layer metrics recorded by ``spans.py``, plus the tracing
overhead.

The end-to-end metrics: ``setup_s`` and ``jobs_per_s`` are medians over
the runs of set-up seconds and of arrivals offered per second of
``run()``; ``peak_rss_mb`` is how far the process's resident-set
high-water mark rose above its level after imports; ``sim_jct_p50_s``,
``sim_jct_p99_s`` and ``sim_fidelity_mean`` cover the applications that
finished inside the horizon, ``sim_utilization_mean`` is QPU utilization
at the horizon averaged over QPUs, and ``served_frac`` is
``1 - (unschedulable + admission-rejected) / arrivals``.  The ``sim_*``
metrics and ``served_frac`` are simulated outcomes: for one seed they
repeat exactly.

Every run is checked: job conservation, the externally counted
completions against ``metrics.completed_jobs``, and a digest of
``metrics.deterministic_state()`` that must be identical across every run
of one workload and seed, traced or not.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted``
counts the arrivals offered over all runs; ``failed`` counts the arrivals
no device could serve plus every arrival of a run that raised or failed a
check.  Arrivals shed by admission control are the front door working as
configured: they lower ``served_frac`` but are not failures.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
# One BLAS thread, set before NumPy loads: like the serial cycle executor,
# this keeps a small shared host from measuring its OS scheduler instead of
# the program (estimator training would otherwise spread over every core).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import scenarios  # noqa: E402
import spans  # noqa: E402
from repro.simulation.array_ops import make_array_backend  # noqa: E402

_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
#: name -> unit of every end-to-end metric BENCHMARK.json declares;
#: measured with tracing off.
END_TO_END = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
#: name -> unit of every per-layer metric; from the traced runs.
PER_LAYER = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}

#: Layers whose self times partition the traced ``run()`` wall time.
RUN_LAYERS = (
    "simulator", "tenancy", "fleet", "scheduler", "moo", "estimator",
    "execution",
)

#: Fewest runs a result rests on: untraced runs with tracing off, and
#: (untraced, traced) pairs with tracing on.
MIN_RUNS = 3
MIN_PAIRS = 2
#: Self times must add up to the traced run's wall time within this share.
SELF_SUM_TOLERANCE = 0.01


@dataclass
class RunOutcome:
    """One set-up + ``run()``, with its correctness verdict."""

    arrivals: int
    setup_s: float = 0.0
    run_s: float = 0.0
    unschedulable: int = 0
    sim: dict[str, float] = field(default_factory=dict)
    digest: str = ""
    errors: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)


def _digest(metrics) -> str:
    return hashlib.sha256(
        repr(metrics.deterministic_state()).encode()
    ).hexdigest()


def check_run(scenario, metrics) -> tuple[dict[str, float], list[str]]:
    """The run's simulated-time metrics, and every check it failed."""
    errors: list[str] = []
    arrivals = len(scenario.apps)
    accounted = (
        metrics.dispatched_jobs
        + metrics.unschedulable_jobs
        + metrics.pending_at_horizon
        + metrics.admission_rejected
    )
    if accounted != arrivals:
        errors.append(
            f"conservation: dispatched + unschedulable + pending + rejected "
            f"= {accounted}, arrivals = {arrivals}"
        )
    done = [
        app
        for app in scenario.apps
        if app.finish_time is not None and app.finish_time <= scenario.horizon
    ]
    if len(done) != metrics.completed_jobs:
        errors.append(
            f"completions: {len(done)} apps finished inside the horizon, "
            f"metrics.completed_jobs = {metrics.completed_jobs}"
        )
    if not done:
        errors.append("no application finished inside the horizon")
        return {}, errors
    jct = np.array([app.completion_time for app in done])
    fidelity = np.array([app.quantum_job.fidelity for app in done])
    if not (jct > 0).all():
        errors.append("a completed application has a non-positive JCT")
    if not ((fidelity >= 0) & (fidelity <= 1)).all():
        errors.append("a completed job's fidelity lies outside [0, 1]")
    sim = {
        "sim_jct_p50_s": float(np.percentile(jct, 50)),
        "sim_jct_p99_s": float(np.percentile(jct, 99)),
        "sim_fidelity_mean": float(fidelity.mean()),
        "sim_utilization_mean": metrics.mean_utilization.last(),
        "served_frac": 1.0
        - (metrics.unschedulable_jobs + metrics.admission_rejected) / arrivals,
    }
    return sim, errors


def _pct(values: list[float], q: float, scale: float) -> float:
    return float(np.percentile(values, q)) * scale if values else 0.0


def layer_metrics(setup_tr: spans.Tracer, run_tr: spans.Tracer, scenario,
                  metrics) -> dict[str, float]:
    """Per-layer metrics of one traced run (``trace.overhead_frac`` aside)."""
    d = run_tr.durations
    c = run_tr.counts
    cycles = d["scheduler.cycle"]
    stats = scenario.estimator.stats
    out = {f"{layer}.self_s": run_tr.self_seconds[layer] for layer in (
        "estimator", "fleet", "scheduler", "moo", "tenancy", "execution")}
    out.update({
        "estimator.block_s": sum(d["estimator.block"]),
        "estimator.block_calls": len(d["estimator.block"]),
        "estimator.block_rows_mean": (
            c["estimator.block_rows"] / len(d["estimator.block"])
            if d["estimator.block"] else 0.0
        ),
        "estimator.model_s": sum(d["estimator.model"]),
        "estimator.model_calls": len(d["estimator.model"]),
        "estimator.features_s": sum(d["estimator.features"]),
        "estimator.cache.hit_rate": stats.hit_rate,
        "estimator.cache.misses": stats.misses,
        "estimator.cache.invalidations": stats.invalidations,
        "estimator.train_s": sum(setup_tr.durations["estimator.train"]),
        "fleet.route_s": sum(d["fleet.route"]),
        "fleet.route_calls": len(d["fleet.route"]),
        "fleet.route_us.p50": _pct(d["fleet.route"], 50, 1e6),
        "fleet.route_us.p99": _pct(d["fleet.route"], 99, 1e6),
        "fleet.rebalance_s": sum(d["fleet.rebalance"]),
        "fleet.rebalance_calls": len(d["fleet.rebalance"]),
        "fleet.jobs_migrated": c["fleet.jobs_migrated"],
        "scheduler.assign_s": sum(d["scheduler.assign"]),
        "scheduler.assign_us.p50": _pct(d["scheduler.assign"], 50, 1e6),
        "scheduler.assign_us.p99": _pct(d["scheduler.assign"], 99, 1e6),
        "scheduler.batch_s": sum(d["scheduler.batch"]),
        "scheduler.preprocess_s": sum(d["scheduler.preprocess"]),
        "scheduler.optimize_s": sum(d["scheduler.optimize"]),
        "scheduler.select_s": sum(d["scheduler.select"]),
        "scheduler.cycles": len(cycles),
        "scheduler.jobs_per_cycle": (
            c["scheduler.cycle_jobs"] / len(cycles) if cycles else 0.0
        ),
        "scheduler.cycle_ms.p50": _pct(cycles, 50, 1e3),
        "scheduler.cycle_ms.p90": _pct(cycles, 90, 1e3),
        "moo.generations": c["moo.generations"],
        "moo.evaluate_s": sum(d["moo.evaluate"]),
        "moo.repair_s": sum(d["moo.repair"]),
        "moo.variation_s": sum(d["moo.variation"]),
        "moo.rank_crowd_s": sum(d["moo.rank_crowd"]),
        "moo.select_s": sum(d["moo.select"]),
        "loadgen.build_s": sum(setup_tr.durations["loadgen.generate"]),
        "loadgen.arrivals": len(scenario.apps),
        "loadgen.circuits_built": setup_tr.counts["loadgen.circuits_built"],
        "tenancy.admit_s": sum(d["tenancy.admit"]),
        "tenancy.admit_calls": len(d["tenancy.admit"]),
        "tenancy.rejected": c["tenancy.rejected"],
        "tenancy.degraded": c["tenancy.degraded"],
        "execution.dispatch_s": sum(d["execution.dispatch"]),
        "execution.components_s": sum(d["execution.components"]),
        "execution.dispatches": len(d["execution.dispatch"]),
        "sim.self_s": run_tr.self_seconds["simulator"],
        "sim.loop_self_s": (
            run_tr.self_seconds["simulator"] - sum(d["sim.recalibrate"])
        ),
        "sim.events": metrics.events_processed,
        "sim.recalibrate_s": sum(d["sim.recalibrate"]),
        "sim.availability_flips": (
            metrics.outage_events + metrics.recovery_events
        ),
        "sim.pipelined_batches": metrics.pipelined_batches,
    })
    return out


def one_run(workload: str, seed: int, scale: float, traced: bool) -> RunOutcome:
    """Set the workload up, run it, check it; never raises."""
    outcome = RunOutcome(arrivals=0)
    # Collect the previous run's garbage now, not inside this run's timing.
    gc.collect()
    try:
        setup_tr = spans.Tracer(spans.setup_probes() if traced else [])
        run_tr = spans.Tracer(spans.run_probes() if traced else [])
        t0 = time.perf_counter()
        with setup_tr:
            scenario = scenarios.build(workload, seed, scale)
        outcome.setup_s = time.perf_counter() - t0
        outcome.arrivals = len(scenario.apps)
        with run_tr:
            t0 = time.perf_counter()
            metrics = scenario.sim.run(scenario.apps)
            outcome.run_s = time.perf_counter() - t0
    except Exception:  # a broken program is a failed run, not a crash
        outcome.errors.append(traceback.format_exc())
        return outcome
    outcome.unschedulable = metrics.unschedulable_jobs
    outcome.digest = _digest(metrics)
    outcome.sim, errors = check_run(scenario, metrics)
    outcome.errors += errors
    if traced:
        self_sum = sum(run_tr.self_seconds[layer] for layer in RUN_LAYERS)
        if abs(self_sum / outcome.run_s - 1.0) > SELF_SUM_TOLERANCE:
            outcome.errors.append(
                f"layer self times sum to {self_sum:.6f} s, traced run() "
                f"took {outcome.run_s:.6f} s"
            )
        outcome.layers = layer_metrics(setup_tr, run_tr, scenario, metrics)
    return outcome


def _rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def measure(workload: str, seed: int, seconds: float, trace: bool, *,
            scale: float = 1.0, min_runs: int | None = None) -> dict:
    """Run the workload until ``seconds`` pass; return the result object."""
    backend = make_array_backend().name
    if backend != "numpy":
        raise SystemExit(f"ARRAY_BACKEND resolves to {backend!r}; the "
                         "benchmark measures the numpy backend only")
    if min_runs is None:
        min_runs = 2 * MIN_PAIRS if trace else MIN_RUNS
    rss_base = _rss_kib()
    runs: list[RunOutcome] = []
    t_start = time.perf_counter()
    # Traced mode alternates untraced and traced runs, so both sides of
    # the overhead ratio see the same host conditions.
    while len(runs) < min_runs or (
        time.perf_counter() - t_start < seconds
    ):
        traced = trace and len(runs) % 2 == 1
        run = one_run(workload, seed, scale, traced)
        runs.append(run)
        tag = "traced" if traced else "untraced"
        print(f"# run {len(runs)} ({tag}): setup {run.setup_s:.3f} s, run() "
              f"{run.run_s:.3f} s, {run.arrivals} arrivals, "
              f"digest {run.digest[:12]}", file=sys.stderr)
        for error in run.errors:
            print(f"# check failed: {error}", file=sys.stderr)
        if run.errors and not run.digest:
            break  # the program raised; more runs would raise too
    peak_rss_mb = (_rss_kib() - rss_base) / 1024.0

    digests = {run.digest for run in runs if run.digest}
    if len(digests) > 1:
        for run in runs:
            run.errors.append("deterministic_state() digest differs between "
                              "runs of one workload and seed")
    good = [run for run in runs if not run.errors]
    attempted = sum(run.arrivals for run in runs) or 1
    failed = sum(run.arrivals if run.errors else run.unschedulable
                 for run in runs)

    def median(values) -> float:
        values = list(values)
        return float(statistics.median(values)) if values else 0.0

    if trace:
        traced = [run for run in good if run.layers]
        plain = [run for run in good if not run.layers]
        metrics = {name: median(run.layers[name] for run in traced)
                   for name in PER_LAYER if name != "trace.overhead_frac"}
        plain_s = median(run.run_s for run in plain)
        metrics["trace.overhead_frac"] = (
            median(run.run_s for run in traced) / plain_s - 1.0
            if plain_s else 0.0
        )
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": median(run.setup_s for run in good),
            "jobs_per_s": median(run.arrivals / run.run_s for run in good),
            "peak_rss_mb": peak_rss_mb,
        }
        for name in END_TO_END:
            if name.startswith("sim_") or name == "served_frac":
                # Identical on every run (the digest check holds it).
                metrics[name] = good[0].sim[name] if good else 0.0
        # A run that raised or failed a check served none of its arrivals.
        metrics["served_frac"] *= len(good) / len(runs)
        units = END_TO_END
    return {
        "correct": len(good) == len(runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def environment() -> dict:
    """What the numbers were measured on."""
    sha = "unknown"  # a source checkout without git metadata
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "array_backend": make_array_backend().name,
        "git_sha": sha,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(scenarios.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    env = environment()
    print("# environment: " + json.dumps(env))
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
