"""Micro-benchmark for the event-driven cloud core.

Not a paper figure: this harness records throughput (events/sec) and
estimate-cache hit rate for the simulator hot path and writes a JSON
artifact so the perf trajectory is tracked across PRs (CI uploads it from
the non-blocking benchmark job).

The 10k-job stress scenario is the load level the old batch time-stepping
loop could not finish in reasonable time: per-sample rescans of the whole
arrived stream plus per-(job, QPU) estimator calls made it quadratic-ish
in practice. The event core schedules it in seconds.
"""

import json
import os
import pathlib
import time

from conftest import report
from repro.backends.fleet import fleet_of_size
from repro.cloud import (
    CloudSimulator,
    ExecutionModel,
    LoadGenerator,
    SimulationConfig,
    ThresholdRebalancePolicy,
)
from repro.experiments.common import trained_estimator
from repro.experiments.rebalance import skew_scenario
from repro.experiments.tenant import tenant_study
from repro.scheduler import FCFSPolicy, QonductorScheduler, SchedulingTrigger
from repro.scheduler.cycle import run_optimization

ARTIFACT_DIR = pathlib.Path(__file__).parent / "artifacts"

#: Estimate-cache warm-start file: the CI stress job persists it across
#: runs (actions/cache), so every run after the first starts with the
#: previous run's memo table (epoch keys keep stale entries unservable).
WARMSTART_PATH = ARTIFACT_DIR / "estimate_cache_warmstart.json"

#: Round shot counts, as real cloud users request them; this is what makes
#: the content-addressed estimate cache hit across jobs.
SHOTS_GRID = (1024, 2048, 4096, 8192)


def _run_stress(num_jobs: int, *, num_qpus: int = 8, seed: int = 3):
    """Drive ~num_jobs arrivals through the Qonductor scheduling stack."""
    rate = 20_000.0  # jobs/hour: far past the paper's 3x stability point
    duration = num_jobs / rate * 3600.0
    estimator = trained_estimator(seed=7)
    cached = estimator.cached()
    gen = LoadGenerator(
        mean_rate_per_hour=rate,
        diurnal=False,
        shots_grid=SHOTS_GRID,
        seed=seed,
    )
    apps = gen.generate(duration)
    sim = CloudSimulator(
        fleet_of_size(num_qpus, seed=7),
        QonductorScheduler(cached, seed=seed, max_generations=10),
        ExecutionModel(seed=11),
        trigger=SchedulingTrigger(),
        config=SimulationConfig(
            duration_seconds=duration,
            recalibrate_every_seconds=duration / 2.0,
            seed=seed,
        ),
    )
    t0 = time.perf_counter()
    metrics = sim.run(apps)
    wall = time.perf_counter() - t0
    return apps, metrics, cached, wall


def test_perf_event_core_10k_jobs():
    apps, metrics, cached, wall = _run_stress(10_000)
    scheduled = metrics.dispatched_jobs + metrics.unschedulable_jobs
    result = {
        "paper": {},
        "measured": {
            "jobs": len(apps),
            "scheduled_jobs": scheduled,
            "wall_seconds": round(wall, 3),
            "events_processed": metrics.events_processed,
            "events_per_second": round(metrics.events_per_second, 1),
            "jobs_per_second": round(scheduled / max(wall, 1e-9), 1),
            "scheduling_cycles": metrics.scheduling_cycles,
            "estimate_cache": metrics.estimate_cache,
        },
    }
    report("Perf: event core, 10k-job stress", result,
           keys=list(result["measured"]))

    ARTIFACT_DIR.mkdir(exist_ok=True)
    artifact = ARTIFACT_DIR / "perf_simulator.json"
    artifact.write_text(json.dumps(result["measured"], indent=2) + "\n")

    # The old loop needed minutes here; keep a generous regression gate.
    assert len(apps) > 9_000
    assert scheduled == len(apps)
    assert wall < 120.0
    assert metrics.events_processed > len(apps)  # arrivals + completions + ticks
    # Round shot counts + repeated circuit shapes must produce real reuse.
    assert metrics.estimate_cache["hit_rate"] > 0.2


def test_perf_sharded_100k_jobs():
    """Cloud-scale stress: 100k streamed jobs over a 64-QPU, 8-shard fleet.

    Arrivals are pulled lazily from ``iter_arrivals`` (never materialized)
    and drawn from a 512-program resubmission pool, so peak memory is
    independent of the job count; the least-loaded balancer spreads work
    over per-shard FCFS schedulers sharing one estimate cache.
    """
    rate = 200_000.0  # jobs/hour — two orders past the paper's IBM band
    num_jobs = 100_000
    num_shards = 8
    duration = num_jobs / rate * 3600.0
    estimator = trained_estimator(seed=7)
    cached = estimator.cached()
    # Warm-start from the previous CI run's memo table when the stress
    # job's cache restored one (a stale or incompatible file just means a
    # cold start, never a wrong estimate — keys carry the epoch).
    warm_entries = 0
    if WARMSTART_PATH.exists():
        try:
            warm_entries = cached.load(WARMSTART_PATH)
        except (ValueError, KeyError, json.JSONDecodeError):
            warm_entries = 0
    gen = LoadGenerator(
        mean_rate_per_hour=rate,
        diurnal=False,
        shots_grid=SHOTS_GRID,
        circuit_pool_size=512,
        seed=3,
    )
    sim = CloudSimulator.sharded(
        fleet_of_size(64, seed=7),
        FCFSPolicy(cached),
        num_shards=num_shards,
        balancer="least_loaded",
        execution_model=ExecutionModel(seed=11),
        config=SimulationConfig(
            duration_seconds=duration,
            recalibrate_every_seconds=duration / 2.0,
            seed=3,
        ),
    )
    t0 = time.perf_counter()
    metrics = sim.run(gen.iter_arrivals(duration))
    wall = time.perf_counter() - t0

    scheduled = metrics.dispatched_jobs + metrics.unschedulable_jobs
    result = {
        "paper": {},
        "measured": {
            "jobs": scheduled,
            "num_qpus": 64,
            "num_shards": metrics.num_shards,
            "wall_seconds": round(wall, 3),
            "events_processed": metrics.events_processed,
            "events_per_second": round(metrics.events_per_second, 1),
            "jobs_per_second": round(scheduled / max(wall, 1e-9), 1),
            "peak_inflight_apps": metrics.peak_inflight_apps,
            "per_shard_jobs": metrics.per_shard_jobs,
            "estimate_cache": metrics.estimate_cache,
            "warm_start_entries_loaded": warm_entries,
        },
    }
    report("Perf: sharded fleet, 100k-job stress", result,
           keys=[k for k in result["measured"] if k != "per_shard_jobs"])

    ARTIFACT_DIR.mkdir(exist_ok=True)
    artifact = ARTIFACT_DIR / "perf_sharded_100k.json"
    artifact.write_text(json.dumps(result["measured"], indent=2) + "\n")
    # Persist the memo table for the next CI run's warm start.
    saved = cached.save(WARMSTART_PATH)
    assert saved > 0

    assert scheduled > 95_000
    assert wall < 60.0
    # Streaming: in-flight applications, not the stream, bound memory.
    assert metrics.peak_inflight_apps <= 10
    # Aggregate state is O(1): completions fold into running sums (value-
    # exact vs a full rescan, enforced per sample point in
    # tests/test_event_core.py), so the only per-run aggregate containers
    # are the sampled series, which track the cadence — never the 100k
    # completions.
    max_samples = int(duration // sim.config.sample_every_seconds) + 2
    assert len(metrics.mean_completion_time.values) <= max_samples
    assert len(metrics.mean_fidelity.values) <= max_samples
    # Every shard took a share of the fleet-wide load.
    assert len(metrics.per_shard_jobs) == num_shards
    assert all(v > 0 for v in metrics.per_shard_jobs.values())
    # The resubmission pool must keep the shared estimate cache hot.
    assert metrics.estimate_cache["hit_rate"] > 0.8


# ---------------------------------------------------------------------------
# Parallel scheduling engine: worker-pool NSGA-II cycles vs serial
# ---------------------------------------------------------------------------

def _run_parallel_cycles(executor, *, num_shards=4, duration=1500.0):
    """One arm of the parallel-engine comparison.

    A 4-shard Qonductor fleet with deadline-driven triggers (huge queue
    limit), so all shards' cycles land on one shared 120 s cadence and
    every TRIGGER batch is ``num_shards`` wide; arrivals are Markov-
    modulated (flash-crowd bursts at 6x the calm rate) so queue depths —
    and thus NSGA-II cost — swing the way a worst-case stream would.
    """
    estimator = trained_estimator(seed=7)
    cached = estimator.cached()
    gen = LoadGenerator(
        mean_rate_per_hour=9600.0,
        diurnal=False,
        arrival_process="mmpp",
        burst_rate_multiplier=6.0,
        mean_burst_seconds=90.0,
        mean_calm_seconds=360.0,
        shots_grid=SHOTS_GRID,
        seed=3,
    )
    sim = CloudSimulator.sharded(
        fleet_of_size(16, seed=7),
        # The scheduler's default 40 generations keep optimization above
        # the 30% share of wall time the gate checks, so the batches
        # carry real work to overlap.
        QonductorScheduler(cached, seed=3, max_generations=40),
        num_shards=num_shards,
        balancer="least_loaded",
        execution_model=ExecutionModel(seed=11),
        trigger_factory=lambda i: SchedulingTrigger(
            queue_limit=100_000, interval_seconds=120.0
        ),
        config=SimulationConfig(duration_seconds=duration, seed=3),
        cycle_executor=executor,
    )
    t0 = time.perf_counter()
    metrics = sim.run(gen.generate(duration))
    return metrics, time.perf_counter() - t0


def _cache_sweep(max_entries_grid=(64, 256, 1024, 4096, 16384)):
    """Hit rate vs ``max_entries`` on a realistic round-shots stream.

    Replays the same scheduling-shaped request sequence (batches of
    pending jobs scored against the full fleet via ``estimate_block``,
    drawn from a resubmission pool with round shot counts — the regime
    the cache exists for) against fresh caches of different capacities,
    isolating the eviction policy from everything else.  The working set
    is ~pool x fleet keys, so the sweep brackets it: small caps thrash
    under generational eviction, caps past the working set converge.
    """
    estimator = trained_estimator(seed=7)
    fleet = fleet_of_size(8, seed=7)
    gen = LoadGenerator(
        mean_rate_per_hour=20_000.0,
        diurnal=False,
        shots_grid=SHOTS_GRID,
        circuit_pool_size=256,
        seed=13,
    )
    apps = gen.generate(1800.0)
    batches = [
        [a.quantum_job for a in apps[i : i + 50]]
        for i in range(0, len(apps), 50)
    ]
    sweep = {}
    for max_entries in max_entries_grid:
        cached = estimator.cached(max_entries=max_entries)
        for batch in batches:
            cached.estimate_block(batch, fleet)
        sweep[max_entries] = {
            "hit_rate": round(cached.stats.hit_rate, 4),
            "lookups": cached.stats.lookups,
            "entries": len(cached.cache),
        }
    return sweep


def test_perf_parallel_cycles():
    """The tentpole gate: worker-pool NSGA-II cycles must be bit-identical
    to serial execution and >=2x faster on the optimization stage when
    the host has the cores (CI runners do; the gate is skipped below 4)."""
    serial, serial_wall = _run_parallel_cycles("serial")
    parallel, parallel_wall = _run_parallel_cycles("process")
    cpus = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")  # affinity-aware on Linux/CI
        else (os.cpu_count() or 1)
    )

    opt_serial = serial.stage_seconds["optimize_wall"]
    opt_parallel = parallel.stage_seconds["optimize_wall"]
    speedup = opt_serial / max(opt_parallel, 1e-9)
    sweep = _cache_sweep()
    result = {
        "paper": {},
        "measured": {
            "jobs": serial.dispatched_jobs + serial.unschedulable_jobs,
            "num_shards": serial.num_shards,
            "cpus": cpus,
            "scheduling_cycles": serial.scheduling_cycles,
            "cycle_batches": serial.cycle_batches,
            "max_batch_cycles": serial.max_batch_cycles,
            "optimize_stage_speedup": round(speedup, 2),
            "serial": {
                "wall_seconds": round(serial_wall, 3),
                "stage_seconds": {
                    k: round(v, 3) for k, v in serial.stage_seconds.items()
                },
            },
            "parallel": {
                "backend": "process",
                "wall_seconds": round(parallel_wall, 3),
                "stage_seconds": {
                    k: round(v, 3) for k, v in parallel.stage_seconds.items()
                },
            },
            "bit_identical": (
                serial.deterministic_state() == parallel.deterministic_state()
            ),
            "cache_hit_rate_vs_max_entries": {
                str(k): v for k, v in sweep.items()
            },
        },
    }
    report(
        "Perf: parallel scheduling engine (worker-pool NSGA-II cycles)",
        result,
        keys=[
            "jobs", "num_shards", "cpus", "scheduling_cycles",
            "cycle_batches", "max_batch_cycles", "optimize_stage_speedup",
            "bit_identical",
        ],
    )

    ARTIFACT_DIR.mkdir(exist_ok=True)
    artifact = ARTIFACT_DIR / "perf_parallel_cycles.json"
    artifact.write_text(json.dumps(result["measured"], indent=2) + "\n")

    # Determinism is unconditional: whichever worker ran which cycle,
    # the folded-in SimulationMetrics must be bit-identical to serial.
    assert serial.deterministic_state() == parallel.deterministic_state()
    # The batches really were 4 cycles wide (aligned deadlines) and the
    # optimization stage dominated, so there was real work to overlap.
    assert serial.max_batch_cycles >= 4
    assert opt_serial > 0.3 * serial_wall
    # Capacity sweep: a too-small cache thrashes, a cap past the working
    # set serves the stream almost entirely from memo.
    rates = [sweep[k]["hit_rate"] for k in sorted(sweep)]
    assert all(b >= a for a, b in zip(rates, rates[1:]))
    assert rates[-1] > 0.8
    # S1: the segmented LRU degrades gracefully below the working set.
    # The generational halving it replaced flushed the oldest half-table
    # wholesale, so a cap around half the working set (~1.9k keys here)
    # cycled to a near-zero hit rate — the cliff; the SLRU's protected
    # segment keeps the re-referenced hot keys serving instead.
    working_set = sweep[max(sweep)]["entries"]
    below = [k for k in sweep if k < working_set]
    assert below, "sweep grid no longer brackets the working set"
    assert sweep[max(below)]["hit_rate"] > 0.4
    # The wall-clock gate only means something with cores to spend.
    if cpus >= 4:
        assert speedup >= 2.0, (
            f"optimization stage speedup {speedup:.2f}x < 2x "
            f"({opt_serial:.2f}s serial vs {opt_parallel:.2f}s parallel "
            f"on {cpus} CPUs)"
        )


# ---------------------------------------------------------------------------
# Pipelined engine: ε-coalescing + modeled latency vs the synchronous path
# ---------------------------------------------------------------------------

def _run_pipelined(executor, *, duration=1200.0, **knobs):
    """One arm of the pipelined-engine comparison.

    Unlike ``_run_parallel_cycles`` the triggers here are queue-limit
    driven (huge deadline), so each shard fires on its *own* arrivals at
    distinct instants — exactly the stream where the synchronous path
    degenerates to batches of one (run inline, zero overlap) and only
    ε-window coalescing plus fold deferral can recover parallelism.
    """
    estimator = trained_estimator(seed=7)
    cached = estimator.cached()
    gen = LoadGenerator(
        mean_rate_per_hour=9600.0,
        diurnal=False,
        arrival_process="mmpp",
        burst_rate_multiplier=6.0,
        mean_burst_seconds=90.0,
        mean_calm_seconds=360.0,
        shots_grid=SHOTS_GRID,
        seed=3,
    )
    sim = CloudSimulator.sharded(
        fleet_of_size(16, seed=7),
        QonductorScheduler(cached, seed=3, max_generations=20),
        num_shards=4,
        balancer="least_loaded",
        execution_model=ExecutionModel(seed=11),
        trigger_factory=lambda i: SchedulingTrigger(
            queue_limit=15, interval_seconds=100_000.0
        ),
        config=SimulationConfig(duration_seconds=duration, seed=3),
        cycle_executor=executor,
        **knobs,
    )
    t0 = time.perf_counter()
    metrics = sim.run(gen.generate(duration))
    return metrics, time.perf_counter() - t0


def test_perf_pipelined_cycles():
    """The pipelined-engine gate: on a bursty arrival-driven stream,
    ε-window coalescing + modeled scheduler latency + async submission
    must beat the synchronous path by >=1.5x wall clock when the host has
    the cores (>=4), while staying bit-identical to a serial run of the
    same configuration."""
    knobs = dict(
        trigger_epsilon=10.0, cycle_latency=15.0, pipeline=True
    )
    sync, sync_wall = _run_pipelined("process")
    piped, piped_wall = _run_pipelined("process", **knobs)
    serial_ref, _ = _run_pipelined("serial", **knobs)
    cpus = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else (os.cpu_count() or 1)
    )
    speedup = sync_wall / max(piped_wall, 1e-9)

    result = {
        "paper": {},
        "measured": {
            "jobs": sync.dispatched_jobs + sync.unschedulable_jobs,
            "num_shards": sync.num_shards,
            "cpus": cpus,
            "wall_speedup": round(speedup, 2),
            "synchronous": {
                "wall_seconds": round(sync_wall, 3),
                "scheduling_cycles": sync.scheduling_cycles,
                "cycle_batches": sync.cycle_batches,
                "max_batch_cycles": sync.max_batch_cycles,
                "stage_seconds": {
                    k: round(v, 3) for k, v in sync.stage_seconds.items()
                },
            },
            "pipelined": {
                "backend": "process",
                "trigger_epsilon": knobs["trigger_epsilon"],
                "cycle_latency": knobs["cycle_latency"],
                "wall_seconds": round(piped_wall, 3),
                "scheduling_cycles": piped.scheduling_cycles,
                "cycle_batches": piped.cycle_batches,
                "max_batch_cycles": piped.max_batch_cycles,
                "epsilon_merged_triggers": piped.epsilon_merged_triggers,
                "pipelined_batches": piped.pipelined_batches,
                "fold_lag_seconds": round(piped.fold_lag_seconds, 1),
                "stage_seconds": {
                    k: round(v, 3) for k, v in piped.stage_seconds.items()
                },
            },
            "bit_identical_to_serial": (
                piped.deterministic_state()
                == serial_ref.deterministic_state()
            ),
        },
    }
    report(
        "Perf: pipelined engine (ε-coalescing + modeled latency)",
        result,
        keys=[
            "jobs", "num_shards", "cpus", "wall_speedup",
            "bit_identical_to_serial",
        ],
    )

    ARTIFACT_DIR.mkdir(exist_ok=True)
    artifact = ARTIFACT_DIR / "perf_pipelined_cycles.json"
    artifact.write_text(json.dumps(result["measured"], indent=2) + "\n")

    # Determinism is unconditional: the pipelined process run must match
    # a serial run of the identical configuration bit for bit.
    assert piped.deterministic_state() == serial_ref.deterministic_state()
    # The scenario really exercised the new machinery: the synchronous
    # arrival path ran batches of one, the ε window merged cross-shard
    # triggers into multi-cycle batches, and folds lagged their submits.
    # (The one exception is the horizon flush, which folds every still-
    # backlogged shard as a single final batch.)
    assert sync.scheduling_cycles - sync.cycle_batches <= sync.num_shards - 1
    assert piped.epsilon_merged_triggers > 0
    assert piped.pipelined_batches > 0
    assert piped.max_batch_cycles >= 2
    # Coalescing defers work; it must not lose it.
    assert (
        piped.dispatched_jobs
        + piped.unschedulable_jobs
        + piped.pending_at_horizon
        == sync.dispatched_jobs
        + sync.unschedulable_jobs
        + sync.pending_at_horizon
    )
    # The wall-clock gate only means something with cores to spend.
    if cpus >= 4:
        assert speedup >= 1.5, (
            f"pipelined wall speedup {speedup:.2f}x < 1.5x "
            f"({sync_wall:.2f}s sync vs {piped_wall:.2f}s pipelined "
            f"on {cpus} CPUs)"
        )


# ---------------------------------------------------------------------------
# Skewed-width + flash-outage stress: work stealing vs static shards
# ---------------------------------------------------------------------------

def _run_skew(rebalance):
    """One arm of the shared skew + flash-outage scenario, at CI scale.

    Every job fits the mid shard tightest, so static routing saturates it
    (~1.2x its service rate) while the wide shard idles; halfway through,
    a flash outage takes two mid QPUs down for 30 minutes.  Work stealing
    is the only mechanism that moves the resulting backlog.
    """
    duration = 7200.0
    gen, sim = skew_scenario(
        rebalance=rebalance,
        duration_seconds=duration,
        outage_start=1800.0,
        outage_seconds=1800.0,
        shots_grid=SHOTS_GRID,
        seed=3,
    )
    t0 = time.perf_counter()
    metrics = sim.run(gen.iter_arrivals(duration))
    return metrics, time.perf_counter() - t0, duration, sim


def test_perf_rebalance_skew_outage():
    static, static_wall, duration, static_sim = _run_skew(None)
    steal, steal_wall, _, _ = _run_skew(
        ThresholdRebalancePolicy(min_gap=8, interval_seconds=30.0)
    )
    s_static, s_steal = static.summary(), steal.summary()
    result = {
        "paper": {},
        "measured": {
            "jobs": static.dispatched_jobs + static.unschedulable_jobs,
            "outage_events": steal.outage_events,
            "static": {
                "load_cv": round(s_static["load_cv"], 4),
                "final_mean_jct": round(s_static["final_mean_jct"], 1),
                "wall_seconds": round(static_wall, 3),
            },
            "work_stealing": {
                "load_cv": round(s_steal["load_cv"], 4),
                "final_mean_jct": round(s_steal["final_mean_jct"], 1),
                "jobs_migrated": steal.jobs_migrated,
                "rebalance_cycles": steal.rebalance_cycles,
                "per_shard_steals": {
                    str(k): v for k, v in steal.per_shard_steals.items()
                },
                "wall_seconds": round(steal_wall, 3),
            },
        },
    }
    report(
        "Perf: work stealing under skewed widths + flash outage",
        result,
        keys=["jobs", "outage_events", "static", "work_stealing"],
    )

    ARTIFACT_DIR.mkdir(exist_ok=True)
    artifact = ARTIFACT_DIR / "perf_rebalance_skew.json"
    artifact.write_text(json.dumps(result["measured"], indent=2) + "\n")

    # Both runs saw the same stream and the same outage.
    assert static.outage_events == steal.outage_events == 2
    assert static.recovery_events == 2
    assert (
        steal.dispatched_jobs + steal.unschedulable_jobs
        == static.dispatched_jobs + static.unschedulable_jobs
    )
    # Work stealing actually moved pending jobs across shards...
    assert steal.jobs_migrated > 0
    assert steal.rebalance_cycles > 0
    # ...and that cut both the busy-seconds imbalance and the final mean
    # JCT versus the static partition.
    assert s_steal["load_cv"] < s_static["load_cv"]
    assert s_steal["final_mean_jct"] < s_static["final_mean_jct"]
    # The static mid shard hotspot is the pathology being fixed: with
    # stealing, the wide shard executes a real share of the work.
    wide_jobs = sum(
        v for k, v in steal.per_qpu_jobs.items() if k.startswith("wide")
    )
    assert wide_jobs > 0
    # O(1) aggregate bound holds here too (sampled series track cadence).
    max_samples = int(duration // static_sim.config.sample_every_seconds) + 2
    assert len(static.mean_completion_time.values) <= max_samples
    assert len(steal.mean_completion_time.values) <= max_samples


# ---------------------------------------------------------------------------
# Tenant isolation: one abusive tenant vs the admission front door
# ---------------------------------------------------------------------------

def test_perf_tenant_isolation():
    """The tenancy gate: one flooding tenant (half the offered load) on a
    bursty mmpp stream with a mid-run flash outage must not be able to
    wreck the premium tenant's tail once the front door is on.

    Three arms on matched seeds (``repro.experiments.tenant_study``):
    the no-abuser reference, the unprotected flood, and the flood behind
    an ``AdmissionController`` + tier-weighted scheduling.  The claim
    held here: admission keeps the premium (tier-0) p95 JCT within 15%
    of the no-abuser reference, and Jain's fairness index improves over
    the unprotected run.
    """
    t0 = time.perf_counter()
    study = tenant_study()
    wall = time.perf_counter() - t0

    arms, iso = study["arms"], study["isolation"]
    result = {
        "paper": {"single_tenant_queue": True},
        "measured": {
            "scenario": study["scenario"],
            "wall_seconds": round(wall, 3),
            "isolation": iso,
            "arms": {
                name: {k: v for k, v in arm.items() if k != "per_tenant"}
                for name, arm in arms.items()
            },
        },
    }
    report(
        "Perf: tenant isolation (abusive tenant + burst + flash outage)",
        result,
        keys=["scenario", "wall_seconds", "isolation"],
    )

    ARTIFACT_DIR.mkdir(exist_ok=True)
    artifact = ARTIFACT_DIR / "perf_tenant_isolation.json"
    artifact.write_text(json.dumps(result["measured"], indent=2) + "\n")

    # The scenario actually bit: the abuser flooded (front door engaged)
    # and every arm saw the flash outage's extra scheduling pressure.
    on = arms["admission_on"]
    assert on["admission_rejected"] + on["admission_degraded"] > 0
    assert arms["admission_off"]["admission_rejected"] == 0
    for arm in arms.values():
        assert arm["tier0_completed"] > 50  # p95 is over a real sample
    # Isolation: with admission on, the premium tenant's p95 JCT sits
    # within 15% of the world where the abuser doesn't exist at all...
    assert iso["tier0_p95_degradation_pct"] <= 15.0, (
        f"premium p95 degraded {iso['tier0_p95_degradation_pct']:+.1f}% "
        f"vs no-abuser reference ({iso['tier0_p95_no_abuser']:.0f}s -> "
        f"{iso['tier0_p95_admission_on']:.0f}s)"
    )
    # ...and fairness across tenants improves over the unprotected run.
    assert iso["jain_admission_on"] > iso["jain_admission_off"], (
        f"Jain {iso['jain_admission_off']:.4f} -> "
        f"{iso['jain_admission_on']:.4f} did not improve"
    )


# ---------------------------------------------------------------------------
# Batched estimate blocks vs the per-pair estimator loop
# ---------------------------------------------------------------------------

def test_perf_batched_estimates():
    """The estimate-source gate: scoring a 200-job x 16-QPU block through
    ``estimate_block`` must beat the per-pair ``estimate_for_qpu`` loop it
    replaced by >=3x (the batch path runs one vectorized model pass per
    QPU instead of 200 x 16 feature builds and predictions)."""
    from repro.cloud import AnalyticEstimateSource
    from repro.cloud.job import QuantumJob, feasibility_matrix
    from repro.workloads import WorkloadSampler

    num_jobs, num_qpus = 200, 16
    estimator = trained_estimator(seed=7)
    fleet = fleet_of_size(num_qpus, seed=7)
    sampler = WorkloadSampler(
        mean_qubits=8, std_qubits=4, max_qubits=27,
        shots_choices=SHOTS_GRID, seed=9,
    )
    jobs = [
        QuantumJob.from_circuit(
            s.circuit,
            shots=s.shots,
            mitigation="zne+rem" if s.uses_mitigation else "none",
        )
        for s in sampler.sample_many(num_jobs)
    ]
    feas = feasibility_matrix(jobs, fleet)

    # Warm both paths once so one-time costs (feature caches, the ESP
    # feature extraction memo) don't skew either side.
    estimator.estimate_block(jobs, fleet, feas)
    estimator.estimate_for_qpu(jobs[0], fleet[0])

    t0 = time.perf_counter()
    fid_pair = [
        [
            estimator.estimate_for_qpu(j, q)[0] if feas[i, k] else 0.0
            for k, q in enumerate(fleet)
        ]
        for i, j in enumerate(jobs)
    ]
    pair_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    fid_block, _ = estimator.estimate_block(jobs, fleet, feas)
    block_seconds = time.perf_counter() - t0

    import numpy as np

    np.testing.assert_allclose(
        fid_block, np.array(fid_pair), rtol=0, atol=1e-12
    )
    speedup = pair_seconds / max(block_seconds, 1e-9)

    # The analytic source gets the same treatment (informational: it is
    # the training-free path, not the scheduling default).
    analytic = AnalyticEstimateSource()
    analytic.estimate_block(jobs[:20], fleet[:2])
    t0 = time.perf_counter()
    analytic.estimate_block(jobs, fleet, feas)
    analytic_block_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    for i, j in enumerate(jobs[:40]):
        for k, q in enumerate(fleet):
            if feas[i, k]:
                analytic(j, q)
    analytic_pair_seconds = (time.perf_counter() - t0) * (num_jobs / 40)

    result = {
        "paper": {},
        "measured": {
            "jobs": num_jobs,
            "num_qpus": num_qpus,
            "feasible_pairs": int(feas.sum()),
            "trained_pair_seconds": round(pair_seconds, 4),
            "trained_block_seconds": round(block_seconds, 4),
            "trained_block_speedup": round(speedup, 2),
            "analytic_block_seconds": round(analytic_block_seconds, 4),
            "analytic_pair_seconds_est": round(analytic_pair_seconds, 4),
            "analytic_block_speedup_est": round(
                analytic_pair_seconds / max(analytic_block_seconds, 1e-9), 2
            ),
        },
    }
    report("Perf: batched estimate blocks", result,
           keys=list(result["measured"]))

    ARTIFACT_DIR.mkdir(exist_ok=True)
    artifact = ARTIFACT_DIR / "perf_batched_estimates.json"
    artifact.write_text(json.dumps(result["measured"], indent=2) + "\n")

    assert speedup >= 3.0, (
        f"estimate_block speedup {speedup:.2f}x < 3x "
        f"({pair_seconds:.3f}s per-pair vs {block_seconds:.3f}s block)"
    )


# ---------------------------------------------------------------------------
# Vectorized NSGA-II kernels
# ---------------------------------------------------------------------------

def _best_of(fn, *, repeats=5, inner=20):
    """Best mean-of-``inner`` over ``repeats`` batches (noise-robust)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def test_perf_nsga_kernels():
    """The vectorized-MOO gate: the population-flat evaluate kernel must
    beat the per-individual reference loop by >=5x at a realistic cycle
    shape (single-thread vectorization — no core count required), while
    staying bit-identical; the artifact additionally records end-to-end
    ``run_optimization`` wall clock with and without the kernels."""
    import numpy as np

    from conftest import nsga_reference_patch
    from helpers.moo_reference import evaluate_reference, repair_reference
    from repro.cloud.job import QuantumJob
    from repro.scheduler.formulation import (
        SchedulingInput,
        evaluate_population,
        repair_population,
    )
    from repro.workloads import WorkloadSampler

    # -- 1. population-evaluate kernel vs per-individual reference ------
    pop, n, q = 128, 100, 16
    rng = np.random.default_rng(0)
    data = SchedulingInput(
        fidelity=rng.random((n, q)) * 0.4 + 0.6,
        exec_seconds=rng.random((n, q)) * 100 + 1,
        waiting_seconds=rng.random(q) * 50,
        feasible=rng.random((n, q)) < 0.7,
    )
    X = rng.integers(0, q, size=(pop, n))
    assert np.array_equal(
        evaluate_population(data, X), evaluate_reference(data, X)
    )
    r1, r2 = np.random.default_rng(1), np.random.default_rng(1)
    assert np.array_equal(
        repair_population(data, X.copy(), r1),
        repair_reference(data, X.copy(), r2),
    )
    ref_seconds = _best_of(lambda: evaluate_reference(data, X))
    kernel_seconds = _best_of(lambda: evaluate_population(data, X))
    evaluate_speedup = ref_seconds / max(kernel_seconds, 1e-12)

    # -- 2. end-to-end run_optimization, kernels vs reference loops -----
    estimator = trained_estimator(seed=7).cached()
    fleet = fleet_of_size(8, seed=7)
    sampler = WorkloadSampler(
        mean_qubits=8, std_qubits=4, max_qubits=27,
        shots_choices=SHOTS_GRID, seed=9,
    )
    pending = [
        QuantumJob.from_circuit(s.circuit, shots=s.shots, keep_circuit=False)
        for s in sampler.sample_many(150)
    ]
    sched = QonductorScheduler(estimator, seed=3, max_generations=60)
    plan = sched.begin_cycle(pending, fleet, {b.name: 0.0 for b in fleet})
    task = plan.task

    after_seconds, after = float("inf"), None
    for _ in range(3):
        t0 = time.perf_counter()
        after = run_optimization(task)
        after_seconds = min(after_seconds, time.perf_counter() - t0)
    before_seconds, before = float("inf"), None
    with nsga_reference_patch():
        for _ in range(3):
            t0 = time.perf_counter()
            before = run_optimization(task)
            before_seconds = min(before_seconds, time.perf_counter() - t0)
    # The references consume identical RNG streams: same result, slower.
    assert np.array_equal(before.X, after.X)
    assert np.array_equal(before.F, after.F)
    assert before.generations == after.generations

    result = {
        "paper": {},
        "measured": {
            "evaluate_kernel": {
                "pop": pop, "jobs": n, "qpus": q,
                "reference_ms": round(ref_seconds * 1e3, 4),
                "kernel_ms": round(kernel_seconds * 1e3, 4),
                "speedup": round(evaluate_speedup, 2),
            },
            "run_optimization": {
                "jobs": task.data.num_jobs,
                "qpus": task.data.num_qpus,
                "pop_size": task.pop_size,
                "generations": after.generations,
                "before_ms": round(before_seconds * 1e3, 2),
                "after_ms": round(after_seconds * 1e3, 2),
                "speedup": round(
                    before_seconds / max(after_seconds, 1e-12), 2
                ),
                "bit_identical": True,
            },
        },
    }
    report(
        "Perf: vectorized NSGA-II kernels",
        result,
        keys=list(result["measured"]),
    )

    ARTIFACT_DIR.mkdir(exist_ok=True)
    artifact = ARTIFACT_DIR / "perf_nsga_kernels.json"
    artifact.write_text(json.dumps(result["measured"], indent=2) + "\n")

    # The tentpole gate: single-thread vectorization, not parallelism.
    assert evaluate_speedup >= 5.0, (
        f"population-evaluate speedup {evaluate_speedup:.2f}x < 5x "
        f"({ref_seconds * 1e3:.3f}ms reference vs "
        f"{kernel_seconds * 1e3:.3f}ms kernel)"
    )
