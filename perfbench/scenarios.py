"""The three benchmark workloads, built from a workload seed.

Each workload function returns a ready-to-run :class:`Scenario`: a freshly trained
estimator, a fresh fleet and simulator, and a freshly generated arrival
list.  Nothing is shared between two scenarios: ``CloudSimulator.run``
mutates the jobs, the QPUs (recalibration, availability) and the estimate
cache, so every measured run pays the same set-up from nothing.

Only the workload seed varies between runs.  The fleet, estimator and
ground-truth execution seeds are fixed, so two seeds differ in their
arrivals (and the noise drawn while executing them), never in the
hardware they land on.

Knobs that CI exports process-wide (``CYCLE_EXECUTOR``, ``CYCLE_PIPELINE``)
are pinned explicitly here: every workload runs the serial executor with
the synchronous engine in one process.  A host with two cores would
measure the OS scheduler, not the program, with a process pool.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.backends.fleet import default_fleet, fleet_of_size
from repro.cloud import (
    AdmissionController,
    CloudSimulator,
    ExecutionModel,
    HybridApplication,
    LoadGenerator,
    SimulationConfig,
    ThresholdRebalancePolicy,
    TranspileProxy,
    abusive_mix,
    flash_outage,
)
from repro.estimator.cache import CachedEstimator
from repro.estimator.estimator import ResourceEstimator
from repro.experiments.common import EIGHT_QPU_NAMES
from repro.scheduler import (
    BatchedFCFSPolicy,
    FCFSPolicy,
    QonductorScheduler,
    SchedulingTrigger,
)

__all__ = ["WORKLOADS", "Scenario", "build"]

FLEET_SEED = 7
ESTIMATOR_SEED = 7
EXECUTION_SEED = 11
#: Training-set size of the estimator (the size every paper experiment uses).
TRAINING_RECORDS = 800
#: Round shot counts, as cloud users request them; they make the
#: content-addressed estimate cache hit across resubmissions.
SHOTS_GRID = (1024, 2048, 4096, 8192)


@dataclass
class Scenario:
    """One workload, set up and ready for ``sim.run(apps)``."""

    sim: CloudSimulator
    apps: list[HybridApplication]
    horizon: float
    estimator: CachedEstimator


def _train(proxy: TranspileProxy) -> ResourceEstimator:
    """Train the §6 estimator on the paper's eight-device fleet."""
    return ResourceEstimator.train_for_fleet(
        default_fleet(seed=FLEET_SEED, names=EIGHT_QPU_NAMES),
        num_records=TRAINING_RECORDS,
        execution_model=ExecutionModel(proxy=proxy, seed=ESTIMATOR_SEED),
        seed=ESTIMATOR_SEED,
    )


def _engine(proxy: TranspileProxy) -> dict:
    """Simulator knobs every workload shares."""
    return dict(
        execution_model=ExecutionModel(proxy=proxy, seed=EXECUTION_SEED),
        cycle_executor="serial",
        pipeline=False,
    )


def fcfs_stream(seed: int, scale: float, proxy: TranspileProxy) -> Scenario:
    """Per-arrival FCFS over 64 QPUs in 8 shards, fed far above the IBM rate
    from a resubmission pool, with one recalibration half way.

    About 10k arrivals over 256 programs resubmit each program as often
    per shard and calibration epoch as 20k arrivals over 512 would, which
    keeps the estimate cache read-heavy (hit rate about 0.65).
    """
    estimator = _train(proxy).cached()
    horizon = 180.0 * scale
    apps = LoadGenerator(
        mean_rate_per_hour=200_000.0,
        diurnal=False,
        shots_grid=SHOTS_GRID,
        circuit_pool_size=256,
        seed=seed,
    ).generate(horizon)
    sim = CloudSimulator.sharded(
        fleet_of_size(64, seed=FLEET_SEED),
        FCFSPolicy(estimator),
        num_shards=8,
        balancer="least_loaded",
        config=SimulationConfig(
            duration_seconds=horizon,
            recalibrate_every_seconds=horizon / 2.0,
            seed=seed,
        ),
        **_engine(proxy),
    )
    return Scenario(sim, apps, horizon, estimator)


def qonductor_fleet(seed: int, scale: float, proxy: TranspileProxy) -> Scenario:
    """The paper's scheduler with default NSGA-II settings and triggers on
    16 QPUs in 4 shards, Poisson arrivals at 3000 j/h, a fresh circuit per
    arrival, one recalibration half way."""
    estimator = _train(proxy).cached()
    horizon = 3600.0 * scale
    apps = LoadGenerator(
        mean_rate_per_hour=3000.0, diurnal=False, seed=seed
    ).generate(horizon)
    sim = CloudSimulator.sharded(
        fleet_of_size(16, seed=FLEET_SEED),
        QonductorScheduler(estimator, seed=seed),
        num_shards=4,
        balancer="least_loaded",
        config=SimulationConfig(
            duration_seconds=horizon,
            recalibrate_every_seconds=horizon / 2.0,
            seed=seed,
        ),
        **_engine(proxy),
    )
    return Scenario(sim, apps, horizon, estimator)


def adaptive_burst(seed: int, scale: float, proxy: TranspileProxy) -> Scenario:
    """Batched FCFS on 32 QPUs in 8 shards under tenant MMPP bursts, with
    admission control, tenant-aware rebalancing, a flash outage of four
    QPUs, recalibration every 10 minutes and the pipelined engine's
    ε-window and modeled cycle latency.

    The calm rate (2000 j/h) sits well below the fleet's capacity (about
    9000 j/h) and the bursts (4x) close to it, so backlogs build and drain
    many times within one run.  Bursts far above capacity make the JCT
    tail depend on the few longest bursts, and so on the seed more than on
    the program; four hours of short bursts keep it steady across seeds.
    """
    estimator = _train(proxy).cached()
    horizon = 14_400.0 * scale
    apps = LoadGenerator(
        mean_rate_per_hour=2000.0,
        diurnal=False,
        arrival_process="mmpp",
        burst_rate_multiplier=4.0,
        mean_burst_seconds=40.0,
        mean_calm_seconds=120.0,
        shots_grid=SHOTS_GRID,
        circuit_pool_size=96,
        tenants=abusive_mix(
            abuser_share=0.4,
            abuser_rate_limit_per_hour=600.0,
            abuser_queue_quota=20,
        ),
        seed=seed,
    ).generate(horizon)
    sim = CloudSimulator.sharded(
        fleet_of_size(32, seed=FLEET_SEED),
        BatchedFCFSPolicy(estimator),
        num_shards=8,
        balancer="least_loaded",
        trigger_factory=lambda shard_id: SchedulingTrigger(
            queue_limit=24, interval_seconds=240.0
        ),
        config=SimulationConfig(
            duration_seconds=horizon,
            recalibrate_every_seconds=600.0,
            seed=seed,
        ),
        rebalance=ThresholdRebalancePolicy(
            min_gap=4, interval_seconds=10.0, tenant_aware=True
        ),
        availability=flash_outage(
            ["qpu03", "qpu04", "qpu11", "qpu12"],
            start=horizon / 3.0,
            duration_seconds=horizon / 6.0,
        ),
        admission=AdmissionController(),
        cycle_latency=0.5,
        trigger_epsilon=2.0,
        **_engine(proxy),
    )
    return Scenario(sim, apps, horizon, estimator)


#: Workload name -> function(seed, scale, proxy) that sets it up.
WORKLOADS: dict[str, Callable[[int, float, TranspileProxy], Scenario]] = {
    "fcfs_stream": fcfs_stream,
    "qonductor_fleet": qonductor_fleet,
    "adaptive_burst": adaptive_burst,
}


def build(name: str, seed: int, scale: float = 1.0) -> Scenario:
    """Set up one workload from nothing.

    The transpile proxy's probe tables are cached process-wide by
    default; a private proxy per scenario makes every set-up pay the
    calibration a fresh process pays, so repeated set-ups in one process
    measure the same work.
    """
    return WORKLOADS[name](seed, scale, TranspileProxy(share_tables=False))
