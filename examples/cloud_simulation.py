"""Cloud-operator scenario: Qonductor vs FCFS on a synthetic IBM-like load.

Reproduces the paper's §8.3 end-to-end comparison at a reduced scale:
identical Poisson arrival streams are scheduled by (a) the Qonductor
hybrid scheduler (NSGA-II + MCDM, batched triggers) and (b) the standard
FCFS-onto-best-fidelity practice, and the three headline metrics are
compared: mean fidelity, mean JCT, mean QPU utilization.

Run:  python examples/cloud_simulation.py [--minutes 15] [--rate 1500]
"""

import argparse

from repro.backends import default_fleet
from repro.cloud import (
    CloudSimulator,
    ExecutionModel,
    LoadGenerator,
    SimulationConfig,
)
from repro.estimator import ResourceEstimator
from repro.scheduler import FCFSPolicy, QonductorScheduler, SchedulingTrigger

FLEET_NAMES = [
    "auckland", "lagos", "cairo", "hanoi",
    "kolkata", "mumbai", "guadalupe", "nairobi",
]


def run_policy(policy_name: str, estimator, duration: float, rate: float) -> dict:
    fleet = default_fleet(seed=7, names=FLEET_NAMES)
    apps = LoadGenerator(mean_rate_per_hour=rate, seed=5).generate(duration)
    if policy_name == "qonductor":
        policy = QonductorScheduler(
            estimator.cached(), preference="balanced", seed=5,
            max_generations=25,
        )
    else:
        policy = FCFSPolicy(estimator.cached())
    sim = CloudSimulator(
        fleet,
        policy,
        ExecutionModel(seed=11),
        trigger=SchedulingTrigger(queue_limit=100, interval_seconds=120),
        config=SimulationConfig(duration_seconds=duration, seed=5),
    )
    return sim.run(apps).summary()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--minutes", type=float, default=15.0)
    parser.add_argument("--rate", type=float, default=1500.0)
    args = parser.parse_args()
    duration = args.minutes * 60.0

    print("Training the resource estimator on synthetic calibration runs ...")
    estimator = ResourceEstimator.train_for_fleet(
        default_fleet(seed=7, names=FLEET_NAMES),
        num_records=800,
        execution_model=ExecutionModel(seed=7),
        seed=7,
    )
    rep = estimator.estimators
    print(
        f"  fidelity model: degree {rep.fidelity.degree}, "
        f"CV R^2 = {rep.fidelity.cv_r2:.3f}"
    )
    print(
        f"  runtime model:  degree {rep.runtime.degree}, "
        f"CV R^2 = {rep.runtime.cv_r2:.3f}"
    )

    print(f"\nSimulating {args.minutes:.0f} min at {args.rate:.0f} jobs/hour ...")
    s_qon = run_policy("qonductor", estimator, duration, args.rate)
    s_fcfs = run_policy("fcfs", estimator, duration, args.rate)

    print(f"\n{'metric':<24s} {'Qonductor':>12s} {'FCFS':>12s}")
    for key, label in [
        ("mean_fidelity", "mean fidelity"),
        ("final_mean_jct", "mean JCT [s]"),
        ("mean_utilization", "mean utilization"),
        ("load_cv", "load CV"),
        ("completed_jobs", "completed jobs"),
    ]:
        print(f"{label:<24s} {s_qon[key]:>12.3f} {s_fcfs[key]:>12.3f}")

    jct_red = 100.0 * (1.0 - s_qon["final_mean_jct"] / s_fcfs["final_mean_jct"])
    fid_drop = 100.0 * (s_fcfs["mean_fidelity"] - s_qon["mean_fidelity"])
    print(
        f"\nQonductor: {jct_red:+.1f}% JCT vs FCFS for a "
        f"{fid_drop:.1f} pp fidelity trade (paper: -48% JCT for <3%; "
        "gaps grow with simulation horizon)."
    )


if __name__ == "__main__":
    main()
