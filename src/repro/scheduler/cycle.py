"""The pure optimization stage of a scheduling cycle.

One NSGA-II cycle is, after pre-processing, a deterministic function of a
:class:`~repro.scheduler.formulation.SchedulingInput` snapshot plus a seed
— no scheduler, estimator, or simulator state is involved.  This module
isolates that function so the cloud simulator's parallel engine can ship
concurrently-due cycles to thread or process workers:

* :class:`OptimizationTask` is the picklable work unit: the estimate
  matrices (prefetched through the shared cache *before* the fork, so a
  worker never touches shared mutable state), the optimizer knobs, and
  the ``(base_seed, shard_id, cycle_index)`` entropy that pins the random
  stream.
* :func:`run_optimization` is the module-level pure worker function
  (importable by name, as ``multiprocessing`` spawn contexts require).
  Given the same task it returns bit-identical results on any backend in
  any order, which is what keeps parallel runs identical to serial ones.

Seeds derive from :func:`cycle_seed`: a ``numpy`` ``SeedSequence`` over
``(base_seed, shard_id, cycle_index)``.  Every (shard, cycle) pair gets a
collision-free, execution-order-independent stream — unlike the old
``seed + cycle`` counters, where shard 0's cycle 3 and shard 1's cycle 2
drew identical randomness and results depended on per-instance call
counts.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..moo import NSGA2, Termination
from .formulation import SchedulingInput, SchedulingProblem

__all__ = [
    "OptimizationTask",
    "OptimizationResult",
    "CycleLatencyModel",
    "cycle_seed",
    "run_optimization",
    "ConstantCycleLatency",
    "NsgaCycleLatencyModel",
    "make_latency_model",
]

#: A latency model maps one batch's tasks (``None`` for shards whose
#: policy has no optimization stage) to simulated seconds until fold.
CycleLatencyModel = Callable[[Sequence["OptimizationTask | None"]], float]


def cycle_seed(
    base_seed: int, shard_id: int, cycle_index: int
) -> np.random.SeedSequence:
    """The root seed of one scheduling cycle's random stream.

    Pure function of identity, not of execution order: two shards' cycles
    running concurrently (or a cycle re-run on a worker process) always
    draw the same stream a serial run would have.
    """
    return np.random.SeedSequence(entropy=(base_seed, shard_id, cycle_index))


@dataclass(frozen=True)
class OptimizationTask:
    """Everything one optimization-stage run needs, picklable."""

    data: SchedulingInput
    pop_size: int
    max_generations: int
    base_seed: int
    shard_id: int
    cycle_index: int


@dataclass(frozen=True)
class OptimizationResult:
    """What the optimization stage hands back to the fold-in step."""

    X: np.ndarray  # (n_front, n_jobs) front decision vectors
    F: np.ndarray  # (n_front, 2) front objective values
    generations: int
    evaluations: int
    #: Wall seconds the NSGA-II run itself took (measured in the worker).
    optimize_seconds: float = field(default=0.0, compare=False)


def run_optimization(task: OptimizationTask) -> OptimizationResult:
    """Stage 2 (NSGA-II over Eq. 1) as a pure function of the task.

    Builds the problem and the optimizer from the snapshot, derives the
    repair and GA streams from :func:`cycle_seed`, and returns only
    arrays — safe to run on any :class:`~repro.cloud.cycle_executor`
    backend.
    """
    t0 = time.perf_counter()
    root = cycle_seed(task.base_seed, task.shard_id, task.cycle_index)
    repair_seed, ga_seed = root.spawn(2)
    problem = SchedulingProblem(task.data, seed=repair_seed)
    algo = NSGA2(pop_size=task.pop_size, seed=ga_seed)
    result = algo.minimize(
        problem, Termination(max_generations=task.max_generations)
    )
    return OptimizationResult(
        X=result.X,
        F=result.F,
        generations=result.generations,
        evaluations=result.evaluations,
        optimize_seconds=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Cycle-latency models
#
# The simulator's pipelined engine needs to know *when in simulated time*
# a batch of cycles folds back: the scheduler's own runtime delays
# dispatch (the paper's Fig. 9c stage breakdown is exactly that runtime).
# A latency model maps a batch — the list of per-shard
# :class:`OptimizationTask` snapshots, ``None`` for shards whose policy
# has no optimization stage — to a latency in simulated seconds.  The
# model is a pure function of the batch, so the fold instant never
# depends on wall-clock worker timing and seeded runs reproduce on every
# executor backend.


@dataclass(frozen=True)
class ConstantCycleLatency:
    """Every batch folds a fixed ``seconds`` after its trigger."""

    seconds: float = 0.0

    def __call__(self, tasks: Sequence[OptimizationTask | None]) -> float:
        return self.seconds


@dataclass(frozen=True)
class NsgaCycleLatencyModel:
    """Latency proportional to the heaviest cycle in the batch.

    One NSGA-II cycle evaluates ``pop_size * max_generations``
    individuals, each a vector pass over the cycle's jobs, so its runtime
    scales as ``pop_size * max_generations * n_jobs``.  Cycles in a batch
    run concurrently on the worker pool, so the batch folds when its
    *slowest* member does — ``overhead_seconds`` (pre/postprocessing,
    dispatch) plus the max per-cycle term.  Shards without an
    optimization stage contribute only the overhead.
    """

    seconds_per_evaluation: float = 2e-5
    overhead_seconds: float = 0.05

    def __call__(self, tasks: Sequence[OptimizationTask | None]) -> float:
        if not tasks:
            return 0.0
        slowest = max(
            (
                t.pop_size * t.max_generations * max(1, t.data.num_jobs)
                for t in tasks
                if t is not None
            ),
            default=0,
        )
        return self.overhead_seconds + slowest * self.seconds_per_evaluation


def make_latency_model(
    spec: float | CycleLatencyModel | None,
) -> CycleLatencyModel:
    """Resolve a cycle-latency spec to a model callable.

    ``None`` or ``0`` mean the legacy instant fold (bit-identical to the
    synchronous engine); a number becomes a :class:`ConstantCycleLatency`;
    any callable (e.g. :class:`NsgaCycleLatencyModel`) passes through.
    """
    if spec is None:
        return ConstantCycleLatency(0.0)
    if callable(spec):
        return spec
    seconds = float(spec)
    if seconds < 0:
        raise ValueError(f"cycle latency must be >= 0, got {seconds}")
    return ConstantCycleLatency(seconds)
