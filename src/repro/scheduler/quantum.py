"""The Qonductor quantum scheduler (§7, Fig. 5).

Three configurable stages:

1. **Job pre-processing** — filter jobs/QPUs, fetch fidelity and runtime
   estimates (from the resource estimator via the system monitor).
2. **Optimization** — NSGA-II over the Eq. 1 problem, producing a Pareto
   front of batch assignments.
3. **Selection** — MCDM pseudo-weights pick one solution matching the
   operator's preference (fidelity / balanced / JCT).

Stage runtimes are measured individually (Fig. 9c).

The stages are exposed both fused (:meth:`QonductorScheduler.schedule`,
one call per cycle) and split (:meth:`begin_cycle` -> the pure
:func:`~repro.scheduler.cycle.run_optimization` -> :meth:`finish_cycle`)
so the cloud simulator's parallel engine can run pre-processing and
selection on the main thread — where the shared estimate cache lives —
while the dominant optimization stage runs on a worker pool.  Cycle
randomness derives from ``(seed, shard_id, cycle_index)`` (see
:func:`~repro.scheduler.cycle.cycle_seed`), so results never depend on
execution order.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ..backends.qpu import QPU
from ..cloud.job import QuantumJob, feasibility_matrix
from ..cloud.tenancy import tier_preference, tier_sort
from ..estimator.source import EstimateSource, require_estimate_source
from ..moo import select_by_preference
from .cycle import OptimizationResult, OptimizationTask, run_optimization
from .formulation import SchedulingInput, assignment_stats

__all__ = [
    "ScheduleDecision",
    "QuantumSchedule",
    "CyclePlan",
    "QonductorScheduler",
]

@dataclass
class ScheduleDecision:
    """One job's assignment."""

    job: QuantumJob
    qpu_name: str
    est_fidelity: float
    est_exec_seconds: float


@dataclass
class QuantumSchedule:
    """Output of one scheduling cycle."""

    decisions: list[ScheduleDecision]
    unschedulable: list[QuantumJob]
    front_F: np.ndarray  # Pareto front objective matrix (JCT, error)
    chosen_index: int
    stats: dict
    stage_seconds: dict = field(default_factory=dict)
    #: Mean per-job execution seconds of every front solution (Fig. 10a).
    front_exec_seconds: np.ndarray = field(
        default_factory=lambda: np.zeros(0)
    )

    @property
    def front_min_jct(self) -> float:
        return float(self.front_F[:, 0].min()) if len(self.front_F) else 0.0

    @property
    def front_max_jct(self) -> float:
        return float(self.front_F[:, 0].max()) if len(self.front_F) else 0.0

    @property
    def front_min_fidelity(self) -> float:
        return float(1.0 - self.front_F[:, 1].max()) if len(self.front_F) else 0.0

    @property
    def front_max_fidelity(self) -> float:
        return float(1.0 - self.front_F[:, 1].min()) if len(self.front_F) else 0.0


@dataclass
class CyclePlan:
    """Stage-1 output carried between :meth:`QonductorScheduler.begin_cycle`
    and :meth:`~QonductorScheduler.finish_cycle`.

    Holds the main-thread state of one in-flight cycle: the filtered job
    lists, the picklable :class:`OptimizationTask` snapshot (``None`` when
    nothing is schedulable and the cycle short-circuits), and the
    pre-processing stage time.
    """

    task: OptimizationTask | None
    schedulable: list[QuantumJob]
    rejected: list[QuantumJob]
    online: list[QPU]
    preprocess_seconds: float


class QonductorScheduler:
    """Many-to-many hybrid scheduler balancing fidelity vs JCT."""

    def __init__(
        self,
        source: EstimateSource,
        *,
        preference: str | tuple[float, float] = "balanced",
        pop_size: int = 64,
        max_generations: int = 40,
        seed: int = 0,
        shard_id: int = 0,
        on_recalibrate: Callable[[list[QPU]], None] | None = None,
        tier_preferences: dict | None = None,
    ) -> None:
        self.source = require_estimate_source(source, "source")
        self.preference = preference
        #: Optional tier -> MCDM preference mapping for tenant-weighted
        #: selection (see :func:`~repro.cloud.tenancy.tier_preference`):
        #: when a batch carries tenants, the most-premium tier present
        #: overrides ``preference`` for that cycle.  ``None`` (default)
        #: always uses the operator preference.
        self.tier_preferences = tier_preferences
        self.pop_size = pop_size
        self.max_generations = max_generations
        self._seed = seed
        self.shard_id = shard_id
        self._cycle = 0
        self._on_recalibrate = on_recalibrate

    def spawn(self, shard_id: int) -> "QonductorScheduler":
        """A per-shard scheduler over this one's configuration.

        Shares the estimate source (one fleet-wide cache) and keeps the
        base seed, tagging the instance with ``shard_id`` instead: cycle
        randomness derives from ``(seed, shard_id, cycle_index)``, so
        shard 0 of a 1-shard fleet is seeded exactly like the unsharded
        scheduler, shards never collide on a stream, and results are
        independent of which worker runs which cycle first.
        """
        return QonductorScheduler(
            self.source,
            preference=self.preference,
            pop_size=self.pop_size,
            max_generations=self.max_generations,
            seed=self._seed,
            shard_id=shard_id,
            on_recalibrate=self._on_recalibrate,
            tier_preferences=self.tier_preferences,
        )

    def on_recalibration(self, qpus: list[QPU]) -> None:
        """Calibration-cycle hook (called by the cloud simulator).

        Forwards to the estimate source (a cache drops the memoized
        estimates of the dead calibration epoch) and to the optional
        ``on_recalibrate`` callback.
        """
        self.source.on_recalibration(qpus)
        if self._on_recalibrate is not None:
            self._on_recalibrate(qpus)

    # ------------------------------------------------------------------
    def preprocess(
        self, jobs: list[QuantumJob], qpus: list[QPU], waiting_seconds: dict[str, float]
    ) -> tuple[SchedulingInput | None, list[QuantumJob], list[QuantumJob]]:
        """Stage 1: filter and build estimate matrices.

        The whole pending set is scored through one
        :meth:`~repro.estimator.source.EstimateSource.estimate_block`
        call — batch-capable sources (:class:`~repro.estimator.cache.CachedEstimator`,
        :class:`~repro.cloud.proxy.AnalyticEstimateSource`) vectorize it.

        Returns (input | None, schedulable_jobs, filtered_out_jobs).
        """
        online = [q for q in qpus if q.online]
        max_width = max((q.num_qubits for q in online), default=0)
        schedulable = [j for j in jobs if j.num_qubits <= max_width]
        rejected = [j for j in jobs if j.num_qubits > max_width]
        if not schedulable or not online:
            return None, schedulable, rejected
        feas = feasibility_matrix(schedulable, online)
        fid, sec = self.source.estimate_block(schedulable, online, feas)
        wait = np.array([waiting_seconds.get(q.name, 0.0) for q in online])
        data = SchedulingInput(
            fidelity=fid, exec_seconds=sec, waiting_seconds=wait, feasible=feas
        )
        return data, schedulable, rejected

    def begin_cycle(
        self,
        jobs: list[QuantumJob],
        qpus: list[QPU],
        waiting_seconds: dict[str, float] | None = None,
    ) -> CyclePlan:
        """Stage 1, main-thread half of a cycle: snapshot the inputs.

        Runs pre-processing (which reads and warms the shared estimate
        cache — the only stateful part of a cycle) and packages the
        result as a picklable :class:`OptimizationTask`.  The cycle
        counter advances here, so the task's seed entropy is fixed before
        any worker runs.
        """
        self._cycle += 1
        waiting_seconds = waiting_seconds or {}
        # Tier-weighted batches: premium tiers first, best-effort last
        # (stable within a tier).  Untenanted batches come back as the
        # *same list object*, so tenancy-off cycles are bit-identical.
        jobs = tier_sort(jobs)
        online = [q for q in qpus if q.online]
        t0 = time.perf_counter()
        data, schedulable, rejected = self.preprocess(jobs, qpus, waiting_seconds)
        t_pre = time.perf_counter() - t0
        task = None
        if data is not None:
            task = OptimizationTask(
                data=data,
                pop_size=self.pop_size,
                max_generations=self.max_generations,
                base_seed=self._seed,
                shard_id=self.shard_id,
                cycle_index=self._cycle,
            )
        return CyclePlan(
            task=task,
            schedulable=schedulable,
            rejected=rejected,
            online=online,
            preprocess_seconds=t_pre,
        )

    def finish_cycle(
        self, plan: CyclePlan, result: OptimizationResult | None
    ) -> QuantumSchedule:
        """Stage 3, main-thread half: select one solution and build the
        schedule from a completed optimization run.

        ``result`` is ``None`` exactly when ``plan.task`` was ``None``
        (nothing schedulable); the cycle then returns an empty schedule.
        """
        if plan.task is None or result is None:
            return QuantumSchedule(
                decisions=[],
                unschedulable=plan.rejected,
                front_F=np.zeros((0, 2)),
                chosen_index=-1,
                stats={},
                stage_seconds={
                    "preprocess": plan.preprocess_seconds,
                    "optimize": 0.0,
                    "select": 0.0,
                },
            )
        data = plan.task.data
        online = plan.online
        t0 = time.perf_counter()
        # The most-premium tier waiting in this batch may override the
        # operator preference (None — the default, and every untenanted
        # batch — keeps it).
        override = tier_preference(plan.schedulable, self.tier_preferences)
        chosen = select_by_preference(
            result.F, override if override is not None else self.preference
        )
        assignment = result.X[chosen]
        t_sel = time.perf_counter() - t0

        rows = np.arange(data.num_jobs)
        # Mean per-job execution time of every front solution, in one
        # fancy-indexing pass over (front, jobs).
        front_exec = (
            data.exec_seconds[rows[None, :], np.atleast_2d(result.X)].mean(axis=1)
            if len(result.X)
            else np.zeros(0)
        )

        decisions = [
            ScheduleDecision(
                job=job,
                qpu_name=online[assignment[i]].name,
                est_fidelity=float(data.fidelity[i, assignment[i]]),
                est_exec_seconds=float(data.exec_seconds[i, assignment[i]]),
            )
            for i, job in enumerate(plan.schedulable)
        ]
        return QuantumSchedule(
            decisions=decisions,
            unschedulable=plan.rejected,
            front_F=result.F,
            chosen_index=chosen,
            stats=assignment_stats(data, assignment),
            stage_seconds={
                "preprocess": plan.preprocess_seconds,
                "optimize": result.optimize_seconds,
                "select": t_sel,
            },
            front_exec_seconds=front_exec,
        )

    def schedule(
        self,
        jobs: list[QuantumJob],
        qpus: list[QPU],
        waiting_seconds: dict[str, float] | None = None,
    ) -> QuantumSchedule:
        """Run one full scheduling cycle over ``jobs`` (fused stages)."""
        plan = self.begin_cycle(jobs, qpus, waiting_seconds)
        result = run_optimization(plan.task) if plan.task is not None else None
        return self.finish_cycle(plan, result)
