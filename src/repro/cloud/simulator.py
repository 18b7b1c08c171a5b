"""The quantum-cloud simulator (§8.2) — sharded, event-driven core.

Drives simulated time over a stream of hybrid applications with a heap
event queue: arrivals, application completions, scheduling-trigger
deadlines, metric samples, and recalibration cycles are discrete events,
so wall-clock cost scales with the number of events rather than with
simulated seconds.

The fleet is organized as one or more :class:`~repro.cloud.fleet.FleetShard`
partitions, each owning a subset of QPUs plus its own scheduler/policy
instance, pending queue, and trigger; a
:class:`~repro.cloud.fleet.ShardBalancer` routes every arriving quantum
job to one shard.  All shards share the single event heap: trigger
deadlines carry their shard index, completions feed fleet-wide running
aggregates, and metric samples merge shard states (with per-shard queue
breakdowns).  A 1-shard simulator is the unsharded configuration and
reproduces it exactly.

Arrivals are *pulled*: :meth:`CloudSimulator.run` accepts either a
pre-built application list or a lazy, time-ordered iterator (see
:meth:`LoadGenerator.iter_arrivals`); only the next pending arrival plus
the in-flight applications are held in memory, so peak memory is
independent of how many jobs the run streams through.

Completion events fold into running sums/counts (not per-completion
lists), so each metric sample costs O(backends) time and the aggregate
state is O(1) memory no matter how many applications finish.  Metrics
sampled over time: mean fidelity, mean end-to-end completion time, mean
QPU utilization, and the pending-queue sizes (Figs. 6, 8, 9).

Two optional subsystems make the fleet *adaptive*:

* **Dynamic availability** — an
  :class:`~repro.cloud.availability.AvailabilityModel` pre-computes
  maintenance windows and random outage/recovery flips; ``AVAILABILITY``
  events toggle ``QPU.online`` mid-run and every routing/scheduling
  layer is online-aware.  In-flight work keeps its committed finish time.
* **Work stealing** — a
  :class:`~repro.cloud.fleet.RebalancePolicy` runs on periodic
  ``REBALANCE`` events, migrating pending jobs from overloaded shards to
  feasible underloaded ones.  Both are off by default, leaving static
  runs bit-identical.

**The pipelined scheduling engine:** a firing TRIGGER batch runs each
due shard's pre-processing on the main thread (prefetching estimates
through the shared cache), submits the pure optimization stage to a
:class:`~repro.cloud.cycle_executor.CycleExecutor` (serial / thread /
process — serial is the default), and pushes a ``CYCLE_FOLD`` heap event
at ``t_trigger + latency_model(batch)``; when that event pops, results
fold back in shard-id order so metrics, RNG draws, heap pushes, and
estimate-cache updates are identical on every backend.  Three knobs:

* ``cycle_latency`` — the modeled scheduler runtime (seconds, or a
  callable over the batch's tasks, e.g.
  :class:`~repro.scheduler.cycle.NsgaCycleLatencyModel`).  The fold
  instant is *simulated* time, never wall-clock, so nonzero-latency runs
  are deterministic by construction and seeded runs reproduce on every
  backend.  At the default ``0`` the fold pops at the trigger instant
  before any other event, bit-identical to the synchronous engine.
  Jobs arriving while a shard's cycle is in flight queue as pending and
  join the next cycle; the shard's trigger pops are deferred until the
  fold re-arms its deadline.
* ``trigger_epsilon`` — TRIGGERs within ε seconds of a batch head
  coalesce into one engine batch (exact same-instant ties always
  coalesce, so ε=0 keeps the legacy behavior), which is what lets
  arrival-driven and bursty fleets form multi-task batches worth
  shipping to the process pool.
* ``pipeline`` — force the async submit/fold path even at zero latency
  (also via the ``CYCLE_PIPELINE`` environment variable), so the event
  loop keeps draining heap events while workers optimize.

Pass ``cycle_executor="process"`` (or set ``CYCLE_EXECUTOR``) to overlap
concurrently-due NSGA-II cycles on a worker pool.
"""

from __future__ import annotations

import heapq
import itertools
import os
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from ..backends.qpu import QPU
from ..scheduler.cycle import make_latency_model, run_optimization
from ..scheduler.triggers import SchedulingTrigger
from .availability import AvailabilityModel
from .backend_sim import SimulatedQPU
from .cycle_executor import CycleExecutor, make_cycle_executor
from .execution import ExecutionModel
from .fleet import (
    FleetShard,
    RebalancePolicy,
    ShardBalancer,
    make_balancer,
    make_rebalancer,
    partition_fleet,
)
from .job import HybridApplication, JobStatus
from .metrics import SimulationMetrics, TimeSeries
from .tenancy import AdmissionController, AdmissionDecision

__all__ = [
    "CloudSimulator",
    "SimulationConfig",
    "EventType",
    "CYCLE_PIPELINE_ENV",
]

#: Environment variable: any truthy value ("1"/"true"/"yes"/"on") makes
#: simulators default to the async submit/fold path even at zero modeled
#: latency — the same engine CI exercises on every push.
CYCLE_PIPELINE_ENV = "CYCLE_PIPELINE"


class EventType(IntEnum):
    """Heap tie-break priorities at equal timestamps.

    Cycle folds come first: a fold scheduled for time t commits decisions
    made strictly earlier, so every other time-t event must see the
    post-fold fleet state — and at the default zero latency this is what
    makes the pipelined engine bit-identical to the old inline cycle,
    which also ran before any other same-instant event could be
    processed.  Completions land before samples so a sample at time t
    sees every application with ``finish_time <= t``; recalibration,
    sampling, arrivals, and trigger deadlines keep the processing order
    of the original time-stepping loop.  Availability flips land right
    after completions so routing at time t sees the fleet state *at* t.
    Rebalancing sees every same-instant arrival but runs *before*
    trigger deadlines: a rebalance tick aligned with a trigger deadline
    migrates the queued backlog first, and the triggers then schedule
    the rebalanced queues (ordered after, an aligned tick would only
    ever see freshly drained queues and steal nothing).
    """

    CYCLE_FOLD = 0
    COMPLETION = 1
    AVAILABILITY = 2
    RECALIBRATION = 3
    SAMPLE = 4
    ARRIVAL = 5
    REBALANCE = 6
    TRIGGER = 7


@dataclass
class SimulationConfig:
    """Knobs of one simulation run."""

    duration_seconds: float = 3600.0
    sample_every_seconds: float = 120.0
    recalibrate_every_seconds: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        # A non-positive sample or recalibration period re-arms its event
        # at the same instant forever, so ``run()`` would never return.
        # ``not x > 0`` also rejects NaN.
        if not self.duration_seconds > 0:
            raise ValueError(
                f"duration_seconds must be > 0, got {self.duration_seconds!r}"
            )
        if not self.sample_every_seconds > 0:
            raise ValueError(
                f"sample_every_seconds must be > 0, got {self.sample_every_seconds!r}"
            )
        if self.recalibrate_every_seconds is not None and not (
            self.recalibrate_every_seconds > 0
        ):
            raise ValueError(
                "recalibrate_every_seconds must be > 0 or None, got "
                f"{self.recalibrate_every_seconds!r}"
            )


@dataclass
class _InFlightBatch:
    """One launched engine batch awaiting its ``CYCLE_FOLD`` event.

    ``items`` holds ``(shard, plan, schedule)`` per due shard in shard-id
    order: split-API policies carry their :class:`CyclePlan` (``schedule``
    is resolved at the fold), non-split policies already computed their
    schedule from the snapshot at submit time.  Exactly one of ``handle``
    (async submit) / ``results`` (synchronous run) is set when the batch
    carried optimization tasks.
    """

    items: list = field(default_factory=list)
    handle: object | None = None
    results: list | None = None
    submit_time: float = 0.0


class CloudSimulator:
    """Batched-trigger (Qonductor) or per-arrival (baseline) cloud sim.

    The plain constructor builds the classic single-shard configuration
    from ``fleet`` + ``policy``; pass ``shards`` (a list of
    :class:`FleetShard`) plus a ``balancer`` for partitioned fleets, or
    use :meth:`sharded` to build both from a fleet and a policy prototype.
    """

    def __init__(
        self,
        fleet: list[QPU] | None = None,
        policy=None,
        execution_model: ExecutionModel | None = None,
        *,
        trigger: SchedulingTrigger | None = None,
        config: SimulationConfig | None = None,
        shards: list[FleetShard] | None = None,
        balancer: str | ShardBalancer = "round_robin",
        rebalance: str | RebalancePolicy | None = None,
        availability: AvailabilityModel | None = None,
        cycle_executor: str | CycleExecutor | None = None,
        admission: AdmissionController | None = None,
        cycle_latency: float | Callable | None = None,
        trigger_epsilon: float = 0.0,
        pipeline: bool | None = None,
    ) -> None:
        self.config = config or SimulationConfig()
        self.execution_model = execution_model or ExecutionModel(
            seed=self.config.seed
        )
        if shards is not None:
            if fleet is not None or policy is not None or trigger is not None:
                raise ValueError(
                    "pass either (fleet, policy[, trigger]) or shards, not both"
                )
            self.shards = list(shards)
        else:
            if fleet is None or policy is None:
                raise ValueError("need a fleet and a policy (or shards)")
            self.shards = [
                FleetShard(
                    0,
                    [SimulatedQPU(q) for q in fleet],
                    policy,
                    trigger or SchedulingTrigger(),
                )
            ]
        self.balancer = make_balancer(balancer)
        # Both adaptive subsystems default to off: static fleets stay
        # bit-identical to the pre-rebalancing simulator.
        self.rebalancer = (
            make_rebalancer(rebalance) if rebalance is not None else None
        )
        self.availability = availability
        # The multi-tenant front door (see repro.cloud.tenancy).  ``None``
        # — the default — bypasses admission entirely, as do untenanted
        # jobs under a controller, so tenancy-off runs stay bit-identical.
        self.admission = admission
        # The backend for concurrently-due scheduling cycles.  ``None``
        # consults the CYCLE_EXECUTOR environment variable and falls back
        # to serial; every backend is bit-identical by contract, so the
        # choice is purely a wall-clock decision.
        self.cycle_executor = make_cycle_executor(cycle_executor)
        self._owns_executor = not isinstance(cycle_executor, CycleExecutor)
        # Pipelined-engine knobs.  ``cycle_latency`` models the
        # scheduler's own runtime in *simulated* seconds (number or
        # callable over the batch's tasks); ``trigger_epsilon`` widens
        # trigger coalescing to a window; ``pipeline`` forces the async
        # submit/fold path even at zero latency (``None`` consults the
        # CYCLE_PIPELINE environment variable).  All default to off and
        # the defaults are bit-identical to the synchronous engine.
        self.latency_model = make_latency_model(cycle_latency)
        if trigger_epsilon < 0:
            raise ValueError(
                f"trigger_epsilon must be >= 0, got {trigger_epsilon}"
            )
        self.trigger_epsilon = float(trigger_epsilon)
        if pipeline is None:
            pipeline = os.environ.get(
                CYCLE_PIPELINE_ENV, ""
            ).strip().lower() in ("1", "true", "yes", "on")
        self.pipeline = bool(pipeline)
        self._rng = np.random.default_rng(self.config.seed)

    @classmethod
    def sharded(
        cls,
        fleet: list[QPU],
        policy,
        *,
        num_shards: int,
        balancer: str | ShardBalancer = "least_loaded",
        execution_model: ExecutionModel | None = None,
        trigger_factory=None,
        config: SimulationConfig | None = None,
        rebalance: str | RebalancePolicy | None = None,
        availability: AvailabilityModel | None = None,
        cycle_executor: str | CycleExecutor | None = None,
        admission: AdmissionController | None = None,
        cycle_latency: float | Callable | None = None,
        trigger_epsilon: float = 0.0,
        pipeline: bool | None = None,
    ) -> "CloudSimulator":
        """Partition ``fleet`` into ``num_shards`` shards.

        ``policy`` is either a prototype exposing ``spawn(shard_id)``
        (every scheduling policy does) or a callable
        ``shard_id -> policy`` building one instance per shard.
        ``trigger_factory`` (``shard_id -> SchedulingTrigger``) defaults
        to a fresh paper-default trigger per shard.  ``rebalance``
        (a strategy name or :class:`RebalancePolicy`) turns on
        work-stealing between the shards; ``availability`` injects
        maintenance windows and outages.  ``cycle_latency`` /
        ``trigger_epsilon`` / ``pipeline`` configure the pipelined
        engine (see the class docstring).
        """
        policy_factory = policy.spawn if hasattr(policy, "spawn") else policy
        shards = [
            FleetShard(
                i,
                [SimulatedQPU(q) for q in group],
                policy_factory(i),
                trigger_factory(i) if trigger_factory else SchedulingTrigger(),
            )
            for i, group in enumerate(partition_fleet(fleet, num_shards))
        ]
        return cls(
            execution_model=execution_model,
            config=config,
            shards=shards,
            balancer=balancer,
            rebalance=rebalance,
            availability=availability,
            cycle_executor=cycle_executor,
            admission=admission,
            cycle_latency=cycle_latency,
            trigger_epsilon=trigger_epsilon,
            pipeline=pipeline,
        )

    # -- single-shard compatibility views ------------------------------
    @property
    def backends(self) -> list[SimulatedQPU]:
        """Every simulated backend, in shard order."""
        return [b for shard in self.shards for b in shard.backends]

    @property
    def policy(self):
        return self.shards[0].policy

    @property
    def trigger(self) -> SchedulingTrigger:
        return self.shards[0].trigger

    @property
    def is_batched(self) -> bool:
        return self.shards[0].is_batched

    # ------------------------------------------------------------------
    def _dispatch(
        self,
        shard: FleetShard,
        job,
        qpu_name: str,
        now: float,
        metrics: SimulationMetrics,
        apps_by_job: dict,
        on_finish,
    ) -> None:
        if self.admission is not None:
            self.admission.track_dequeued(job)
        backend = next(b for b in shard.backends if b.name == qpu_name)
        record = backend.execute(job, now, self.execution_model, self._rng)
        # Dispatch != completion: the job is only *completed* when its
        # COMPLETION event folds inside the horizon (see ``complete``).
        metrics.dispatched_jobs += 1
        app = apps_by_job.pop(job.job_id, None)
        if app is not None:
            app.pre_seconds = record.classical_pre_seconds
            app.post_seconds = record.classical_post_seconds
            # Classical post-processing starts right after the quantum part;
            # classical waiting is ~zero (thousands of workers available).
            app.finish_time = job.finish_time + record.classical_post_seconds
            on_finish(app)

    def _fail(self, job, metrics, apps_by_job) -> None:
        if self.admission is not None:
            self.admission.track_dequeued(job)
        job.status = JobStatus.FAILED
        metrics.unschedulable_jobs += 1
        apps_by_job.pop(job.job_id, None)

    def _record_admission(
        self, job, decision: AdmissionDecision, metrics: SimulationMetrics
    ) -> None:
        bucket = metrics.per_tenant_admission.setdefault(
            job.tenant_id, {"admitted": 0, "degraded": 0, "rejected": 0}
        )
        if decision.action == "reject":
            bucket["rejected"] += 1
            metrics.admission_rejected += 1
        elif decision.action == "degrade":
            bucket["degraded"] += 1
            metrics.admission_degraded += 1
        else:
            bucket["admitted"] += 1

    def _begin_batch(
        self, shards: list[FleetShard], now: float, metrics
    ) -> tuple[_InFlightBatch, float]:
        """Launch one engine batch: snapshot, submit, model the latency.

        ``shards`` must already be in shard-id order.  Each shard's
        pending queue is snapshotted and cleared — jobs arriving while
        the batch is in flight queue for the *next* cycle.  Policies
        exposing the split cycle API (``begin_cycle`` / ``finish_cycle``
        — the Qonductor scheduler) build their plan on the main thread,
        with estimates prefetched through the shared cache; policies
        without it (e.g. batched FCFS) compute their whole schedule from
        the snapshot now, so a later fold commits exactly the decisions
        the trigger-time state implied.  The pure optimization stage
        runs through the executor: synchronously when the batch folds at
        this same instant (zero latency, no forced pipelining — the
        single-task inline shortcut keeps arrival-path cycles free of
        pool overhead), asynchronously via ``submit`` otherwise, letting
        the event loop drain while workers optimize.

        Returns the in-flight batch record and its modeled latency in
        simulated seconds; the caller decides when (or whether, for the
        horizon flush) to push the ``CYCLE_FOLD`` event.
        """
        metrics.cycle_batches += 1
        metrics.max_batch_cycles = max(metrics.max_batch_cycles, len(shards))
        items: list = []
        for shard in shards:
            jobs = shard.pending
            shard.pending = []
            if hasattr(shard.policy, "begin_cycle"):
                plan = shard.policy.begin_cycle(
                    jobs, shard.qpus, shard.waiting_map(now)
                )
                items.append((shard, plan, None))
            else:
                schedule = shard.policy.schedule(
                    jobs, shard.qpus, shard.waiting_map(now)
                )
                items.append((shard, None, schedule))
        latency = max(
            0.0,
            float(
                self.latency_model(
                    [
                        plan.task if plan is not None else None
                        for _, plan, _ in items
                    ]
                )
            ),
        )
        tasks = [
            plan.task
            for _, plan, _ in items
            if plan is not None and plan.task is not None
        ]
        handle = results = None
        if tasks:
            t0 = time.perf_counter()
            if latency > 0.0 or self.pipeline:
                handle = self.cycle_executor.submit(run_optimization, tasks)
            else:
                results = self.cycle_executor.run(run_optimization, tasks)
            metrics.stage_seconds["optimize_wall"] = (
                metrics.stage_seconds.get("optimize_wall", 0.0)
                + time.perf_counter()
                - t0
            )
        batch = _InFlightBatch(
            items=items, handle=handle, results=results, submit_time=now
        )
        for shard in shards:
            shard.in_flight = batch
        return batch, latency

    def _fold_batch(
        self, batch: _InFlightBatch, now: float, metrics, apps_by_job,
        on_finish,
    ) -> None:
        """Fold a launched batch back in, in shard-id order.

        Blocks on the executor handle if workers are still running (the
        blocked wait — not the full stage — lands in ``optimize_wall``,
        so the metric reports what the optimization stage actually cost
        the event loop after overlap).  Dispatch RNG draws, completion
        pushes, metrics, and cache updates all happen here in shard-id
        order, identical whichever backend — or worker — ran each cycle.
        """
        results = batch.results
        if batch.handle is not None:
            t0 = time.perf_counter()
            results = self.cycle_executor.result(batch.handle)
            metrics.stage_seconds["optimize_wall"] = (
                metrics.stage_seconds.get("optimize_wall", 0.0)
                + time.perf_counter()
                - t0
            )
        result_iter = iter(results) if results is not None else None
        for shard, plan, schedule in batch.items:
            if plan is not None:
                result = next(result_iter) if plan.task is not None else None
                schedule = shard.policy.finish_cycle(plan, result)
            self._apply_schedule(
                shard, schedule, now, metrics, apps_by_job, on_finish
            )
        lag = now - batch.submit_time
        if lag > 0.0:
            metrics.pipelined_batches += 1
            metrics.fold_lag_seconds += lag
        for shard, _, _ in batch.items:
            shard.in_flight = None

    def _run_cycles(
        self,
        shards: list[FleetShard],
        now: float,
        metrics,
        apps_by_job,
        on_finish,
    ) -> None:
        """One engine batch, begun and folded at the same instant —
        the horizon-flush path (and the zero-latency semantics every
        pipelined run must reproduce at its fold instants)."""
        if not shards:
            return
        batch, _ = self._begin_batch(shards, now, metrics)
        self._fold_batch(batch, now, metrics, apps_by_job, on_finish)

    def _apply_schedule(
        self, shard: FleetShard, schedule, now: float, metrics, apps_by_job,
        on_finish,
    ) -> None:
        """Fold one cycle's schedule back in: dispatch, fail, retain."""
        metrics.scheduling_cycles += 1
        stage = getattr(schedule, "stage_seconds", None)
        if stage:
            agg = metrics.stage_seconds
            for key, value in stage.items():
                agg[key] = agg.get(key, 0.0) + value
        # Pre-warm ground-truth components with one array pass per target
        # device over the whole dispatched set; the per-job execute() calls
        # below then hit the memo (and keep their RNG draw order).
        by_backend: dict[str, list] = {}
        for dec in schedule.decisions:
            by_backend.setdefault(dec.qpu_name, []).append(dec.job.metrics)
        for b in shard.backends:
            group = by_backend.get(b.name)
            if group:
                self.execution_model.components_batch(
                    group, b.qpu.calibration, b.qpu.model
                )
        for dec in schedule.decisions:
            dec.job.schedule_time = now
            self._dispatch(
                shard, dec.job, dec.qpu_name, now, metrics, apps_by_job,
                on_finish,
            )
        # Fail only jobs no device in the shard could *ever* serve.  A
        # job that fits a currently-offline QPU is a transient casualty
        # of an outage: it stays pending until the device recovers (or a
        # rebalance cycle migrates it to a shard that fits it now).
        retained: list = []
        for job in schedule.unschedulable:
            if any(b.num_qubits >= job.num_qubits for b in shard.backends):
                retained.append(job)
            else:
                self._fail(job, metrics, apps_by_job)
        # Prepend: retained jobs arrived before anything queued while the
        # batch was in flight, so they keep their arrival-order position.
        # (Empty pending at zero latency — plain reassignment back then.)
        shard.pending[:0] = retained

    def _schedule_immediate(
        self, shard: FleetShard, jobs: list, now: float, metrics, apps_by_job,
        on_finish,
    ) -> None:
        assignments = shard.policy.assign(
            jobs, shard.qpus, shard.waiting_map(now)
        )
        # One assign() call is one scheduling cycle, however many jobs it
        # covers — matching the batched path, so baseline-vs-Qonductor
        # cycle counts (Fig. 8/9) compare like for like.
        metrics.scheduling_cycles += 1
        for job, qpu_name in assignments:
            if qpu_name is None:
                self._fail(job, metrics, apps_by_job)
                continue
            job.schedule_time = now
            self._dispatch(
                shard, job, qpu_name, now, metrics, apps_by_job, on_finish
            )

    def _recalibrate(self, now: float) -> None:
        """Fleet-wide calibration cycle across every shard.

        Every shard policy's hook runs with the full fleet, so per-shard
        side effects (e.g. a Qonductor ``on_recalibrate`` callback) are
        never skipped; a cached estimator shared across shards stays
        single-invalidation because its own hook is idempotent per
        calibration wave (see ``CachedEstimator.on_recalibration``).
        """
        all_qpus = [b.qpu for b in self.backends]
        for qpu in all_qpus:
            qpu.recalibrate(timestamp=now)
        self.execution_model.on_recalibration()
        for shard in self.shards:
            hook = getattr(shard.policy, "on_recalibration", None)
            if hook is not None:
                hook(all_qpus)

    def _collect_cache_stats(self, metrics: SimulationMetrics) -> None:
        """Merge estimate-cache counters across the shards' policies."""
        stats_by_id: dict[int, object] = {}
        for shard in self.shards:
            source = getattr(shard.policy, "source", None)
            stats = getattr(source, "stats", None)
            if stats is not None:
                stats_by_id[id(stats)] = stats
        if not stats_by_id:
            return
        unique = list(stats_by_id.values())
        if len(unique) == 1:
            metrics.estimate_cache = unique[0].as_dict()
            return
        hits = sum(s.hits for s in unique)
        misses = sum(s.misses for s in unique)
        lookups = hits + misses
        metrics.estimate_cache = {
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / lookups, 4) if lookups else 0.0,
            "invalidations": sum(s.invalidations for s in unique),
        }

    # ------------------------------------------------------------------
    def run(
        self, apps: list[HybridApplication] | Iterable[HybridApplication]
    ) -> SimulationMetrics:
        """Simulate the full application stream; returns collected metrics.

        ``apps`` may be a list (sorted internally, kept by the caller) or
        any time-ordered iterator of applications — e.g.
        ``LoadGenerator.iter_arrivals`` — which is consumed lazily, one
        arrival ahead of simulated time.
        """
        try:
            return self._run(apps)
        finally:
            if self._owns_executor:
                # The executor was resolved from a name/env spec, so this
                # run is its only user: release the workers even when the
                # event loop raises (a later run() lazily rebuilds them).
                # Caller-supplied instances stay open for reuse — their
                # owner calls close() / uses the simulator as a context
                # manager when done.
                self.cycle_executor.close()

    def close(self) -> None:
        """Release the cycle executor's worker pool (idempotent).

        ``run()`` already closes executors the simulator resolved itself
        from a name or the ``CYCLE_EXECUTOR`` environment variable.
        Call this — or use the simulator as a context manager — when you
        passed an executor *instance* to share across runs and are done
        with it; otherwise a process pool leaks its workers until
        interpreter exit.  A closed pool rebuilds lazily, so a later
        ``run()`` still works.
        """
        self.cycle_executor.close()

    def __enter__(self) -> "CloudSimulator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _run(
        self, apps: list[HybridApplication] | Iterable[HybridApplication]
    ) -> SimulationMetrics:
        cfg = self.config
        wall_start = time.perf_counter()
        metrics = SimulationMetrics()
        metrics.num_shards = len(self.shards)
        if isinstance(apps, list):
            stream: Iterator[HybridApplication] = iter(
                sorted(apps, key=lambda a: a.arrival_time)
            )
        else:
            stream = iter(apps)
        # Only in-flight applications (arrived, not yet dispatched) are
        # held here; entries are dropped on dispatch/rejection so memory
        # stays independent of the stream length.
        apps_by_job: dict[int, HybridApplication] = {}
        horizon = cfg.duration_seconds

        # Running completion aggregates (fed by COMPLETION events): plain
        # sums/counts, so each sample is O(backends) time and the
        # aggregate state is O(1) memory however many jobs complete.
        done_fid_sum = 0.0
        done_fid_count = 0
        done_jct_sum = 0.0
        done_jct_count = 0

        seq = itertools.count()
        heap: list[tuple[float, int, int, object]] = []

        def push(t: float, kind: EventType, payload=None) -> None:
            heapq.heappush(heap, (t, int(kind), next(seq), payload))

        def sample(t: float) -> None:
            if done_jct_count:
                if done_fid_count:
                    metrics.mean_fidelity.add(
                        t, done_fid_sum / done_fid_count
                    )
                metrics.mean_completion_time.add(
                    t, done_jct_sum / done_jct_count
                )
            busy = [
                max(0.0, b.busy_seconds - max(0.0, b.free_at - t))
                for shard in self.shards
                for b in shard.backends
            ]
            metrics.mean_utilization.add(
                t, float(np.mean([min(1.0, bu / max(t, 1e-9)) for bu in busy]))
            )
            metrics.scheduler_queue_size.add(
                t, sum(len(shard.pending) for shard in self.shards)
            )
            if len(self.shards) > 1:
                for shard in self.shards:
                    metrics.shard_queue_size.setdefault(
                        shard.shard_id, TimeSeries()
                    ).add(t, len(shard.pending))

        def complete(app: HybridApplication) -> None:
            nonlocal done_fid_sum, done_fid_count, done_jct_sum, done_jct_count
            if app.quantum_job.fidelity is not None:
                done_fid_sum += app.quantum_job.fidelity
                done_fid_count += 1
            done_jct_sum += app.completion_time
            done_jct_count += 1
            metrics.completed_jobs += 1
            # Per-tenant JCT / SLO accounting (tenant-tagged jobs only,
            # so untenanted runs never touch these dicts).
            job = app.quantum_job
            if job.tenant is not None:
                tid = job.tenant.tenant_id
                metrics.tenant_jct.setdefault(tid, []).append(
                    app.completion_time
                )
                metrics.tenant_tier.setdefault(tid, job.tenant.tier)
                slo = job.tenant.slo_jct_seconds
                if slo is not None and app.completion_time > slo:
                    metrics.slo_violations[tid] = (
                        metrics.slo_violations.get(tid, 0) + 1
                    )

        def on_finish(app: HybridApplication) -> None:
            push(app.finish_time, EventType.COMPLETION, app)

        def launch(firing: list[FleetShard], now: float) -> None:
            """Begin one engine batch over ``firing`` (shard-id order)
            and schedule its fold.  At zero modeled latency the fold
            event pops at this same instant before any other event —
            the inline-cycle semantics; with latency it pops later and
            the loop keeps draining.  The trigger is marked fired at the
            fold, which also re-arms the interval deadline."""
            if not firing:
                return
            batch, latency = self._begin_batch(firing, now, metrics)
            push(now + latency, EventType.CYCLE_FOLD, batch)

        def fire_if_ready(shard: FleetShard, now: float) -> None:
            """Launch a cycle when the shard's trigger condition is met
            (shared by the arrival and rebalance paths; the TRIGGER
            deadline handler has its own flow — it always marks the
            trigger fired, even on an empty queue).  A shard with a
            cycle in flight never fires: its new arrivals queue for the
            next cycle, which the fold's re-armed deadline (or the next
            arrival after the fold) picks up."""
            if shard.in_flight is not None:
                return
            if not shard.trigger.should_fire(len(shard.pending), now):
                return
            if self.trigger_epsilon > 0.0:
                # ε-window hold: fire ε later so other shards becoming
                # eligible inside the window merge into one batch (the
                # hold flag dedupes — one pending hold per shard).
                if shard.trigger.arm_hold():
                    push(
                        now + self.trigger_epsilon,
                        EventType.TRIGGER,
                        (shard.shard_id, "hold"),
                    )
                return
            launch([shard], now)

        first = next(stream, None)
        if first is not None:
            push(first.arrival_time, EventType.ARRIVAL, first)
        if cfg.sample_every_seconds < horizon:
            push(cfg.sample_every_seconds, EventType.SAMPLE, None)
        if cfg.recalibrate_every_seconds:
            push(cfg.recalibrate_every_seconds, EventType.RECALIBRATION, None)
        for shard in self.shards:
            if shard.is_batched:
                push(
                    shard.trigger.next_deadline(0.0),
                    EventType.TRIGGER,
                    shard.shard_id,
                )
        qpu_by_name: dict[str, QPU] = {
            b.name: b.qpu for shard in self.shards for b in shard.backends
        }
        offline_since: dict[str, float] = {}
        if self.availability is not None:
            for ev in self.availability.schedule(list(qpu_by_name), horizon):
                if ev.time < horizon:
                    push(ev.time, EventType.AVAILABILITY, ev)
        if (
            self.rebalancer is not None
            and len(self.shards) > 1
            and self.rebalancer.interval_seconds < horizon
        ):
            push(self.rebalancer.interval_seconds, EventType.REBALANCE)

        # Dedupe proactive outage-rebalance pushes: several QPUs flipping
        # offline at one instant warrant one immediate check, not one per
        # flip.
        outage_rebalance_at: float | None = None

        while heap and heap[0][0] < horizon:
            now, kind, _, payload = heapq.heappop(heap)
            metrics.events_processed += 1

            if kind == EventType.CYCLE_FOLD:
                # A launched batch's decisions commit now; the trigger
                # fires *at the fold* — the shard spent the in-flight
                # window unable to start another cycle, so its interval
                # cadence restarts here.
                self._fold_batch(
                    payload, now, metrics, apps_by_job, on_finish
                )
                for shard, _, _ in payload.items:
                    shard.trigger.fired(now)
                    push(
                        shard.trigger.next_deadline(now),
                        EventType.TRIGGER,
                        shard.shard_id,
                    )

            elif kind == EventType.COMPLETION:
                complete(payload)

            elif kind == EventType.AVAILABILITY:
                qpu = qpu_by_name[payload.qpu_name]
                if payload.online and not qpu.online:
                    metrics.recovery_events += 1
                    went_down = offline_since.pop(payload.qpu_name, now)
                    metrics.qpu_downtime_seconds[payload.qpu_name] = (
                        metrics.qpu_downtime_seconds.get(payload.qpu_name, 0.0)
                        + (now - went_down)
                    )
                elif not payload.online and qpu.online:
                    metrics.outage_events += 1
                    offline_since[payload.qpu_name] = now
                    # Proactive stealing (opt-in): an outage strands the
                    # affected shard's backlog, so schedule an immediate
                    # rebalance check at this instant instead of waiting
                    # for the periodic tick.  REBALANCE sorts after the
                    # remaining same-instant AVAILABILITY flips (the
                    # check sees the full post-outage state) and before
                    # same-instant TRIGGERs, exactly like a periodic
                    # tick would — deterministic ordering preserved.
                    if (
                        self.rebalancer is not None
                        and self.rebalancer.react_to_outages
                        and len(self.shards) > 1
                        and outage_rebalance_at != now
                    ):
                        outage_rebalance_at = now
                        push(now, EventType.REBALANCE, "outage")
                qpu.online = payload.online

            elif kind == EventType.REBALANCE:
                moves = self.rebalancer.rebalance(self.shards, now)
                metrics.rebalance_cycles += 1
                metrics.jobs_migrated += len(moves)
                # A shard that just received work may be past its trigger
                # condition; fire it now instead of waiting for the next
                # deadline (mirrors the arrival path).
                receivers = sorted(
                    {m.dst for m in moves}, key=lambda s: s.shard_id
                )
                for shard in receivers:
                    if shard.is_batched:
                        fire_if_ready(shard, now)
                # Only the periodic chain re-arms itself; a proactive
                # outage check (payload "outage") is a one-shot.
                if payload is None:
                    push(
                        now + self.rebalancer.interval_seconds,
                        EventType.REBALANCE,
                    )

            elif kind == EventType.RECALIBRATION:
                self._recalibrate(now)
                push(now + cfg.recalibrate_every_seconds, EventType.RECALIBRATION)

            elif kind == EventType.SAMPLE:
                sample(now)
                push(now + cfg.sample_every_seconds, EventType.SAMPLE)

            elif kind == EventType.ARRIVAL:
                app = payload
                nxt = next(stream, None)
                if nxt is not None:
                    push(nxt.arrival_time, EventType.ARRIVAL, nxt)
                job = app.quantum_job
                # The multi-tenant front door: tenant-tagged arrivals are
                # checked against their contract *before* routing.  A
                # rejection sheds the job at the API edge (it is never
                # queued, dispatched, or counted in-flight); a degrade
                # admits it as best-effort.
                if self.admission is not None and job.tenant is not None:
                    decision = self.admission.admit(job, now)
                    self._record_admission(job, decision, metrics)
                    if not decision.admitted:
                        job.status = JobStatus.REJECTED
                        continue
                    if decision.action == "degrade":
                        job.best_effort = True
                job.status = JobStatus.QUEUED
                apps_by_job[job.job_id] = app
                metrics.peak_inflight_apps = max(
                    metrics.peak_inflight_apps, len(apps_by_job)
                )
                shard = self.balancer.route(job, self.shards, now)
                shard.jobs_routed += 1
                if shard.is_batched:
                    shard.pending.append(job)
                    if self.admission is not None:
                        self.admission.track_queued(job)
                    fire_if_ready(shard, now)
                else:
                    self._schedule_immediate(
                        shard, [job], now, metrics, apps_by_job, on_finish
                    )

            elif kind == EventType.TRIGGER:
                # Coalesce TRIGGERs into one engine batch: every entry
                # landing at this same simulated instant always merges
                # (the ε=0 contract), and with ``trigger_epsilon > 0``
                # entries up to ε later join too, firing early alongside
                # the batch head.  TRIGGER is the highest-priority-value
                # event kind, so every other same-time event has already
                # been folded in; the batch executes in shard-id order
                # (one canonical order for every executor backend),
                # which is what keeps parallel runs bit-identical to
                # serial ones.  Payloads are either a shard id (an
                # interval deadline) or ``(shard_id, "hold")`` (an
                # ε-window hold armed on the arrival path).
                #
                # due_info: shard_id -> [shard, fire_time, via_deadline].
                # ``fire_time`` is the entry's own instant (deadline
                # freshness and should_fire are judged there — a merged
                # deadline *would* have fired at its own time, even if
                # its interval has not elapsed by ``now``);
                # ``via_deadline`` marks shards whose interval cadence
                # this batch owns (a non-firing deadline re-arms, a
                # non-firing hold is simply dropped).
                due_info: dict[int, list] = {}

                def consider(payload, t_event: float, from_window: bool) -> bool:
                    """Fold one TRIGGER entry in.  True = consumed;
                    False = leave it in the heap for its own instant
                    (window-pulled entries only)."""
                    if isinstance(payload, tuple):
                        shard_id, is_hold = payload[0], True
                    else:
                        shard_id, is_hold = payload, False
                    shard = self.shards[shard_id]
                    if is_hold:
                        if not shard.trigger.disarm_hold():
                            return True  # stale: superseded meanwhile
                        if shard.in_flight is not None:
                            return True  # deferred; arrivals re-arm later
                        if shard_id not in due_info:
                            due_info[shard_id] = [shard, t_event, False]
                        return True
                    if t_event < shard.trigger.next_deadline(t_event):
                        return True  # stale deadline: fired meanwhile
                    if shard.in_flight is not None:
                        # Deferred: the fold re-arms the deadline.  A
                        # window-pulled entry stays queued and goes
                        # stale at its own instant.
                        return not from_window
                    info = due_info.get(shard_id)
                    if info is not None:
                        info[2] = True  # the deadline owns the cadence
                        return True
                    if from_window and not shard.trigger.should_fire(
                        len(shard.pending), t_event
                    ):
                        # Would not fire: merging it would only reset an
                        # idle shard's cadence early.  Leave it queued.
                        return False
                    due_info[shard_id] = [shard, t_event, True]
                    return True

                consider(payload, now, False)
                # Exact same-instant ties always coalesce (ε=0 contract).
                while (
                    heap
                    and heap[0][0] == now
                    and heap[0][1] == int(EventType.TRIGGER)
                ):
                    _, _, _, late = heapq.heappop(heap)
                    metrics.events_processed += 1
                    consider(late, now, False)
                if self.trigger_epsilon > 0.0 and due_info:
                    # ε-window: pull queued TRIGGERs within ε of the
                    # batch head forward into this batch.  Entries that
                    # decline (stale at their own instant / in flight /
                    # would not fire) are left in place.  Processing in
                    # (time, push-seq) order — heap pop order — keeps
                    # the merge deterministic.
                    window = now + self.trigger_epsilon
                    kept, pulled = [], []
                    for entry in heap:
                        if (
                            entry[1] == int(EventType.TRIGGER)
                            and entry[0] <= window
                        ):
                            pulled.append(entry)
                        else:
                            kept.append(entry)
                    if pulled:
                        pulled.sort()
                        for entry in pulled:
                            if consider(entry[3], entry[0], True):
                                metrics.events_processed += 1
                                if entry[0] > now:
                                    metrics.epsilon_merged_triggers += 1
                            else:
                                kept.append(entry)
                        heap[:] = kept
                        heapq.heapify(heap)
                due = sorted(
                    due_info.values(), key=lambda info: info[0].shard_id
                )
                firing = [
                    shard
                    for shard, fire_time, _ in due
                    if shard.trigger.should_fire(
                        len(shard.pending), fire_time
                    )
                ]
                launch(firing, now)
                firing_ids = {s.shard_id for s in firing}
                for shard, _, via_deadline in due:
                    if shard.shard_id in firing_ids:
                        continue  # fired+re-arm happen at the fold
                    if via_deadline:
                        shard.trigger.fired(now)
                        push(
                            shard.trigger.next_deadline(now),
                            EventType.TRIGGER,
                            shard.shard_id,
                        )

        # Final flush and bookkeeping.  First fold any batches still in
        # flight: their decisions were fixed at launch, the horizon just
        # truncates the modeled latency, so they commit at the horizon in
        # launch order — job conservation holds with cycles in flight.
        in_flight_folds = sorted(
            (e for e in heap if e[1] == int(EventType.CYCLE_FOLD)),
            key=lambda e: (e[0], e[2]),
        )
        if in_flight_folds:
            heap[:] = [
                e for e in heap if e[1] != int(EventType.CYCLE_FOLD)
            ]
            heapq.heapify(heap)
            for _, _, _, batch in in_flight_folds:
                metrics.events_processed += 1
                self._fold_batch(
                    batch, horizon, metrics, apps_by_job, on_finish
                )
        # Then schedule leftovers at the horizon (one engine batch over
        # every backlogged shard, like an aligned deadline), fold in
        # completions that land inside it, and take the last sample.
        self._run_cycles(
            [s for s in self.shards if s.is_batched and s.pending],
            horizon, metrics, apps_by_job, on_finish,
        )
        while heap:
            t, kind, _, payload = heapq.heappop(heap)
            if kind == EventType.COMPLETION and t <= horizon:
                metrics.events_processed += 1
                complete(payload)
        sample(horizon)
        # Devices still down at the horizon accrue downtime to the end.
        for name, went_down in offline_since.items():
            metrics.qpu_downtime_seconds[name] = (
                metrics.qpu_downtime_seconds.get(name, 0.0)
                + (horizon - went_down)
            )
        # Jobs still pending (held through an outage outliving the run)
        # are reported rather than silently dropped from the counters.
        metrics.pending_at_horizon = sum(
            len(shard.pending) for shard in self.shards
        )
        for shard in self.shards:
            metrics.per_shard_jobs[shard.shard_id] = shard.jobs_routed
            if self.rebalancer is not None:
                metrics.per_shard_steals[shard.shard_id] = {
                    "in": shard.jobs_stolen_in,
                    "out": shard.jobs_stolen_out,
                }
            for b in shard.backends:
                metrics.per_qpu_busy_seconds[b.name] = b.busy_seconds
                metrics.per_qpu_jobs[b.name] = b.jobs_executed
        self._collect_cache_stats(metrics)
        metrics.wall_seconds = time.perf_counter() - wall_start
        return metrics
