"""Outside-in tracing: spans around calls into each layer's public functions.

The program carries no tracing of its own, so the benchmark records spans
from outside: for the traced run only, a :class:`Tracer` swaps each probed
function for a timing wrapper and puts the original back afterwards.  The
probes patch the names the callers actually look up — the simulator,
NSGA-II and the estimate cache bind some callees at import time
(``repro.cloud.simulator.run_optimization``, the operators and sorting
kernels in ``repro.moo.nsga2``, the feature functions in
``repro.estimator.cache``, ``repro.scheduler.quantum.select_by_preference``),
so patching the defining module would record nothing.

A span's *self time* is its duration minus the time its child spans took.
Every probed call inside ``CloudSimulator.run`` nests under the run span,
so the layers' self times add up to the run span's duration.  Spans are
aggregated in memory (per-span durations, per-layer self time, counters);
nothing is written out.
"""

from __future__ import annotations

import time
from collections import defaultdict
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import wraps
from types import ModuleType

#: observe(tracer, args, result, duration_s, parent_span) -> None
Observer = Callable[["Tracer", tuple, object, float, "str | None"], None]


@dataclass(frozen=True)
class Probe:
    """One patched name: ``owner.attr`` is timed as span ``span`` of ``layer``."""

    owner: type | ModuleType
    attr: str
    span: str
    layer: str
    observe: Observer | None = None


class Tracer:
    """Installs probes on enter, restores the originals on exit."""

    def __init__(self, probes: Sequence[Probe]) -> None:
        self.probes = list(probes)
        #: span name -> duration of every call, seconds
        self.durations: dict[str, list[float]] = defaultdict(list)
        #: layer -> seconds spent in its spans minus their child spans
        self.self_seconds: dict[str, float] = defaultdict(float)
        #: free-form counters filled by the probes' observers
        self.counts: dict[str, float] = defaultdict(float)
        #: observers' working state (e.g. pairing a cycle's three stages)
        self.state: dict[str, dict] = defaultdict(dict)
        self._names: list[str] = []
        self._child_seconds: list[float] = []
        self._saved: list[tuple[type | ModuleType, str, object]] = []

    def _timed(self, fn: Callable, probe: Probe) -> Callable:
        names, child_seconds = self._names, self._child_seconds
        durations = self.durations[probe.span]
        self_seconds = self.self_seconds
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            parent = names[-1] if names else None
            names.append(probe.span)
            child_seconds.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                names.pop()
                self_seconds[probe.layer] += duration - child_seconds.pop()
                if child_seconds:
                    child_seconds[-1] += duration
                durations.append(duration)
            if probe.observe is not None:
                probe.observe(self, args, result, duration, parent)
            return result

        return wrapper

    def __enter__(self) -> Tracer:
        try:
            for probe in self.probes:
                # Look the name up where it is defined on ``owner`` itself,
                # so a renamed or moved callee fails loudly here instead of
                # silently tracing nothing.
                original = vars(probe.owner)[probe.attr]
                if isinstance(original, classmethod):
                    patched: object = classmethod(
                        self._timed(original.__func__, probe)
                    )
                else:
                    patched = self._timed(original, probe)
                self._saved.append((probe.owner, probe.attr, original))
                setattr(probe.owner, probe.attr, patched)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Observers: counters recorded at the same boundaries as the spans.


def _count_rows(tracer: Tracer, args, result, duration, parent) -> None:
    tracer.counts["estimator.block_rows"] += len(args[1])


def _count_moves(tracer: Tracer, args, result, duration, parent) -> None:
    tracer.counts["fleet.jobs_migrated"] += len(result)


def _count_admission(tracer: Tracer, args, result, duration, parent) -> None:
    if result.action == "reject":
        tracer.counts["tenancy.rejected"] += 1
    elif result.action == "degrade":
        tracer.counts["tenancy.degraded"] += 1


def _cycle_done(tracer: Tracer, seconds: float, jobs: int) -> None:
    tracer.durations["scheduler.cycle"].append(seconds)
    tracer.counts["scheduler.cycle_jobs"] += jobs


def _assign(tracer: Tracer, args, result, duration, parent) -> None:
    # Batched FCFS assigns inside its own cycle; only a per-arrival
    # assign is a cycle of its own.
    if parent != "scheduler.batch":
        _cycle_done(tracer, duration, len(args[1]))


def _batch(tracer: Tracer, args, result, duration, parent) -> None:
    _cycle_done(tracer, duration, len(args[1]))


# A Qonductor cycle is begin_cycle + run_optimization + finish_cycle for
# one shard; the three calls are paired through the plan and its task.
def _begin_cycle(tracer: Tracer, args, result, duration, parent) -> None:
    cycles = tracer.state["cycles"]
    cycles[id(result)] = [duration, len(args[1])]
    if result.task is not None:
        tracer.state["task_plan"][id(result.task)] = id(result)


def _optimize(tracer: Tracer, args, result, duration, parent) -> None:
    plan_id = tracer.state["task_plan"].pop(id(args[0]))
    tracer.state["cycles"][plan_id][0] += duration
    tracer.counts["moo.generations"] += result.generations


def _finish_cycle(tracer: Tracer, args, result, duration, parent) -> None:
    seconds, jobs = tracer.state["cycles"].pop(id(args[1]))
    _cycle_done(tracer, seconds + duration, jobs)


def _count_circuits(tracer: Tracer, args, result, duration, parent) -> None:
    # Training builds circuits too; only those of the arrival stream count.
    if parent == "loadgen.generate":
        tracer.counts["loadgen.circuits_built"] += 1


# ---------------------------------------------------------------------------
# The probe sets.


def setup_probes() -> list[Probe]:
    """Spans around the set-up layers: estimator training, arrival build."""
    from repro.cloud.job import QuantumJob
    from repro.cloud.loadgen import LoadGenerator
    from repro.estimator.estimator import ResourceEstimator

    return [
        Probe(ResourceEstimator, "train_for_fleet", "estimator.train", "estimator"),
        Probe(LoadGenerator, "generate", "loadgen.generate", "loadgen"),
        Probe(QuantumJob, "from_circuit", "loadgen.from_circuit", "loadgen",
              _count_circuits),
    ]


def run_probes() -> list[Probe]:
    """Spans around every layer ``CloudSimulator.run`` calls into."""
    import repro.cloud.simulator as simulator_mod
    import repro.estimator.cache as cache_mod
    import repro.moo.nsga2 as nsga2_mod
    import repro.scheduler.quantum as quantum_mod
    from repro.backends.qpu import QPU
    from repro.cloud.backend_sim import SimulatedQPU
    from repro.cloud.execution import ExecutionModel
    from repro.cloud.fleet import (
        ShardBalancer,
        StealHalfRebalancePolicy,
        ThresholdRebalancePolicy,
    )
    from repro.cloud.simulator import CloudSimulator
    from repro.cloud.tenancy import AdmissionController
    from repro.estimator.cache import CachedEstimator
    from repro.estimator.models import TrainedEstimators
    from repro.scheduler.formulation import SchedulingProblem
    from repro.scheduler.policies import BatchedFCFSPolicy, FCFSPolicy
    from repro.scheduler.quantum import QonductorScheduler

    return [
        Probe(CloudSimulator, "run", "sim.run", "simulator"),
        Probe(QPU, "recalibrate", "sim.recalibrate", "simulator"),
        Probe(AdmissionController, "admit", "tenancy.admit", "tenancy",
              _count_admission),
        Probe(ShardBalancer, "route", "fleet.route", "fleet"),
        Probe(ThresholdRebalancePolicy, "rebalance", "fleet.rebalance", "fleet",
              _count_moves),
        Probe(StealHalfRebalancePolicy, "rebalance", "fleet.rebalance", "fleet",
              _count_moves),
        Probe(FCFSPolicy, "assign", "scheduler.assign", "scheduler", _assign),
        Probe(BatchedFCFSPolicy, "schedule", "scheduler.batch", "scheduler",
              _batch),
        Probe(QonductorScheduler, "begin_cycle", "scheduler.preprocess",
              "scheduler", _begin_cycle),
        Probe(simulator_mod, "run_optimization", "scheduler.optimize",
              "scheduler", _optimize),
        Probe(QonductorScheduler, "finish_cycle", "scheduler.select",
              "scheduler", _finish_cycle),
        Probe(SchedulingProblem, "evaluate", "moo.evaluate", "moo"),
        Probe(SchedulingProblem, "repair", "moo.repair", "moo"),
        Probe(nsga2_mod, "tournament_selection", "moo.variation", "moo"),
        Probe(nsga2_mod, "exponential_crossover", "moo.variation", "moo"),
        Probe(nsga2_mod, "polynomial_mutation", "moo.variation", "moo"),
        Probe(nsga2_mod, "front_ranks", "moo.rank_crowd", "moo"),
        Probe(nsga2_mod, "crowding_by_rank", "moo.rank_crowd", "moo"),
        Probe(nsga2_mod, "crowding_distance", "moo.rank_crowd", "moo"),
        Probe(quantum_mod, "select_by_preference", "moo.select", "moo"),
        Probe(CachedEstimator, "estimate_block", "estimator.block", "estimator",
              _count_rows),
        Probe(TrainedEstimators, "estimate_fidelity_batch", "estimator.model",
              "estimator"),
        Probe(TrainedEstimators, "estimate_runtime_batch", "estimator.model",
              "estimator"),
        Probe(cache_mod, "job_fidelity_features", "estimator.features",
              "estimator"),
        Probe(cache_mod, "job_runtime_features", "estimator.features",
              "estimator"),
        Probe(SimulatedQPU, "execute", "execution.dispatch", "execution"),
        Probe(ExecutionModel, "components_batch", "execution.components",
              "execution"),
    ]
