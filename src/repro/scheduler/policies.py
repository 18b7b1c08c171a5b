"""Baseline quantum scheduling policies.

* :class:`FCFSPolicy` — the paper's baseline: jobs are served strictly in
  arrival order and each picks the **highest-fidelity** QPU that fits
  (standard current practice, which is what creates hotspots, §3).
* :class:`BatchedFCFSPolicy` — the same decision rule driven by the
  scheduling trigger: jobs accumulate in the shard's pending queue and
  one cycle assigns the whole batch.  Because it queues (rather than
  dispatching on arrival), it is the cheap batched policy work-stealing
  rebalancers can act on at fleet scale.
* :class:`LeastBusyPolicy` — IBM's ``least_busy`` selector [15].
* :class:`RandomPolicy` — load-oblivious control.

Policies that score take an
:class:`~repro.estimator.source.EstimateSource` and read it only through
:meth:`~repro.estimator.source.EstimateSource.estimate_block`; FCFS
scores a whole batch in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..backends.qpu import QPU
from ..cloud.job import QuantumJob, feasibility_matrix
from ..cloud.tenancy import tier_sort
from ..estimator.source import EstimateSource, require_estimate_source

__all__ = [
    "FCFSPolicy",
    "BatchedFCFSPolicy",
    "BatchDecision",
    "BatchSchedule",
    "LeastBusyPolicy",
    "RandomPolicy",
]

class FCFSPolicy:
    """First-come-first-serve onto the best-fidelity feasible QPU."""

    name = "fcfs"

    def __init__(self, source: EstimateSource, *, shard_id: int = 0) -> None:
        self.source = require_estimate_source(source, "source")
        self.shard_id = shard_id

    def spawn(self, shard_id: int) -> "FCFSPolicy":
        """A per-shard instance sharing this policy's estimate source."""
        return type(self)(self.source, shard_id=shard_id)

    def on_recalibration(self, qpus: list[QPU]) -> None:
        self.source.on_recalibration(qpus)

    def assign(
        self,
        jobs: list[QuantumJob],
        qpus: list[QPU],
        waiting_seconds: dict[str, float],
    ) -> list[tuple[QuantumJob, str | None]]:
        if not jobs:
            return []
        feas = feasibility_matrix(jobs, qpus)
        fid, _ = self.source.estimate_block(jobs, qpus, feas)
        scored = np.where(feas, fid, -np.inf)
        # argmax returns the first maximum, matching the pre-block
        # per-job max() over feasible QPUs in listing order.
        best = scored.argmax(axis=1)
        return [
            (job, qpus[best[i]].name if feas[i].any() else None)
            for i, job in enumerate(jobs)
        ]


@dataclass
class BatchDecision:
    """One job's assignment out of a batched baseline cycle."""

    job: QuantumJob
    qpu_name: str


@dataclass
class BatchSchedule:
    """Output of one :class:`BatchedFCFSPolicy` cycle.

    The structural subset of
    :class:`~repro.scheduler.quantum.QuantumSchedule` the cloud
    simulator's batched path consumes: ``decisions`` + ``unschedulable``.
    """

    decisions: list[BatchDecision]
    unschedulable: list[QuantumJob]


class BatchedFCFSPolicy(FCFSPolicy):
    """Trigger-driven FCFS: queue arrivals, assign the batch per cycle.

    Exposing ``schedule`` (instead of only ``assign``) makes the owning
    :class:`~repro.cloud.fleet.FleetShard` batched: arrivals wait in the
    shard's pending queue until the trigger fires, which is what gives a
    :class:`~repro.cloud.fleet.RebalancePolicy` a window to migrate them.
    The per-job decision rule is exactly FCFS (highest-fidelity feasible
    online QPU, arrival order preserved), so it remains a *baseline* —
    just one that can be driven at fleet scale without NSGA-II cost.

    Tenant-tagged batches are served in **tier order** (premium tiers
    first, degraded best-effort jobs last, arrival order within a tier);
    untenanted batches pass through :func:`~repro.cloud.tenancy.tier_sort`
    unchanged, keeping tenancy-off runs bit-identical.
    """

    name = "fcfs_batched"

    def schedule(
        self,
        jobs: list[QuantumJob],
        qpus: list[QPU],
        waiting_seconds: dict[str, float] | None = None,
    ) -> BatchSchedule:
        jobs = tier_sort(jobs)
        decisions: list[BatchDecision] = []
        unschedulable: list[QuantumJob] = []
        for job, qpu_name in self.assign(jobs, qpus, waiting_seconds or {}):
            if qpu_name is None:
                unschedulable.append(job)
            else:
                decisions.append(BatchDecision(job=job, qpu_name=qpu_name))
        return BatchSchedule(decisions=decisions, unschedulable=unschedulable)


class LeastBusyPolicy:
    """Each job goes to the feasible QPU with the shortest queue."""

    name = "least_busy"

    def __init__(self, source: EstimateSource, *, shard_id: int = 0) -> None:
        self.source = require_estimate_source(source, "source")
        self.shard_id = shard_id

    def spawn(self, shard_id: int) -> "LeastBusyPolicy":
        """A per-shard instance sharing this policy's estimate source."""
        return LeastBusyPolicy(self.source, shard_id=shard_id)

    def on_recalibration(self, qpus: list[QPU]) -> None:
        self.source.on_recalibration(qpus)

    def assign(
        self,
        jobs: list[QuantumJob],
        qpus: list[QPU],
        waiting_seconds: dict[str, float],
    ) -> list[tuple[QuantumJob, str | None]]:
        # Track queue growth within the batch so assignments spread.
        local_wait = dict(waiting_seconds)
        out: list[tuple[QuantumJob, str | None]] = []
        for job in jobs:
            feasible = [q for q in qpus if q.online and q.num_qubits >= job.num_qubits]
            if not feasible:
                out.append((job, None))
                continue
            best = min(feasible, key=lambda q: local_wait.get(q.name, 0.0))
            _, sec = self.source.estimate_block([job], [best])
            local_wait[best.name] = local_wait.get(best.name, 0.0) + float(
                sec[0, 0]
            )
            out.append((job, best.name))
        return out


class RandomPolicy:
    """Uniform random feasible assignment."""

    name = "random"

    def __init__(self, seed: int = 0, *, shard_id: int | None = None) -> None:
        self._seed = seed
        self.shard_id = shard_id or 0
        # Shard 0 (and the unsharded prototype) keeps the plain seeded
        # stream — the fleet contract requires a 1-shard sharded run to
        # be bit-identical to the unsharded simulator.  Every other shard
        # draws from an explicit (seed, shard_id) substream, distinct
        # from shard 0's and from each other's.
        if shard_id is None or shard_id == 0:
            self._rng = np.random.default_rng(seed)
        else:
            self._rng = np.random.default_rng(
                np.random.SeedSequence(entropy=(seed, shard_id))
            )

    def spawn(self, shard_id: int) -> "RandomPolicy":
        """A per-shard instance with a shard-derived RNG stream."""
        return RandomPolicy(seed=self._seed, shard_id=shard_id)

    def assign(
        self,
        jobs: list[QuantumJob],
        qpus: list[QPU],
        waiting_seconds: dict[str, float],
    ) -> list[tuple[QuantumJob, str | None]]:
        out: list[tuple[QuantumJob, str | None]] = []
        for job in jobs:
            feasible = [q for q in qpus if q.online and q.num_qubits >= job.num_qubits]
            if not feasible:
                out.append((job, None))
                continue
            pick = feasible[int(self._rng.integers(len(feasible)))]
            out.append((job, pick.name))
        return out
