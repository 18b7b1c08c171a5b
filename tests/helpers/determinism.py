"""The shared bit-identity / determinism harness.

Every suite that asserts "same seeds -> same run" — the fleet layer, the
parallel engine, the tenancy front door, and the invariants suite — goes
through these helpers, so the definition of *identical* lives in exactly
one place:

* :func:`assert_series_identical` — the per-field comparison over the
  sampled metric series plus the event/dispatch counters, for tests that
  predate :meth:`SimulationMetrics.deterministic_state`.
* :func:`assert_runs_identical` — the strict form: two metrics objects
  must produce equal ``deterministic_state()`` dicts (every field except
  the wall-clock timing allowlist).
* :class:`ClosedFormEstimate` (and its standard instance
  :data:`fake_estimate`) / :func:`make_job` / :func:`make_shards` /
  :func:`run_sharded` — the standard deterministic fixtures the suites
  build scenarios from.
"""

import numpy as np

from repro.backends import default_fleet
from repro.backends.fleet import fleet_of_size
from repro.cloud import (
    CloudSimulator,
    ExecutionModel,
    FleetShard,
    LoadGenerator,
    QuantumJob,
    SimulatedQPU,
    SimulationConfig,
)
from repro.estimator import block_feasibility
from repro.scheduler import FCFSPolicy, SchedulingTrigger
from repro.workloads import ghz_linear

__all__ = [
    "SERIES",
    "ClosedFormEstimate",
    "fake_estimate",
    "make_job",
    "make_shards",
    "run_sharded",
    "assert_series_identical",
    "assert_runs_identical",
]

#: The sampled metric series every identity assertion compares.
SERIES = (
    "mean_fidelity",
    "mean_completion_time",
    "mean_utilization",
    "scheduler_queue_size",
)


class ClosedFormEstimate:
    """A stateless closed-form ``EstimateSource`` for tests.

    ``fidelity`` and ``seconds`` map ``(widths, qpus)`` — an ``(N, 1)``
    integer column of job widths and the QPU list — to values that
    broadcast to ``(N, Q)``.  Infeasible cells stay 0.0, as in every
    production source.  It keeps no cache and no counters, so runs that
    share one instance stay bit-identical, ``estimate_cache`` included.
    """

    def __init__(self, fidelity, seconds):
        self.fidelity = fidelity
        self.seconds = seconds

    def estimate_block(self, jobs, qpus, feasible=None):
        if feasible is None:
            feasible = block_feasibility(jobs, qpus)
        widths = np.array([j.num_qubits for j in jobs], dtype=np.int64)[:, None]
        fid = np.where(feasible, self.fidelity(widths, qpus), 0.0)
        sec = np.where(feasible, self.seconds(widths, qpus), 0.0)
        return fid, sec

    def on_recalibration(self, qpus):
        """Stateless: nothing to drop."""


def _name_lengths(qpus):
    return np.array([len(q.name) for q in qpus], dtype=np.int64)


#: Deterministic stand-in estimator: distinct per (job width, QPU name).
fake_estimate = ClosedFormEstimate(
    lambda widths, qpus: 0.5 + 0.4 / (1 + widths + _name_lengths(qpus)),
    lambda widths, qpus: 12.0,
)


def make_job(width: int, *, tenant=None, arrival_time: float = 0.0) -> QuantumJob:
    """A circuit-free GHZ job of the given width (optionally tenanted)."""
    job = QuantumJob.from_circuit(ghz_linear(width), keep_circuit=False)
    job.tenant = tenant
    job.arrival_time = arrival_time
    return job


def make_shards(widths_per_shard, policy=None):
    """Shards over slices of the default fleet, one per name bucket.

    ``widths_per_shard`` is a list of QPU-name lists; each becomes one
    :class:`FleetShard` over fresh simulated backends.  ``policy`` (a
    single instance, shared) defaults to FCFS over :func:`fake_estimate`.
    """
    shards = []
    for i, names in enumerate(widths_per_shard):
        backends = [
            SimulatedQPU(q) for q in default_fleet(seed=7, names=list(names))
        ]
        shards.append(
            FleetShard(i, backends, policy or FCFSPolicy(fake_estimate))
        )
    return shards


def run_sharded(policy, executor, *, num_shards=3, duration=700.0,
                rebalance=None, recal=None, tenants=None, admission=None,
                **sim_kwargs):
    """The standard multi-shard MMPP-burst scenario, fully seeded.

    One knob set shared by the parallel-engine and tenancy bit-identity
    suites; ``tenants``/``admission`` extend it with a tenant mix on the
    load generator and an admission controller on the simulator (both
    ``None`` by default — the tenancy-off configuration).  Extra keyword
    arguments (e.g. the pipelined engine's ``cycle_latency`` /
    ``trigger_epsilon`` / ``pipeline``) forward to
    :meth:`CloudSimulator.sharded`.
    """
    gen = LoadGenerator(
        mean_rate_per_hour=2400,
        max_qubits=27,
        arrival_process="mmpp",
        burst_rate_multiplier=6.0,
        mean_burst_seconds=60.0,
        mean_calm_seconds=240.0,
        diurnal=False,
        tenants=tenants,
        seed=4,
    )
    sim = CloudSimulator.sharded(
        fleet_of_size(6, seed=7),
        policy,
        num_shards=num_shards,
        execution_model=ExecutionModel(seed=5),
        trigger_factory=lambda i: SchedulingTrigger(
            queue_limit=10_000, interval_seconds=120
        ),
        config=SimulationConfig(
            duration_seconds=duration, seed=5, recalibrate_every_seconds=recal
        ),
        rebalance=rebalance,
        cycle_executor=executor,
        admission=admission,
        **sim_kwargs,
    )
    return sim.run(gen.generate(duration))


def assert_series_identical(a, b) -> None:
    """Sampled series and core counters of two runs must match exactly."""
    for attr in SERIES:
        at, av = getattr(a, attr).as_arrays()
        bt, bv = getattr(b, attr).as_arrays()
        assert np.array_equal(at, bt) and np.array_equal(av, bv), attr
    assert a.events_processed == b.events_processed
    assert a.dispatched_jobs == b.dispatched_jobs
    assert a.per_qpu_busy_seconds == b.per_qpu_busy_seconds
    assert a.per_qpu_jobs == b.per_qpu_jobs


def assert_runs_identical(a, b) -> None:
    """Strict bit-identity: every non-timing metrics field must be equal.

    Compares ``deterministic_state()`` field by field first so a failure
    names the differing field instead of dumping two full dicts.
    """
    sa, sb = a.deterministic_state(), b.deterministic_state()
    assert sa.keys() == sb.keys()
    for name in sa:
        assert sa[name] == sb[name], f"field {name!r} differs"
