"""Parallel scheduling engine tests.

The load-bearing guarantee: a seeded run produces **bit-identical**
``SimulationMetrics`` (modulo wall-clock timing fields) on every cycle
executor backend — serial, thread, and process — for both the Qonductor
scheduler (whose optimization stage actually ships to workers) and the
batched FCFS baseline (which schedules inline during the fold).  Plus:
executor selection/contract tests, trigger coalescing, and the purity of
the cycle seed derivation.
"""

import os

import numpy as np
import pytest

from helpers.determinism import (
    assert_runs_identical,
    fake_estimate,
    run_sharded,
)
from repro.backends.fleet import fleet_of_size
from repro.cloud import (
    CloudSimulator,
    ExecutionModel,
    LoadGenerator,
    ProcessCycleExecutor,
    SerialCycleExecutor,
    SimulationConfig,
    SimulationMetrics,
    TimeSeries,
    ThreadCycleExecutor,
    make_cycle_executor,
)
from repro.cloud.cycle_executor import CYCLE_EXECUTOR_ENV
from repro.cloud.simulator import CYCLE_PIPELINE_ENV
from repro.scheduler import (
    BatchedFCFSPolicy,
    ConstantCycleLatency,
    NsgaCycleLatencyModel,
    QonductorScheduler,
    SchedulingTrigger,
    cycle_seed,
    make_latency_model,
    run_optimization,
)


class TestCycleExecutors:
    def test_make_resolves_names_and_instances(self):
        assert isinstance(make_cycle_executor("serial"), SerialCycleExecutor)
        assert isinstance(make_cycle_executor("thread"), ThreadCycleExecutor)
        assert isinstance(make_cycle_executor("process"), ProcessCycleExecutor)
        inst = ThreadCycleExecutor(max_workers=2)
        assert make_cycle_executor(inst) is inst
        sized = make_cycle_executor("thread:3")
        assert isinstance(sized, ThreadCycleExecutor)
        assert sized.max_workers == 3
        with pytest.raises(KeyError):
            make_cycle_executor("bogus")

    def test_env_variable_selects_backend(self, monkeypatch):
        monkeypatch.setenv(CYCLE_EXECUTOR_ENV, "thread:2")
        ex = make_cycle_executor(None)
        assert isinstance(ex, ThreadCycleExecutor) and ex.max_workers == 2
        monkeypatch.delenv(CYCLE_EXECUTOR_ENV)
        assert isinstance(make_cycle_executor(None), SerialCycleExecutor)

    def test_results_come_back_in_task_order(self):
        for ex in (
            SerialCycleExecutor(),
            ThreadCycleExecutor(max_workers=4),
        ):
            try:
                assert ex.run(lambda x: x * x, list(range(17))) == [
                    i * i for i in range(17)
                ]
            finally:
                ex.close()

    def test_close_is_idempotent_and_pool_rebuilds(self):
        ex = ThreadCycleExecutor(max_workers=2)
        assert ex.run(str, [1, 2]) == ["1", "2"]
        ex.close()
        ex.close()
        assert ex.run(str, [3, 4]) == ["3", "4"]
        ex.close()

    def test_submit_result_matches_run(self):
        """The async half of the contract: ``result(submit(...))`` is
        ``run(...)``, in task order, on every backend."""
        for ex in (
            SerialCycleExecutor(),
            ThreadCycleExecutor(max_workers=4),
        ):
            try:
                handle = ex.submit(lambda x: x * x, list(range(17)))
                assert ex.result(handle) == [i * i for i in range(17)]
                # Redeeming twice returns the cached list, not a hang.
                assert ex.result(handle) == [i * i for i in range(17)]
            finally:
                ex.close()

    def test_serial_submit_resolves_inline(self):
        """Serial ``submit`` computes eagerly — the handle already holds
        results, so serial pipelined runs stay single-threaded."""
        ex = SerialCycleExecutor()
        handle = ex.submit(str, [1, 2])
        assert handle.results == ["1", "2"]
        assert handle.futures is None

    def test_empty_submit(self):
        for ex in (SerialCycleExecutor(), ThreadCycleExecutor(max_workers=2)):
            try:
                assert ex.result(ex.submit(str, [])) == []
            finally:
                ex.close()

    def test_handle_redeemable_after_close(self):
        """Regression (S3): ``close()`` waits for in-flight work, so a
        handle submitted before close still resolves after it."""
        ex = ThreadCycleExecutor(max_workers=2)
        handle = ex.submit(lambda x: x + 1, [1, 2, 3])
        ex.close()
        assert ex.result(handle) == [2, 3, 4]

    def test_simulator_env_selection(self, monkeypatch):
        monkeypatch.setenv(CYCLE_EXECUTOR_ENV, "thread")
        sim = CloudSimulator(
            fleet_of_size(2, seed=7),
            BatchedFCFSPolicy(fake_estimate),
            ExecutionModel(seed=5),
            config=SimulationConfig(duration_seconds=60.0, seed=5),
        )
        assert isinstance(sim.cycle_executor, ThreadCycleExecutor)


class TestCycleSeedPurity:
    def test_cycle_seed_depends_on_all_components(self):
        base = cycle_seed(3, 1, 2).generate_state(4).tolist()
        assert cycle_seed(3, 1, 2).generate_state(4).tolist() == base
        assert cycle_seed(4, 1, 2).generate_state(4).tolist() != base
        assert cycle_seed(3, 2, 2).generate_state(4).tolist() != base
        assert cycle_seed(3, 1, 3).generate_state(4).tolist() != base

    def test_run_optimization_is_pure(self):
        sched = QonductorScheduler(fake_estimate, seed=1, max_generations=6)
        fleet = fleet_of_size(3, seed=7)
        from repro.cloud import QuantumJob
        from repro.workloads import ghz_linear

        jobs = [
            QuantumJob.from_circuit(ghz_linear(5), keep_circuit=False)
            for _ in range(8)
        ]
        plan = sched.begin_cycle(jobs, fleet, {})
        a = run_optimization(plan.task)
        b = run_optimization(plan.task)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.F, b.F)
        assert a.generations == b.generations

    def test_fused_schedule_matches_split_stages(self):
        """schedule() and begin/run/finish must be the same computation."""
        fleet = fleet_of_size(3, seed=7)
        from repro.cloud import QuantumJob
        from repro.workloads import ghz_linear

        jobs = [
            QuantumJob.from_circuit(ghz_linear(4), keep_circuit=False)
            for _ in range(6)
        ]
        fused = QonductorScheduler(
            fake_estimate, seed=2, max_generations=6
        ).schedule(list(jobs), fleet, {})
        split_sched = QonductorScheduler(
            fake_estimate, seed=2, max_generations=6
        )
        plan = split_sched.begin_cycle(list(jobs), fleet, {})
        split = split_sched.finish_cycle(plan, run_optimization(plan.task))
        assert [d.qpu_name for d in fused.decisions] == [
            d.qpu_name for d in split.decisions
        ]
        assert np.array_equal(fused.front_F, split.front_F)
        assert fused.chosen_index == split.chosen_index


class TestBackendBitIdentity:
    """Same seeds -> identical SimulationMetrics on every backend."""

    @pytest.mark.parametrize("backend", ["thread:4", "process:2"])
    def test_qonductor_multi_shard(self, backend):
        serial = run_sharded(
            QonductorScheduler(fake_estimate, seed=5, max_generations=4),
            "serial",
        )
        parallel = run_sharded(
            QonductorScheduler(fake_estimate, seed=5, max_generations=4),
            backend,
        )
        assert_runs_identical(serial, parallel)
        # Same-instant deadlines really did coalesce into multi-cycle
        # batches — the parallel path was exercised, not bypassed.
        assert serial.max_batch_cycles >= 2
        assert serial.scheduling_cycles >= 4

    def test_fcfs_multi_shard_with_rebalancing(self):
        serial = run_sharded(
            BatchedFCFSPolicy(fake_estimate), "serial", rebalance="threshold"
        )
        threaded = run_sharded(
            BatchedFCFSPolicy(fake_estimate), "thread", rebalance="threshold"
        )
        assert_runs_identical(serial, threaded)
        assert serial.dispatched_jobs > 0

    def test_qonductor_with_recalibration(self):
        """Cache invalidation mid-run keeps backends aligned too."""
        serial = run_sharded(
            QonductorScheduler(fake_estimate, seed=5, max_generations=4),
            "serial",
            num_shards=2,
            duration=500.0,
            recal=250.0,
        )
        threaded = run_sharded(
            QonductorScheduler(fake_estimate, seed=5, max_generations=4),
            "thread",
            num_shards=2,
            duration=500.0,
            recal=250.0,
        )
        assert_runs_identical(serial, threaded)

    def test_seeded_rerun_identical_on_same_backend(self):
        a = run_sharded(
            QonductorScheduler(fake_estimate, seed=5, max_generations=4),
            "thread",
            num_shards=2,
            duration=500.0,
        )
        b = run_sharded(
            QonductorScheduler(fake_estimate, seed=5, max_generations=4),
            "thread",
            num_shards=2,
            duration=500.0,
        )
        assert_runs_identical(a, b)


class TestDeterministicStateContract:
    """``deterministic_state`` is exclude-by-allowlist, not
    include-by-list: new metrics fields are compared by default, and the
    allowlist itself is validated so it can never silently rot."""

    def test_every_field_but_timing_is_compared(self):
        m = SimulationMetrics()
        state = m.deterministic_state()
        assert set(state) == set(vars(m)) - set(m.TIMING_FIELDS)
        assert "wall_seconds" not in state
        assert "stage_seconds" not in state

    def test_new_fields_are_included_automatically(self):
        """A field added by a future PR lands in the comparison without
        anyone remembering to register it."""
        m = SimulationMetrics()
        m.brand_new_counter = 7
        assert m.deterministic_state()["brand_new_counter"] == 7

    def test_stale_allowlist_entry_fails_loudly(self, monkeypatch):
        """Renaming/removing a timing field without updating the
        allowlist must raise, not silently exclude nothing."""
        monkeypatch.setattr(
            SimulationMetrics,
            "TIMING_FIELDS",
            ("wall_seconds", "stage_seconds", "renamed_away"),
        )
        with pytest.raises(AttributeError, match="renamed_away"):
            SimulationMetrics().deterministic_state()

    def test_timeseries_fields_compare_by_value(self):
        a, b = SimulationMetrics(), SimulationMetrics()
        a.mean_fidelity.add(1.0, 0.9)
        b.mean_fidelity.add(1.0, 0.9)
        a.shard_queue_size[0] = TimeSeries([1.0], [3.0])
        b.shard_queue_size[0] = TimeSeries([1.0], [3.0])
        assert a.deterministic_state() == b.deterministic_state()
        b.mean_fidelity.add(2.0, 0.8)
        assert a.deterministic_state() != b.deterministic_state()

    def test_timing_fields_do_not_affect_equality(self):
        a, b = SimulationMetrics(), SimulationMetrics()
        a.wall_seconds = 1.23
        b.wall_seconds = 9.87
        b.stage_seconds["optimize"] = 5.0
        assert a.deterministic_state() == b.deterministic_state()

    def test_static_detlint_view_agrees_with_runtime(self):
        """detlint's DET005 parses the same contract from the source
        text that the runtime enforces: same field set, same
        ``TIMING_FIELDS`` allowlist, in the same order.  If the two ever
        drift (a field added behind an ``if``, the tuple built
        dynamically), the static mirror silently rots — this pins it."""
        from dataclasses import fields as dataclass_fields

        from repro.analysis.rules import static_metrics_contract

        static_fields, static_timing = static_metrics_contract()
        assert static_timing == tuple(SimulationMetrics.TIMING_FIELDS)
        assert list(static_fields) == [
            f.name for f in dataclass_fields(SimulationMetrics)
        ]


class TestCoalescing:
    def test_aligned_deadlines_batch_misaligned_do_not(self):
        """Deadline-driven shards with one shared cadence coalesce; a
        queue-limit-driven fleet (triggers firing on arrivals at distinct
        times) runs batches of one."""
        aligned = run_sharded(
            QonductorScheduler(fake_estimate, seed=5, max_generations=4),
            "serial",
            duration=500.0,
        )
        assert aligned.max_batch_cycles >= 2
        assert aligned.cycle_batches < aligned.scheduling_cycles

        gen = LoadGenerator(
            mean_rate_per_hour=2400, max_qubits=27, diurnal=False, seed=4
        )
        sim = CloudSimulator.sharded(
            fleet_of_size(6, seed=7),
            QonductorScheduler(fake_estimate, seed=5, max_generations=4),
            num_shards=3,
            execution_model=ExecutionModel(seed=5),
            trigger_factory=lambda i: SchedulingTrigger(
                queue_limit=5, interval_seconds=10_000
            ),
            config=SimulationConfig(duration_seconds=500.0, seed=5),
        )
        m = sim.run(gen.generate(500.0))
        assert m.scheduling_cycles > 0
        # Arrival-path fires batch alone; only the horizon flush (one
        # batch over every backlogged shard) can coalesce here.
        assert m.scheduling_cycles - m.cycle_batches <= 3 - 1

    def test_stage_seconds_accumulated(self):
        m = run_sharded(
            QonductorScheduler(fake_estimate, seed=5, max_generations=4),
            "serial",
            duration=500.0,
        )
        for key in ("preprocess", "optimize", "select", "optimize_wall"):
            assert m.stage_seconds.get(key, 0.0) >= 0.0
        assert m.stage_seconds["optimize"] > 0.0
        # Serial backend: batch wall time is the sum of its cycles (up
        # to timer noise), never materially less.
        assert m.stage_seconds["optimize_wall"] >= (
            0.5 * m.stage_seconds["optimize"]
        )


class TestLatencyModels:
    def test_make_latency_model_resolution(self):
        assert make_latency_model(None)([]) == 0.0
        assert make_latency_model(2.5)([None, None]) == 2.5
        assert isinstance(make_latency_model(0), ConstantCycleLatency)
        model = NsgaCycleLatencyModel()
        assert make_latency_model(model) is model
        with pytest.raises(ValueError):
            make_latency_model(-1.0)

    def test_nsga_model_scales_with_work(self):
        from types import SimpleNamespace

        def task(pop, gens, jobs):
            return SimpleNamespace(
                pop_size=pop,
                max_generations=gens,
                data=SimpleNamespace(num_jobs=jobs),
            )

        model = NsgaCycleLatencyModel(
            seconds_per_evaluation=1e-4, overhead_seconds=0.5
        )
        small = model([task(20, 10, 5)])
        big = model([task(40, 20, 50)])
        assert 0.5 < small < big
        # Batch latency is the slowest member, not the sum.
        assert model([task(20, 10, 5), task(40, 20, 50)]) == big
        # Inline cycles (no OptimizationTask) cost only the overhead;
        # empty batches cost nothing.
        assert model([None]) == 0.5
        assert model([]) == 0.0


class TestPipelinedEngine:
    """The tentpole guarantees: pipelining off-by-default changes nothing,
    and turned on it stays deterministic across backends and reruns."""

    @pytest.mark.parametrize("backend", ["serial", "thread:4"])
    def test_pipeline_flag_alone_is_bit_identical(self, backend):
        """``pipeline=True`` with zero modeled latency must be a pure
        no-op: the fold event fires at the submit instant."""
        baseline = run_sharded(
            QonductorScheduler(fake_estimate, seed=5, max_generations=4),
            "serial",
            duration=500.0,
        )
        piped = run_sharded(
            QonductorScheduler(fake_estimate, seed=5, max_generations=4),
            backend,
            duration=500.0,
            pipeline=True,
        )
        assert_runs_identical(baseline, piped)
        # Zero latency means zero fold lag: nothing counts as pipelined.
        assert piped.pipelined_batches == 0
        assert piped.fold_lag_seconds == 0.0

    def test_env_variable_enables_pipeline(self, monkeypatch):
        def build():
            return CloudSimulator(
                fleet_of_size(2, seed=7),
                BatchedFCFSPolicy(fake_estimate),
                ExecutionModel(seed=5),
                config=SimulationConfig(duration_seconds=60.0, seed=5),
            )

        monkeypatch.delenv(CYCLE_PIPELINE_ENV, raising=False)
        assert build().pipeline is False
        monkeypatch.setenv(CYCLE_PIPELINE_ENV, "1")
        assert build().pipeline is True
        monkeypatch.setenv(CYCLE_PIPELINE_ENV, "0")
        assert build().pipeline is False

    def test_modeled_latency_identical_across_backends(self):
        """Nonzero scheduler latency: the fold instant is simulated time,
        so serial and process runs still agree bit-for-bit."""
        kwargs = dict(duration=700.0, cycle_latency=30.0, trigger_epsilon=5.0)
        serial = run_sharded(
            QonductorScheduler(fake_estimate, seed=5, max_generations=4),
            "serial",
            **kwargs,
        )
        pooled = run_sharded(
            QonductorScheduler(fake_estimate, seed=5, max_generations=4),
            "process:2",
            **kwargs,
        )
        assert_runs_identical(serial, pooled)
        assert serial.pipelined_batches > 0
        assert serial.fold_lag_seconds > 0.0
        # Fold lag is bounded by the constant model: every pipelined
        # batch waited exactly the modeled 30 s.
        assert serial.fold_lag_seconds == pytest.approx(
            30.0 * serial.pipelined_batches
        )
        assert serial.dispatched_jobs > 0

    def test_nonzero_latency_seeded_rerun_identical(self):
        a = run_sharded(
            QonductorScheduler(fake_estimate, seed=5, max_generations=4),
            "thread:4",
            duration=500.0,
            cycle_latency=20.0,
        )
        b = run_sharded(
            QonductorScheduler(fake_estimate, seed=5, max_generations=4),
            "thread:4",
            duration=500.0,
            cycle_latency=20.0,
        )
        assert_runs_identical(a, b)

    def test_callable_latency_model_end_to_end(self):
        m = run_sharded(
            QonductorScheduler(fake_estimate, seed=5, max_generations=4),
            "serial",
            duration=500.0,
            cycle_latency=NsgaCycleLatencyModel(),
        )
        assert m.pipelined_batches > 0
        assert m.dispatched_jobs > 0

    @staticmethod
    def _epsilon_run(executor, *, trigger_epsilon):
        """Arrival-driven fleet where per-shard queue-limit triggers fire
        at distinct instants — the case ε-coalescing exists for."""
        gen = LoadGenerator(
            mean_rate_per_hour=2400,
            max_qubits=27,
            arrival_process="mmpp",
            burst_rate_multiplier=6.0,
            mean_burst_seconds=60.0,
            mean_calm_seconds=240.0,
            diurnal=False,
            seed=4,
        )
        sim = CloudSimulator.sharded(
            fleet_of_size(6, seed=7),
            QonductorScheduler(fake_estimate, seed=5, max_generations=4),
            num_shards=3,
            execution_model=ExecutionModel(seed=5),
            trigger_factory=lambda i: SchedulingTrigger(
                queue_limit=5, interval_seconds=10_000
            ),
            config=SimulationConfig(duration_seconds=500.0, seed=5),
            cycle_executor=executor,
            trigger_epsilon=trigger_epsilon,
        )
        return sim.run(gen.generate(500.0))

    def test_epsilon_window_coalesces_arrival_triggers(self):
        """With ε > 0, near-simultaneous queue-limit triggers on
        different shards merge into one engine batch; with ε = 0 they
        run as batches of one (the PR 5 behavior)."""
        sync = self._epsilon_run("serial", trigger_epsilon=0.0)
        merged = self._epsilon_run("serial", trigger_epsilon=15.0)
        assert sync.epsilon_merged_triggers == 0
        assert merged.epsilon_merged_triggers > 0
        assert merged.max_batch_cycles >= 2
        assert merged.cycle_batches < sync.cycle_batches
        # Coalescing defers work, it must not lose it.
        assert merged.dispatched_jobs > 0

    def test_epsilon_batch_formation_deterministic(self):
        serial = self._epsilon_run("serial", trigger_epsilon=15.0)
        pooled = self._epsilon_run("process:2", trigger_epsilon=15.0)
        assert_runs_identical(serial, pooled)


class TestExecutorLifecycle:
    """S3 regression: owned pools are released after every run; caller-
    supplied instances persist until the caller closes them."""

    def _sim(self, executor):
        return CloudSimulator(
            fleet_of_size(2, seed=7),
            BatchedFCFSPolicy(fake_estimate),
            ExecutionModel(seed=5),
            config=SimulationConfig(duration_seconds=120.0, seed=5),
            cycle_executor=executor,
        )

    def _apps(self):
        gen = LoadGenerator(
            mean_rate_per_hour=600, max_qubits=27, diurnal=False, seed=4
        )
        return gen.generate(120.0)

    def test_owned_executor_released_after_run(self):
        sim = self._sim("thread:2")
        assert sim._owns_executor
        sim.run(self._apps())
        assert sim.cycle_executor._pool is None

    def test_supplied_executor_survives_run_until_closed(self):
        ex = ThreadCycleExecutor(max_workers=2)
        try:
            sim = self._sim(ex)
            assert not sim._owns_executor
            sim.run(self._apps())
            # Pool (if spun up) must still be usable for the next run...
            assert ex.run(str, [1]) == ["1"]
            sim.close()
            # ...and close() via the simulator releases it.
            assert ex._pool is None
        finally:
            ex.close()

    def test_context_manager_closes_supplied_executor(self):
        ex = ThreadCycleExecutor(max_workers=2)
        with self._sim(ex) as sim:
            sim.run(self._apps())
            assert ex.run(str, [2]) == ["2"]
        assert ex._pool is None

    def test_repeated_runs_do_not_accumulate_pools(self):
        sim = self._sim("thread:2")
        for _ in range(3):
            sim.run(self._apps())
            assert sim.cycle_executor._pool is None


@pytest.mark.skipif(
    os.environ.get(CYCLE_EXECUTOR_ENV, "") == "",
    reason="only meaningful when CYCLE_EXECUTOR selects a parallel backend",
)
def test_env_selected_backend_smoke():
    """Under CYCLE_EXECUTOR=thread CI runs the whole tier-1 suite on the
    parallel path; this is its explicit canary."""
    m = run_sharded(
        QonductorScheduler(fake_estimate, seed=5, max_generations=4), None
    )
    assert m.dispatched_jobs > 0
