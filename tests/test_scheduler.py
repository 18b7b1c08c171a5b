"""Scheduler tests: Eq. 1 formulation, the three-stage quantum scheduler,
classical filter-score scheduling, baselines, triggers, and calibration
crossovers."""

import numpy as np
import pytest

from helpers.determinism import ClosedFormEstimate
from repro.backends import default_fleet
from repro.cloud.job import QuantumJob
from repro.estimator import CachedEstimator
from repro.scheduler import (
    ClassicalNode,
    ClassicalRequest,
    ClassicalScheduler,
    FCFSPolicy,
    LeastBusyPolicy,
    QonductorScheduler,
    RandomPolicy,
    SchedulingInput,
    SchedulingProblem,
    SchedulingTrigger,
    reevaluate_post_calibration,
    split_at_calibration,
)
from repro.workloads import ghz_linear


def _make_input(n_jobs=6, n_qpus=3, seed=0):
    rng = np.random.default_rng(seed)
    fid = rng.uniform(0.4, 0.95, (n_jobs, n_qpus))
    sec = rng.uniform(5, 40, (n_jobs, n_qpus))
    wait = rng.uniform(0, 200, n_qpus)
    feas = np.ones((n_jobs, n_qpus), dtype=bool)
    return SchedulingInput(fid, sec, wait, feas)


def _inverse_quality(widths, qpus):
    quality = np.array([q.calibration.quality_factor for q in qpus])
    return 1.0 / (1.0 + quality)


#: Deterministic estimates keyed on device quality (for policy tests).
_fake_estimate = ClosedFormEstimate(
    _inverse_quality, lambda widths, qpus: 10.0 + widths
)


class TestFormulation:
    def test_input_validation(self):
        with pytest.raises(ValueError):
            SchedulingInput(
                np.ones((2, 2)), np.ones((2, 3)), np.zeros(2), np.ones((2, 2), bool)
            )
        feas = np.zeros((2, 2), dtype=bool)
        with pytest.raises(ValueError, match="no feasible"):
            SchedulingInput(np.ones((2, 2)), np.ones((2, 2)), np.zeros(2), feas)

    def test_evaluate_objectives(self):
        data = _make_input()
        prob = SchedulingProblem(data)
        X = np.zeros((1, data.num_jobs), dtype=np.int64)  # all on QPU 0
        F = prob.evaluate(X)
        expected_jct = data.waiting_seconds[0] + data.exec_seconds[:, 0].sum()
        assert F[0, 0] == pytest.approx(expected_jct)
        assert F[0, 1] == pytest.approx(1.0 - data.fidelity[:, 0].mean())

    def test_repair_enforces_feasibility(self):
        data = _make_input()
        data.feasible[2, 0] = False
        prob = SchedulingProblem(data)
        X = np.zeros((4, data.num_jobs), dtype=np.int64)
        repaired = prob.repair(X)
        assert np.all(repaired[:, 2] != 0)

    def test_sample_seeds_extremes(self):
        data = _make_input(n_jobs=10)
        prob = SchedulingProblem(data)
        X = prob.sample(8, np.random.default_rng(0))
        # First individual = per-job argmax fidelity.
        assert np.array_equal(X[0], np.argmax(data.fidelity, axis=1))

    def test_assignment_stats_keys(self):
        data = _make_input()
        prob = SchedulingProblem(data)
        stats = prob.assignment_stats(np.zeros(data.num_jobs, dtype=np.int64))
        for key in ("mean_jct", "mean_fidelity", "mean_exec_seconds", "per_qpu_load"):
            assert key in stats


class TestQonductorScheduler:
    @pytest.fixture(scope="class")
    def fleet(self):
        return default_fleet(seed=7, names=["auckland", "algiers", "lagos"])

    def _jobs(self, n=12, width=5):
        return [
            QuantumJob.from_circuit(ghz_linear(width), shots=1000, keep_circuit=False)
            for _ in range(n)
        ]

    def test_all_jobs_assigned(self, fleet):
        sched = QonductorScheduler(_fake_estimate, seed=1, max_generations=10)
        result = sched.schedule(self._jobs(), fleet, {})
        assert len(result.decisions) == 12
        assert not result.unschedulable
        names = {q.name for q in fleet}
        assert all(d.qpu_name in names for d in result.decisions)

    def test_oversized_jobs_rejected(self, fleet):
        sched = QonductorScheduler(_fake_estimate, seed=1, max_generations=5)
        jobs = self._jobs(2, width=5) + [
            QuantumJob.from_circuit(ghz_linear(40), keep_circuit=False)
        ]
        result = sched.schedule(jobs, fleet, {})
        assert len(result.unschedulable) == 1
        assert len(result.decisions) == 2

    def test_size_constraint_respected(self, fleet):
        # 12-qubit jobs cannot land on 7-qubit lagos.
        sched = QonductorScheduler(_fake_estimate, seed=2, max_generations=10)
        jobs = self._jobs(8, width=12)
        result = sched.schedule(jobs, fleet, {})
        assert all(d.qpu_name != "lagos" for d in result.decisions)

    def test_preference_changes_choice(self, fleet):
        jobs = self._jobs(20, width=5)
        waiting = {"auckland": 2000.0, "algiers": 0.0, "lagos": 0.0}
        fid_sched = QonductorScheduler(
            _fake_estimate, preference="fidelity", seed=3, max_generations=20
        )
        jct_sched = QonductorScheduler(
            _fake_estimate, preference="jct", seed=3, max_generations=20
        )
        r_fid = fid_sched.schedule(list(jobs), fleet, dict(waiting))
        r_jct = jct_sched.schedule(list(jobs), fleet, dict(waiting))
        assert r_fid.stats["mean_fidelity"] >= r_jct.stats["mean_fidelity"]
        assert r_jct.stats["mean_jct"] <= r_fid.stats["mean_jct"]

    def test_stage_timings_present(self, fleet):
        sched = QonductorScheduler(_fake_estimate, seed=1, max_generations=5)
        result = sched.schedule(self._jobs(4), fleet, {})
        assert set(result.stage_seconds) == {"preprocess", "optimize", "select"}
        assert all(v >= 0 for v in result.stage_seconds.values())

    def test_empty_queue(self, fleet):
        sched = QonductorScheduler(_fake_estimate, seed=1)
        result = sched.schedule([], fleet, {})
        assert result.decisions == [] and result.chosen_index == -1

    def test_front_properties(self, fleet):
        sched = QonductorScheduler(_fake_estimate, seed=1, max_generations=10)
        result = sched.schedule(self._jobs(10), fleet, {})
        assert result.front_max_jct >= result.front_min_jct
        assert result.front_max_fidelity >= result.front_min_fidelity
        assert len(result.front_exec_seconds) == len(result.front_F)


class TestClassicalScheduler:
    def _nodes(self):
        return [
            ClassicalNode("small", cores=4, memory_gb=8),
            ClassicalNode("big", cores=32, memory_gb=128, gpus=2, tier="highend_vm"),
        ]

    def test_filter_by_resources(self):
        sched = ClassicalScheduler(self._nodes())
        assert [n.name for n in sched.filter(ClassicalRequest(cores=8))] == ["big"]
        assert sched.filter(ClassicalRequest(gpus=4)) == []

    def test_filter_by_tier(self):
        sched = ClassicalScheduler(self._nodes())
        nodes = sched.filter(ClassicalRequest(tier="highend_vm"))
        assert [n.name for n in nodes] == ["big"]

    def test_schedule_allocates_and_release(self):
        sched = ClassicalScheduler(self._nodes())
        req = ClassicalRequest(cores=4, memory_gb=8)
        node = sched.schedule(req)
        assert node is not None and node.alloc_cores == 4
        sched.release(node.name, req)
        assert node.alloc_cores == 0

    def test_least_allocated_spreads(self):
        sched = ClassicalScheduler(self._nodes())
        req = ClassicalRequest(cores=2, memory_gb=2)
        first = sched.schedule(req)
        assert first.name == "big"  # emptiest by fraction

    def test_exhaustion_returns_none(self):
        sched = ClassicalScheduler([ClassicalNode("tiny", cores=1, memory_gb=1)])
        assert sched.schedule(ClassicalRequest(cores=2)) is None

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            ClassicalScheduler(self._nodes(), policy="nope")

    def test_release_unknown_node(self):
        sched = ClassicalScheduler(self._nodes())
        with pytest.raises(KeyError):
            sched.release("nope", ClassicalRequest())


class TestBaselinePolicies:
    @pytest.fixture(scope="class")
    def fleet(self):
        return default_fleet(seed=7, names=["auckland", "algiers", "lagos"])

    def test_fcfs_picks_best_fidelity(self, fleet):
        policy = FCFSPolicy(_fake_estimate)
        job = QuantumJob.from_circuit(ghz_linear(10), keep_circuit=False)
        [(j, name)] = policy.assign([job], fleet, {})
        # auckland has the lowest quality factor -> highest fake fidelity.
        assert name == "auckland"

    def test_fcfs_infeasible_returns_none(self, fleet):
        policy = FCFSPolicy(_fake_estimate)
        job = QuantumJob.from_circuit(ghz_linear(50), keep_circuit=False)
        [(j, name)] = policy.assign([job], fleet, {})
        assert name is None

    def test_least_busy_spreads_batch(self, fleet):
        policy = LeastBusyPolicy(_fake_estimate)
        jobs = [
            QuantumJob.from_circuit(ghz_linear(5), keep_circuit=False)
            for _ in range(6)
        ]
        assignments = policy.assign(jobs, fleet, {q.name: 0.0 for q in fleet})
        used = {name for _, name in assignments}
        assert len(used) >= 2

    @pytest.mark.parametrize(
        "policy_cls", [FCFSPolicy, LeastBusyPolicy, QonductorScheduler]
    )
    def test_bare_callable_source_rejected(self, policy_cls):
        def fn(job, qpu):
            return 0.8, 12.0

        with pytest.raises(TypeError, match=r"source.*CachedEstimator\(fn\)"):
            policy_cls(fn)
        # The remedy the message names is accepted.
        policy_cls(CachedEstimator(fn))

    def test_random_policy_feasible_only(self, fleet):
        policy = RandomPolicy(seed=0)
        jobs = [
            QuantumJob.from_circuit(ghz_linear(12), keep_circuit=False)
            for _ in range(10)
        ]
        for _, name in policy.assign(jobs, fleet, {}):
            assert name in ("auckland", "algiers")  # lagos too small


class TestTrigger:
    def test_queue_limit_fires(self):
        trig = SchedulingTrigger(queue_limit=10, interval_seconds=1e9)
        assert not trig.should_fire(9, now=0.0)
        assert trig.should_fire(10, now=0.0)

    def test_time_based_fires(self):
        trig = SchedulingTrigger(queue_limit=1000, interval_seconds=120)
        trig.fired(0.0)
        assert not trig.should_fire(1, now=60.0)
        assert trig.should_fire(1, now=121.0)

    def test_empty_queue_never_fires(self):
        trig = SchedulingTrigger(queue_limit=1, interval_seconds=1)
        assert not trig.should_fire(0, now=1e9)

    @pytest.mark.parametrize("value", [0, -1])
    def test_non_positive_interval_rejected(self, value):
        # A zero or negative interval re-armed the trigger deadline at the
        # instant it fired, so the simulator's run() never returned.
        with pytest.raises(ValueError, match="interval_seconds"):
            SchedulingTrigger(interval_seconds=value)

    @pytest.mark.parametrize("value", [0, -3])
    def test_queue_limit_below_one_rejected(self, value):
        with pytest.raises(ValueError, match="queue_limit"):
            SchedulingTrigger(queue_limit=value)


class TestCalibrationCrossover:
    def _schedule(self, fleet):
        sched = QonductorScheduler(_fake_estimate, seed=4, max_generations=8)
        jobs = [
            QuantumJob.from_circuit(ghz_linear(5), keep_circuit=False)
            for _ in range(10)
        ]
        return sched.schedule(jobs, fleet, {q.name: 0.0 for q in fleet})

    def test_split_partitions_all_decisions(self):
        fleet = default_fleet(seed=7, names=["auckland", "algiers"])
        schedule = self._schedule(fleet)
        pre, post = split_at_calibration(schedule, {}, boundary_seconds_from_now=30.0)
        assert len(pre) + len(post) == len(schedule.decisions)

    def test_boundary_zero_puts_all_post(self):
        fleet = default_fleet(seed=7, names=["auckland", "algiers"])
        schedule = self._schedule(fleet)
        pre, post = split_at_calibration(schedule, {}, boundary_seconds_from_now=0.0)
        assert not pre and len(post) == len(schedule.decisions)

    def test_reevaluation_moves_jobs_on_quality_flip(self):
        fleet = default_fleet(seed=7, names=["auckland", "algiers"])
        schedule = self._schedule(fleet)

        # After "recalibration", algiers becomes dramatically better.
        def flipped(job, qpu):
            return (0.95, 5.0) if qpu.name == "algiers" else (0.3, 5.0)

        report = reevaluate_post_calibration(
            schedule, fleet, {}, boundary_seconds_from_now=0.0, estimate_fn=flipped
        )
        assert report.reassigned >= 1
        assert all(d.qpu_name == "algiers" for d in report.post_boundary)


class TestRecalibrationHook:
    def test_hook_invoked_with_fleet(self):
        fleet = default_fleet(seed=7, names=["lagos"])
        seen = []
        sched = QonductorScheduler(
            _fake_estimate, seed=0, on_recalibrate=seen.append
        )
        sched.on_recalibration(fleet)
        assert seen == [fleet]

    def test_hook_optional(self):
        sched = QonductorScheduler(_fake_estimate, seed=0)
        sched.on_recalibration([])  # no-op must not raise

    def test_simulator_wires_hook(self):
        from repro.cloud import CloudSimulator, ExecutionModel, SimulationConfig

        fleet = default_fleet(seed=7, names=["lagos"])
        calls = []
        sim = CloudSimulator(
            fleet,
            QonductorScheduler(
                _fake_estimate, seed=0, max_generations=5,
                on_recalibrate=lambda qpus: calls.append(len(qpus)),
            ),
            ExecutionModel(seed=1),
            config=SimulationConfig(
                duration_seconds=250.0, recalibrate_every_seconds=100.0, seed=1
            ),
        )
        sim.run([])
        assert len(calls) >= 2 and calls[0] == 1
