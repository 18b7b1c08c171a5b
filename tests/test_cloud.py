"""Cloud-simulation tests: jobs, proxy, execution model, backends, load
generation, the simulator loop, and the imbalance study."""

import numpy as np
import pytest

from helpers.determinism import ClosedFormEstimate
from repro.backends import default_fleet, get_model
from repro.circuits import compute_metrics
from repro.cloud import (
    CloudSimulator,
    ExecutionModel,
    HybridApplication,
    JobStatus,
    LoadGenerator,
    QuantumJob,
    SimulatedQPU,
    SimulationConfig,
    TranspileProxy,
    diurnal_rate,
    simulate_queue_imbalance,
)
from repro.scheduler import FCFSPolicy, LeastBusyPolicy, QonductorScheduler, SchedulingTrigger
from repro.workloads import ghz_linear, qaoa_maxcut


#: Constant estimates: every feasible (job, QPU) pair scores the same.
_fake_estimate = ClosedFormEstimate(
    lambda widths, qpus: 0.8, lambda widths, qpus: 12.0
)


class TestJob:
    def test_from_circuit(self):
        job = QuantumJob.from_circuit(ghz_linear(5), shots=2000, mitigation="rem")
        assert job.num_qubits == 5 and job.shots == 2000
        assert job.circuit is not None

    def test_drop_circuit(self):
        job = QuantumJob.from_circuit(ghz_linear(5), keep_circuit=False)
        assert job.circuit is None and job.metrics.num_qubits == 5

    def test_lifecycle_times(self):
        job = QuantumJob.from_circuit(ghz_linear(3))
        job.arrival_time = 10.0
        assert job.completion_time is None
        job.start_time, job.finish_time = 30.0, 45.0
        assert job.waiting_time == pytest.approx(20.0)
        assert job.completion_time == pytest.approx(35.0)

    def test_unique_ids(self):
        a = QuantumJob.from_circuit(ghz_linear(3))
        b = QuantumJob.from_circuit(ghz_linear(3))
        assert a.job_id != b.job_id

    def test_application_wrapper(self):
        job = QuantumJob.from_circuit(ghz_linear(3), mitigation="zne")
        app = HybridApplication(quantum_job=job, arrival_time=5.0)
        assert app.uses_mitigation
        app.finish_time = 25.0
        assert app.completion_time == pytest.approx(20.0)


class TestProxy:
    def test_physical_metrics_positive(self):
        proxy = TranspileProxy()
        model = get_model("falcon_r5_27")
        m = compute_metrics(ghz_linear(8))
        p2q, p1q, dur = proxy.physical_metrics(m, model)
        assert p2q >= m.num_2q_gates and dur > 0

    def test_linear_class_cheaper_than_dense(self):
        proxy = TranspileProxy()
        model = get_model("falcon_r5_27")
        linear = compute_metrics(ghz_linear(10))
        from repro.workloads import qft

        dense = compute_metrics(qft(10, measure=True))
        # Same logical 2q count comparison via inflation ratio:
        p2q_lin, _, _ = proxy.physical_metrics(linear, model)
        p2q_dense, _, _ = proxy.physical_metrics(dense, model)
        infl_lin = p2q_lin / linear.num_2q_gates
        infl_dense = p2q_dense / dense.num_2q_gates
        assert infl_lin < infl_dense

    def test_tables_cached(self):
        proxy = TranspileProxy()
        model = get_model("falcon_r5_7")
        t1 = proxy.table(model, "linear")
        t2 = proxy.table(model, "linear")
        assert t1 is t2


class TestExecutionModel:
    @pytest.fixture(scope="class")
    def fleet(self):
        return default_fleet(seed=7, names=["auckland", "algiers"])

    def test_quality_ordering_preserved(self, fleet):
        em = ExecutionModel(seed=1)
        job = QuantumJob.from_circuit(ghz_linear(10), shots=4000)
        good = em.expected_fidelity(job, fleet[0].calibration, fleet[0].model)
        bad = em.expected_fidelity(job, fleet[1].calibration, fleet[1].model)
        assert good > bad

    def test_mitigation_improves_and_costs(self, fleet):
        em = ExecutionModel(seed=1)
        plain = QuantumJob.from_circuit(ghz_linear(10), shots=4000)
        mit = QuantumJob.from_circuit(
            ghz_linear(10), shots=4000, mitigation="dd+zne+rem"
        )
        rng = np.random.default_rng(0)
        r_plain = em.execute(plain, fleet[1].calibration, fleet[1].model, rng)
        r_mit = em.execute(mit, fleet[1].calibration, fleet[1].model, rng)
        assert (
            em.expected_fidelity(mit, fleet[1].calibration, fleet[1].model)
            > em.expected_fidelity(plain, fleet[1].calibration, fleet[1].model)
        )
        assert r_mit.quantum_seconds > r_plain.quantum_seconds  # 3x shots
        assert r_mit.classical_post_seconds > r_plain.classical_post_seconds

    def test_execute_fields_valid(self, fleet):
        em = ExecutionModel(seed=2)
        job = QuantumJob.from_circuit(qaoa_maxcut(8, seed=1), shots=2000)
        rec = em.execute(job, fleet[0].calibration, fleet[0].model)
        assert 0.0 <= rec.fidelity <= 1.0
        assert rec.quantum_seconds > 0
        assert rec.total_classical_seconds >= 0

    def test_unknown_mitigation(self, fleet):
        em = ExecutionModel(seed=1)
        job = QuantumJob.from_circuit(ghz_linear(4), mitigation="rem")
        job.mitigation = "bogus"
        with pytest.raises(KeyError):
            em.execute(job, fleet[0].calibration, fleet[0].model)

    def test_model_matches_trajectory_sim_smallscale(self, fleet):
        """The aggregate model must land near real noisy simulation."""
        from repro.simulation import (
            NoisySimulator,
            hellinger_fidelity,
            ideal_probabilities,
        )
        from repro.transpiler import Target, transpile

        em = ExecutionModel(seed=3)
        qpu = fleet[0]
        circ = ghz_linear(6)
        job = QuantumJob.from_circuit(circ, shots=4000)
        model_fid = em.expected_fidelity(job, qpu.calibration, qpu.model)

        res = transpile(circ, Target.from_backend(qpu))
        used = sorted(res.circuit.used_qubits())
        dense = {p: i for i, p in enumerate(used)}
        compact = res.circuit.remap(dense, len(used))
        sim = NoisySimulator(qpu.noise_model, num_trajectories=60, seed=4)
        probs = sim.noisy_probabilities(compact)
        fm = res.final_mapping
        marg = np.zeros(2**6)
        idx = np.arange(2 ** len(used))
        logical = np.zeros_like(idx)
        for q in range(6):
            logical |= ((idx >> dense[fm[q]]) & 1) << q
        np.add.at(marg, logical, probs)
        real_fid = hellinger_fidelity(marg, ideal_probabilities(circ))
        assert abs(model_fid - real_fid) < 0.2


class TestSimulatedQPU:
    def test_sequential_execution_queues(self):
        qpu = default_fleet(seed=7, names=["lagos"])[0]
        backend = SimulatedQPU(qpu)
        em = ExecutionModel(seed=1)
        rng = np.random.default_rng(0)
        j1 = QuantumJob.from_circuit(ghz_linear(4), shots=4000, keep_circuit=False)
        j2 = QuantumJob.from_circuit(ghz_linear(4), shots=4000, keep_circuit=False)
        backend.execute(j1, 0.0, em, rng)
        backend.execute(j2, 0.0, em, rng)
        assert j2.start_time == pytest.approx(j1.finish_time)
        assert backend.jobs_executed == 2
        assert backend.busy_seconds > 0

    def test_waiting_seconds(self):
        qpu = default_fleet(seed=7, names=["lagos"])[0]
        backend = SimulatedQPU(qpu)
        backend.free_at = 100.0
        assert backend.waiting_seconds(40.0) == pytest.approx(60.0)
        assert backend.waiting_seconds(200.0) == 0.0


class TestLoadGenerator:
    def test_rate_approximately_honoured(self):
        gen = LoadGenerator(mean_rate_per_hour=1200, diurnal=False, seed=1)
        apps = gen.generate(3600.0)
        assert 1000 < len(apps) < 1400

    def test_arrivals_sorted_and_bounded(self):
        gen = LoadGenerator(mean_rate_per_hour=600, seed=2)
        apps = gen.generate(1800.0)
        times = [a.arrival_time for a in apps]
        assert times == sorted(times)
        assert all(0 <= t < 1800.0 for t in times)

    def test_min_qubits_clamps_and_validates(self):
        gen = LoadGenerator(
            mean_rate_per_hour=600,
            mean_qubits=12,
            std_qubits=2,
            min_qubits=8,
            max_qubits=16,
            seed=3,
        )
        apps = gen.generate(600.0)
        assert apps
        widths = [a.quantum_job.num_qubits for a in apps]
        assert min(widths) >= 8 and max(widths) <= 16
        # An inverted range must fail loudly, not collapse every draw
        # to max_qubits.
        with pytest.raises(ValueError):
            LoadGenerator(min_qubits=20, max_qubits=16).generate(60.0)
        # Same for a benchmark whose own width cap sits below
        # min_qubits (grover tops out at 8 qubits).
        with pytest.raises(ValueError):
            LoadGenerator(
                min_qubits=10, max_qubits=16, benchmarks=("grover",)
            ).generate(60.0)

    def test_mitigation_fraction(self):
        gen = LoadGenerator(mean_rate_per_hour=600, mitigation_fraction=1.0, seed=3)
        apps = gen.generate(600.0)
        assert all(a.uses_mitigation for a in apps)

    def test_diurnal_rate_band(self):
        rates = [diurnal_rate(h) for h in range(24)]
        assert min(rates) >= 1100 - 1 and max(rates) <= 2050 + 1

    def test_mmpp_seeded_determinism(self):
        """The Markov-modulated stream is a pure function of the seed,
        and its eager and lazy views are bit-identical."""

        def make():
            return LoadGenerator(
                mean_rate_per_hour=1200,
                diurnal=False,
                arrival_process="mmpp",
                burst_rate_multiplier=8.0,
                mean_burst_seconds=90.0,
                mean_calm_seconds=400.0,
                seed=11,
            )

        a = make().generate(3600.0)
        b = make().generate(3600.0)
        lazy = list(make().iter_arrivals(3600.0))
        assert len(a) == len(b) == len(lazy) > 0
        for x, y, z in zip(a, b, lazy):
            assert x.arrival_time == y.arrival_time == z.arrival_time
            assert (
                x.quantum_job.metrics.fingerprint
                == y.quantum_job.metrics.fingerprint
                == z.quantum_job.metrics.fingerprint
            )

    def test_mmpp_burstier_than_poisson(self):
        """At a matched nominal rate, MMPP inter-arrivals must show more
        dispersion than Poisson (CV > 1), which is the point of the mode."""

        def inter_cv(process):
            gen = LoadGenerator(
                mean_rate_per_hour=1200,
                diurnal=False,
                arrival_process=process,
                burst_rate_multiplier=10.0,
                mean_burst_seconds=120.0,
                mean_calm_seconds=600.0,
                seed=5,
            )
            times = [a.arrival_time for a in gen.generate(4 * 3600.0)]
            gaps = np.diff(times)
            return float(np.std(gaps) / np.mean(gaps))

        poisson_cv = inter_cv("poisson")
        mmpp_cv = inter_cv("mmpp")
        assert poisson_cv == pytest.approx(1.0, abs=0.15)
        assert mmpp_cv > poisson_cv + 0.3

    def test_mmpp_validation(self):
        with pytest.raises(ValueError, match="arrival_process"):
            LoadGenerator(arrival_process="bogus").generate(60.0)
        with pytest.raises(ValueError, match="burst_rate_multiplier"):
            LoadGenerator(
                arrival_process="mmpp", burst_rate_multiplier=1.0
            ).generate(60.0)
        # Zero holding times would pin time at the flip instant and loop
        # forever; they must fail loudly instead.
        with pytest.raises(ValueError, match="mean_calm_seconds"):
            LoadGenerator(
                arrival_process="mmpp", mean_calm_seconds=0.0
            ).generate(60.0)
        with pytest.raises(ValueError, match="mean_burst_seconds"):
            LoadGenerator(
                arrival_process="mmpp", mean_burst_seconds=-1.0
            ).generate(60.0)

    @pytest.mark.parametrize("diurnal", [True, False])
    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0, -5])
    def test_bad_rate_rejected_at_construction(self, rate, diurnal):
        # NaN/inf used to make generate() loop forever; 0 and -5 raised
        # ZeroDivisionError / numpy's "scale < 0" from inside the loop.
        with pytest.raises(ValueError, match="mean_rate_per_hour"):
            LoadGenerator(mean_rate_per_hour=rate, diurnal=diurnal)

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("burst_rate_multiplier", float("inf")),
            ("burst_rate_multiplier", float("nan")),
            ("mean_calm_seconds", float("nan")),
            ("mean_calm_seconds", float("inf")),
            ("mean_burst_seconds", float("nan")),
        ],
    )
    def test_bad_mmpp_knob_rejected_at_construction(self, knob, value):
        with pytest.raises(ValueError, match=knob):
            LoadGenerator(arrival_process="mmpp", **{knob: value})

    def test_poisson_stream_unchanged_by_mmpp_support(self):
        """The default process draws exactly the stream it always did —
        adding the MMPP branch must not shift any seeded scenario."""
        times = [
            a.arrival_time
            for a in LoadGenerator(
                mean_rate_per_hour=600, seed=2
            ).generate(600.0)
        ]
        burst_times = [
            a.arrival_time
            for a in LoadGenerator(
                mean_rate_per_hour=600, seed=2, arrival_process="mmpp"
            ).generate(600.0)
        ]
        assert times and times != burst_times  # mmpp really modulates
        reference = [
            a.arrival_time
            for a in LoadGenerator(
                mean_rate_per_hour=600, seed=2
            ).generate(600.0)
        ]
        assert times == reference

    def test_diurnal_swing_scales_with_mean_rate(self):
        """Regression: the sinusoidal amplitude must rescale with
        ``mean_rate`` — a 2x load profile is exactly the IBM profile
        doubled, not a flattened swing clipped to a doubled band."""
        for hour in np.linspace(0.0, 24.0, 49):
            base = diurnal_rate(hour, mean_rate=1500.0)
            assert diurnal_rate(hour, mean_rate=3000.0) == pytest.approx(
                2.0 * base
            )
            assert diurnal_rate(hour, mean_rate=750.0) == pytest.approx(
                0.5 * base
            )
        # The scaled band still clips: the doubled profile stays inside
        # the doubled IBM band.
        doubled = [diurnal_rate(h, mean_rate=3000.0) for h in range(24)]
        assert min(doubled) >= 2 * 1100 - 1 and max(doubled) <= 2 * 2050 + 1


class TestCloudSimulator:
    def _run(self, policy, apps, duration=600.0, trigger=None):
        fleet = default_fleet(seed=7, names=["auckland", "algiers", "lagos"])
        sim = CloudSimulator(
            fleet,
            policy,
            ExecutionModel(seed=5),
            trigger=trigger or SchedulingTrigger(queue_limit=20, interval_seconds=60),
            config=SimulationConfig(duration_seconds=duration, seed=5),
        )
        return sim.run(apps)

    def test_fcfs_dispatches_all_jobs(self):
        gen = LoadGenerator(mean_rate_per_hour=300, max_qubits=27, seed=4)
        apps = gen.generate(600.0)
        metrics = self._run(FCFSPolicy(_fake_estimate), apps)
        assert metrics.dispatched_jobs == len(apps)
        # Completion is counted when the COMPLETION event folds inside
        # the horizon; late finishers stay dispatched-only.
        assert 0 < metrics.completed_jobs <= metrics.dispatched_jobs
        assert metrics.mean_fidelity.mean() > 0

    def test_qonductor_batches_and_completes(self):
        gen = LoadGenerator(mean_rate_per_hour=300, max_qubits=27, seed=4)
        apps = gen.generate(600.0)
        policy = QonductorScheduler(_fake_estimate, seed=1, max_generations=8)
        metrics = self._run(policy, apps)
        assert metrics.dispatched_jobs == len(apps)
        assert metrics.completed_jobs <= metrics.dispatched_jobs
        assert metrics.scheduling_cycles >= 1
        assert metrics.scheduling_cycles < len(apps)  # batched, not per-job

    def test_least_busy_spreads_load(self):
        gen = LoadGenerator(mean_rate_per_hour=600, max_qubits=7, seed=6)
        apps = gen.generate(600.0)
        metrics = self._run(LeastBusyPolicy(_fake_estimate), apps)
        busy = [v for v in metrics.per_qpu_busy_seconds.values() if v > 0]
        assert len(busy) >= 2

    def test_oversized_jobs_fail(self):
        job = QuantumJob.from_circuit(ghz_linear(100), keep_circuit=False)
        app = HybridApplication(quantum_job=job, arrival_time=1.0)
        metrics = self._run(FCFSPolicy(_fake_estimate), [app])
        assert metrics.unschedulable_jobs == 1
        assert job.status is JobStatus.FAILED

    def test_metrics_series_sampled(self):
        gen = LoadGenerator(mean_rate_per_hour=300, max_qubits=27, seed=4)
        apps = gen.generate(600.0)
        metrics = self._run(FCFSPolicy(_fake_estimate), apps)
        times, utils = metrics.mean_utilization.as_arrays()
        assert len(times) >= 3
        assert np.all((utils >= 0) & (utils <= 1))

    def test_recalibration_hook(self):
        fleet = default_fleet(seed=7, names=["lagos"])
        sim = CloudSimulator(
            fleet,
            FCFSPolicy(_fake_estimate),
            ExecutionModel(seed=5),
            config=SimulationConfig(
                duration_seconds=300.0, recalibrate_every_seconds=100.0, seed=1
            ),
        )
        sim.run([])
        assert fleet[0].cycle >= 2


class TestConfigValidation:
    """Non-positive periods used to make ``run()`` re-arm one event at the
    same instant forever; they now fail at construction, naming the knob."""

    @pytest.mark.parametrize("value", [0, -5])
    def test_non_positive_sample_period_rejected(self, value):
        with pytest.raises(ValueError, match="sample_every_seconds"):
            SimulationConfig(sample_every_seconds=value)

    @pytest.mark.parametrize("value", [0, -60.0])
    def test_non_positive_recalibration_period_rejected(self, value):
        with pytest.raises(ValueError, match="recalibrate_every_seconds"):
            SimulationConfig(recalibrate_every_seconds=value)

    @pytest.mark.parametrize("value", [0, -1.0, float("nan")])
    def test_non_positive_duration_rejected(self, value):
        with pytest.raises(ValueError, match="duration_seconds"):
            SimulationConfig(duration_seconds=value)

    def test_defaults_and_disabled_recalibration_accepted(self):
        cfg = SimulationConfig(recalibrate_every_seconds=None)
        assert cfg.sample_every_seconds > 0


class TestImbalance:
    def test_greedy_users_create_hotspots(self):
        fleet = default_fleet(seed=9, names=["algiers", "cairo", "hanoi", "kolkata"])
        trace = simulate_queue_imbalance(fleet, num_days=7, seed=0)
        ratios = [trace.max_ratio(d) for d in range(7)]
        assert max(ratios) > 10.0  # order-of-magnitude imbalance

    def test_trace_shape(self):
        fleet = default_fleet(seed=9, names=["lagos", "nairobi"])
        trace = simulate_queue_imbalance(fleet, num_days=3, seed=1)
        assert trace.queue_sizes.shape == (3, 2)
        assert np.all(trace.queue_sizes >= 0)
