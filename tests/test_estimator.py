"""Resource-estimator tests: features, dataset, models, numerical baseline,
cost model, and plan generation."""

import numpy as np
import pytest

from repro.backends import default_fleet
from repro.circuits import compute_metrics
from repro.cloud import ExecutionModel
from repro.cloud.job import QuantumJob
from repro.estimator import (
    NumericalEstimator,
    ResourceEstimator,
    TABLE1_RATES,
    fidelity_features,
    generate_dataset,
    mitigation_flags,
    plan_cost,
    runtime_features,
    train_estimators,
)
from repro.workloads import ghz_linear, qaoa_ring_maxcut

FLEET_NAMES = ["auckland", "algiers", "lagos"]


@pytest.fixture(scope="module")
def fleet():
    return default_fleet(seed=7, names=FLEET_NAMES)


@pytest.fixture(scope="module")
def execution_model():
    return ExecutionModel(seed=3)


@pytest.fixture(scope="module")
def trained(fleet, execution_model):
    return ResourceEstimator.train_for_fleet(
        default_fleet(seed=7, names=FLEET_NAMES),
        num_records=600,
        execution_model=execution_model,
        seed=4,
    )


class TestFeatures:
    def test_mitigation_flags(self):
        assert mitigation_flags("none") == [0, 0, 0, 0]
        assert mitigation_flags("dd+zne+rem") == [1, 0, 1, 1]
        with pytest.raises(KeyError):
            mitigation_flags("nope")

    def test_feature_vectors_finite(self, fleet):
        m = compute_metrics(ghz_linear(5))
        xf = fidelity_features(m, 4000, "zne+rem", fleet[0].calibration)
        xr = runtime_features(m, 4000, "zne+rem", fleet[0].calibration)
        assert np.all(np.isfinite(xf)) and np.all(np.isfinite(xr))
        assert len(xf) == 16 and len(xr) == 11

    def test_features_differ_across_qpus(self, fleet):
        m = compute_metrics(ghz_linear(5))
        a = fidelity_features(m, 1000, "none", fleet[0].calibration)
        b = fidelity_features(m, 1000, "none", fleet[1].calibration)
        assert not np.allclose(a, b)


class TestDataset:
    def test_generation_shapes(self, fleet, execution_model):
        ds = generate_dataset(
            default_fleet(seed=7, names=FLEET_NAMES),
            num_records=120,
            execution_model=execution_model,
            seed=1,
        )
        assert len(ds) > 100
        assert ds.X_fidelity.shape[0] == len(ds.y_fidelity)
        assert np.all((ds.y_fidelity >= 0) & (ds.y_fidelity <= 1))
        assert np.all(ds.y_runtime > 0)

    def test_covers_multiple_mitigations_and_qpus(self, execution_model):
        ds = generate_dataset(
            default_fleet(seed=7, names=FLEET_NAMES),
            num_records=150,
            execution_model=execution_model,
            seed=2,
        )
        assert len(set(ds.mitigations)) >= 4
        assert len(set(ds.qpu_names)) >= 2


class TestTrainedEstimators:
    def test_cv_r2_reasonable(self, trained):
        assert trained.estimators.fidelity.cv_r2 > 0.85
        assert trained.estimators.runtime.cv_r2 > 0.9

    def test_selection_report_has_all_degrees(self, trained):
        rep = trained.estimators.selection_report
        assert set(rep["fidelity"]) == {"degree_1", "degree_2", "degree_3"}

    def test_predictions_clipped(self, trained, fleet):
        m = compute_metrics(ghz_linear(20))
        fid = trained.estimators.estimate_fidelity(
            m, 20000, "none", fleet[1].calibration
        )
        assert 0.0 <= fid <= 1.0
        sec = trained.estimators.estimate_runtime(
            m, 20000, "none", fleet[1].calibration
        )
        assert sec >= 0.0

    def test_estimates_track_quality(self, trained, fleet):
        """Better-calibrated QPU -> higher estimated fidelity."""
        job = QuantumJob.from_circuit(ghz_linear(10), shots=4000)
        f_good, _ = trained.estimate_for_qpu(job, fleet[0])  # auckland
        f_bad, _ = trained.estimate_for_qpu(job, fleet[1])  # algiers
        assert f_good > f_bad

    def test_mitigation_raises_estimate(self, trained, fleet):
        m = compute_metrics(ghz_linear(10))
        f_plain = trained.estimators.estimate_fidelity(
            m, 4000, "none", fleet[1].calibration
        )
        f_mit = trained.estimators.estimate_fidelity(
            m, 4000, "dd+zne+rem", fleet[1].calibration
        )
        assert f_mit > f_plain

    def test_train_too_small_raises(self, execution_model):
        ds = generate_dataset(
            default_fleet(seed=7, names=["lagos"]),
            num_records=20,
            execution_model=execution_model,
            seed=3,
        )
        with pytest.raises(ValueError):
            train_estimators(ds)


class TestNumericalBaseline:
    def test_ignores_mitigation(self, fleet, execution_model):
        num = NumericalEstimator(proxy=execution_model.proxy)
        m = compute_metrics(ghz_linear(8))
        f1 = num.estimate_fidelity(m, 4000, "none", fleet[0].calibration, fleet[0].model)
        f2 = num.estimate_fidelity(
            m, 4000, "dd+zne+rem", fleet[0].calibration, fleet[0].model
        )
        assert f1 == pytest.approx(f2)

    def test_runtime_scales_with_shots(self, fleet, execution_model):
        num = NumericalEstimator(proxy=execution_model.proxy)
        m = compute_metrics(ghz_linear(8))
        t1 = num.estimate_runtime(m, 1000, "none", fleet[0].calibration, fleet[0].model)
        t2 = num.estimate_runtime(m, 8000, "none", fleet[0].calibration, fleet[0].model)
        assert t2 > t1

    def test_regression_beats_numerical_on_mitigated_jobs(
        self, trained, fleet, execution_model
    ):
        num = NumericalEstimator(proxy=execution_model.proxy)
        rng = np.random.default_rng(5)
        errs_reg, errs_num = [], []
        for seed in range(30):
            circ = ghz_linear(4 + seed % 8)
            job = QuantumJob.from_circuit(circ, shots=4000, mitigation="dd+zne+rem")
            qpu = fleet[seed % len(fleet)]
            real = execution_model.execute(job, qpu.calibration, qpu.model, rng)
            f_reg, _ = trained.estimate_for_qpu(job, qpu)
            f_num = num.estimate_fidelity(
                job.metrics, job.shots, job.mitigation, qpu.calibration, qpu.model
            )
            errs_reg.append(abs(f_reg - real.fidelity))
            errs_num.append(abs(f_num - real.fidelity))
        assert np.mean(errs_reg) < np.mean(errs_num)


class TestCost:
    def test_table1_orders_of_magnitude(self):
        assert 3000 <= TABLE1_RATES["qpu"].price_per_hour <= 6000
        assert 10 <= TABLE1_RATES["highend_vm"].price_per_hour <= 40
        assert 1 <= TABLE1_RATES["standard_vm"].price_per_hour <= 5

    def test_plan_cost_monotone(self):
        assert plan_cost(120, 0) > plan_cost(60, 0)
        assert plan_cost(60, 600) > plan_cost(60, 0)

    def test_classical_trade_is_cheap(self):
        # An hour of high-end VM costs far less than an hour of QPU.
        vm_hour = plan_cost(0.0, 3600.0, classical_tier="highend_vm")
        qpu_hour = plan_cost(3600.0, 0.0)
        assert qpu_hour / vm_hour > 50

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            plan_cost(-1.0, 0.0)


class TestPlans:
    def test_plans_are_pareto_and_sorted(self, trained):
        m = compute_metrics(qaoa_ring_maxcut(12, seed=2))
        plans = trained.generate_plans(m, 4000, num_plans=5)
        assert 1 <= len(plans) <= 5
        fids = [p.est_fidelity for p in plans]
        assert fids == sorted(fids, reverse=True)
        # Pareto: strictly better fidelity must cost more total time.
        for hi, lo in zip(plans, plans[1:]):
            assert hi.est_total_seconds >= lo.est_total_seconds

    def test_min_fidelity_filter(self, trained):
        m = compute_metrics(qaoa_ring_maxcut(12, seed=2))
        all_plans = trained.generate_plans(m, 4000, num_plans=8)
        filtered = trained.generate_plans(
            m, 4000, num_plans=8, min_fidelity=all_plans[0].est_fidelity - 1e-9
        )
        assert all(
            p.est_fidelity >= all_plans[0].est_fidelity - 1e-6 for p in filtered
        )

    def test_too_wide_job_gets_no_plans(self, trained):
        m = compute_metrics(ghz_linear(120))
        assert trained.generate_plans(m, 1000) == []

    def test_refresh_templates(self, trained):
        # Dataset generation already advanced the training fleet's cycles;
        # move a fresh fleet two cycles further so averages must change.
        fleet = default_fleet(seed=7, names=FLEET_NAMES)
        for q in fleet:
            q.recalibrate()
            q.recalibrate()
            q.recalibrate()
        before = {
            k: t.calibration.mean_error_2q for k, t in trained.templates.items()
        }
        trained.refresh_templates(fleet)
        after = {
            k: t.calibration.mean_error_2q for k, t in trained.templates.items()
        }
        assert before != after


# ---------------------------------------------------------------------------
# The unified estimate-source surface (EstimateSource / estimate_block)
# ---------------------------------------------------------------------------

import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from repro.cloud import AnalyticEstimateSource  # noqa: E402
from repro.cloud.execution import (  # noqa: E402
    QPU_SETUP_SECONDS,
    SHOT_OVERHEAD_US,
)
from repro.cloud.job import feasibility_matrix  # noqa: E402
from repro.estimator import block_feasibility  # noqa: E402
from repro.estimator.source import require_estimate_source  # noqa: E402
from repro.simulation import esp, esp_to_hellinger  # noqa: E402
from repro.workloads import ghz  # noqa: E402


def _jobs_with_circuits(widths=(2, 4, 3, 6, 27)):
    return [QuantumJob.from_circuit(ghz_linear(w), shots=2000) for w in widths]


class TestEstimateSourceAdapter:
    """The policy-side gate: only ``EstimateSource`` objects get in."""

    def test_block_capable_source_passes_through(self, trained):
        cached = trained.cached()
        assert require_estimate_source(cached, "source") is cached
        assert require_estimate_source(trained, "source") is trained

    def test_unadaptable_raises(self):
        with pytest.raises(TypeError, match="^source must be"):
            require_estimate_source(42, "source")

    def test_resource_estimator_drives_least_busy(self, trained, fleet):
        from repro.scheduler import LeastBusyPolicy

        jobs = _jobs_with_circuits((2, 3, 4))
        out = LeastBusyPolicy(trained).assign(jobs, fleet, {})
        assert all(name is not None for _, name in out)

    def test_resource_estimator_recalibration_refreshes_templates(
        self, trained, fleet
    ):
        before = trained.templates
        trained.cached().on_recalibration(fleet)
        assert trained.templates is not before

    def test_block_feasibility_matches_cloud_matrix(self, fleet):
        jobs = _jobs_with_circuits()
        assert np.array_equal(
            block_feasibility(jobs, fleet), feasibility_matrix(jobs, fleet)
        )


class TestEstimateBlock:
    def test_trained_block_matches_pairwise(self, trained, fleet):
        jobs = _jobs_with_circuits()
        fid, sec = trained.estimate_block(jobs, fleet)
        feas = feasibility_matrix(jobs, fleet)
        for i, job in enumerate(jobs):
            for k, qpu in enumerate(fleet):
                if not feas[i, k]:
                    assert fid[i, k] == 0.0 and sec[i, k] == 0.0
                    continue
                pf, ps = trained.estimate_for_qpu(job, qpu)
                assert abs(fid[i, k] - pf) <= 1e-12
                assert abs(sec[i, k] - ps) <= 1e-12

    def test_cached_block_matches_trained_block(self, trained, fleet):
        jobs = _jobs_with_circuits()
        ref_fid, ref_sec = trained.estimate_block(jobs, fleet)
        cached = trained.cached()
        for _ in range(2):  # second pass served from memo
            fid, sec = cached.estimate_block(jobs, fleet)
            np.testing.assert_allclose(fid, ref_fid, rtol=0, atol=1e-12)
            np.testing.assert_allclose(sec, ref_sec, rtol=0, atol=1e-12)
        assert cached.stats.hits > 0


class TestAnalyticEstimateSource:
    def test_block_matches_esp_math(self, fleet):
        jobs = _jobs_with_circuits((2, 3, 5, 4))
        source = AnalyticEstimateSource()
        fid, sec = source.estimate_block(jobs, fleet)
        feas = feasibility_matrix(jobs, fleet)
        for i, job in enumerate(jobs):
            for k, qpu in enumerate(fleet):
                if not feas[i, k]:
                    assert fid[i, k] == 0.0 and sec[i, k] == 0.0
                    continue
                nm = qpu.noise_model
                expect_fid = esp_to_hellinger(
                    esp(job.circuit, nm), job.num_qubits
                )
                from repro.simulation import circuit_duration_ns

                per_shot = (
                    circuit_duration_ns(job.circuit, nm) / 1e9
                    + SHOT_OVERHEAD_US / 1e6
                )
                expect_sec = QPU_SETUP_SECONDS + job.shots * per_shot
                assert abs(fid[i, k] - expect_fid) <= 1e-12
                assert abs(sec[i, k] - expect_sec) <= 1e-9

    def test_pair_view_matches_block(self, fleet):
        job = _jobs_with_circuits((4,))[0]
        source = AnalyticEstimateSource()
        pf, ps = source(job, fleet[0])
        fid, sec = source.estimate_block([job], [fleet[0]])
        assert pf == fid[0, 0] and ps == sec[0, 0]

    def test_requires_circuits(self, fleet):
        job = QuantumJob.from_circuit(ghz(3), keep_circuit=False)
        with pytest.raises(ValueError, match="keep_circuit"):
            AnalyticEstimateSource().estimate_block([job], fleet)

    def test_drives_scheduling_policy(self, fleet):
        from repro.scheduler import FCFSPolicy

        jobs = _jobs_with_circuits((2, 3, 4))
        policy = FCFSPolicy(AnalyticEstimateSource())
        out = policy.assign(jobs, fleet, {})
        assert all(name is not None for _, name in out)


class TestArrayBackendEnvIdentity:
    def test_run_bit_identical_under_explicit_env(self):
        """A seeded sharded run with ARRAY_BACKEND=numpy exported must be
        bit-identical to the default-backend run (the CI tier-1 job sets
        the variable explicitly)."""
        script = (
            "import json, sys\n"
            "sys.path.insert(0, 'tests')\n"
            "from helpers.determinism import fake_estimate, run_sharded\n"
            "from repro.scheduler import FCFSPolicy\n"
            "m = run_sharded(FCFSPolicy(fake_estimate), 'serial',"
            " duration=300.0)\n"
            "state = {k: repr(v) for k, v in"
            " sorted(m.deterministic_state().items())}\n"
            "print(json.dumps(state))\n"
        )
        outs = []
        for env_backend in (None, "numpy"):
            env = dict(os.environ)
            env.pop("ARRAY_BACKEND", None)
            if env_backend is not None:
                env["ARRAY_BACKEND"] = env_backend
            env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout.strip().splitlines()[-1])
        assert outs[0] == outs[1]
