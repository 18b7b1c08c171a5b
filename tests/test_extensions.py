"""Tests for the extension features: reservations (§7 priority access),
Hamiltonian-simulation / amplitude-estimation workloads, the ASCII figure
renderer, and validation of the execution model's mitigation effects
against the trajectory simulator."""

import numpy as np
import pytest

from helpers.determinism import ClosedFormEstimate
from repro.backends import default_fleet
from repro.cloud.execution import MITIGATION_EFFECTS, ExecutionModel
from repro.cloud.job import QuantumJob
from repro.experiments.ascii_plot import bar_chart, cdf_chart, line_chart
from repro.scheduler import (
    QonductorScheduler,
    Reservation,
    ReservationManager,
)
from repro.simulation import (
    NoiseModel,
    NoisySimulator,
    hellinger_fidelity,
    ideal_probabilities,
)
from repro.workloads import amplitude_estimation, ghz_linear, tfim_trotter


class TestReservations:
    def test_reservation_validation(self):
        with pytest.raises(ValueError):
            Reservation("x", start=10.0, end=10.0)

    def test_overlap_rejected(self):
        mgr = ReservationManager()
        mgr.reserve("auckland", 0.0, 100.0)
        with pytest.raises(ValueError, match="overlapping"):
            mgr.reserve("auckland", 50.0, 150.0)
        mgr.reserve("auckland", 100.0, 200.0)  # back-to-back is fine
        mgr.reserve("cairo", 50.0, 150.0)  # other device is fine

    def test_apply_toggles_online(self):
        fleet = default_fleet(seed=7, names=["auckland", "cairo"])
        mgr = ReservationManager()
        mgr.reserve("auckland", 10.0, 20.0, holder="bigcorp")
        held = mgr.apply(fleet, now=15.0)
        assert held == ["auckland"]
        assert not fleet[0].online and fleet[1].online
        mgr.apply(fleet, now=25.0)
        assert fleet[0].online

    def test_scheduler_skips_reserved_qpu(self):
        fleet = default_fleet(seed=7, names=["auckland", "cairo"])
        mgr = ReservationManager()
        mgr.reserve("auckland", 0.0, 1000.0)
        mgr.apply(fleet, now=10.0)
        sched = QonductorScheduler(
            ClosedFormEstimate(lambda w, qpus: 0.8, lambda w, qpus: 10.0),
            seed=1,
            max_generations=5,
        )
        jobs = [
            QuantumJob.from_circuit(ghz_linear(5), keep_circuit=False)
            for _ in range(4)
        ]
        result = sched.schedule(jobs, fleet, {})
        assert all(d.qpu_name == "cairo" for d in result.decisions)

    def test_prune(self):
        mgr = ReservationManager()
        mgr.reserve("a", 0.0, 10.0)
        mgr.reserve("a", 20.0, 30.0)
        assert mgr.prune(now=15.0) == 1
        assert len(mgr.reservations) == 1


class TestDynamicsWorkloads:
    def test_tfim_zero_field_preserves_zero_state(self):
        # h = 0: |0...0> is an eigenstate; outcome must stay all-zeros.
        c = tfim_trotter(4, steps=3, h_field=0.0)
        probs = ideal_probabilities(c)
        assert probs[0] == pytest.approx(1.0, abs=1e-9)

    def test_tfim_structure(self):
        c = tfim_trotter(5, steps=2)
        ops = c.count_ops()
        assert ops["rzz"] == 8 and ops["rx"] == 10

    def test_tfim_validation(self):
        with pytest.raises(ValueError):
            tfim_trotter(1)
        with pytest.raises(ValueError):
            tfim_trotter(3, steps=0)

    def test_amplitude_estimation_powers_oscillate(self):
        """Hit probability follows sin^2((2k+1) theta) in Grover power k."""
        n = 3
        marked = "111"
        theta = np.arcsin(np.sqrt(1 / 2**n))
        for k in (0, 1, 2):
            probs = ideal_probabilities(amplitude_estimation(n, k, marked=marked))
            expected = np.sin((2 * k + 1) * theta) ** 2
            assert probs[int(marked, 2)] == pytest.approx(expected, abs=1e-6)

    def test_amplitude_estimation_validation(self):
        with pytest.raises(ValueError):
            amplitude_estimation(1)
        with pytest.raises(ValueError):
            amplitude_estimation(3, grover_power=-1)

    def test_registered_in_suite(self):
        from repro.workloads import generate

        assert generate("tfim", 6).metadata["benchmark"] == "tfim"
        assert generate("amplitude_estimation", 3).num_qubits == 3


class TestAsciiPlot:
    def test_line_chart_renders_all_series(self):
        out = line_chart(
            {
                "qonductor": (np.arange(5.0), np.arange(5.0)),
                "fcfs": (np.arange(5.0), np.arange(5.0) * 2),
            },
            title="test",
        )
        assert "test" in out and "*=qonductor" in out and "o=fcfs" in out
        assert len(out.splitlines()) > 10

    def test_line_chart_empty(self):
        out = line_chart({"a": (np.array([]), np.array([]))})
        assert "no data" in out

    def test_bar_chart_scales(self):
        out = bar_chart({"auckland": 100.0, "algiers": 50.0}, width=20)
        lines = out.splitlines()
        assert lines[0].count("█") == 20
        assert lines[1].count("█") == 10

    def test_cdf_chart_monotone_axes(self):
        out = cdf_chart({"reg": np.random.default_rng(0).uniform(0, 1, 50)})
        assert "P(err <= x)" in out


class TestMitigationEffectValidation:
    """The MITIGATION_EFFECTS constants must match the mechanistic
    improvements delivered by our actual mitigation implementations."""

    def _measured_gain(self, preset: str) -> float:
        from repro.mitigation import MitigationStack

        nm = NoiseModel.uniform(
            4, error_2q=0.02, readout_error=0.04, t1_us=80, t2_us=50
        )
        sim = NoisySimulator(nm, num_trajectories=60, seed=3)
        c = ghz_linear(4)
        ideal = ideal_probabilities(c)
        stack = MitigationStack.preset(preset)
        plan = stack.expand(c, nm)
        probs = [sim.noisy_probabilities(i) for i in plan.instances]
        return hellinger_fidelity(stack.post_process(plan, probs, nm, 4), ideal)

    def test_effect_table_orderings_match_simulation(self):
        base = self._measured_gain("none")
        rem = self._measured_gain("rem")
        full = self._measured_gain("dd+zne+rem")
        assert rem > base
        assert full > rem

    def test_model_gain_matches_simulation_direction(self):
        fleet = default_fleet(seed=7, names=["algiers"])
        em = ExecutionModel(seed=1)
        job_p = QuantumJob.from_circuit(ghz_linear(4), shots=4000)
        job_m = QuantumJob.from_circuit(
            ghz_linear(4), shots=4000, mitigation="dd+zne+rem"
        )
        model_gain = em.expected_fidelity(
            job_m, fleet[0].calibration, fleet[0].model
        ) - em.expected_fidelity(job_p, fleet[0].calibration, fleet[0].model)
        sim_gain = self._measured_gain("dd+zne+rem") - self._measured_gain("none")
        assert model_gain > 0 and sim_gain > 0

    def test_effects_table_well_formed(self):
        for tech, eff in MITIGATION_EFFECTS.items():
            for key, value in eff.items():
                if key in ("readout", "gate", "decoherence"):
                    assert 0.0 < value <= 1.0, (tech, key)
                else:
                    assert value > 0.0, (tech, key)
