"""The resource estimator facade (§6, Fig. 4).

Bundles: trained regression models, template QPUs, and plan generation.
This is the control-plane component the API server calls on workflow
invocation (step 3 of the system workflow) and the scheduler queries for
per-(job, QPU) estimates (step 4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..backends.qpu import QPU
from ..backends.template import TemplateQPU, build_templates
from ..circuits.metrics import CircuitMetrics
from ..cloud.execution import ExecutionModel
from ..cloud.job import QuantumJob, feasibility_matrix
from .dataset import generate_dataset
from .features import job_fidelity_features, job_runtime_features
from .models import TrainedEstimators, train_estimators
from .plans import ResourcePlan, generate_resource_plans

__all__ = ["ResourceEstimator"]


@dataclass
class ResourceEstimator:
    """Trained estimator bound to a fleet's templates."""

    estimators: TrainedEstimators
    templates: dict[str, TemplateQPU]

    @classmethod
    def train_for_fleet(
        cls,
        fleet: list[QPU],
        *,
        num_records: int = 2000,
        execution_model: ExecutionModel | None = None,
        seed: int = 0,
    ) -> "ResourceEstimator":
        """End-to-end §6 pipeline: dataset -> CV model selection -> templates."""
        dataset = generate_dataset(
            fleet,
            num_records=num_records,
            execution_model=execution_model,
            seed=seed,
        )
        trained = train_estimators(dataset, seed=seed)
        return cls(estimators=trained, templates=build_templates(fleet))

    def refresh_templates(self, fleet: list[QPU]) -> None:
        """Re-average template calibrations (call after calibration cycles)."""
        self.templates = build_templates(fleet)

    def on_recalibration(self, qpus: list[QPU]) -> None:
        """The :class:`~repro.estimator.source.EstimateSource` hook:
        refresh the templates from the new calibration data."""
        self.refresh_templates(qpus)

    # ------------------------------------------------------------------
    def estimate_for_qpu(self, job: QuantumJob, qpu: QPU) -> tuple[float, float]:
        """(fidelity, quantum_seconds) for ``job`` on a concrete device."""
        fid = self.estimators.estimate_fidelity(
            job.metrics, job.shots, job.mitigation, qpu.calibration
        )
        sec = self.estimators.estimate_runtime(
            job.metrics, job.shots, job.mitigation, qpu.calibration
        )
        return fid, sec

    def estimate_block(
        self,
        jobs: list[QuantumJob],
        qpus: list[QPU],
        feasible: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(fidelity, exec_seconds) matrices over ``jobs`` x ``qpus``.

        The :class:`~repro.estimator.source.EstimateSource` entry point:
        per QPU, all feasible jobs are predicted in one vectorized batch
        through the trained models; infeasible pairs stay zero and are
        never evaluated.
        """
        n, m = len(jobs), len(qpus)
        fid = np.zeros((n, m))
        sec = np.zeros((n, m))
        if feasible is None:
            feasible = feasibility_matrix(jobs, qpus)
        fid_rows = np.array(
            [job_fidelity_features(j.metrics, j.shots, j.mitigation) for j in jobs]
        )
        run_rows = np.array(
            [job_runtime_features(j.metrics, j.shots, j.mitigation) for j in jobs]
        )
        for k, qpu in enumerate(qpus):
            idx = np.flatnonzero(feasible[:, k])
            if idx.size == 0:
                continue
            fid[idx, k] = self.estimators.estimate_fidelity_batch(
                fid_rows[idx], qpu.calibration
            )
            sec[idx, k] = self.estimators.estimate_runtime_batch(
                run_rows[idx], qpu.calibration
            )
        return fid, sec

    def cached(self, **kwargs) -> "CachedEstimator":
        """A memoizing view of this estimator (an ``EstimateSource``)."""
        from .cache import CachedEstimator

        return CachedEstimator(self, **kwargs)

    def generate_plans(
        self,
        metrics: CircuitMetrics,
        shots: int,
        *,
        num_plans: int = 3,
        mitigations: list[str] | None = None,
        min_fidelity: float = 0.0,
        models: list[str] | None = None,
    ) -> list[ResourcePlan]:
        """Client-facing resource plans against the template QPUs."""
        return generate_resource_plans(
            metrics,
            shots,
            self.templates,
            self.estimators,
            num_plans=num_plans,
            mitigations=mitigations,
            min_fidelity=min_fidelity,
            models=models,
        )
