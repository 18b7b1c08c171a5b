"""The unified estimate-source surface of the scheduling stack.

Everything that scores (job, QPU) pairs — the trained regression
estimator, its memoizing cache, and the analytic ESP proxy — implements
one protocol: :class:`EstimateSource`.  Its ``estimate_block(jobs, qpus,
feasible=None)`` returns the ``(fidelity, exec_seconds)`` matrix pair for
a whole jobs-block, and ``on_recalibration(qpus)`` tells the source that
the fleet's calibration data changed.  Schedulers and baseline policies
accept nothing else (see :func:`require_estimate_source`); a bare
``(job, qpu)`` callable becomes a source by wrapping it in
:class:`~repro.estimator.cache.CachedEstimator`.

This module is intentionally a leaf (numpy + stdlib only) so every layer
— :mod:`repro.scheduler`, :mod:`repro.cloud`, :mod:`repro.estimator` —
can import it without ordering concerns.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "EstimateSource",
    "block_feasibility",
    "require_estimate_source",
]


@runtime_checkable
class EstimateSource(Protocol):
    """Batched estimate provider for the scheduling hot path.

    ``estimate_block(jobs, qpus, feasible=None)`` returns two
    ``(len(jobs), len(qpus))`` float arrays — estimated fidelity and
    estimated execution seconds.  ``feasible`` is an optional boolean
    mask of the same shape (job fits the QPU and the QPU is online);
    when omitted, implementations compute it themselves.  Infeasible
    pairs are left at 0.0 and must not be evaluated — that contract is
    what lets implementations skip work and callers mask scores safely.

    ``on_recalibration(qpus)`` runs after every calibration cycle with
    the whole fleet; sources drop whatever depends on the old
    calibration data (stateless sources do nothing).
    """

    def estimate_block(
        self,
        jobs: list[Any],
        qpus: list[Any],
        feasible: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]: ...

    def on_recalibration(self, qpus: list[Any]) -> None: ...


def require_estimate_source(source: object, param: str) -> EstimateSource:
    """Return ``source`` if it is an :class:`EstimateSource`, else raise a
    :class:`TypeError` naming the constructor parameter ``param``."""
    if not isinstance(source, EstimateSource):
        raise TypeError(
            f"{param} must be an EstimateSource (estimate_block + "
            f"on_recalibration), got {type(source).__name__}; wrap a bare "
            "(job, qpu) callable with CachedEstimator(fn)"
        )
    return source


def block_feasibility(jobs: list[Any], qpus: list[Any]) -> np.ndarray:
    """Width/online feasibility mask, mirroring
    :func:`repro.cloud.job.feasibility_matrix` (kept local so this
    module stays a leaf)."""
    widths = np.array([j.num_qubits for j in jobs], dtype=int)
    caps = np.array(
        [q.num_qubits if q.online else -1 for q in qpus], dtype=int
    )
    return widths[:, None] <= caps[None, :]
