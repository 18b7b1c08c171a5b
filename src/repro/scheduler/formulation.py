"""The scheduling optimization problem (§7, Eq. 1).

Decision vector: ``x[i]`` = index of the QPU assigned to job ``i``.
Objectives (both minimized):

* ``f1`` — mean JCT: each job pays its QPU's current queue waiting time
  plus the execution time of every batch job co-assigned to that QPU;
* ``f2`` — mean error: ``1 - fidelity`` of each (job, QPU) assignment.

Constraint ``q_i <= s_{x_i}`` (job width fits the QPU) is enforced by
repair: infeasible genes are projected to a random feasible QPU.
Complexity is O(N) in the number of jobs, independent of fleet size.

The hot per-generation passes are population-flat kernels routed through
the pluggable array backend (:mod:`repro.simulation.array_ops`):
:func:`evaluate_population` folds the whole ``(pop, N)`` population into
one offset-encoded segment sum instead of ``pop`` Python iterations, and
:func:`repair_population` projects every infeasible gene with one
bounded-integer draw per violation in row-major order — bit-identical to
the scalar per-individual loops they replaced, which the tests keep as
references (``tests/helpers/moo_reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..moo.problem import Problem
from ..simulation.array_ops import ArrayBackend, make_array_backend

__all__ = [
    "SchedulingInput",
    "SchedulingProblem",
    "assignment_stats",
    "pack_feasible",
    "evaluate_population",
    "repair_population",
]


@dataclass
class SchedulingInput:
    """Pre-processed matrices the optimizer consumes.

    fidelity[i, q] / exec_seconds[i, q] come from the resource estimator;
    waiting_seconds[q] is the system monitor's queue estimate;
    feasible[i, q] marks assignments satisfying the size constraint.
    """

    fidelity: np.ndarray  # (N, Q)
    exec_seconds: np.ndarray  # (N, Q)
    waiting_seconds: np.ndarray  # (Q,)
    feasible: np.ndarray  # (N, Q) bool

    def __post_init__(self) -> None:
        n, q = self.fidelity.shape
        if self.exec_seconds.shape != (n, q):
            raise ValueError("exec_seconds shape mismatch")
        if self.waiting_seconds.shape != (q,):
            raise ValueError("waiting_seconds shape mismatch")
        if self.feasible.shape != (n, q):
            raise ValueError("feasible shape mismatch")
        if not self.feasible.any(axis=1).all():
            raise ValueError("some job has no feasible QPU (filter first)")

    @property
    def num_jobs(self) -> int:
        return self.fidelity.shape[0]

    @property
    def num_qpus(self) -> int:
        return self.fidelity.shape[1]


# ---------------------------------------------------------------------------
# Population-flat kernels (stage-2 hot path; pure, worker-safe)


def pack_feasible(
    feasible: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pack the ragged per-job feasible-QPU lists into flat arrays.

    Returns ``(flat, offsets, counts)``: ``flat[offsets[i] :
    offsets[i] + counts[i]]`` is ``np.where(feasible[i])[0]`` — the
    ascending feasible QPU indices of job ``i`` — without materializing
    one Python list per job.
    """
    counts = feasible.sum(axis=1).astype(np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.int64)
    flat = np.nonzero(feasible)[1].astype(np.int64)  # row-major: per-job runs
    return flat, offsets, counts


def evaluate_population(
    data: SchedulingInput,
    X: np.ndarray,
    backend: ArrayBackend | None = None,
) -> np.ndarray:
    """Eq. 1 objectives for a whole ``(pop, N)`` population in one pass.

    Per-QPU batch loads for *all* individuals come from a single
    offset-encoded segment sum (individual ``p``'s genes land in bins
    ``[p * Q, (p + 1) * Q)``), so the per-generation objective pass is
    one vectorized kernel instead of ``pop`` Python-level ``bincount``
    iterations.  Bit-identical to the per-individual loop: the flat
    segment sum accumulates each bin's weights in the same row-major
    order a per-individual ``bincount`` does, and the row means reduce
    the same contiguous values.
    """
    b = backend if backend is not None else make_array_backend()
    xp = b.xp
    pop, n = X.shape
    q = data.num_qpus
    # Flat (job, qpu) cell ids: a[i, X[p, i]] == a.ravel()[i * Q + X[p, i]],
    # so one index matrix feeds both estimate gathers as flattened takes.
    cell = X + (xp.arange(n) * q)[None, :]
    exec_sel = b.take(data.exec_seconds, cell)  # (pop, N)
    fid_sel = b.take(data.fidelity, cell)
    wait_sel = b.take(data.waiting_seconds, X)
    # Per-individual bins: individual p's genes land in [p * Q, (p+1) * Q).
    seg = X + (xp.arange(pop) * q)[:, None]
    totals = b.segment_sum(exec_sel.ravel(), seg.ravel(), pop * q)
    # The same bin ids read the summed loads back: totals[p*Q + X[p, i]].
    jct = wait_sel + b.take(totals, seg)
    F = xp.empty((pop, 2))
    F[:, 0] = jct.mean(axis=1)
    F[:, 1] = 1.0 - fid_sel.mean(axis=1)
    return b.to_numpy(F)


def repair_population(
    data: SchedulingInput,
    X: np.ndarray,
    rng: np.random.Generator,
    packed: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    backend: ArrayBackend | None = None,
) -> np.ndarray:
    """Project every infeasible gene to a random feasible QPU, batched.

    All violations are located with one mask pass and repaired with one
    bounded-integer draw per violation in row-major ``(individual,
    gene)`` order — the exact order, bounds, and bit stream of a scalar
    per-violation loop, so seeded runs are unchanged by the batching.
    """
    b = backend if backend is not None else make_array_backend()
    X = np.clip(X, 0, data.num_qpus - 1)
    rows = np.arange(data.num_jobs)
    bad = ~b.gather(data.feasible, rows[None, :], X)
    if bad.any():
        flat, offsets, counts = (
            packed if packed is not None else pack_feasible(data.feasible)
        )
        ps, js = np.nonzero(bad)  # row-major: the scalar loop's order
        draws = b.bounded_integers(rng, counts[js])
        X[ps, js] = flat[offsets[js] + draws]
    return X


class SchedulingProblem(Problem):
    """Integer-encoded Eq. 1 instance over a :class:`SchedulingInput`."""

    def __init__(
        self,
        data: SchedulingInput,
        seed: int | np.random.SeedSequence = 0,
        *,
        backend: ArrayBackend | str | None = None,
    ) -> None:
        super().__init__(
            n_var=data.num_jobs, n_obj=2, lower=0, upper=data.num_qpus - 1
        )
        self.data = data
        self._rng = np.random.default_rng(seed)
        self._backend = make_array_backend(backend)
        # Flat feasible-QPU index arrays for the batched repair kernel.
        self._packed = pack_feasible(data.feasible)

    # ------------------------------------------------------------------
    def evaluate(self, X: np.ndarray) -> np.ndarray:
        return evaluate_population(self.data, X, backend=self._backend)

    def repair(self, X: np.ndarray) -> np.ndarray:
        return repair_population(
            self.data, X, self._rng, packed=self._packed, backend=self._backend
        )

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Random init seeded with the two objective extremes.

        The first individual assigns every job to its highest-fidelity
        feasible QPU (the fidelity extreme); the second greedily packs for
        minimum JCT (the completion-time extreme). Seeding both stretches
        the initial front across the whole tradeoff, which plain random
        integer initialization cannot reach for batch sizes of ~100 genes.
        """
        X = rng.integers(0, self.data.num_qpus, size=(n, self.n_var))
        X = self.repair(X)
        data = self.data
        masked_fid = np.where(data.feasible, data.fidelity, -np.inf)
        X[0] = np.argmax(masked_fid, axis=1)
        if n > 1:
            # Greedy min-JCT: place each job where queue + load so far is
            # smallest, updating the projected load as we go.  The
            # feasibility masking is hoisted out of the loop: adding the
            # running load to a pre-masked (inf at infeasible) cost row
            # keeps infeasible entries at inf, so each argmin matches the
            # per-iteration np.where of the original loop bit for bit.
            cost_base = np.where(data.feasible, data.exec_seconds, np.inf)
            load = data.waiting_seconds.copy()
            greedy = np.zeros(self.n_var, dtype=np.int64)
            for i in range(self.n_var):
                q = int(np.argmin(load + cost_base[i]))
                greedy[i] = q
                load[q] += data.exec_seconds[i, q]
            X[1] = greedy
        return X

    # ------------------------------------------------------------------
    def assignment_stats(self, x: np.ndarray) -> dict:
        """Mean JCT / fidelity / exec time of one assignment vector."""
        return assignment_stats(self.data, x)


def assignment_stats(data: SchedulingInput, x: np.ndarray) -> dict:
    """Mean JCT / fidelity / exec stats of one assignment over ``data``.

    Module-level so the scheduler's fold-in stage can score a worker's
    chosen solution without reconstructing the (worker-side)
    :class:`SchedulingProblem`.
    """
    rows = np.arange(data.num_jobs)
    exec_sel = data.exec_seconds[rows, x]
    fid_sel = data.fidelity[rows, x]
    totals = np.bincount(x, weights=exec_sel, minlength=data.num_qpus)
    jct = data.waiting_seconds[x] + totals[x]
    return {
        "mean_jct": float(jct.mean()),
        "p95_jct": float(np.percentile(jct, 95)),
        "mean_fidelity": float(fid_sel.mean()),
        "p95_fidelity": float(np.percentile(fid_sel, 95)),
        "mean_exec_seconds": float(exec_sel.mean()),
        "per_qpu_load": totals.tolist(),
    }
