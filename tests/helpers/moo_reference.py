"""Independent oracles for the NSGA-II hot path.

The library ranks two objectives with a sort-and-sweep
(:mod:`repro.moo.sorting`).  These are the general m-objective
references it replaced, kept verbatim so tests can check the sweep
against code that shares none of its logic: a pairwise domination
matrix, fronts peeled off its dominator counters, and per-front
crowding from :func:`repro.moo.sorting.crowding_distance`.  The
scheduling problem's population-flat kernels
(:mod:`repro.scheduler.formulation`) likewise keep their scalar
per-individual loops here: :func:`evaluate_reference` and
:func:`repair_reference`.  :func:`nsga_reference_patch` swaps a whole
NSGA-II run onto these references for A/B comparisons.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.moo.sorting import crowding_distance

__all__ = [
    "dominates_matrix",
    "evaluate_reference",
    "front_ranks",
    "fronts",
    "nsga_reference_patch",
    "pareto_front_mask",
    "rank_and_crowd",
    "repair_reference",
]


def dominates_matrix(F: np.ndarray) -> np.ndarray:
    """``D[i, j]`` True iff individual i dominates j (all <=, any <).

    Fused single pass: one ``(n, n)`` comparison per objective folded
    into two boolean accumulators, instead of broadcasting the full
    ``(n, n, m)`` tensor twice and reducing it.
    """
    n, m = F.shape
    less_eq = np.ones((n, n), dtype=bool)
    less = np.zeros((n, n), dtype=bool)
    for j in range(m):
        col_i = F[:, j, None]
        col_j = F[None, :, j]
        less_eq &= col_i <= col_j
        less |= col_i < col_j
    return less_eq & less


def front_ranks(F: np.ndarray) -> np.ndarray:
    """Pareto front rank per individual (0 = non-dominated).

    One domination matrix, then iterative peeling on the dominator
    counters — no per-front re-sorting, no index-list bookkeeping.
    """
    n = len(F)
    rank = np.zeros(n, dtype=np.int64)
    if n == 0:
        return rank
    dom = dominates_matrix(F)
    counts = dom.sum(axis=0).astype(np.int64)
    remaining = np.ones(n, dtype=bool)
    r = 0
    while remaining.any():
        current = np.where(remaining & (counts == 0))[0]
        if len(current) == 0:  # numerical ties: flush the rest as one front
            current = np.where(remaining)[0]
        rank[current] = r
        remaining[current] = False
        # Removing the current front decrements its dominatees' counters.
        counts -= dom[current].sum(axis=0)
        r += 1
    return rank


def fronts(F: np.ndarray) -> list[np.ndarray]:
    """Position-ordered index array per front (front 0 = non-dominated)."""
    return _split(front_ranks(F))


def _split(rank: np.ndarray) -> list[np.ndarray]:
    if len(rank) == 0:
        return []
    return [np.where(rank == r)[0] for r in range(int(rank.max()) + 1)]


def pareto_front_mask(F: np.ndarray) -> np.ndarray:
    """Boolean mask of rows no other row dominates."""
    return ~dominates_matrix(F).any(axis=0)


def rank_and_crowd(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Oracle ranks plus crowding computed front by front."""
    rank = front_ranks(F)
    crowd = np.empty(len(F))
    for front in _split(rank):
        crowd[front] = crowding_distance(F[front])
    return rank, crowd


def evaluate_reference(data, X: np.ndarray) -> np.ndarray:
    """The per-individual Eq. 1 objective loop that
    :func:`repro.scheduler.formulation.evaluate_population` replaced."""
    pop, n = X.shape
    q = data.num_qpus
    rows = np.arange(n)
    F = np.empty((pop, 2))
    exec_sel = data.exec_seconds[rows[None, :], X]  # (pop, N)
    fid_sel = data.fidelity[rows[None, :], X]
    wait_sel = data.waiting_seconds[X]
    for p in range(pop):
        # Total batch execution time landing on each QPU.
        totals = np.bincount(X[p], weights=exec_sel[p], minlength=q)
        jct = wait_sel[p] + totals[X[p]]
        F[p, 0] = jct.mean()
        F[p, 1] = 1.0 - fid_sel[p].mean()
    return F


def repair_reference(
    data,
    X: np.ndarray,
    rng: np.random.Generator,
    feasible_lists: list[np.ndarray] | None = None,
) -> np.ndarray:
    """The scalar per-violation repair loop that
    :func:`repro.scheduler.formulation.repair_population` replaced."""
    if feasible_lists is None:
        feasible_lists = [
            np.where(data.feasible[i])[0] for i in range(data.num_jobs)
        ]
    X = np.clip(X, 0, data.num_qpus - 1)
    bad = ~data.feasible[np.arange(data.num_jobs)[None, :], X]
    if bad.any():
        for p, i in zip(*np.nonzero(bad)):
            options = feasible_lists[i]
            X[p, i] = options[int(rng.integers(len(options)))]
    return X


@contextlib.contextmanager
def nsga_reference_patch():
    """Swap the NSGA-II hot path back to the pre-kernel reference loops.

    Restores the per-individual evaluate loop, the scalar per-violation
    repair loop, the per-front rank/crowding loops, and the
    recompute-from-scratch truncation — the implementations the
    population-flat kernels replaced.  The references consume the same
    RNG streams, so a patched run returns bit-identical results and the
    only difference a before/after timing sees is the kernels.
    """
    from repro.moo.nsga2 import NSGA2
    from repro.scheduler.formulation import SchedulingProblem

    def ref_evaluate(self, X):
        return evaluate_reference(self.data, X)

    def ref_repair(self, X):
        lists = self.__dict__.get("_ref_feasible_lists")
        if lists is None:
            # The pre-kernel problem built these once in __init__; cache
            # per instance so the "before" arm isn't charged for rebuilds.
            lists = [
                np.where(self.data.feasible[i])[0]
                for i in range(self.data.num_jobs)
            ]
            self.__dict__["_ref_feasible_lists"] = lists
        return repair_reference(self.data, X, self._rng, lists)

    def ref_rank_and_crowd(self, F):
        return rank_and_crowd(F)

    def ref_truncate(self, X, F):
        chosen, count = [], 0
        for front in fronts(F):
            if count + len(front) <= self.pop_size:
                chosen.append(front)
                count += len(front)
            else:
                crowd = crowding_distance(F[front])
                order = np.argsort(-crowd, kind="stable")
                chosen.append(front[order[: self.pop_size - count]])
                break
        idx = np.concatenate(chosen)
        Xs, Fs = X[idx], F[idx]
        rank, crowd = self._rank_and_crowd(Fs)
        return Xs, Fs, rank, crowd

    saved = (
        SchedulingProblem.evaluate,
        SchedulingProblem.repair,
        NSGA2._rank_and_crowd,
        NSGA2._truncate,
    )
    try:
        SchedulingProblem.evaluate = ref_evaluate
        SchedulingProblem.repair = ref_repair
        NSGA2._rank_and_crowd = ref_rank_and_crowd
        NSGA2._truncate = ref_truncate
        yield
    finally:
        (
            SchedulingProblem.evaluate,
            SchedulingProblem.repair,
            NSGA2._rank_and_crowd,
            NSGA2._truncate,
        ) = saved
