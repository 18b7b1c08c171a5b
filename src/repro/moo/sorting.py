"""Bi-objective non-dominated sorting and crowding distance (NSGA-II internals).

Every caller minimizes two objectives (JCT and fidelity loss), so ranking
is a sort-and-sweep in O(n log n) instead of an O(n²) domination matrix
(Kung, Luccio & Preparata 1975; Jensen 2003):

1. Rows are visited in lexicographic ``(f1, f2)`` order (``np.lexsort``,
   ties on array position).  Every dominator of a row comes before it,
   and identical rows are adjacent.
2. Identical rows never dominate each other and always share a front,
   so each run of duplicates is swept once, through its first row.
3. Among the distinct rows visited so far, row ``i`` dominates row
   ``j`` exactly when ``f2[i] <= f2[j]``: ``f1[i] <= f1[j]`` holds by
   the visit order, and the two rows differ in at least one objective.
4. Patience layering: each front keeps the smallest ``f2`` it holds
   (its latest member); these tails never decrease with the front
   index.  A row joins the first front whose tail exceeds its ``f2``
   (``bisect_right``), one front past its deepest dominator.

The ranks equal iterative peeling of the domination relation ("all <=,
any <"); ``-0.0 == 0.0`` and ``±inf`` compare as ordinary values.  NaN
has no order, so the kernels reject it, and they reject any shape other
than ``(n, 2)``.  Crowding distances for *every* front come from one
segment-wise ranked sweep per objective (:func:`crowding_by_rank`) —
the kernel :class:`~repro.moo.nsga2.NSGA2` shares between selection and
elitist truncation.  All outputs are bit-identical to the per-front
domination-matrix reference loops (``tests/helpers/moo_reference.py``).
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

__all__ = [
    "front_ranks",
    "fast_non_dominated_sort",
    "crowding_distance",
    "crowding_by_rank",
    "pareto_front_mask",
]


def front_ranks(F: np.ndarray) -> np.ndarray:
    """Pareto front rank per individual (0 = non-dominated)."""
    if F.ndim != 2 or F.shape[1] != 2:
        raise ValueError(
            f"F must have shape (n, 2) (two objectives), got {F.shape}"
        )
    if np.isnan(F).any():
        raise ValueError("F contains NaN, which has no Pareto order")
    n = len(F)
    rank = np.empty(n, dtype=np.int64)
    if n == 0:
        return rank
    f1, f2 = F[:, 0], F[:, 1]
    order = np.lexsort((f2, f1))
    s1, s2 = f1[order], f2[order]
    distinct = np.ones(n, dtype=bool)
    np.logical_or(s1[1:] != s1[:-1], s2[1:] != s2[:-1], out=distinct[1:])
    tails: list[float] = []
    ranks: list[int] = []
    for x in s2[distinct].tolist():
        r = bisect_right(tails, x)
        if r == len(tails):
            tails.append(x)
        else:
            tails[r] = x
        ranks.append(r)
    # Duplicates take the rank of the first row of their run.
    rank[order] = np.array(ranks)[np.cumsum(distinct) - 1]
    return rank


def fast_non_dominated_sort(F: np.ndarray) -> list[np.ndarray]:
    """Partition indices into Pareto fronts (front 0 = non-dominated)."""
    if len(F) == 0:
        return []
    rank = front_ranks(F)
    return [np.where(rank == r)[0] for r in range(int(rank.max()) + 1)]


def pareto_front_mask(F: np.ndarray) -> np.ndarray:
    """Boolean mask of non-dominated rows of ``F`` (rank 0 of the sweep)."""
    return front_ranks(F) == 0


def crowding_distance(F: np.ndarray) -> np.ndarray:
    """NSGA-II crowding distance within one front (larger = less crowded)."""
    n, m = F.shape
    if n <= 2:
        return np.full(n, np.inf)
    dist = np.zeros(n)
    for j in range(m):
        order = np.argsort(F[:, j], kind="stable")
        fmin, fmax = F[order[0], j], F[order[-1], j]
        dist[order[0]] = dist[order[-1]] = np.inf
        span = fmax - fmin
        if span <= 1e-300:
            continue
        gaps = (F[order[2:], j] - F[order[:-2], j]) / span
        dist[order[1:-1]] += gaps
    return dist


def crowding_by_rank(F: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Crowding distances for *all* fronts in one ranked sweep.

    Equivalent to ``crowding_distance(F[front])`` scattered back per
    front.  Sorting by ``(rank, F[:, j])`` puts every front in the same
    contiguous segment for each objective, so segment bounds and the
    interior positions are computed once from the front sizes; each
    objective then costs one stable lexsort, extreme marking and one
    interior-gap accumulation.  Ties within a front break on array
    position, exactly like the per-front stable argsort (front index
    arrays are position-ordered), so results are bit-identical to the
    reference loop.
    """
    n, m = F.shape
    dist = np.zeros(n)
    if n == 0:
        return dist
    sizes = np.bincount(rank)
    sizes = sizes[sizes > 0]
    last = np.cumsum(sizes) - 1
    first = last - (sizes - 1)
    interior = np.ones(n, dtype=bool)
    interior[first] = False
    interior[last] = False
    p = np.flatnonzero(interior)
    seg = np.repeat(np.arange(len(sizes)), sizes)[p]
    for j in range(m):
        col = F[:, j]
        order = np.lexsort((col, rank))
        Fo = col[order]
        # Segment extremes get infinite distance (assignment, matching
        # the reference's overwrite semantics across objectives).
        dist[order[first]] = np.inf
        dist[order[last]] = np.inf
        span = (Fo[last] - Fo[first])[seg]
        keep = span > 1e-300
        if keep.all():
            dist[order[p]] += (Fo[p + 1] - Fo[p - 1]) / span
        else:
            q = p[keep]
            dist[order[q]] += (Fo[q + 1] - Fo[q - 1]) / span[keep]
    return dist
