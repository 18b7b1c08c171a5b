"""Genetic operators customized per the paper (§7):

* random-integer population initialization (in :meth:`Problem.sample`),
* crossover "simulating the operation on real values using an exponential
  probability distribution" — an SBX-style blend whose spread factor is
  drawn from an exponential distribution, rounded back to integers,
* mutation "perturbing solutions within a parent's vicinity using a
  polynomial probability distribution" — classic polynomial mutation,
  rounded to integers,
* binary tournament selection on (rank, crowding distance).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "tournament_selection",
    "exponential_crossover",
    "polynomial_mutation",
]


def tournament_selection(
    rank: np.ndarray,
    crowding: np.ndarray,
    n_parents: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Binary tournaments: lower rank wins; ties broken by larger crowding."""
    n = len(rank)
    a = rng.integers(0, n, n_parents)
    b = rng.integers(0, n, n_parents)
    ra, rb = rank[a], rank[b]
    pick_a = (ra < rb) | ((ra == rb) & (crowding[a] >= crowding[b]))
    return np.where(pick_a, a, b)


def exponential_crossover(
    parents_a: np.ndarray,
    parents_b: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    rng: np.random.Generator,
    *,
    rate: float = 0.9,
    beta_scale: float = 0.35,
) -> tuple[np.ndarray, np.ndarray]:
    """SBX-flavoured integer crossover with exponentially distributed spread.

    Children are ``0.5 [(1 ± beta) p_a + (1 ∓ beta) p_b]`` with
    ``beta ~ Exp(beta_scale)`` per gene, rounded and clipped. ``rate`` is
    the per-gene crossover probability; untouched genes copy the parents.
    """
    pa = parents_a.astype(float)
    pb = parents_b.astype(float)
    shape = pa.shape
    beta = rng.exponential(beta_scale, shape)
    do = rng.random(shape) < rate
    up, down = 1 + beta, 1 - beta
    c1 = np.where(do, 0.5 * (up * pa + down * pb), pa)
    c2 = np.where(do, 0.5 * (down * pa + up * pb), pb)
    c1 = np.minimum(np.maximum(np.rint(c1), lower), upper).astype(np.int64)
    c2 = np.minimum(np.maximum(np.rint(c2), lower), upper).astype(np.int64)
    return c1, c2


def polynomial_mutation(
    X: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    rng: np.random.Generator,
    *,
    rate: float | None = None,
    eta: float = 12.0,
) -> np.ndarray:
    """Deb's polynomial mutation on integers.

    Default per-gene rate is ``1/n_var``. The perturbation magnitude follows
    the polynomial distribution with index ``eta``; larger eta keeps
    children closer to the parent ("within a parent's vicinity").
    """
    mutated = X.astype(float, order="C")
    n_var = X.shape[1]
    p = 1.0 / n_var if rate is None else rate
    span = (upper - lower).astype(float)
    span[span == 0] = 1.0
    # Both draws stay full-shape so the stream advances the same way
    # whatever the rate; delta is only evaluated at the mutated genes
    # (flat indices into the row-major population).
    u = rng.random(X.shape)
    idx = np.flatnonzero(rng.random(X.shape) < p)
    u = u.ravel()[idx]
    # delta in [-1, 1] with polynomial density.
    exp = 1.0 / (eta + 1.0)
    delta = np.where(
        u < 0.5,
        (2.0 * u) ** exp - 1.0,
        1.0 - (2.0 * (1.0 - u)) ** exp,
    )
    mutated.ravel()[idx] += delta * span[idx % n_var]
    np.rint(mutated, out=mutated)
    return np.minimum(np.maximum(mutated, lower), upper).astype(np.int64)
