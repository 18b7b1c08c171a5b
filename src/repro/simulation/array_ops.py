"""Pluggable array-operations backend for the simulation hot loops.

Every inner-loop array computation in the simulation layer — statevector
contractions, trajectory batches, the vectorized ESP/critical-path pass,
measurement sampling — routes its primitives through an
:class:`ArrayBackend` instead of calling ``numpy`` directly.  The backend
surface is deliberately small: a handful of named tensor primitives
(``einsum``/``matmul``/``tensordot``/``take``/``where``), segment
reductions for per-circuit folds, and the seeded RNG draws
(``normal``/``random``/``integers``/``multinomial``).  NumPy is the
default and reference implementation; a GPU backend (CuPy exposes the
same call signatures for every primitive used here) slots in by
registering a factory — no call-site changes.

Selection mirrors the scheduling-cycle executor
(:mod:`repro.cloud.cycle_executor`): pass an instance or a name to the
consumer, or set the ``ARRAY_BACKEND`` environment variable to pick one
process-wide (CI runs one tier-1 job under ``ARRAY_BACKEND=numpy`` so
the registry path is exercised on every push).  Backends are resolved
once per name and cached, so ``make_array_backend`` is cheap to call
from hot paths.

Determinism contract: for a given seeded ``numpy.random.Generator``, the
draw primitives consume the generator's bit stream exactly like the
equivalent direct calls (``backend.normal(rng, 0, 1, (t, n))`` consumes
the same substream as ``t`` sequential ``rng.normal(0, 1, n)`` calls),
so batched code can draw in one fixed-shape call and stay bit-identical
to a per-trajectory loop over the same stream.
"""

from __future__ import annotations

import os
from collections.abc import Callable

import numpy as np

__all__ = [
    "ARRAY_BACKEND_ENV",
    "ArrayBackend",
    "NumpyBackend",
    "make_array_backend",
    "register_array_backend",
]

#: Environment variable naming the default backend (e.g. ``numpy``).
ARRAY_BACKEND_ENV = "ARRAY_BACKEND"


class ArrayBackend:
    """Named array primitives the simulation inner loops are written against.

    Implementations wrap an array module (``numpy``, ``cupy``, ...)
    exposed as :attr:`xp` plus explicit methods for the primitives whose
    semantics the hot paths rely on.  Methods accept and return the
    backend's native arrays; :meth:`to_numpy` converts back at the
    boundary (a no-op for NumPy).
    """

    name = "base"

    @property
    def xp(self):
        """The backing array module (``numpy``-compatible namespace)."""
        raise NotImplementedError

    # -- tensor primitives ---------------------------------------------
    def asarray(self, data, dtype=None):
        return self.xp.asarray(data, dtype=dtype)

    def zeros(self, shape, dtype=float):
        return self.xp.zeros(shape, dtype=dtype)

    def einsum(self, subscripts: str, *operands):
        return self.xp.einsum(subscripts, *operands)

    def matmul(self, a, b):
        return self.xp.matmul(a, b)

    def tensordot(self, a, b, axes):
        return self.xp.tensordot(a, b, axes=axes)

    def moveaxis(self, a, source, destination):
        return self.xp.moveaxis(a, source, destination)

    def take(self, a, indices, axis=None):
        return self.xp.take(a, indices, axis=axis)

    def where(self, condition, x, y):
        return self.xp.where(condition, x, y)

    def gather(self, a, rows, cols):
        """Pairwise gather ``a[rows, cols]`` (advanced integer indexing).

        The MOO evaluate kernel's shape: ``rows`` broadcast against a
        ``(pop, n)`` assignment matrix selects one matrix entry per
        (individual, gene) pair in a single indexing pass.
        """
        return a[rows, cols]

    # -- segment reductions (per-circuit folds over flat op arrays) ----
    def segment_sum(self, values, segment_ids, num_segments: int):
        """Sum ``values`` grouped by ``segment_ids`` into ``num_segments``
        bins (empty segments yield 0)."""
        return self.xp.bincount(
            segment_ids, weights=values, minlength=num_segments
        )

    def segment_max(self, values, starts):
        """Per-segment max of contiguous ``values`` slices starting at
        ``starts`` (every segment must be non-empty)."""
        return self.xp.maximum.reduceat(values, starts)

    # -- seeded RNG draws ----------------------------------------------
    def normal(self, rng: np.random.Generator, loc, scale, size):
        return rng.normal(loc, scale, size)

    def random(self, rng: np.random.Generator, size):
        return rng.random(size)

    def integers(self, rng: np.random.Generator, high, size):
        return rng.integers(high, size=size)

    def bounded_integers(self, rng: np.random.Generator, highs):
        """One draw in ``[0, highs[k])`` per element of ``highs``.

        Stream contract: consumes the generator's bit stream exactly like
        ``[rng.integers(h) for h in highs]`` — NumPy's per-element Lemire
        rejection with array bounds is the scalar algorithm applied in
        element order — so batched repair projections stay bit-identical
        to a scalar per-violation loop over the same stream (locked in
        ``tests/test_ml_moo.py``).
        """
        return rng.integers(highs)

    def multinomial(self, rng: np.random.Generator, n: int, pvals):
        return rng.multinomial(n, pvals)

    # -- boundary ------------------------------------------------------
    def to_numpy(self, a) -> np.ndarray:
        """Materialize a backend array as a host ``numpy.ndarray``."""
        return np.asarray(a)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class NumpyBackend(ArrayBackend):
    """The default (and reference) backend: plain NumPy on the host."""

    name = "numpy"

    @property
    def xp(self):
        return np


_FACTORIES: dict[str, Callable[[], ArrayBackend]] = {
    NumpyBackend.name: NumpyBackend,
}

#: Resolved instances, one per backend name (backends are stateless).
_INSTANCES: dict[str, ArrayBackend] = {}


def register_array_backend(
    name: str, factory: Callable[[], ArrayBackend]
) -> None:
    """Register (or replace) a backend factory under ``name``."""
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def make_array_backend(
    spec: str | ArrayBackend | None = None,
) -> ArrayBackend:
    """Resolve a backend spec (instance, name, or ``None`` for the
    ``ARRAY_BACKEND`` environment variable / NumPy)."""
    if isinstance(spec, ArrayBackend):
        return spec
    if spec is None:
        spec = os.environ.get(ARRAY_BACKEND_ENV) or NumpyBackend.name
    backend = _INSTANCES.get(spec)
    if backend is None:
        if spec not in _FACTORIES:
            raise KeyError(
                f"unknown array backend {spec!r}; "
                f"choose from {sorted(_FACTORIES)}"
            )
        backend = _FACTORIES[spec]()
        _INSTANCES[spec] = backend
    return backend
