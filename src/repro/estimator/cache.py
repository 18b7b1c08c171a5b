"""Content-addressed estimate caching for the scheduling hot path.

Cloud-scale streams repeat circuit shapes constantly (the workload sampler
draws from a fixed benchmark family), and calibration data only changes at
recalibration boundaries. Estimator predictions are therefore memoizable on

    (circuit-metrics fingerprint, shots, mitigation, calibration epoch)

where the epoch is ``(qpu_name, calibration cycle)``. A recalibration bumps
the cycle, so stale entries can never be served; :meth:`on_recalibration`
additionally drops them to bound memory and forwards the event to the
wrapped estimator (which refreshes its templates).

:class:`CachedEstimator` is a full :class:`~repro.estimator.source.EstimateSource`:
it implements the batched :meth:`estimate_block` fast path that
:class:`~repro.scheduler.quantum.QonductorScheduler` and the baseline
policies drive directly, and stays callable with ``(job, qpu)`` for
sequential consumers.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..backends.qpu import QPU
from ..circuits.metrics import CircuitMetrics
from ..cloud.job import QuantumJob, feasibility_matrix
from .features import job_fidelity_features, job_runtime_features
from .source import EstimateSource

__all__ = ["CacheStats", "EstimateCache", "CachedEstimator"]


@dataclass
class CacheStats:
    """Hit/miss counters for one cache."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "invalidations": self.invalidations,
        }


class EstimateCache:
    """Bounded memo of ``key -> (fidelity, exec_seconds)`` pairs.

    Eviction is segmented-LRU: entries enter a *probation* segment on
    first insertion and are promoted to a *protected* segment (capped at
    ``protected_fraction`` of ``max_entries``) when hit again; a full
    protected segment demotes its least-recent entry back to probation,
    and capacity pressure always evicts probation's least-recent entry
    first.  Single-touch keys streaming past therefore churn through
    probation without displacing the re-referenced working set, so the
    hit rate degrades *gracefully* as ``max_entries`` drops below the
    working set — the generational-halving scheme this replaces cliffed
    toward 0% there, because every overflow dropped half the table
    including its hottest keys.
    """

    def __init__(
        self, max_entries: int = 200_000, *, protected_fraction: float = 0.8
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if not 0.0 <= protected_fraction <= 1.0:
            raise ValueError("protected_fraction must be in [0, 1]")
        self.max_entries = max_entries
        # At least one probation slot must exist (insertions land there);
        # with max_entries == 1 the protected segment degenerates away
        # and the cache behaves as plain LRU.
        self._protected_cap = min(
            int(max_entries * protected_fraction), max_entries - 1
        )
        # Both segments rely on dict insertion order as recency order:
        # first item = least recent, re-inserting moves a key to the end.
        self._probation: dict[tuple, tuple[float, float]] = {}
        self._protected: dict[tuple, tuple[float, float]] = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._probation) + len(self._protected)

    @staticmethod
    def key(
        metrics: CircuitMetrics, shots: int, mitigation: str, qpu: QPU
    ) -> tuple:
        return (metrics.fingerprint, shots, mitigation, qpu.calibration.epoch)

    def get(self, key: tuple) -> tuple[float, float] | None:
        hit = self._protected.pop(key, None)
        if hit is not None:
            self._protected[key] = hit  # refresh recency
            self.stats.hits += 1
            return hit
        hit = self._probation.pop(key, None)
        if hit is not None:
            self._promote(key, hit)
            self.stats.hits += 1
            return hit
        self.stats.misses += 1
        return None

    def _promote(self, key: tuple, value: tuple[float, float]) -> None:
        """A probation hit earns protection; overflow demotes, not drops.

        Net occupancy is unchanged (one entry moved out of probation, at
        most one demoted back), so only :meth:`put` grows the cache.
        """
        self._protected[key] = value
        if len(self._protected) > self._protected_cap:
            old_key = next(iter(self._protected))
            self._probation[old_key] = self._protected.pop(old_key)

    def put(self, key: tuple, value: tuple[float, float]) -> None:
        if key in self._protected:
            self._protected[key] = value
            return
        if key in self._probation:
            self._probation[key] = value
            return
        while len(self) >= self.max_entries:
            victim_segment = self._probation or self._protected
            del victim_segment[next(iter(victim_segment))]
        self._probation[key] = value

    def invalidate(self) -> None:
        """Drop every entry (epoch keys already prevent stale hits)."""
        self._probation.clear()
        self._protected.clear()
        self.stats.invalidations += 1

    def _items_cold_to_hot(self):
        """Every entry, probation first, least recent first."""
        yield from self._probation.items()
        yield from self._protected.items()

    # -- persistence ---------------------------------------------------
    #: On-disk format version; bump on incompatible key changes.
    FORMAT_VERSION = 1

    def save(self, path: str | Path) -> int:
        """Write the table as JSON; returns the number of entries saved.

        Each row is ``[fingerprint, shots, mitigation, qpu_name, cycle,
        fidelity, exec_seconds]``; the calibration epoch ``(qpu_name,
        cycle)`` stays part of the key, so a warm-started run can never
        serve an estimate from a dead epoch — at worst a stale entry is
        loaded and simply never hit.  Rows are ordered coldest first, so
        reloading into a smaller cache keeps the hottest entries.
        """
        rows = [
            [list(fp), shots, mit, epoch[0], epoch[1], value[0], value[1]]
            for (fp, shots, mit, epoch), value in self._items_cold_to_hot()
        ]
        payload = {"version": self.FORMAT_VERSION, "entries": rows}
        Path(path).write_text(json.dumps(payload))
        return len(rows)

    def load(self, path: str | Path) -> int:
        """Merge entries saved by :meth:`save`; returns how many loaded.

        Loading respects ``max_entries`` (oldest file rows evict first,
        like any other insertion) and does not touch hit/miss counters.
        """
        payload = json.loads(Path(path).read_text())
        if payload.get("version") != self.FORMAT_VERSION:
            raise ValueError(
                f"estimate-cache file {path} has version "
                f"{payload.get('version')!r}, expected {self.FORMAT_VERSION}"
            )
        count = 0
        for fp, shots, mit, qpu_name, cycle, fid, sec in payload["entries"]:
            key = (tuple(fp), shots, mit, (qpu_name, cycle))
            self.put(key, (float(fid), float(sec)))
            count += 1
        return count


class CachedEstimator:
    """Memoizing (and batch-capable) wrapper around an estimate source.

    ``base`` is either a :class:`~repro.estimator.estimator.ResourceEstimator`
    or any plain ``(job, qpu) -> (fidelity, exec_seconds)`` callable. With a
    ResourceEstimator, cache misses are filled by one vectorized pipeline
    pass per QPU; with a plain callable, misses fall back to per-pair calls
    (still memoized).
    """

    def __init__(
        self,
        base,
        *,
        max_entries: int = 200_000,
        on_invalidate: Callable[[list[QPU]], None] | None = None,
    ) -> None:
        self.base = base
        self.cache = EstimateCache(max_entries=max_entries)
        self._on_invalidate = on_invalidate
        if hasattr(base, "estimate_for_qpu"):
            self._pair_fn = base.estimate_for_qpu
            self._trained = base.estimators
        else:
            self._pair_fn = base
            self._trained = None
        # Job feature rows are calibration-independent; share them across
        # QPUs and scheduling rounds.
        self._job_rows: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        # Epochs seen at the last recalibration hook: with sharded fleets
        # every shard policy forwards the same fleet-wide calibration
        # event here, and only the first forwarding per wave may act.
        self._last_epochs: tuple | None = None

    # ------------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        return self.cache.stats

    def save(self, path: str | Path) -> int:
        """Persist the memo table (JSON) so later runs start warm.

        Entries stay keyed on the calibration epoch, so repeated
        benchmark runs over the same fleet seed reuse estimates while a
        recalibrated fleet misses cleanly.  Returns the entry count.
        """
        return self.cache.save(path)

    def load(self, path: str | Path) -> int:
        """Warm the memo table from a :meth:`save` file; returns count."""
        return self.cache.load(path)

    def on_recalibration(self, qpus: list[QPU]) -> None:
        """Invalidate and propagate the calibration event downstream.

        Idempotent per calibration wave: repeated calls with unchanged
        calibration epochs (one per shard of a sharded fleet) are no-ops,
        so a shared cache invalidates exactly once per recalibration.
        Use :meth:`EstimateCache.invalidate` directly to force a clear.
        """
        epochs = tuple(q.calibration.epoch for q in qpus)
        if epochs == self._last_epochs:
            return
        self._last_epochs = epochs
        self.cache.invalidate()
        self._job_rows.clear()
        if isinstance(self.base, EstimateSource):
            self.base.on_recalibration(qpus)
        if self._on_invalidate is not None:
            self._on_invalidate(qpus)

    # ------------------------------------------------------------------
    def __call__(self, job: QuantumJob, qpu: QPU) -> tuple[float, float]:
        key = EstimateCache.key(job.metrics, job.shots, job.mitigation, qpu)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        value = self._pair_fn(job, qpu)
        self.cache.put(key, value)
        return value

    def _rows_for(self, job: QuantumJob) -> tuple[np.ndarray, np.ndarray]:
        jkey = (job.metrics.fingerprint, job.shots, job.mitigation)
        rows = self._job_rows.get(jkey)
        if rows is None:
            rows = (
                job_fidelity_features(job.metrics, job.shots, job.mitigation),
                job_runtime_features(job.metrics, job.shots, job.mitigation),
            )
            self._job_rows[jkey] = rows
        return rows

    def estimate_block(
        self,
        jobs: list[QuantumJob],
        qpus: list[QPU],
        feasible: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(fidelity, exec_seconds) matrices over ``jobs`` x ``qpus``.

        Infeasible pairs (job wider than the QPU) stay zero and are neither
        estimated nor cached. Misses for one QPU are predicted in a single
        vectorized pass when the base exposes trained estimators.
        """
        n, m = len(jobs), len(qpus)
        fid = np.zeros((n, m))
        sec = np.zeros((n, m))
        if feasible is None:
            feasible = feasibility_matrix(jobs, qpus)
        keys = [
            EstimateCache.key(j.metrics, j.shots, j.mitigation, q)
            for j in jobs
            for q in qpus
        ]
        for k, qpu in enumerate(qpus):
            missing: list[int] = []
            for i in range(n):
                if not feasible[i, k]:
                    continue
                hit = self.cache.get(keys[i * m + k])
                if hit is None:
                    missing.append(i)
                else:
                    fid[i, k], sec[i, k] = hit
            if not missing:
                continue
            if self._trained is not None:
                fid_rows = np.array(
                    [self._rows_for(jobs[i])[0] for i in missing]
                )
                run_rows = np.array(
                    [self._rows_for(jobs[i])[1] for i in missing]
                )
                fids = self._trained.estimate_fidelity_batch(
                    fid_rows, qpu.calibration
                )
                secs = self._trained.estimate_runtime_batch(
                    run_rows, qpu.calibration
                )
                for j, i in enumerate(missing):
                    fid[i, k] = fids[j]
                    sec[i, k] = secs[j]
                    self.cache.put(keys[i * m + k], (float(fids[j]), float(secs[j])))
            else:
                for i in missing:
                    value = self._pair_fn(jobs[i], qpu)
                    fid[i, k], sec[i, k] = value
                    self.cache.put(keys[i * m + k], value)
        return fid, sec
