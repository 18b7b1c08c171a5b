"""Event-queue and estimate-cache tests for the event-driven cloud core.

Covers: determinism under seeded arrivals, completion-event aggregates
matching the definitional (rescan) metrics, idle trigger cadence, cache
keying/invalidation on recalibration, eviction bounds, and equivalence of
scheduler decisions with and without the cache on a small fleet.
"""

import numpy as np
import pytest

from helpers.determinism import fake_estimate
from repro.backends import default_fleet
from repro.cloud import (
    CloudSimulator,
    ExecutionModel,
    LoadGenerator,
    QuantumJob,
    SimulationConfig,
)
from repro.estimator import CachedEstimator, EstimateCache
from repro.experiments.common import trained_estimator
from repro.scheduler import FCFSPolicy, QonductorScheduler, SchedulingTrigger
from repro.workloads import WorkloadSampler, ghz_linear


def _run(policy_maker, *, seed=4, duration=900.0, rate=600, recal=None):
    gen = LoadGenerator(mean_rate_per_hour=rate, max_qubits=27, seed=seed)
    apps = gen.generate(duration)
    fleet = default_fleet(seed=7, names=["auckland", "algiers", "lagos"])
    sim = CloudSimulator(
        fleet,
        policy_maker(),
        ExecutionModel(seed=5),
        trigger=SchedulingTrigger(queue_limit=20, interval_seconds=60),
        config=SimulationConfig(
            duration_seconds=duration, seed=5, recalibrate_every_seconds=recal
        ),
    )
    return apps, sim.run(apps)


class TestEventCore:
    def test_deterministic_under_seeded_arrivals(self):
        series = []
        for _ in range(2):
            _, m = _run(lambda: FCFSPolicy(fake_estimate))
            series.append(m)
        a, b = series
        assert a.completed_jobs == b.completed_jobs
        assert a.events_processed == b.events_processed
        for attr in (
            "mean_fidelity",
            "mean_completion_time",
            "mean_utilization",
            "scheduler_queue_size",
        ):
            at, av = getattr(a, attr).as_arrays()
            bt, bv = getattr(b, attr).as_arrays()
            assert np.array_equal(at, bt) and np.array_equal(av, bv)

    def test_completion_aggregates_match_rescan(self):
        """Running aggregates must equal the definitional rescan metrics."""
        duration = 900.0
        apps, m = _run(lambda: FCFSPolicy(fake_estimate), duration=duration)
        done = [
            a
            for a in apps
            if a.finish_time is not None and a.finish_time <= duration
        ]
        assert done, "scenario must finish some apps inside the horizon"
        expect_jct = float(np.mean([a.completion_time for a in done]))
        expect_fid = float(
            np.mean([a.quantum_job.fidelity for a in done])
        )
        assert m.mean_completion_time.last() == pytest.approx(expect_jct)
        assert m.mean_fidelity.last() == pytest.approx(expect_fid)
        # Every intermediate sample must equal the prefix rescan too —
        # this is what pins the aggregates to *running* sums/counts: a
        # wrong-window or stale implementation matches the final value
        # by luck far more easily than every point of the series.
        times, values = m.mean_completion_time.as_arrays()
        assert len(times) >= 3
        for t, v in zip(times, values):
            prefix = [
                a.completion_time
                for a in apps
                if a.finish_time is not None and a.finish_time <= t
            ]
            assert v == pytest.approx(float(np.mean(prefix)))

    def test_completed_counts_only_in_horizon_finishers(self):
        """Regression: jobs were counted completed at *dispatch*, so a
        job finishing past the horizon still inflated ``completed_jobs``.
        Completion now means the COMPLETION event folded inside the run;
        everything handed to a device is ``dispatched_jobs``."""
        duration = 900.0
        apps, m = _run(lambda: FCFSPolicy(fake_estimate), duration=duration)
        in_horizon = [
            a
            for a in apps
            if a.finish_time is not None and a.finish_time <= duration
        ]
        assert m.completed_jobs == len(in_horizon)
        assert m.dispatched_jobs + m.unschedulable_jobs == len(apps)
        # The scenario is loaded enough that some dispatched work drains
        # after the horizon — the two counters must actually differ.
        assert m.completed_jobs < m.dispatched_jobs
        assert m.summary()["dispatched_jobs"] == m.dispatched_jobs

    def test_immediate_path_counts_cycles_per_call(self):
        """Regression: the per-arrival path charged one scheduling cycle
        *per job* while the batched path charges one per cycle, skewing
        baseline-vs-Qonductor cycle comparisons (Fig. 8/9).  One
        ``assign`` call over a batch is one cycle."""
        from repro.cloud import SimulationMetrics
        from repro.workloads import ghz_linear as _ghz

        fleet = default_fleet(seed=7, names=["auckland", "lagos"])
        sim = CloudSimulator(
            fleet,
            FCFSPolicy(fake_estimate),
            ExecutionModel(seed=5),
            config=SimulationConfig(duration_seconds=600.0, seed=5),
        )
        m = SimulationMetrics()
        jobs = [
            QuantumJob.from_circuit(_ghz(4), keep_circuit=False)
            for _ in range(3)
        ]
        sim._schedule_immediate(
            sim.shards[0], jobs, 0.0, m, {}, lambda app: None
        )
        assert m.scheduling_cycles == 1
        assert m.dispatched_jobs == 3

    def test_event_counts(self):
        apps, m = _run(lambda: FCFSPolicy(fake_estimate))
        # Arrivals + at least the in-horizon completions + samples.
        assert m.events_processed > len(apps)
        assert m.wall_seconds > 0
        assert m.events_per_second > 0

    def test_idle_trigger_cadence(self):
        """With no arrivals the trigger ticks but never schedules."""
        fleet = default_fleet(seed=7, names=["lagos"])
        sim = CloudSimulator(
            fleet,
            QonductorScheduler(fake_estimate, seed=1, max_generations=5),
            ExecutionModel(seed=5),
            trigger=SchedulingTrigger(queue_limit=10, interval_seconds=60),
            config=SimulationConfig(duration_seconds=600.0, seed=1),
        )
        m = sim.run([])
        assert m.scheduling_cycles == 0
        assert m.completed_jobs == 0
        # 9 trigger deadlines (60..540) + 4 samples (120..480) inside t<600.
        assert m.events_processed == 13

    def test_recalibration_still_fires(self):
        fleet = default_fleet(seed=7, names=["lagos"])
        sim = CloudSimulator(
            fleet,
            FCFSPolicy(fake_estimate),
            ExecutionModel(seed=5),
            config=SimulationConfig(
                duration_seconds=300.0, recalibrate_every_seconds=100.0, seed=1
            ),
        )
        sim.run([])
        assert fleet[0].cycle >= 2


class TestEstimateCache:
    def test_hits_on_repeat_and_epoch_invalidation(self):
        calls = []

        def base(job, qpu):
            calls.append((job.job_id, qpu.name))
            return 0.9, 10.0

        qpu = default_fleet(seed=7, names=["lagos"])[0]
        cached = CachedEstimator(base)
        job = QuantumJob.from_circuit(ghz_linear(5), shots=1024)
        assert cached(job, qpu) == (0.9, 10.0)
        assert cached(job, qpu) == (0.9, 10.0)
        assert len(calls) == 1  # second lookup hit
        # Same circuit shape in a different job object: content-addressed.
        twin = QuantumJob.from_circuit(ghz_linear(5), shots=1024)
        cached(twin, qpu)
        assert len(calls) == 1
        # A new calibration epoch must miss.
        qpu.recalibrate()
        cached(job, qpu)
        assert len(calls) == 2
        assert cached.stats.hits == 2 and cached.stats.misses == 2

    def test_on_recalibration_invalidates(self):
        qpu = default_fleet(seed=7, names=["lagos"])[0]
        cached = CachedEstimator(lambda j, q: (0.8, 5.0))
        job = QuantumJob.from_circuit(ghz_linear(4), shots=2048)
        cached(job, qpu)
        assert len(cached.cache) == 1
        cached.on_recalibration([qpu])
        assert len(cached.cache) == 0
        assert cached.stats.invalidations == 1

    def test_eviction_bound(self):
        cache = EstimateCache(max_entries=10)
        for i in range(25):
            cache.put(("fp", i), (0.5, 1.0))
        assert len(cache) <= 10
        # Newest entries survive the generational eviction.
        assert cache.get(("fp", 24)) is not None

    def test_eviction_bound_degenerate(self):
        cache = EstimateCache(max_entries=1)
        for i in range(5):
            cache.put(("fp", i), (0.5, 1.0))
        assert len(cache) == 1
        assert cache.get(("fp", 4)) is not None

    def test_working_set_below_capacity_never_evicts(self):
        """A working set under ``max_entries`` reaches steady state: one
        miss per distinct shape, every revisit a hit, no eviction churn."""
        calls = []

        def base(job, qpu):
            calls.append(job.job_id)
            return 0.9, 10.0

        qpu = default_fleet(seed=7, names=["lagos"])[0]
        cached = CachedEstimator(base, max_entries=64)
        pool = [
            QuantumJob.from_circuit(ghz_linear(w), shots=1024)
            for w in range(2, 22)  # 20 distinct shapes
        ]
        for _ in range(5):
            for job in pool:
                cached(job, qpu)
        assert len(calls) == len(pool)  # first round only
        assert len(cached.cache) == len(pool)
        assert cached.stats.misses == len(pool)
        assert cached.stats.hits == len(pool) * 4

    def test_working_set_at_capacity_evicts_one_coldest(self):
        """At ``max_entries`` the segmented-LRU eviction drops exactly
        one entry per overflow — the coldest probation entry — so the
        table stays *full* under churn instead of halving (the old
        generational scheme dumped half the table, hot keys included)."""
        calls = []

        def base(job, qpu):
            calls.append(job.job_id)
            return 0.9, 10.0

        qpu = default_fleet(seed=7, names=["lagos"])[0]
        cached = CachedEstimator(base, max_entries=16)
        pool = [
            QuantumJob.from_circuit(ghz_linear(w), shots=1024)
            for w in range(2, 18)  # exactly max_entries shapes
        ]
        for job in pool:
            cached(job, qpu)
        assert len(cached.cache) == 16
        # One more distinct shape overflows: only the single coldest
        # entry drops, the table stays full.
        extra = QuantumJob.from_circuit(ghz_linear(20), shots=1024)
        cached(extra, qpu)
        assert len(cached.cache) == 16
        # The oldest single-touch shape was the victim; the rest survive.
        before = len(calls)
        cached(pool[-1], qpu)  # recent entry: still cached
        assert len(calls) == before
        cached(pool[0], qpu)  # coldest entry: evicted, re-estimated
        assert len(calls) == before + 1
        # However the stream churns, the bound holds.
        for w in range(30, 60):
            cached(
                QuantumJob.from_circuit(ghz_linear(w), shots=1024), qpu
            )
            assert len(cached.cache) <= 16

    def test_slru_protects_rereferenced_working_set(self):
        """Keys hit twice are promoted to the protected segment and
        survive an arbitrarily long stream of single-touch keys — the
        graceful-degradation property the capacity sweep measures."""
        calls = []

        def base(job, qpu):
            calls.append(job.job_id)
            return 0.9, 10.0

        qpu = default_fleet(seed=7, names=["lagos"])[0]
        cached = CachedEstimator(base, max_entries=16)
        hot = [
            QuantumJob.from_circuit(ghz_linear(w), shots=1024)
            for w in range(2, 8)  # 6 hot shapes
        ]
        for job in hot:
            cached(job, qpu)
        for job in hot:
            cached(job, qpu)  # second touch: promoted to protected
        # A scan of 40 distinct one-off shapes churns through probation.
        for w in range(10, 50):
            cached(QuantumJob.from_circuit(ghz_linear(w), shots=1024), qpu)
        assert len(cached.cache) <= 16
        # Every hot shape is still a hit: the scan could not displace
        # the protected segment.
        before = len(calls)
        for job in hot:
            assert cached(job, qpu) == (0.9, 10.0)
        assert len(calls) == before

    def test_slru_demotes_stale_protected_entries(self):
        """Protection is not tenure: once hotter keys fill the protected
        segment, its least-recently-used entries demote back to probation
        and can be evicted like any cold key."""
        cache = EstimateCache(max_entries=10, protected_fraction=0.5)
        for i in range(5):
            cache.put(("old", i), (0.5, 1.0))
            cache.get(("old", i))  # promote: protected = 5 oldies
        # 5 new keys promoted on top displace the oldies from protection
        # (cap 5), demoting them into probation...
        for i in range(5):
            cache.put(("new", i), (0.6, 1.0))
            cache.get(("new", i))
        # ...where a scan of fresh keys evicts them.
        for i in range(5):
            cache.put(("scan", i), (0.7, 1.0))
        assert len(cache) <= 10
        hits_before = cache.stats.hits
        cache.get(("old", 0))
        assert cache.stats.hits == hits_before  # demoted then evicted
        cache.get(("new", 4))
        assert cache.stats.hits == hits_before + 1  # still protected

    def test_save_load_roundtrip(self, tmp_path):
        calls = []

        def base(job, qpu):
            calls.append(job.job_id)
            return 0.9, 10.0

        qpu = default_fleet(seed=7, names=["lagos"])[0]
        warm = CachedEstimator(base)
        job = QuantumJob.from_circuit(ghz_linear(5), shots=1024)
        other = QuantumJob.from_circuit(ghz_linear(7), shots=2048)
        warm(job, qpu)
        warm(other, qpu)
        path = tmp_path / "estimates.json"
        assert warm.save(path) == 2

        # A cold estimator warm-started from disk serves without base calls.
        cold = CachedEstimator(base)
        assert cold.load(path) == 2
        before = len(calls)
        assert cold(job, qpu) == (0.9, 10.0)
        assert cold(other, qpu) == (0.9, 10.0)
        assert len(calls) == before
        assert cold.stats.hits == 2

    def test_load_misses_after_recalibration(self, tmp_path):
        """Epoch-keyed entries from a stale calibration never hit."""
        qpu = default_fleet(seed=7, names=["lagos"])[0]
        warm = CachedEstimator(lambda j, q: (0.8, 5.0))
        job = QuantumJob.from_circuit(ghz_linear(4), shots=2048)
        warm(job, qpu)
        path = tmp_path / "estimates.json"
        warm.save(path)

        qpu.recalibrate()  # the saved epoch is now dead
        calls = []

        def base(j, q):
            calls.append(j.job_id)
            return 0.7, 6.0

        cold = CachedEstimator(base)
        cold.load(path)
        assert cold(job, qpu) == (0.7, 6.0)  # re-estimated, not stale
        assert len(calls) == 1

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "estimates.json"
        path.write_text('{"version": 999, "entries": []}')
        with pytest.raises(ValueError):
            EstimateCache().load(path)

    def test_execution_component_cache(self):
        qpu = default_fleet(seed=7, names=["lagos"])[0]
        em = ExecutionModel(seed=1)
        job = QuantumJob.from_circuit(ghz_linear(6), shots=4000)
        c1 = em.log_error_components(job.metrics, qpu.calibration, qpu.model)
        c2 = em.log_error_components(job.metrics, qpu.calibration, qpu.model)
        assert c1 is c2  # memoized
        assert len(em._comp_cache) == 1
        qpu.recalibrate()
        c3 = em.log_error_components(job.metrics, qpu.calibration, qpu.model)
        assert c3 is not c1 and len(em._comp_cache) == 2
        em.on_recalibration()
        assert len(em._comp_cache) == 0


class TestCacheEquivalence:
    @pytest.fixture(scope="class")
    def setup(self):
        names = ("auckland", "algiers")
        estimator = trained_estimator(seed=7, names=names, num_records=150)
        fleet = default_fleet(seed=7, names=list(names))
        sampler = WorkloadSampler(
            mean_qubits=6,
            std_qubits=3,
            max_qubits=27,
            shots_choices=(1024, 4096),
            seed=9,
        )
        jobs = [
            QuantumJob.from_circuit(
                s.circuit,
                shots=s.shots,
                mitigation="zne+rem" if s.uses_mitigation else "none",
                keep_circuit=False,
            )
            for s in sampler.sample_many(12)
        ]
        return estimator, fleet, jobs

    def test_matrix_matches_pairwise(self, setup):
        estimator, fleet, jobs = setup
        fid, sec = estimator.cached().estimate_block(jobs, fleet)
        for i, job in enumerate(jobs):
            for k, qpu in enumerate(fleet):
                if job.num_qubits > qpu.num_qubits:
                    assert fid[i, k] == 0.0 and sec[i, k] == 0.0
                    continue
                pf, ps = estimator.estimate_for_qpu(job, qpu)
                assert fid[i, k] == pytest.approx(pf, rel=1e-9)
                assert sec[i, k] == pytest.approx(ps, rel=1e-9)

    def test_scheduler_decisions_equivalent(self, setup):
        """Same NSGA-II seed, with and without the cache: same assignment."""
        estimator, fleet, jobs = setup
        waiting = {q.name: 0.0 for q in fleet}
        plain = QonductorScheduler(
            estimator, seed=3, max_generations=10
        ).schedule(list(jobs), fleet, dict(waiting))
        cached_fn = estimator.cached()
        cached = QonductorScheduler(
            cached_fn, seed=3, max_generations=10
        ).schedule(list(jobs), fleet, dict(waiting))
        a = {d.job.job_id: d.qpu_name for d in plain.decisions}
        b = {d.job.job_id: d.qpu_name for d in cached.decisions}
        assert a == b
        for da, db in zip(plain.decisions, cached.decisions):
            assert da.est_fidelity == pytest.approx(db.est_fidelity, rel=1e-9)
            assert da.est_exec_seconds == pytest.approx(
                db.est_exec_seconds, rel=1e-9
            )
        # Second cached cycle over the same pending set is served from memo.
        before = cached_fn.stats.hits
        QonductorScheduler(cached_fn, seed=3, max_generations=10).schedule(
            list(jobs), fleet, dict(waiting)
        )
        assert cached_fn.stats.hits > before
