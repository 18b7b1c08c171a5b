"""Dynamic-availability tests: the availability model's deterministic
event schedule (maintenance + outages, merged intervals, ordering) and
the simulator integration — flipping ``QPU.online`` mid-run must redirect
routing (online-aware ``FleetShard.fits``), feed the outage/downtime
counters, and leave in-flight work untouched."""

import pytest

from helpers.determinism import fake_estimate
from repro.backends import default_fleet
from repro.cloud import (
    AvailabilityModel,
    CloudSimulator,
    ExecutionModel,
    FleetShard,
    LoadGenerator,
    MaintenanceWindow,
    QuantumJob,
    QubitFitBalancer,
    RoundRobinBalancer,
    SimulatedQPU,
    SimulationConfig,
    flash_outage,
)
from repro.scheduler import FCFSPolicy
from repro.workloads import ghz_linear


def _job(width: int) -> QuantumJob:
    return QuantumJob.from_circuit(ghz_linear(width), keep_circuit=False)


class TestAvailabilityModel:
    def test_maintenance_window_events(self):
        model = AvailabilityModel(
            windows=[MaintenanceWindow("a", 100.0, 200.0)]
        )
        events = model.schedule(["a", "b"], 1000.0)
        assert [(e.time, e.qpu_name, e.online) for e in events] == [
            (100.0, "a", False),
            (200.0, "a", True),
        ]
        assert events[0].cause == "maintenance"

    def test_window_past_horizon_truncated(self):
        model = AvailabilityModel(
            windows=[
                MaintenanceWindow("a", 100.0, 900.0),  # recovery cut off
                MaintenanceWindow("b", 600.0, 700.0),  # entirely outside
            ]
        )
        events = model.schedule(["a", "b"], 500.0)
        assert [(e.qpu_name, e.online) for e in events] == [("a", False)]

    def test_overlapping_windows_merge(self):
        """Overlaps collapse to one offline interval — no mid-flap."""
        model = AvailabilityModel(
            windows=[
                MaintenanceWindow("a", 100.0, 300.0),
                MaintenanceWindow("a", 200.0, 400.0),
            ]
        )
        events = model.schedule(["a"], 1000.0)
        assert [(e.time, e.online) for e in events] == [
            (100.0, False),
            (400.0, True),
        ]

    def test_outage_then_recovery_ordering(self):
        """Random outages: per QPU the flips strictly alternate
        offline -> online and the merged stream is time-sorted."""
        model = AvailabilityModel(
            mean_time_between_outages_s=1200.0,
            mean_outage_seconds=300.0,
            seed=5,
        )
        events = model.schedule(["a", "b", "c"], 36_000.0)
        assert events, "expected some outages over 10 simulated hours"
        assert all(
            events[i].time <= events[i + 1].time
            for i in range(len(events) - 1)
        )
        by_qpu: dict[str, list] = {}
        for e in events:
            by_qpu.setdefault(e.qpu_name, []).append(e)
        for flips in by_qpu.values():
            expected_online = False  # first flip is always an outage
            for e in flips:
                assert e.online is expected_online
                expected_online = not expected_online

    def test_outages_deterministic_and_per_qpu_streams(self):
        kw = dict(
            mean_time_between_outages_s=600.0,
            mean_outage_seconds=120.0,
            seed=9,
        )
        a = AvailabilityModel(**kw).schedule(["x", "y"], 7200.0)
        b = AvailabilityModel(**kw).schedule(["x", "y"], 7200.0)
        assert a == b
        # Substreams are keyed on the device *name*: neither adding a
        # device nor re-ordering the fleet (re-sharding does) reshuffles
        # an existing device's schedule.
        c = AvailabilityModel(**kw).schedule(["x", "y", "z"], 7200.0)
        d = AvailabilityModel(**kw).schedule(["y", "x"], 7200.0)
        for events in (c, d):
            assert [e for e in events if e.qpu_name == "x"] == [
                e for e in a if e.qpu_name == "x"
            ]

    def test_flash_outage_helper(self):
        model = flash_outage(["a", "b"], start=50.0, duration_seconds=25.0)
        events = model.schedule(["a", "b"], 1000.0)
        assert [(e.time, e.qpu_name, e.online) for e in events] == [
            (50.0, "a", False),
            (50.0, "b", False),
            (75.0, "a", True),
            (75.0, "b", True),
        ]
        # A correlated failure is an outage, not planned maintenance.
        assert all(e.cause == "outage" for e in events)

    def test_validation(self):
        with pytest.raises(ValueError):
            MaintenanceWindow("a", 10.0, 10.0)
        with pytest.raises(ValueError):
            AvailabilityModel(mean_time_between_outages_s=-1.0)
        with pytest.raises(ValueError):
            AvailabilityModel(mean_outage_seconds=0.0)

    def test_unknown_window_qpu_raises(self):
        """A typo'd device name must fail loudly, not silently produce
        an always-online run."""
        model = flash_outage(["mid0"], start=1.0, duration_seconds=1.0)
        with pytest.raises(ValueError, match="mid0"):
            model.schedule(["mid00", "mid01"], 100.0)


class TestOnlineAwareRouting:
    def _shards(self):
        shards = []
        for i, names in enumerate([["auckland"], ["lagos"]]):  # 27q / 7q
            backends = [
                SimulatedQPU(q)
                for q in default_fleet(seed=7, names=list(names))
            ]
            shards.append(FleetShard(i, backends, FCFSPolicy(fake_estimate)))
        return shards

    def test_offline_wide_qpu_redirects_routing(self):
        """Regression: ``fits`` must see ``QPU.online``.  A wide job's
        only wide QPU going offline means no shard fits — the balancer
        falls back instead of insisting on the dead wide shard."""
        shards = self._shards()
        wide = _job(16)
        assert shards[0].fits(wide) and shards[0].max_qubits == 27
        shards[0].backends[0].qpu.online = False
        assert shards[0].max_qubits == 0
        assert not shards[0].fits(wide)
        # Narrow jobs now route to the surviving narrow shard only.
        balancer = RoundRobinBalancer()
        picks = [balancer.route(_job(5), shards, 0.0).shard_id
                 for _ in range(4)]
        assert picks == [1, 1, 1, 1]
        # Tightest-fit routing skips the offline wide shard too.
        assert QubitFitBalancer().route(_job(5), shards, 0.0).shard_id == 1
        # Recovery restores the original behavior.
        shards[0].backends[0].qpu.online = True
        assert shards[0].fits(wide)

    def test_all_offline_falls_back_to_rejection(self):
        """With every QPU down nothing fits; the job is still routed and
        the owning scheduler rejects it, like the unsharded path."""
        shards = self._shards()
        for shard in shards:
            for b in shard.backends:
                b.qpu.online = False
        shard = RoundRobinBalancer().route(_job(5), shards, 0.0)
        assert shard is shards[0]  # deterministic fallback pick


class TestSimulatorIntegration:
    NAMES = ("auckland", "lagos")  # 27q wide + 7q narrow

    def _run(self, availability, *, duration=900.0, rate=600):
        gen = LoadGenerator(
            mean_rate_per_hour=rate, max_qubits=27, seed=4
        )
        fleet = default_fleet(seed=7, names=self.NAMES)
        sim = CloudSimulator(
            fleet,
            FCFSPolicy(fake_estimate),
            ExecutionModel(seed=5),
            config=SimulationConfig(duration_seconds=duration, seed=5),
            availability=availability,
        )
        return fleet, sim.run(gen.generate(duration))

    def test_outage_counters_and_downtime(self):
        fleet, m = self._run(
            flash_outage(["auckland"], start=300.0, duration_seconds=200.0)
        )
        assert m.outage_events == 1
        assert m.recovery_events == 1
        assert m.qpu_downtime_seconds["auckland"] == pytest.approx(200.0)
        assert fleet[0].online  # recovered by the end of the run

    def test_still_down_at_horizon_accrues_downtime(self):
        fleet, m = self._run(
            flash_outage(["auckland"], start=600.0, duration_seconds=10_000.0)
        )
        assert m.outage_events == 1
        assert m.recovery_events == 0
        assert m.qpu_downtime_seconds["auckland"] == pytest.approx(300.0)
        assert not fleet[0].online

    def test_wide_jobs_fail_during_wide_outage(self):
        """While the only wide QPU is down, wide jobs become
        unschedulable; narrow jobs keep running on the narrow device."""
        _, baseline = self._run(None)
        _, outage = self._run(
            flash_outage(["auckland"], start=0.0, duration_seconds=10_000.0)
        )
        assert baseline.unschedulable_jobs == 0
        assert outage.unschedulable_jobs > 0
        assert outage.dispatched_jobs > 0  # narrow jobs still served
        assert outage.per_qpu_jobs["auckland"] == 0
        assert (
            outage.dispatched_jobs + outage.unschedulable_jobs
            == baseline.dispatched_jobs
        )

    def test_pending_jobs_survive_transient_full_outage(self):
        """Jobs queued on a batched shard whose only device is down at
        trigger time must wait for recovery, not be failed: the outage
        is transient, and only permanently-too-wide jobs fail."""
        from repro.scheduler import BatchedFCFSPolicy, SchedulingTrigger
        from repro.workloads import ghz_linear as _ghz
        from repro.cloud import HybridApplication

        fleet = default_fleet(seed=7, names=["auckland"])
        apps = [
            HybridApplication(
                quantum_job=QuantumJob.from_circuit(
                    _ghz(6), keep_circuit=False
                ),
                arrival_time=10.0 * (i + 1),
            )
            for i in range(5)
        ]
        for a in apps:
            a.quantum_job.arrival_time = a.arrival_time
        too_wide = HybridApplication(
            quantum_job=QuantumJob.from_circuit(
                _ghz(40), keep_circuit=False
            ),
            arrival_time=15.0,
        )
        too_wide.quantum_job.arrival_time = 15.0
        sim = CloudSimulator(
            fleet,
            BatchedFCFSPolicy(fake_estimate),
            ExecutionModel(seed=5),
            trigger=SchedulingTrigger(queue_limit=100, interval_seconds=60),
            config=SimulationConfig(duration_seconds=900.0, seed=5),
            availability=flash_outage(
                ["auckland"], start=0.0, duration_seconds=400.0
            ),
        )
        m = sim.run(apps + [too_wide])
        # Triggers fired during the outage (t=60..360) held the queue;
        # after recovery everything feasible dispatched on the device.
        assert m.unschedulable_jobs == 1  # the 40q job only
        assert m.dispatched_jobs == len(apps)
        assert m.per_qpu_jobs["auckland"] == len(apps)
        assert all(
            a.quantum_job.start_time >= 400.0 for a in apps
        )

    def test_unrecovered_outage_reports_pending_at_horizon(self):
        """Jobs held through an outage that outlives the run must show
        up in ``pending_at_horizon`` — every arrival lands in exactly
        one of dispatched / unschedulable / pending."""
        from repro.cloud import HybridApplication
        from repro.scheduler import BatchedFCFSPolicy, SchedulingTrigger
        from repro.workloads import ghz_linear as _ghz

        fleet = default_fleet(seed=7, names=["auckland"])
        apps = []
        for i in range(5):
            job = QuantumJob.from_circuit(_ghz(6), keep_circuit=False)
            job.arrival_time = 10.0 * (i + 1)
            apps.append(
                HybridApplication(
                    quantum_job=job, arrival_time=job.arrival_time
                )
            )
        sim = CloudSimulator(
            fleet,
            BatchedFCFSPolicy(fake_estimate),
            ExecutionModel(seed=5),
            trigger=SchedulingTrigger(queue_limit=100, interval_seconds=60),
            config=SimulationConfig(duration_seconds=900.0, seed=5),
            availability=flash_outage(
                ["auckland"], start=0.0, duration_seconds=1e9
            ),
        )
        m = sim.run(apps)
        assert m.dispatched_jobs == 0
        assert m.unschedulable_jobs == 0
        assert m.pending_at_horizon == len(apps)
        assert m.summary()["pending_at_horizon"] == len(apps)

    def test_routing_prefers_capable_offline_shard(self):
        """When nothing fits *right now*, the balancer must prefer a
        shard whose (offline) hardware could recover and serve the job
        over a shard that could never run it — otherwise the job is
        permanently failed on too-narrow hardware."""
        from repro.scheduler import BatchedFCFSPolicy

        by_name = {
            q.name: q
            for q in default_fleet(
                seed=7, names=["auckland", "lagos", "guadalupe"]
            )
        }
        policy = BatchedFCFSPolicy(fake_estimate)
        shards = [
            FleetShard(
                0,
                [SimulatedQPU(by_name["auckland"]),
                 SimulatedQPU(by_name["lagos"])],
                policy.spawn(0),
            ),
            FleetShard(1, [SimulatedQPU(by_name["guadalupe"])],
                       policy.spawn(1)),
        ]
        by_name["auckland"].online = False  # the only 27q device
        by_name["guadalupe"].online = False
        wide = _job(20)  # fits auckland's hardware only
        assert not any(s.fits(wide) for s in shards)
        for balancer in (RoundRobinBalancer(), QubitFitBalancer()):
            assert balancer.route(wide, shards, 0.0) is shards[0]

    def test_no_availability_model_is_noop(self):
        """availability=None adds no events: identical to the PR 3 run."""
        _, a = self._run(None)
        gen = LoadGenerator(mean_rate_per_hour=600, max_qubits=27, seed=4)
        fleet = default_fleet(seed=7, names=self.NAMES)
        sim = CloudSimulator(
            fleet,
            FCFSPolicy(fake_estimate),
            ExecutionModel(seed=5),
            config=SimulationConfig(duration_seconds=900.0, seed=5),
        )
        b = sim.run(gen.generate(900.0))
        assert a.events_processed == b.events_processed
        assert a.per_qpu_busy_seconds == b.per_qpu_busy_seconds
        assert a.outage_events == b.outage_events == 0
