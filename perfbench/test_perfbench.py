"""Smoke test of the benchmark harness at a small size.

Run with ``python -m pytest perfbench``.  Each workload is measured once
untraced and once traced at a size that finishes in seconds; the test
asserts that every metric ``BENCHMARK.json`` names is emitted with its
unit, and that the tracer leaves every patched name as it found it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
import run
import spans

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
PREDICTIONS = json.loads(
    (Path(__file__).resolve().parent / "predictions.json").read_text()
)

#: Horizon scale per workload: the smallest at which applications finish
#: inside the horizon.
SMOKE_SCALE = {"fcfs_stream": 0.5, "qonductor_fleet": 0.1, "adaptive_burst": 0.05}


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_every_workload_has_a_reason_and_predictions():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert sorted(names) == sorted(run.scenarios.WORKLOADS)
    assert sorted(PREDICTIONS) == sorted(names)
    layer_metrics = set(_units("per_layer"))
    for name, entry in PREDICTIONS.items():
        assert entry["largest_self_layer"] in {
            "estimator", "fleet", "scheduler", "moo", "tenancy", "execution",
            "simulator",
        }
        for prediction in entry["predictions"]:
            assert set(prediction["metrics"]) <= layer_metrics, name
            assert prediction["moves"] in _units("end_to_end"), name


@pytest.mark.parametrize("workload", sorted(SMOKE_SCALE))
@pytest.mark.parametrize("trace", [False, True])
def test_harness_emits_every_metric(workload, trace):
    result = run.measure(
        workload, seed=1, seconds=0, trace=trace,
        scale=SMOKE_SCALE[workload], min_runs=2 if trace else 1,
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], result
    assert result["failed"] == 0
    expected = _units("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float | int)
    json.dumps(result)  # the result line must serialize


def test_tracer_restores_patched_names():
    probes = spans.setup_probes() + spans.run_probes()
    before = [vars(p.owner)[p.attr] for p in probes]
    with spans.Tracer(probes):
        assert all(
            vars(p.owner)[p.attr] is not orig for p, orig in zip(probes, before)
        )
    assert [vars(p.owner)[p.attr] for p in probes] == before
