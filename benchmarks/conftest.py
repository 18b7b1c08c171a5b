"""Shared benchmark utilities.

Every benchmark regenerates one paper table/figure (scaled down for CI) and
prints paper-vs-measured rows. Absolute numbers come from a simulated
substrate; the *shape* (who wins, by roughly what factor) is the target.

Everything collected here is marked ``bench`` (CI runs the suite in a
separate non-blocking job); the heaviest end-to-end figure reproductions
are additionally marked ``slow`` so tiers can be selected with ``-m``.
"""

import pathlib

import pytest

from helpers.moo_reference import nsga_reference_patch

_BENCH_DIR = pathlib.Path(__file__).parent

#: Modules whose figures drive full cloud simulations (the slow tier).
_SLOW_MODULES = {
    "test_fig6_end_to_end",
    "test_fig8ab_scheduler_tradeoff",
    "test_fig8c_load_balance",
    "test_fig9a_cluster_scaling",
    "test_fig9b_load_scaling",
    "test_fig10a_exec_time",
    "test_fig10b_priorities",
}


def pytest_collection_modifyitems(config, items) -> None:
    for item in items:
        path = pathlib.Path(str(item.fspath))
        if path.parent != _BENCH_DIR:
            continue
        item.add_marker(pytest.mark.bench)
        if path.stem in _SLOW_MODULES:
            item.add_marker(pytest.mark.slow)


def report(title: str, result: dict, keys=None) -> None:
    """Print a paper-vs-measured table for a result dict."""
    paper = result.get("paper", {})
    measured = result.get("measured", {})
    print(f"\n=== {title} ===")
    for key in keys or paper:
        pv = paper.get(key, "-")
        mv = measured.get(key, "-")
        if isinstance(pv, float):
            pv = round(pv, 3)
        if isinstance(mv, float):
            mv = round(mv, 3)
        print(f"  {key:<40s} paper={pv!s:>14s}  measured={mv!s:>14s}")


@pytest.fixture
def once(benchmark):
    """Run the benched callable exactly once (experiments are heavy)."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                                  iterations=1)

    return runner
