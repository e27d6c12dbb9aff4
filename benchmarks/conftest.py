"""Shared helpers for the benchmark suite.

Every benchmark corresponds to an experiment id in DESIGN.md §4 and
prints the rows EXPERIMENTS.md records.  Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write a JSONL lifecycle trace of traced benchmark runs",
    )


@pytest.fixture(scope="session")
def trace_path(request):
    """Target file for ``--trace-out``, or None when tracing is off."""
    return request.config.getoption("--trace-out")


def report(title: str, body: str) -> None:
    """Print a labelled experiment report (visible with -s)."""
    print(f"\n### {title}\n{body}")


@pytest.fixture(scope="session")
def cad_workload_std():
    """The canonical P1 workload (shared across benchmarks)."""
    from repro.workload import cad_workload

    return cad_workload(
        num_designers=8,
        num_modules=3,
        accesses_per_txn=6,
        think_time=100.0,
        cooperation_probability=0.3,
        seed=3,
    )
