"""Experiment P2 — version-selection cost (§5.1's discussion).

The paper argues version selection is worst-case exponential but cheap
in the expected case, and suggests heuristics or query-style search.
These benchmarks time three ways to select (the manager's exact
backtracking :func:`~repro.protocol.validation.select_versions`, the
reference DPLL over a CNF encoding, and an all-latest probe with an
exact fallback) as the number of versions per item grows, and verify
they agree on feasibility.
"""

from __future__ import annotations

import time

from repro.core import Predicate
from repro.protocol import DSet, select_versions
from repro.reference import select_versions_dpll
from repro.storage.version_store import Version

from conftest import report


def _d_sets(num_items: int, versions_per_item: int) -> dict[str, DSet]:
    sequence = [0]

    def build(item: str) -> DSet:
        candidates = []
        for value in range(versions_per_item):
            sequence[0] += 1
            candidates.append(
                Version(item, value * 3, f"t.{value}", sequence[0])
            )
        return DSet(
            item, frozenset(), frozenset(), tuple(candidates), True
        )

    return {f"e{i}": build(f"e{i}") for i in range(num_items)}


def _constraint(num_items: int) -> Predicate:
    # Adjacent items must be ordered: a chained, moderately tight CSP.
    text = " & ".join(
        f"e{i} <= e{i + 1}" for i in range(num_items - 1)
    )
    return Predicate.parse(text)


def latest_first(d_sets, constraint):
    """The paper's cheap expected case: try the one all-latest
    assignment (O(|I_t|)), and pay for the exact search only when it
    fails."""
    probe = {
        item: max(d_set.candidates, key=lambda version: version.sequence)
        for item, d_set in d_sets.items()
    }
    if constraint.evaluate(
        {item: version.value for item, version in probe.items()}
    ):
        return probe
    return select_versions(d_sets, constraint)


SELECTORS = {
    "backtracking": select_versions,
    "dpll": select_versions_dpll,
    "latest-first": latest_first,
}


def test_p2_selectors_agree(benchmark):
    d_sets = _d_sets(5, 6)
    constraint = _constraint(5)

    def select_all():
        return {
            name: select(d_sets, constraint)
            for name, select in SELECTORS.items()
        }

    chosen = benchmark(select_all)
    feasibility = {
        name: result is not None for name, result in chosen.items()
    }
    assert len(set(feasibility.values())) == 1  # all agree
    for result in chosen.values():
        if result is not None:
            values = {
                item: version.value for item, version in result.items()
            }
            assert constraint.evaluate(values)


def test_p2_backtracking_selector(benchmark):
    d_sets = _d_sets(6, 8)
    constraint = _constraint(6)
    assert benchmark(lambda: select_versions(d_sets, constraint))


def test_p2_dpll_selector(benchmark):
    d_sets = _d_sets(6, 8)
    constraint = _constraint(6)
    assert benchmark(lambda: select_versions_dpll(d_sets, constraint))


def test_p2_latest_first_selector(benchmark):
    d_sets = _d_sets(6, 8)
    constraint = _constraint(6)
    assert benchmark(lambda: latest_first(d_sets, constraint))


def test_p2_scaling_with_version_count(benchmark):
    """Cost as the version population grows (the paper's worry)."""

    def sweep():
        rows = []
        for versions in (2, 4, 8, 16):
            d_sets = _d_sets(5, versions)
            constraint = _constraint(5)
            timings = {}
            for name, select in SELECTORS.items():
                start = time.perf_counter()
                assert select(d_sets, constraint) is not None
                timings[name] = time.perf_counter() - start
            rows.append((versions, timings))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        "P2: version-selection time vs versions-per-item (5 items)",
        "\n".join(
            f"  v={versions:3d}  "
            + "  ".join(
                f"{name} {seconds * 1e6:9.1f} µs"
                for name, seconds in timings.items()
            )
            for versions, timings in rows
        ),
    )
    # The all-latest probe should beat exhaustive search when the
    # all-latest assignment satisfies the constraint (it does here:
    # equal latest values are non-decreasing).
    last = rows[-1][1]
    assert last["latest-first"] <= last["backtracking"] * 5
