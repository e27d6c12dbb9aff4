"""Experiments L1, T1, P3 — the complexity results (§3.2, §4.3).

L1: the Lemma-1 reduction round-trips, and the exact search cost grows
    with instance size while the certificate check stays flat.
T1: execution-correctness via the Theorem-1 embedding.
P3: the CPC test is polynomial while the SR/PC testers blow up
    factorially in the number of transactions — timed side by side.
"""

from __future__ import annotations

import time

from repro.classes import (
    is_conflict_predicate_correct,
    is_view_serializable,
)
from repro.core import VersionState
from repro.sat import (
    lemma1_instance,
    random_formula,
    theorem1_instance,
    verify_certificate,
)
from repro.schedules import random_schedule

from conftest import report


def test_l1_reduction_and_search(benchmark):
    formula = random_formula(8, 30, seed=11)
    instance = lemma1_instance(formula)

    witness = benchmark(instance.solve_direct)
    via_sat = instance.solve_via_sat()
    assert (witness is None) == (via_sat is None)
    if witness is not None:
        assert instance.input_constraint.evaluate(witness)


def test_l1_certificate_check_is_cheap(benchmark):
    formula = random_formula(10, 35, seed=13)
    instance = lemma1_instance(formula)
    witness = instance.solve_direct()
    if witness is None:  # certificate for the trivial direction
        witness = VersionState(
            instance.schema,
            {name: 0 for name in instance.schema.names},
        )

    def check():
        return instance.input_constraint.evaluate(witness)

    benchmark(check)


def test_l1_scaling_curve(benchmark):
    """Search cost versus variable count (clause ratio fixed ≈ 4.2)."""

    def sweep():
        rows = []
        for num_vars in (4, 6, 8, 10, 12):
            formula = random_formula(
                num_vars, int(num_vars * 4.2), seed=num_vars
            )
            instance = lemma1_instance(formula)
            start = time.perf_counter()
            instance.solve_direct()
            rows.append(
                (num_vars, time.perf_counter() - start)
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        "L1: exact version-search time vs |E| (phase-transition CNF)",
        "\n".join(
            f"  |E|={n:3d}  {seconds * 1e3:8.2f} ms"
            for n, seconds in rows
        ),
    )


def test_t1_execution_correctness(benchmark):
    formula = random_formula(6, 20, seed=3)
    instance = theorem1_instance(formula)

    execution = benchmark(instance.solve)
    if execution is not None:
        child = instance.transaction.child_names[0]
        assert verify_certificate(
            instance,
            {child: execution.input_state(child)},
            execution.final_state,
        )


def test_p3_cpc_polynomial_vs_sr_exponential(benchmark):
    """CPC (per-conjunct graph acyclicity) vs SR recognition cost.

    The NP-completeness exhibit times the *definitional* SR test — the
    all-permutations sweep — since that is the cost the complexity
    claim is about.  The production tester (pruned backtracking) is
    timed alongside to show how far instance-level pruning gets on
    random schedules, but NP-completeness is a worst-case statement,
    so no growth assertion is made about it.
    """
    from repro.classes.view import brute_force_view_serialization_order

    def sweep():
        rows = []
        for num_txns in (2, 3, 4, 5, 6):
            schedule = random_schedule(
                num_txns, 3, ["x", "y", "z"], seed=num_txns
            )
            objects = [{"x"}, {"y"}, {"z"}]
            start = time.perf_counter()
            is_conflict_predicate_correct(schedule, objects)
            cpc_time = time.perf_counter() - start
            start = time.perf_counter()
            brute_force_view_serialization_order(schedule)
            sweep_time = time.perf_counter() - start
            start = time.perf_counter()
            is_view_serializable(schedule)
            pruned_time = time.perf_counter() - start
            rows.append((num_txns, cpc_time, sweep_time, pruned_time))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        "P3: recognition cost, CPC (polynomial) vs SR (NP-complete)",
        "\n".join(
            f"  n={n}  CPC {cpc * 1e6:9.1f} µs   "
            f"SR-sweep {sweep_us * 1e6:9.1f} µs   "
            f"SR-pruned {pruned * 1e6:9.1f} µs"
            for n, cpc, sweep_us, pruned in rows
        ),
    )
    # The definitional SR sweep's cost must grow much faster than
    # CPC's (factorially in the number of transactions).
    assert rows[-1][2] > rows[-1][1]


def test_p3_cpc_throughput(benchmark):
    schedule = random_schedule(6, 4, ["x", "y", "z"], seed=5)
    objects = [{"x"}, {"y"}, {"z"}]

    benchmark(
        lambda: is_conflict_predicate_correct(schedule, objects)
    )
