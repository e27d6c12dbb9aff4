"""Parameter sweeps over the cluster simulator.

A sweep grids a base scenario over cluster size, partition rate, and
optionally workload kind and link latency, runs every cell through
:func:`repro.des.workload.run_scenario`, and collects a deterministic
``BENCH_sim.json``-shaped document: per-cell throughput, abort rate,
and replication-lag percentiles, plus every cell's oracle verdict.

Node budget per cell: ``nodes = 1 primary + max(1, nodes // 3)``
followers, and the remainder (at least one) client nodes — so a
6-node cell is 1 primary / 2 followers / 3 clients.
"""

from __future__ import annotations

from typing import Any

from ..fuzz.runner import failed
from .report import SIM_REPORT_VERSION
from .scenarios import Scenario
from .workload import run_scenario

#: Default grid: a small cell and a ≥6-node cell, quiet and partitioned.
DEFAULT_NODES = [3, 6]
DEFAULT_PARTITION_RATES = [0.0, 0.3]


def split_nodes(nodes: int) -> "tuple[int, int]":
    """``total node count -> (followers, clients)`` for one cell."""
    if nodes < 3:
        raise ValueError(
            f"a cluster cell needs at least 3 nodes, got {nodes}"
        )
    followers = max(1, nodes // 3)
    clients = max(1, nodes - 1 - followers)
    return followers, clients


def cell_scenario(
    base: Scenario,
    *,
    nodes: int,
    partition_rate: float,
    workload: "str | None" = None,
    latency: "float | None" = None,
) -> Scenario:
    followers, clients = split_nodes(nodes)
    overrides: dict[str, Any] = {
        "name": (
            f"{base.name}@n{nodes}"
            f"+pr{partition_rate:g}"
            + (f"+{workload}" if workload is not None else "")
            + (f"+lat{latency:g}" if latency is not None else "")
        ),
        "clients": clients,
        "followers": followers,
        "partition_rate": partition_rate,
    }
    if workload is not None:
        overrides["workload"] = workload
    if latency is not None:
        overrides["latency"] = latency
    return base.with_overrides(**overrides)


def run_sweep(
    base: Scenario,
    *,
    nodes: "list[int] | None" = None,
    partition_rates: "list[float] | None" = None,
    workloads: "list[str] | None" = None,
    latencies: "list[float] | None" = None,
) -> dict[str, Any]:
    """Run the full grid; returns the ``BENCH_sim.json`` document."""
    node_axis = list(nodes) if nodes else list(DEFAULT_NODES)
    rate_axis = (
        list(partition_rates)
        if partition_rates is not None
        else list(DEFAULT_PARTITION_RATES)
    )
    workload_axis: "list[str | None]" = (
        list(workloads) if workloads else [None]
    )
    latency_axis: "list[float | None]" = (
        list(latencies) if latencies else [None]
    )
    cells: list[dict[str, Any]] = []
    for n in node_axis:
        for rate in rate_axis:
            for workload in workload_axis:
                for latency in latency_axis:
                    scenario = cell_scenario(
                        base,
                        nodes=n,
                        partition_rate=rate,
                        workload=workload,
                        latency=latency,
                    )
                    report = run_scenario(scenario)
                    epochs = (s["oracles"] for s in report["epochs"])
                    cells.append(
                        {
                            "nodes": n,
                            "clients": scenario.clients,
                            "followers": scenario.followers,
                            "partition_rate": rate,
                            "workload": scenario.workload,
                            "latency": scenario.latency,
                            "scenario": scenario.name,
                            "scenario_digest": scenario.digest(),
                            "partitions": report["partitions"],
                            "promotion": (
                                report["promotion"]["winner"]
                                if report["promotion"]
                                else None
                            ),
                            "ok": report["ok"],
                            "failed_checks": (
                                failed(*epochs) + failed(report["invariants"])
                            ),
                            "metrics": report["metrics"],
                        }
                    )
    return {
        "bench": "sim",
        "sim_version": SIM_REPORT_VERSION,
        "base_scenario": base.name,
        "base_digest": base.digest(),
        "seed": base.seed,
        "grid": {
            "nodes": node_axis,
            "partition_rates": rate_axis,
            "workloads": [w for w in workload_axis if w is not None],
            "latencies": [
                lat for lat in latency_axis if lat is not None
            ],
        },
        "cells": cells,
        "ok": all(cell["ok"] for cell in cells),
    }
