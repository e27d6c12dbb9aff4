"""Multi-node discrete-event cluster simulation.

Runs primary/follower/client nodes of the real protocol stack on one
virtual clock, connected by a modeled network (latency, jitter,
bandwidth, partitions, slow nodes), with an adversarial scenario
library, fuzz-oracle validation per epoch, cluster-level invariants,
and a parameter-sweep runner.
"""

from .engine import ClusterSim, run_scenario
from .invariants import EPOCH2_ORACLES, cluster_invariants
from .network import Network
from .report import SIM_REPORT_VERSION, build_report, percentile
from .scenarios import (
    SCENARIO_VERSION,
    SCENARIOS,
    WORKLOAD_KINDS,
    Scenario,
    get_scenario,
)
from .sweep import cell_scenario, failed_checks, run_sweep, split_nodes
from .workload import build_clients, build_plan, expand_partitions

__all__ = [
    "ClusterSim",
    "EPOCH2_ORACLES",
    "Network",
    "SCENARIOS",
    "SCENARIO_VERSION",
    "SIM_REPORT_VERSION",
    "Scenario",
    "WORKLOAD_KINDS",
    "build_clients",
    "build_plan",
    "build_report",
    "cell_scenario",
    "cluster_invariants",
    "expand_partitions",
    "failed_checks",
    "get_scenario",
    "percentile",
    "run_scenario",
    "run_sweep",
    "split_nodes",
]
