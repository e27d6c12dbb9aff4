"""Multi-node discrete-event cluster simulation.

Runs primary/follower/client nodes of the real protocol stack on one
virtual clock, connected by a modeled network (latency, jitter,
bandwidth, partitions, slow nodes), with an adversarial scenario
library and a parameter-sweep runner.  A scenario is one run of the
executor ``repro fuzz`` uses (:func:`repro.fuzz.runner.execute`),
judged by the same oracle registry per epoch and over the whole
cluster history.
"""

from .network import Network
from .report import SIM_REPORT_VERSION, sim_report
from .scenarios import (
    SCENARIOS,
    WORKLOAD_KINDS,
    Scenario,
    get_scenario,
)
from .sweep import cell_scenario, run_sweep, split_nodes
from .workload import (
    cluster_spec,
    expand_clients,
    expand_partitions,
    run_scenario,
)

__all__ = [
    "Network",
    "SCENARIOS",
    "SIM_REPORT_VERSION",
    "Scenario",
    "WORKLOAD_KINDS",
    "cell_scenario",
    "cluster_spec",
    "expand_clients",
    "expand_partitions",
    "get_scenario",
    "run_scenario",
    "run_sweep",
    "sim_report",
    "split_nodes",
]
