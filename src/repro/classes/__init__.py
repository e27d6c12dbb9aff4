"""Correctness classes for schedules (Section 4)."""

from .conflict import (
    conflict_graph,
    conflict_serialization_order,
    is_conflict_serializable,
)
from .examples import (
    ALL_EXAMPLES,
    EXAMPLE_1,
    EXAMPLE_2,
    FIGURE2_EXAMPLES,
    PaperExample,
    verify_all,
)
from .hierarchy import (
    REGION_LABELS,
    ClassMembership,
    classify,
    containment_violations,
    figure2_region,
)
from .export import (
    conflict_graph_dot,
    cpc_graphs_dot,
    mv_conflict_graph_dot,
    transaction_tree_dot,
)
from .multilevel import (
    ancestry_at_level,
    concurrency_gap,
    is_multilevel_conflict_serializable,
    is_multilevel_view_serializable,
    lift_schedule,
)
from .multiversion import (
    is_mv_conflict_serializable,
    is_mv_view_serializable,
    mv_conflict_graph,
    mv_conflict_serialization_order,
    mv_view_serialization_order,
)
from .partial_order import (
    PartialOrderProgram,
    admissibility_gain,
    admissible_interleavings,
    is_partial_order_conflict_serializable,
    is_partial_order_view_serializable,
    observed_linearizes,
)
from .predicate_correct import (
    cpc_graphs,
    is_conflict_predicate_correct,
    is_predicate_correct,
)
from .predicatewise import (
    conjunct_projections,
    is_predicatewise_conflict_serializable,
    is_predicatewise_serializable,
    normalize_objects,
)
from .semantic import (
    is_semantically_conflict_serializable,
    semantic_conflict,
    semantic_conflict_graph,
    semantic_serialization_order,
)
from .view import (
    count_view_serial_orders,
    execution_is_view_serializable,
    is_view_serializable,
    lemma3_view_serialization,
    view_serialization_order,
)

__all__ = [
    "ALL_EXAMPLES",
    "ClassMembership",
    "EXAMPLE_1",
    "EXAMPLE_2",
    "FIGURE2_EXAMPLES",
    "PaperExample",
    "PartialOrderProgram",
    "REGION_LABELS",
    "admissibility_gain",
    "ancestry_at_level",
    "admissible_interleavings",
    "classify",
    "conflict_graph",
    "conflict_serialization_order",
    "conjunct_projections",
    "concurrency_gap",
    "conflict_graph_dot",
    "containment_violations",
    "cpc_graphs_dot",
    "count_view_serial_orders",
    "cpc_graphs",
    "execution_is_view_serializable",
    "figure2_region",
    "is_conflict_predicate_correct",
    "is_conflict_serializable",
    "is_mv_conflict_serializable",
    "is_multilevel_conflict_serializable",
    "is_multilevel_view_serializable",
    "is_mv_view_serializable",
    "is_partial_order_conflict_serializable",
    "is_partial_order_view_serializable",
    "is_predicate_correct",
    "is_predicatewise_conflict_serializable",
    "is_predicatewise_serializable",
    "is_semantically_conflict_serializable",
    "lemma3_view_serialization",
    "lift_schedule",
    "mv_conflict_graph_dot",
    "mv_conflict_graph",
    "mv_conflict_serialization_order",
    "mv_view_serialization_order",
    "normalize_objects",
    "observed_linearizes",
    "semantic_conflict",
    "semantic_conflict_graph",
    "semantic_serialization_order",
    "transaction_tree_dot",
    "verify_all",
]
