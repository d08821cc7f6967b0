"""Minimal-cost k-group matching of scored items on a line.

Sort-and-chunk partitioning with machine-checked optimality certificates,
bipartite/tripartite rank matching with exact enumeration oracles, column
balancing for treatment assignment, and benchmark heuristics.
"""

from .core import (
    CERTIFIED_MAX_K,
    ArityError,
    CertifiedRangeError,
    Cohort,
    EnumerationBudgetError,
    KPartition,
    KTuple,
    ScoredItem,
    SizeError,
    ValidationError,
    WeightKind,
    items_from_pairs,
    sort_items,
    variance_identity_check,
    within_distance,
)
from .matching import BalancedPartition, balance_columns, match_line
from .oracle import (
    brute_force_assignment,
    brute_force_partition,
    greedy_match,
    iter_tuple_partitions,
    partition_count,
)
from .certify import (
    ExchangeCertificate,
    LinearForm,
    QuadraticForm,
    certificate_render,
    certify_abs,
    certify_sq,
    difference_form,
)
from .multipartite import (
    LmWitness,
    Matching,
    MultipartiteInstance,
    heuristic_ratio_bound,
    instance_from_scores,
    is_lm_on_samples,
    match_sorted,
    tripartite_lower_bound,
)
from .heuristics import (
    EuclideanPoint,
    HierarchicalTriples,
    hierarchical_triple_match,
    local_search_2tuple,
    points_from_coords,
    triangle_matching,
)

__version__ = "0.1.0"

__all__ = [
    "ArityError",
    "BalancedPartition",
    "CERTIFIED_MAX_K",
    "CertifiedRangeError",
    "Cohort",
    "EnumerationBudgetError",
    "EuclideanPoint",
    "ExchangeCertificate",
    "HierarchicalTriples",
    "KPartition",
    "KTuple",
    "LinearForm",
    "LmWitness",
    "Matching",
    "MultipartiteInstance",
    "QuadraticForm",
    "ScoredItem",
    "SizeError",
    "ValidationError",
    "WeightKind",
    "balance_columns",
    "brute_force_assignment",
    "brute_force_partition",
    "certificate_render",
    "certify_abs",
    "certify_sq",
    "difference_form",
    "greedy_match",
    "heuristic_ratio_bound",
    "hierarchical_triple_match",
    "instance_from_scores",
    "is_lm_on_samples",
    "items_from_pairs",
    "iter_tuple_partitions",
    "local_search_2tuple",
    "match_line",
    "match_sorted",
    "partition_count",
    "points_from_coords",
    "sort_items",
    "triangle_matching",
    "tripartite_lower_bound",
    "variance_identity_check",
    "within_distance",
]
