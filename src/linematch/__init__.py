"""Minimal-cost k-group matching of scored items on a line.

Sort-and-chunk partitioning with machine-checked optimality certificates,
bipartite/tripartite rank matching with exact enumeration oracles, column
balancing for treatment assignment, and benchmark heuristics.

Each export is imported from its module on first access (PEP 562), so
`import linematch` loads none of them and a caller pays only for the
modules it uses.
"""

import importlib

__version__ = "0.1.0"

# every export and the module it is defined in, in sorted() order
_EXPORTS = {
    "ArityError": "core",
    "BalancedPartition": "matching",
    "Cohort": "core",
    "EnumerationBudgetError": "core",
    "EuclideanPoint": "heuristics",
    "ExchangeCertificate": "certify",
    "HierarchicalTriples": "heuristics",
    "KPartition": "core",
    "KTuple": "core",
    "LinearForm": "certify",
    "LmWitness": "multipartite",
    "Matching": "multipartite",
    "MultipartiteInstance": "multipartite",
    "QuadraticForm": "certify",
    "ScoredItem": "core",
    "SizeError": "core",
    "TRIPARTITE_ORACLE_MAX_N": "oracle",
    "ValidationError": "core",
    "WeightKind": "core",
    "balance_columns": "matching",
    "brute_force_assignment": "oracle",
    "brute_force_partition": "oracle",
    "certificate_chunks": "certify",
    "certificate_render": "certify",
    "certify_abs": "certify",
    "certify_general": "certify",
    "certify_sq": "certify",
    "difference_form": "certify",
    "greedy_match": "oracle",
    "heuristic_ratio_bound": "multipartite",
    "hierarchical_triple_match": "heuristics",
    "instance_from_scores": "multipartite",
    "is_lm_on_samples": "multipartite",
    "items_from_pairs": "core",
    "iter_tuple_partitions": "oracle",
    "local_search_2tuple": "heuristics",
    "match_line": "matching",
    "match_sorted": "multipartite",
    "partition_count": "oracle",
    "points_from_coords": "heuristics",
    "sort_items": "core",
    "triangle_matching": "heuristics",
    "tripartite_lower_bound": "multipartite",
    "variance_identity_check": "core",
    "within_distance": "core",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
