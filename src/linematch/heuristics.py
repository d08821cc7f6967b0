"""Heuristics layered on the exact line results.

* hierarchical_triple_match: triple grouping of 3 * 2^m points in Euclidean
  space by repeated minimal pairing and midpoint contraction, then expansion
  with pairwise local search.  On collinear input it reproduces the exact
  line optimum.
* triangle_matching: tripartite matching composed from two bipartite
  minima through the shared middle part; under metric edge weights its cost
  is at most twice the pairwise lower bound, hence at most twice optimal.
* local_search_2tuple: pairwise re-splitting of a k-group partition to a
  fixpoint where no two groups can be re-split more cheaply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import (
    ArityError,
    EnumerationBudgetError,
    KPartition,
    KTuple,
    SizeError,
    ValidationError,
    WeightKind,
    within_scores,
)
from .multipartite import Matching, MultipartiteInstance, match_sorted, tuple_weight
from .oracle import min_partition

EXACT_PAIRING_MAX_POINTS = 12


@dataclass(frozen=True, slots=True)
class EuclideanPoint:
    """A point in d-dimensional space with an opaque id."""

    coords: tuple[float, ...]
    id: str

    def __post_init__(self):
        if not self.coords or any(not math.isfinite(c) for c in self.coords):
            raise ValidationError(f"point {self.id!r} has non-finite coordinates")


def points_from_coords(coord_rows: Sequence[Sequence[float]]) -> list[EuclideanPoint]:
    return [
        EuclideanPoint(tuple(row), f"p{i}") for i, row in enumerate(coord_rows)
    ]


@dataclass(frozen=True)
class HierarchicalTriples:
    """Result of the hierarchical heuristic, with per-level pairing exactness."""

    triples: tuple[tuple[EuclideanPoint, EuclideanPoint, EuclideanPoint], ...]
    cost: float
    pairing_exact: tuple[bool, ...]


def _dist(p: EuclideanPoint, q: EuclideanPoint) -> float:
    return math.dist(p.coords, q.coords)


def _triple_cost(points: Sequence[EuclideanPoint], triple: Sequence[int]) -> float:
    a, b, c = (points[i] for i in triple)
    return _dist(a, b) + _dist(b, c) + _dist(c, a)


def _exact_pairing(points: Sequence[EuclideanPoint]) -> list[tuple[int, int]]:
    n = len(points)
    d = [[_dist(points[i], points[j]) for j in range(n)] for i in range(n)]
    pairs, _ = min_partition(n, 2, lambda pair: d[pair[0]][pair[1]])
    return list(pairs)


def _greedy_pairing(points: Sequence[EuclideanPoint]) -> list[tuple[int, int]]:
    n = len(points)
    unused = list(range(n))
    pairs = []
    while unused:
        a = unused.pop(0)
        best_j = min(
            range(len(unused)), key=lambda j: (_dist(points[a], points[unused[j]]), j)
        )
        b = unused.pop(best_j)
        pairs.append((a, b))
    return pairs


def _two_opt_pairs(
    points: Sequence[EuclideanPoint], pairs: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    def cost(p):
        return _dist(points[p[0]], points[p[1]])

    improved = True
    while improved:
        improved = False
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs)):
                a, b = pairs[i]
                c, d2 = pairs[j]
                cur = cost((a, b)) + cost((c, d2))
                for p1, p2 in (((a, c), (b, d2)), ((a, d2), (b, c))):
                    alt = cost(p1) + cost(p2)
                    if alt < cur:
                        pairs[i] = (min(p1), max(p1))
                        pairs[j] = (min(p2), max(p2))
                        improved = True
                        cur = alt
                        a, b = pairs[i]
                        c, d2 = pairs[j]
    return pairs


def _min_cost_pairing(
    points: Sequence[EuclideanPoint],
) -> tuple[list[tuple[int, int]], bool]:
    if len(points) <= EXACT_PAIRING_MAX_POINTS:
        return _exact_pairing(points), True
    return _two_opt_pairs(points, _greedy_pairing(points)), False


def _best_two_triples(
    points: Sequence[EuclideanPoint], members: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...], float]:
    """Cheapest split of six point indices into two triples (first member
    anchored; ties go to the first combination in lexicographic order)."""
    members = sorted(members)

    def pick(positions):
        return tuple(members[p] for p in positions)

    (t1, t2), cost = min_partition(6, 3, lambda t: _triple_cost(points, pick(t)))
    return pick(t1), pick(t2), cost


def _refine_triples(
    points: Sequence[EuclideanPoint], triples: list[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    improved = True
    while improved:
        improved = False
        for i in range(len(triples)):
            for j in range(i + 1, len(triples)):
                cur = _triple_cost(points, triples[i]) + _triple_cost(
                    points, triples[j]
                )
                t1, t2, c = _best_two_triples(points, triples[i] + triples[j])
                if c < cur:
                    triples[i] = t1
                    triples[j] = t2
                    improved = True
    return triples


def hierarchical_triple_match(points: Sequence[EuclideanPoint]) -> HierarchicalTriples:
    """Group 3 * 2^m Euclidean points into triples of small pairwise length.

    Descends by repeatedly pairing points at minimal total segment length
    (exact enumeration up to 12 points per level, greedy plus 2-opt above)
    and replacing each pair with its midpoint, down to three points.  Then
    re-expands level by level, re-splitting every pair of triples to a local
    optimum.  Cost of a triple is the sum of its three pairwise distances.
    """
    n = len(points)
    if n % 3 != 0 or n == 0 or (n // 3) & (n // 3 - 1):
        raise SizeError(f"need 3 * 2^m points, got {n}")

    # one (points, merged_from) per contraction level: for each point the
    # indices of the two points it merged in the level below (None at base)
    levels = [(tuple(points), None)]
    exact_flags = []
    while len(levels[-1][0]) > 3:
        current = levels[-1][0]
        pairs, exact = _min_cost_pairing(current)
        exact_flags.append(exact)
        mids = []
        provenance = []
        for a, b in pairs:
            pa, pb = current[a], current[b]
            mid = tuple((x + y) / 2 for x, y in zip(pa.coords, pb.coords))
            mids.append(
                EuclideanPoint(mid, f"mid{len(levels)}.{len(provenance)}")
            )
            provenance.append((a, b))
        levels.append((tuple(mids), tuple(provenance)))

    triples: list[tuple[int, ...]] = [(0, 1, 2)]
    for level_idx in range(len(levels) - 1, 0, -1):
        merged = levels[level_idx][1]
        below = levels[level_idx - 1][0]
        expanded: list[tuple[int, ...]] = []
        for triple in triples:
            members = []
            for idx in triple:
                members.extend(merged[idx])
            t1, t2, _ = _best_two_triples(below, members)
            expanded.append(t1)
            expanded.append(t2)
        triples = _refine_triples(below, expanded)

    base = levels[0][0]
    out = tuple(tuple(base[i] for i in t) for t in triples)
    cost = sum(_triple_cost(base, t) for t in triples)
    return HierarchicalTriples(out, cost, tuple(exact_flags))


def triangle_matching(instance: MultipartiteInstance) -> Matching:
    """Tripartite matching composed from the two bipartite minima that share
    the middle part.

    Joins (a, b) from the minimal A-B matching with (b, c) from the minimal
    B-C matching through the shared b.  The third edge of every triple is
    paid but never optimized; when edge weights are metric the total is at
    most 2 * (w_AB + w_BC), hence at most twice the tripartite optimum.
    """
    if len(instance.parts) != 3:
        raise ArityError("triangle matching needs a tripartite instance")
    parts = instance.parts
    ab = match_sorted(MultipartiteInstance((parts[0], parts[1]), instance.weight))
    bc = match_sorted(MultipartiteInstance((parts[1], parts[2]), instance.weight))
    b_to_a = {b: a for a, b in ab.tuples}
    tuples = tuple((b_to_a[b], b, c) for b, c in bc.tuples)
    total = 0
    for a, b, c in tuples:
        values = (parts[0][a].score, parts[1][b].score, parts[2][c].score)
        total += tuple_weight(instance.weight, values)
    return Matching(tuples, total)


def local_search_2tuple(
    partition: KPartition,
    weight: WeightKind,
    budget: int = 10_000_000,
) -> KPartition:
    """Re-split pairs of groups until no pair admits a cheaper split.

    Scans group pairs in index order; for each pair, enumerates every split
    of the 2k concatenated members that keeps the smallest member in the
    first group, and applies the best strictly-cheaper one.  Cost never
    increases and the scan terminates at a pairwise-optimal fixpoint.
    """
    k = partition.k
    per_pair = math.comb(2 * k - 1, k - 1)
    if per_pair > budget:
        raise EnumerationBudgetError(
            f"per-pair enumeration {per_pair} exceeds budget {budget}"
        )
    groups = [list(t.members) for t in partition.tuples]
    costs = [
        within_scores([m.score for m in g], weight) for g in groups
    ]

    improved = True
    while improved:
        improved = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                merged = sorted(groups[i] + groups[j], key=lambda m: m.sort_key())

                def split_cost(positions):
                    return within_scores([merged[p].score for p in positions], weight)

                better = min_partition(2 * k, k, split_cost, bound=costs[i] + costs[j])
                if better is not None:
                    (g1, g2), _ = better
                    groups[i] = [merged[p] for p in g1]
                    groups[j] = [merged[p] for p in g2]
                    costs[i] = split_cost(g1)
                    costs[j] = split_cost(g2)
                    improved = True
    tuples = [KTuple(tuple(g)) for g in groups]
    return KPartition(k, tuples, sum(costs), weight)


__all__ = [
    "EXACT_PAIRING_MAX_POINTS",
    "EuclideanPoint",
    "HierarchicalTriples",
    "hierarchical_triple_match",
    "local_search_2tuple",
    "points_from_coords",
    "triangle_matching",
]
