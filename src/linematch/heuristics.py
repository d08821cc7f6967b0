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
from functools import reduce
from itertools import combinations
from operator import add, attrgetter
from typing import Callable, Sequence

from .core import (
    ArityError,
    EnumerationBudgetError,
    KPartition,
    KTuple,
    SizeError,
    ValidationError,
    WeightKind,
    within_columns,
)
from .multipartite import Matching, MultipartiteInstance, match_sorted, matching_weight
from .oracle import DEFAULT_BUDGET, min_partition, min_split

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


def _dist_table(points: Sequence[EuclideanPoint]) -> list[list[float]]:
    """`math.dist` between every two points; symmetric, as math.dist is."""
    coords = [p.coords for p in points]
    return [[math.dist(p, q) for q in coords] for p in coords]


def _triple_cost(dist: list[list[float]], triple: Sequence[int]) -> float:
    a, b, c = triple
    return dist[a][b] + dist[b][c] + dist[c][a]


def _greedy_pairing(dist: list[list[float]]) -> list[tuple[int, int]]:
    unused = list(range(len(dist)))
    pairs = []
    while unused:
        a = unused.pop(0)
        b = min(unused, key=dist[a].__getitem__)
        unused.remove(b)
        pairs.append((a, b))
    return pairs


def _two_opt_pairs(
    dist: list[list[float]], pairs: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    improved = True
    while improved:
        improved = False
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs)):
                a, b = pairs[i]
                c, d = pairs[j]
                cur = dist[a][b] + dist[c][d]
                for p1, p2 in (((a, c), (b, d)), ((a, d), (b, c))):
                    alt = dist[p1[0]][p1[1]] + dist[p2[0]][p2[1]]
                    if alt < cur:
                        pairs[i] = (min(p1), max(p1))
                        pairs[j] = (min(p2), max(p2))
                        improved = True
                        cur = alt
    return pairs


def _min_cost_pairing(dist: list[list[float]]) -> tuple[list[tuple[int, int]], bool]:
    if len(dist) <= EXACT_PAIRING_MAX_POINTS:
        pair_dist = {(a, b): dist[a][b] for a, b in combinations(range(len(dist)), 2)}
        pairs, _ = min_partition(len(dist), 2, pair_dist.__getitem__)
        return list(pairs), True
    return _two_opt_pairs(dist, _greedy_pairing(dist)), False


def _best_two_triples(
    dist: list[list[float]], members: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...], float]:
    """Cheapest split of six point indices into two triples (first member
    anchored; ties go to the first combination in lexicographic order)."""
    triples = list(combinations(sorted(members), 3))
    (r1, r2), cost = min_split(
        [dist[a][b] + dist[b][c] + dist[c][a] for a, b, c in triples])
    return triples[r1], triples[r2], cost


def _sweep_pairs(count: int, resplit: Callable[[int, int], bool]) -> None:
    """Call resplit(i, j) on the pairs i < j of `count` groups in index
    order, sweep after sweep, until a sweep re-splits nothing; resplit
    returns whether it changed groups i and j.

    A pair's verdict depends only on its two groups, so a pair is skipped
    when neither group has changed since it was last evaluated: every group
    carries a version, bumped when it is re-split, and each pair remembers
    the two versions it was evaluated at.  The sweep that ends the search
    then evaluates nothing, and groups that are already pairwise-optimal
    cost exactly C(count, 2) evaluations.
    """
    version = [0] * count
    evaluated_at: dict[tuple[int, int], tuple[int, int]] = {}
    improved = True
    while improved:
        improved = False
        for i in range(count):
            for j in range(i + 1, count):
                state = (version[i], version[j])
                if evaluated_at.get((i, j)) == state:
                    continue
                evaluated_at[i, j] = state
                if resplit(i, j):
                    version[i] += 1
                    version[j] += 1
                    improved = True


def _refine_triples(
    dist: list[list[float]], triples: list[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    def resplit(i: int, j: int) -> bool:
        cur = _triple_cost(dist, triples[i]) + _triple_cost(dist, triples[j])
        t1, t2, c = _best_two_triples(dist, triples[i] + triples[j])
        if c < cur:
            triples[i], triples[j] = t1, t2
            return True
        return False

    _sweep_pairs(len(triples), resplit)
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

    # one (points, merged_from, dist) per contraction level: the two points
    # each merged in the level below (None at base), and its distance table
    levels = [(tuple(points), None, _dist_table(points))]
    exact_flags = []
    while len(levels[-1][0]) > 3:
        current, _, dist = levels[-1]
        pairs, exact = _min_cost_pairing(dist)
        exact_flags.append(exact)
        mids = tuple(
            EuclideanPoint(tuple((x + y) / 2 for x, y in
                                 zip(current[a].coords, current[b].coords)),
                           f"mid{len(levels)}.{i}")
            for i, (a, b) in enumerate(pairs))
        levels.append((mids, tuple(pairs), _dist_table(mids)))

    triples: list[tuple[int, ...]] = [(0, 1, 2)]
    for level_idx in range(len(levels) - 1, 0, -1):
        merged = levels[level_idx][1]
        below = levels[level_idx - 1][2]
        expanded: list[tuple[int, ...]] = []
        for triple in triples:
            members = [m for idx in triple for m in merged[idx]]
            expanded.extend(_best_two_triples(below, members)[:2])
        triples = _refine_triples(below, expanded)

    base, _, dist = levels[0]
    out = tuple(tuple(base[i] for i in t) for t in triples)
    cost = reduce(add, (_triple_cost(dist, t) for t in triples), 0)
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
    return Matching(tuples, matching_weight(instance, Matching(tuples, 0)))


def local_search_2tuple(
    partition: KPartition,
    weight: WeightKind,
    budget: int = DEFAULT_BUDGET,
) -> KPartition:
    """Re-split pairs of groups until no pair admits a cheaper split.

    Scans group pairs in index order; for each pair, enumerates every split
    of the 2k concatenated members that keeps the smallest member in the
    first group, and applies the best strictly-cheaper one.  Cost never
    increases and the scan terminates at a pairwise-optimal fixpoint.
    A pair's C(2k, k) candidate groups are costed in one kernel call, in
    `combinations` order, and `min_split` reads each split as a group and
    its complement from that list by rank; `_sweep_pairs` skips a pair
    whose two groups have not changed since it was last evaluated.
    """
    k = partition.k
    per_pair = math.comb(2 * k - 1, k - 1)
    if per_pair > budget:
        raise EnumerationBudgetError(
            f"per-pair enumeration {per_pair} exceeds budget {budget}"
        )
    groups = [list(t.members) for t in partition.tuples]
    costs = list(KPartition.from_sorted_items(
        k, partition.items(), None, weight).group_within)
    # every k-subset of the 2k merged positions: either half of any split
    positions = list(combinations(range(2 * k), k))
    sort_key = attrgetter("score", "input_rank")

    def resplit(i: int, j: int) -> bool:
        merged = sorted(groups[i] + groups[j], key=sort_key)
        scores = [m.score for m in merged]
        within = within_columns(list(zip(*combinations(scores, k))), weight)
        better = min_split(within, bound=costs[i] + costs[j])
        if better is None:
            return False
        (r1, r2), _ = better
        groups[i] = [merged[p] for p in positions[r1]]
        groups[j] = [merged[p] for p in positions[r2]]
        costs[i] = within[r1]
        costs[j] = within[r2]
        return True

    _sweep_pairs(len(groups), resplit)
    tuples = [KTuple(tuple(g)) for g in groups]
    return KPartition(k, tuples, reduce(add, costs, 0), weight)


__all__ = [
    "EXACT_PAIRING_MAX_POINTS",
    "EuclideanPoint",
    "HierarchicalTriples",
    "hierarchical_triple_match",
    "local_search_2tuple",
    "points_from_coords",
    "triangle_matching",
]
