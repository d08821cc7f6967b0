"""Heuristics layered on the exact line results.

* hierarchical_triple_match: triple grouping of 3 * 2^m points in Euclidean
  space by repeated minimal pairing and midpoint contraction, then expansion
  with pairwise local search.  On collinear input it reproduces the exact
  line optimum.
* triangle_matching: tripartite matching composed from two bipartite
  minima through the shared middle part.  Under metric edge weights it costs
  at most twice the pairwise lower bound, hence at most twice optimal; on
  score-valued parts it is the sorted matching, at ratio 1 in exact arithmetic.
* local_search_2tuple: pairwise re-splitting of a k-group partition by the
  sorted split, which `certify_general` proves the cheapest split of two
  groups, to a fixpoint where no pair's sorted split is cheaper.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import combinations
from operator import add, attrgetter
from typing import Callable, Sequence

from .core import (
    ArityError,
    KPartition,
    KTuple,
    Record,
    ScoredItem,
    SizeError,
    ValidationError,
    WeightKind,
    within_columns,
)
from .multipartite import Matching, MultipartiteInstance, match_sorted
from .oracle import min_partition

EXACT_PAIRING_MAX_POINTS = 12

_by_score_and_rank = attrgetter("score", "input_rank")


class EuclideanPoint(Record):
    """A point in d-dimensional space with an opaque id."""

    coords: tuple[float, ...]
    id: str

    def __post_init__(self) -> None:
        if not self.coords:
            raise ValidationError(f"point {self.id!r} has no coordinates")
        if not all(map(math.isfinite, self.coords)):
            raise ValidationError(f"point {self.id!r} has non-finite coordinates")


def points_from_coords(coord_rows: Sequence[Sequence[float]]) -> list[EuclideanPoint]:
    return [
        EuclideanPoint(tuple(row), f"p{i}") for i, row in enumerate(coord_rows)
    ]


class HierarchicalTriples(Record):
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
    def resplit(i: int, j: int) -> bool:
        a, b = pairs[i]
        c, d = pairs[j]
        start = cur = dist[a][b] + dist[c][d]
        for p1, p2 in (((a, c), (b, d)), ((a, d), (b, c))):
            alt = dist[p1[0]][p1[1]] + dist[p2[0]][p2[1]]
            if alt < cur:
                pairs[i] = (min(p1), max(p1))
                pairs[j] = (min(p2), max(p2))
                cur = alt
        return cur < start

    _sweep_pairs(len(pairs), resplit)
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
    costs = [dist[a][b] + dist[b][c] + dist[c][a] for a, b, c in triples]
    # the first ten triples hold the first member, and triple 19 - i is the
    # complement of triple i
    pairs = [a + b for a, b in zip(costs[:10], costs[:9:-1])]
    i = pairs.index(min(pairs))
    return triples[i], triples[19 - i], pairs[i]


def _sweep_pairs(count: int, resplit: Callable[[int, int], bool]) -> None:
    """Call resplit(i, j) on the pairs i < j of `count` groups in index
    order, sweep after sweep, until a sweep re-splits nothing; resplit
    returns whether it changed groups i and j.
    """
    improved = True
    while improved:
        improved = False
        for i in range(count):
            for j in range(i + 1, count):
                improved = resplit(i, j) or improved


def _refine_triples(
    dist: list[list[float]], triples: list[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    def resplit(i: int, j: int) -> bool:
        first, second = triples[i], triples[j]
        cur = _triple_cost(dist, first) + _triple_cost(dist, second)
        # every other split mixes both triples, and a mixed triple has two
        # cross edges, each at least `near`; sorted triples cost what
        # `_best_two_triples` prices them at, so their own split only ties
        near = min(dist[a][b] for a in first for b in second)
        mixed = near + near
        if mixed + mixed >= cur and first == tuple(sorted(first)) and (
                second == tuple(sorted(second))):
            return False
        t1, t2, c = _best_two_triples(dist, first + second)
        if c < cur:
            triples[i], triples[j] = t1, t2
            return True
        return False

    _sweep_pairs(len(triples), resplit)
    return triples


def _contract(
    points: Sequence[EuclideanPoint], dist: list[list[float]], level: int
) -> tuple[list[tuple[int, ...]], tuple[bool, ...]]:
    """Triples of indices into `points`, whose distance table is `dist`, and
    each level's pairing exactness, this level first: pair the points, group
    the pairs' midpoints by recursion, split each midpoint triple's six
    members into two triples, then refine."""
    if len(points) == 3:
        return [(0, 1, 2)], ()
    pairs, exact = _min_cost_pairing(dist)
    mids = [
        EuclideanPoint(tuple((x + y) / 2 for x, y in
                             zip(points[a].coords, points[b].coords)),
                       f"mid{level}.{i}")
        for i, (a, b) in enumerate(pairs)]
    below, exact_below = _contract(mids, _dist_table(mids), level + 1)
    expanded: list[tuple[int, ...]] = []
    for triple in below:
        members = [m for idx in triple for m in pairs[idx]]
        expanded.extend(_best_two_triples(dist, members)[:2])
    return _refine_triples(dist, expanded), (exact, *exact_below)


def hierarchical_triple_match(points: Sequence[EuclideanPoint]) -> HierarchicalTriples:
    """Group 3 * 2^m Euclidean points into triples of small pairwise length.

    Descends by repeatedly pairing points at minimal total segment length
    (exact enumeration up to 12 points per level, greedy plus 2-opt above)
    and replacing each pair with its midpoint, down to three points.  Then
    re-expands level by level, re-splitting every pair of triples to a local
    optimum.  Cost of a triple is the sum of its three pairwise distances.
    Raises SizeError unless there are 3 * 2^m points, and ValidationError
    naming the first point whose dimension differs from the first point's.
    """
    n = len(points)
    if n % 3 != 0 or n == 0 or (n // 3) & (n // 3 - 1):
        raise SizeError(f"need 3 * 2^m points, got {n}")
    dim = len(points[0].coords)
    for p in points:
        if len(p.coords) != dim:
            raise ValidationError(f"point {p.id!r} has {len(p.coords)} coordinates, "
                                  f"point {points[0].id!r} has {dim}")

    dist = _dist_table(points)
    triples, exact_flags = _contract(points, dist, 1)
    out = tuple(tuple(points[i] for i in t) for t in triples)
    cost = reduce(add, (_triple_cost(dist, t) for t in triples), 0)
    return HierarchicalTriples(out, cost, exact_flags)


def triangle_matching(instance: MultipartiteInstance) -> Matching:
    """Tripartite matching joining (a, b) from the minimal A-B matching with
    (b, c) from the minimal B-C matching through the shared b.

    Both minima match rank for rank, so the join is `match_sorted`'s
    matching, at its weight.  When edge weights are metric the total is at
    most 2 * (w_AB + w_BC), hence at most twice the tripartite optimum.
    """
    if len(instance.parts) != 3:
        raise ArityError("triangle matching needs a tripartite instance")
    return match_sorted(instance)


def _cheaper_split(
    first: list[ScoredItem],
    second: list[ScoredItem],
    bound: float,
    weight: WeightKind,
) -> tuple[list[ScoredItem], list[ScoredItem], float, float] | None:
    """The sorted split of two sorted k-groups' members, the lower and the
    upper k in (score, rank) order, as (group, group, cost, cost) if it
    costs less than `bound`, the pair's current cost; None otherwise.

    `certify_general` proves the sorted split the cheapest split of any 2k
    scores into two k-groups.  Groups that do not interleave already are
    their sorted split, score for score, so they cost the same bits and
    get None without a kernel call.
    """
    if first[-1].score <= second[0].score or second[-1].score <= first[0].score:
        return None
    k = len(first)
    merged = sorted(first + second, key=_by_score_and_rank)
    scores = [m.score for m in merged]
    low, high = within_columns(list(zip(scores[:k], scores[k:])), weight)
    if low + high < bound:
        return merged[:k], merged[k:], low, high
    return None


def local_search_2tuple(partition: KPartition, weight: WeightKind) -> KPartition:
    """Re-split pairs of groups until no pair admits a cheaper split.

    Scans group pairs in index order and re-splits each pair by
    `_cheaper_split`: the lower k of its 2k members form one group and the
    upper k the other, applied only when strictly cheaper in floats.  Cost
    never increases, and the scan ends where no pair's sorted split is
    cheaper, so sorted groups such as `match_line`'s come back unchanged.
    """
    k = partition.k
    groups = [list(t.members) for t in partition.tuples]
    start = partition.columns()[1]
    costs = within_columns([start[i::k] for i in range(k)], weight)

    def resplit(i: int, j: int) -> bool:
        better = _cheaper_split(groups[i], groups[j], costs[i] + costs[j], weight)
        if better is None:
            return False
        groups[i], groups[j], costs[i], costs[j] = better
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
