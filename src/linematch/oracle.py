"""Exhaustive solvers and the greedy baseline, for desk-scale ground truth.

Every optimality claim in this package is testable against these: canonical
enumeration of k-group partitions (lowest unused item anchors each group),
permutation enumeration for bipartite/tripartite matching, and the greedy
cheapest-group-first heuristic that exists purely to be beaten.

The greedy baseline searches each step in value order: a cheapest
k-subset holds every item scored strictly between its ends, so a step
costs only the N - k + 1 windows of k neighbours among the N remaining
items, and it needs no budget.  Ties go to the lexicographically first
input ranks.  Scores must be finite, so no cost is NaN.

The exhaustive oracles are budgeted.  Every exact partition search in the
package goes through `min_partition`, except the hierarchy's split of six
points into two triples, which prices its ten splits directly with the
same order and tie rule.  Both assignment oracles go through one
permutation search over rows of edge weights, which adds a branch's
weights inline and cuts a child before entering it.  Both searches keep
one cut rule: a branch stops once its partial cost reaches the incumbent,
since with nonnegative costs it can then at best tie, and only a strictly
cheaper leaf replaces the incumbent, so the result is the
lexicographically first minimum.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations, islice
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    DEFAULT_BUDGET,
    EnumerationBudgetError,
    KPartition,
    KTuple,
    ScoredItem,
    SizeError,
    WeightKind,
    check_certified_k,
    check_finite,
    sort_items,
    within_columns,
)
from .multipartite import Matching, MultipartiteInstance

BIPARTITE_ORACLE_MAX_N = 8
TRIPARTITE_ORACLE_MAX_N = 6

# small enough that a chunk's subset lists die before the interpreter's
# young-generation collection (700 allocations) would traverse them
_SUBSET_CHUNK = 512
# splits per cached table: larger levels are streamed, not kept
_SPLIT_CACHE_MAX = 1024


def partition_count(k: int, n: int) -> int:
    """Number of distinct partitions of k*n items into n unordered k-groups."""
    return math.factorial(k * n) // (math.factorial(k) ** n * math.factorial(n))


def _tuple_getter(indices: Sequence[int]) -> Callable[[tuple], tuple]:
    """`itemgetter(*indices)`, which returns a tuple also for one index."""
    if len(indices) == 1:
        return lambda seq, i=indices[0]: (seq[i],)
    return itemgetter(*indices)


def _rest_of(companions: tuple[int, ...], unused: Iterable) -> tuple:
    """What is left of `unused` once its first item and those at the
    positions `companions` are taken, in order."""
    chosen = set(companions)
    return tuple(x for i, x in enumerate(unused) if i and i not in chosen)


@functools.lru_cache(maxsize=16)
def _split_table(m: int, k: int) -> tuple[tuple[Callable, Callable], ...]:
    """Every branch of a search over m unused items, as (group, rest)
    getters: the first item with each (k - 1)-combination of the others, in
    `combinations` order, and the items not chosen, in their order."""
    return tuple((_tuple_getter((0,) + companions),
                  _tuple_getter(_rest_of(companions, range(m))))
                 for companions in combinations(range(1, m), k - 1))


def _split_stream(m: int, k: int) -> Iterator[tuple[Callable, Callable]]:
    """The branches of `_split_table(m, k)`, built one at a time, each rest
    found only when a branch is not cut."""
    for companions in combinations(range(1, m), k - 1):
        yield (_tuple_getter((0,) + companions),
               functools.partial(_rest_of, companions))


def _split_levels(n_items: int, k: int) -> dict[int, Callable[[], Iterator]]:
    """For each branching level of a search over n_items items, by its
    number of unused items (2k to n_items), a callable that returns an
    iterator over its splits.  Tables of up to _SPLIT_CACHE_MAX splits are
    kept in a bounded cache; larger levels are streamed on every pass, so
    that no large table is held."""
    return {m: (_split_table(m, k).__iter__
                if math.comb(m - 1, k - 1) <= _SPLIT_CACHE_MAX
                else functools.partial(_split_stream, m, k))
            for m in range(2 * k, n_items + 1, k)}


def iter_tuple_partitions(n_items: int, k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield every partition of range(n_items) into k-sized index groups.

    Canonical form: the lowest unused index anchors each group, companions
    are combinations of the remaining indices, so each set partition appears
    exactly once, in lexicographic order.
    """
    if n_items % k != 0:
        raise SizeError(f"{n_items} items cannot be split into groups of {k}")
    levels = _split_levels(n_items, k)

    def rec(unused: tuple[int, ...]):
        if len(unused) == k:
            # the last group is forced: a leaf, not a branch
            yield (unused,)
            return
        for group_of, rest_of in levels[len(unused)]():
            group = group_of(unused)
            for tail in rec(rest_of(unused)):
                yield (group,) + tail

    return rec(tuple(range(n_items))) if n_items else iter([()])


def min_partition(
    n_items: int,
    k: int,
    group_cost: Callable[[tuple[int, ...]], float],
) -> tuple[tuple[tuple[int, ...], ...], float]:
    """Lexicographically first cheapest partition of range(n_items) into
    k-sized index groups, as (groups, cost).

    Branch-and-bound in the order of `iter_tuple_partitions`; a partition
    costs the running sum of `group_cost` over its groups, first to last.
    Group costs must be nonnegative: a branch whose partial cost reaches the
    incumbent can then at best tie, so it is cut.  The first partition is
    the incumbent even at cost `inf`.  No budget: callers size their
    instances.  Each level walks the (group, rest) getters of
    `_split_levels` for its number of unused items, so a branch builds no
    set or tuple of its own to split the unused items.
    """
    if n_items % k != 0:
        raise SizeError(f"{n_items} items cannot be split into groups of {k}")
    if n_items == 0:
        return (), 0
    best_cost, best_groups = None, None
    levels = _split_levels(n_items, k)

    def rec(unused: tuple[int, ...], partial: float, acc: tuple[tuple[int, ...], ...]):
        nonlocal best_cost, best_groups
        if len(unused) == k:
            # the last group is forced: a leaf, not a branch
            cost = partial + group_cost(unused)
            if best_cost is None or cost < best_cost:
                best_cost, best_groups = cost, acc + (unused,)
            return
        for group_of, rest_of in levels[len(unused)]():
            group = group_of(unused)
            cost = partial + group_cost(group)
            if best_cost is not None and cost >= best_cost:
                continue
            rec(rest_of(unused), cost, acc + (group,))

    rec(tuple(range(n_items)), 0, ())
    return best_groups, best_cost


def _subset_costs(subsets: Iterator[Sequence], weight: WeightKind) -> list[float]:
    """Within-distance of each nondecreasing subset, costed by the
    `within_columns` kernel _SUBSET_CHUNK subsets at a time so that only the
    costs are held."""
    costs = []
    for chunk in iter(lambda: list(islice(subsets, _SUBSET_CHUNK)), []):
        costs += within_columns(list(zip(*chunk)), weight)
    return costs


def brute_force_partition(
    items: Sequence[ScoredItem],
    k: int,
    weight: WeightKind,
    budget: int = DEFAULT_BUDGET,
) -> KPartition:
    """Exact minimal k-group partition by exhaustive search.

    Among equal-cost minima returns the lexicographically smallest by sorted
    group contents.  Refuses instances whose partition count, or whose table
    of all C(N, k) group costs (N = len(items)), exceeds the budget; the
    table is the larger one only at n = 2, where it holds twice as many
    entries as there are partitions.
    """
    if len(items) % k != 0:
        raise SizeError(f"{len(items)} items cannot be split into groups of {k}")
    n = len(items) // k
    count = partition_count(k, n)
    if count > budget:
        raise EnumerationBudgetError(
            f"instance too large for oracle: {count} partitions exceeds budget {budget}"
        )
    subsets = math.comb(len(items), k)
    if subsets > budget:
        raise EnumerationBudgetError(
            f"instance too large for oracle: {subsets} group costs exceeds budget {budget}"
        )
    ordered = sort_items(items)
    scores = [it.score for it in ordered]
    table = dict(zip(combinations(range(len(ordered)), k),
                     _subset_costs(combinations(scores, k), weight)))
    groups, cost = min_partition(len(ordered), k, table.__getitem__)
    tuples = [KTuple(tuple(ordered[i] for i in group)) for group in groups]
    return KPartition(k, tuples, cost, weight)


def _cheapest_subset(
    by_value: Sequence[int],
    scores: Sequence[float],
    k: int,
    weight: WeightKind,
) -> tuple[tuple[int, ...], float]:
    """The first, in lexicographic order of input ranks, of the cheapest
    k-subsets of the ranks `by_value` (in (score, rank) order, k >= 2,
    finite scores), as (ranks in order, its cost).

    A cheapest subset holds every item scored strictly between its lowest
    and highest score (the window lemma in the README's cost model), so it
    has the scores of a window of k neighbouring positions, and only its
    members tied with its lowest score can lie outside that window: ties
    sit in rank order, so a window already holds the first members of its
    highest score's run.  One kernel call costs every window, and each
    window at the least cost gives one candidate, its lowest score's
    members taken from the start of their run.  If every window costs
    `inf`, no subset is cheaper than the first k ranks.
    """
    vals = _tuple_getter(by_value)(scores)
    n = len(vals)
    costs = within_columns([vals[s:n - k + 1 + s] for s in range(k)], weight)
    least = min(costs)
    if least == math.inf:
        combo = tuple(sorted(by_value)[:k])
        members = sorted(combo, key=scores.__getitem__)
    else:
        # run[p]: the first position of the run of scores tied with vals[p]
        run = list(range(n))
        for p in range(1, n):
            if vals[p] == vals[p - 1]:
                run[p] = run[p - 1]

        def candidate(s: int) -> tuple[tuple[int, ...], list[int]]:
            shift = s - run[s]
            members = [by_value[p - shift if run[p] == run[s] else p]
                       for p in range(s, s + k)]
            return tuple(sorted(members)), members

        combo, members = min(candidate(s) for s, c in enumerate(costs) if c == least)
    return combo, within_columns([(scores[i],) for i in members], weight)[0]


def greedy_match(
    items: Sequence[ScoredItem],
    k: int,
    weight: WeightKind,
) -> KPartition:
    """Repeatedly extract the cheapest k-subset of the remaining items.

    Ties go to the lexicographically smallest member ranks.  Not optimal in
    general; kept as the falsifiable baseline.  Rejects k < 2 and, naming
    the first such item, a non-finite score.

    Each step's pick is found by `_cheapest_subset` over the remaining items
    in (score, rank) order, which costs only the N - k + 1 windows of k
    neighbours, so a step takes O(N·k) time and memory for N remaining
    items, and the run O(N²).  The picked subsets' own costs are summed in
    pick order.  The picks are those of re-scanning every remaining
    k-subset at every step wherever costs are exact, as on integers.  On
    floats whose gaps fall below one unit in the last place of a group's
    cost, a group that is not a window can round to the least cost too,
    and then the pick can differ at the same cost: on up to 16 scores
    drawn from {1e300, 0, 1, 3e-300, 2}, 32 of 8,000 first picks did (the
    README's cost model gives the other score families tried, where none
    did).
    """
    check_certified_k(k)
    if len(items) % k != 0:
        raise SizeError(f"{len(items)} items cannot be split into groups of {k}")
    check_finite(items)
    ranked = sorted(items, key=lambda it: it.input_rank)
    n = len(ranked)
    scores = [it.score for it in ranked]
    by_value = sorted(range(n), key=scores.__getitem__)
    tuples = []
    total = 0
    for _ in range(n // k):
        combo, cost = _cheapest_subset(by_value, scores, k, weight)
        tuples.append(KTuple.of(ranked[i] for i in combo))
        total += cost
        taken = set(combo)
        by_value = [i for i in by_value if i not in taken]
    return KPartition(k, tuples, total, weight)


def _min_permutation(
    a: Sequence[Sequence[float]],
    b: Sequence[Sequence[float]] | None = None,
    partial: float = 0,
    bound: float | None = None,
    finish: Callable | None = None,
) -> tuple[float | None, object]:
    """Lexicographically first cheapest permutation of range(n), n = len(a)
    >= 1, as (cost, perm); (bound, None) if none is below `bound`.

    Row i taking column j adds a[i][j] to the partial cost, then b[i][j]
    when `b` is given.  The free columns are one ordered list, and a child
    whose partial cost reaches the incumbent is cut before it is entered:
    weights are nonnegative, so it could at best tie, and only a strictly
    cheaper leaf replaces the incumbent.  A branch costs two list lookups
    and no call of its own.  With `finish`, a full permutation is passed on
    as finish(partial, perm, incumbent), which returns (cost, result) for a
    cheaper completion or (incumbent, None).
    """
    n = len(a)
    best_cost, best = bound, None
    free = list(range(n))
    perm: list[int] = []

    def rec(i: int, partial: float):
        nonlocal best_cost, best
        row = a[i]
        extra = None if b is None else b[i]
        leaf = i + 1 == n
        for pos in range(n - i):
            j = free.pop(pos)
            cost = partial + row[j]
            if extra is not None:
                cost = cost + extra[j]
            if best_cost is None or cost < best_cost:
                perm.append(j)
                if not leaf:
                    rec(i + 1, cost)
                elif finish is not None:
                    cost, result = finish(cost, tuple(perm), best_cost)
                    if result is not None:
                        best_cost, best = cost, result
                else:
                    best_cost, best = cost, tuple(perm)
                perm.pop()
            free.insert(pos, j)

    rec(0, partial)
    return best_cost, best


def _edge_rows(weight: WeightKind, xs: Sequence[float],
               ys: Sequence[float]) -> list[list[float]]:
    """The edge weight from each of `xs` (a row) to each of `ys`: one k=2
    `within_columns` call on the lower and upper end of every pair.  On a
    tie, min keeps x and max keeps y, so both scores reach the kernel."""
    xcol = [x for x in xs for _ in ys]
    ycol = list(ys) * len(xs)
    flat = within_columns([list(map(min, xcol, ycol)), list(map(max, ycol, xcol))],
                          weight)
    n = len(ys)
    return [flat[i:i + n] for i in range(0, len(flat), n)]


def brute_force_assignment(instance: MultipartiteInstance) -> Matching:
    """Exact minimal perfect matching by permutation enumeration.

    Bipartite instances up to n=8, tripartite up to n=6; ties broken by the
    lexicographically smallest permutation (pair of permutations for three
    parts).  Matched tuples are listed against part 0 in input order.
    """
    n = instance.n
    w = instance.weight
    parts = instance.parts
    if len(parts) == 2:
        if n > BIPARTITE_ORACLE_MAX_N:
            raise EnumerationBudgetError(
                f"bipartite oracle limited to n<={BIPARTITE_ORACLE_MAX_N}, got {n}"
            )
        cost = _edge_rows(w, instance.scores(0), instance.scores(1))
        total, perm = _min_permutation(cost)
        return Matching(tuple((i, perm[i]) for i in range(n)), total)

    if n > TRIPARTITE_ORACLE_MAX_N:
        raise EnumerationBudgetError(
            f"tripartite oracle limited to n<={TRIPARTITE_ORACLE_MAX_N}, got {n}"
        )
    xs = instance.scores(0)
    ys = instance.scores(1)
    zs = instance.scores(2)
    ab = _edge_rows(w, xs, ys)
    bc = _edge_rows(w, ys, zs)
    # by row of part 0: ca[i][j] weighs the edge from z_j back to x_i, so
    # row i of the inner search adds bc[sigma[i]][j], then ca[i][j]
    ca = _edge_rows(w, xs, zs)

    def best_tau(partial, sigma, incumbent):
        cost, tau = _min_permutation([bc[s] for s in sigma], ca,
                                     partial, incumbent)
        return cost, None if tau is None else (sigma, tau)

    total, (sigma, tau) = _min_permutation(ab, finish=best_tau)
    return Matching(tuple((i, sigma[i], tau[i]) for i in range(n)), total)


__all__ = [
    "BIPARTITE_ORACLE_MAX_N",
    "DEFAULT_BUDGET",
    "TRIPARTITE_ORACLE_MAX_N",
    "brute_force_assignment",
    "brute_force_partition",
    "greedy_match",
    "iter_tuple_partitions",
    "min_partition",
    "partition_count",
]
