"""Exhaustive solvers and the greedy baseline, for desk-scale ground truth.

Every optimality claim in this package is testable against these: canonical
enumeration of k-group partitions (lowest unused item anchors each group),
permutation enumeration for bipartite/tripartite matching, and the greedy
cheapest-group-first heuristic that exists purely to be beaten.

The greedy baseline searches each step in value order: a (k - 1)-prefix
of the N remaining items with its first free completion, the one that
costs it least, is a row, and of the C(N - 1, k - 1) rows a step costs
only those that a two-member bound cannot rule out, a chunk at a time.
Ties go to the lexicographically first input ranks.  Scores must be
finite, so no cost is NaN.

The public oracles are budgeted.  Every exact partition search in the
package goes through `min_partition`, except the hierarchy's split of six
points into two triples, which prices its ten splits directly with the
same order and tie rule.  Both assignment oracles go through one
permutation search over rows of edge weights, which adds a branch's
weights inline and cuts a child before entering it.  No search cuts a
branch that could still beat the incumbent, so (for nonnegative costs)
the result is the lexicographically first minimum.
"""

from __future__ import annotations

import functools
import math
from itertools import chain, combinations, compress, islice, takewhile
from operator import eq, itemgetter
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

# small enough that a chunk's row lists die before the interpreter's
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
    bound: float | None = None,
) -> tuple[tuple[tuple[int, ...], ...], float] | None:
    """Lexicographically first cheapest partition of range(n_items) into
    k-sized index groups, as (groups, cost); None if none is below `bound`.

    Branch-and-bound in the order of `iter_tuple_partitions`; a partition
    costs the running sum of `group_cost` over its groups, first to last.
    Group costs must be nonnegative: a branch whose partial cost reaches the
    incumbent can then at best tie, so it is cut.  No budget: callers size
    their instances.  Each level walks the (group, rest) getters of
    `_split_levels` for its number of unused items, so a branch builds no
    set or tuple of its own to split the unused items.
    """
    if n_items % k != 0:
        raise SizeError(f"{n_items} items cannot be split into groups of {k}")
    if n_items == 0:
        return ((), 0) if bound is None or 0 < bound else None
    best_cost, best_groups = bound, None
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
    return None if best_groups is None else (best_groups, best_cost)


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


def _completion_costs(
    head: Sequence[float],
    tail: Sequence[float],
    start: int,
    weight: WeightKind,
) -> Iterator[float]:
    """Cost of the nondecreasing `head` completed by each of tail[start:] in
    turn, costed in chunks that double in size: a short run takes one row, a
    long one few `within_columns` calls."""
    size = 1
    while start < len(tail):
        chunk = tail[start:start + size]
        yield from within_columns([[x] * len(chunk) for x in head] + [chunk], weight)
        start += size
        size *= 2


def _chains(hi: Sequence[int], depth: int, head: tuple[int, ...] = ()) -> Iterator[tuple]:
    """Every chain of `depth` more indices after `head`, each index i
    followed only by indices below hi[i] (nondecreasing in i), in
    lexicographic order."""
    lo, stop = (head[-1] + 1, hi[head[-1]]) if head else (0, len(hi))
    # once every index left reaches the end, any combination of them chains
    if depth == 1 or stop == len(hi) and (lo == stop or hi[lo] == stop):
        return map(head.__add__, combinations(range(lo, stop), depth))
    return chain.from_iterable(_chains(hi, depth - 1, head + (i,))
                               for i in range(lo, stop))


def _cheapest_subset(
    by_value: Sequence[int],
    scores: Sequence[float],
    k: int,
    weight: WeightKind,
) -> tuple[tuple[int, ...], float]:
    """The first, in lexicographic order of input ranks, of the cheapest
    k-subsets of the ranks `by_value` (in (score, rank) order, k >= 2,
    finite scores), as (ranks in order, its cost).

    A subset is a (k - 1)-prefix in value order and a completion after it.
    For a fixed prefix the cost is nondecreasing in the completion, so a
    prefix's first completion is its cheapest and its ties follow that
    completion in one run.  A row, a prefix with its first completion,
    costs at least the two-member cost of each pair of neighbours in it
    (the bound in the README's cost model), and every window of k
    neighbouring positions is a row, so no row above the windows' least
    cost `best0` can be cheapest.  The rows costed are those whose every
    neighbour pair costs at most `best0`; as a pair's cost grows with the
    distance between its positions, each position reaches a run of the
    positions after it, found with one kernel call per distance.  They are
    costed _SUBSET_CHUNK rows per kernel call in `combinations` order, and
    each row at the least cost so far is extended by its run of ties at
    once, so that only the lexicographically first subset at that cost is
    kept.
    """
    vals = _tuple_getter(by_value)(scores)
    n = len(vals)
    if n == k:
        # the items left are the one subset
        return tuple(sorted(by_value)), within_columns([(v,) for v in vals], weight)[0]
    best0 =min(within_columns([vals[s:n - k + 1 + s] for s in range(k)], weight))
    near = within_columns([vals[:-1], vals[1:]], weight)
    # the prefix positions that can end a row: each costs at most best0
    # with its first completion
    ends = [p for p, c in enumerate(near) if c <= best0]
    heads = _tuple_getter(ends)(vals)
    tails = [vals[p + 1] for p in ends]
    # hi[i]: the ends a row can take after ends[i] are those below hi[i]
    hi = list(range(1, len(ends) + 1))
    alive = list(range(len(ends))) if k > 2 else []
    d = 0
    while alive:
        d += 1
        alive = [i for i in alive if i + d < len(ends)]
        pair = within_columns([[heads[i] for i in alive],
                               [heads[i + d] for i in alive]], weight)
        alive = [i for i, c in zip(alive, pair) if c <= best0]
        for i in alive:
            hi[i] = i + d + 1
    least = best = None
    rows = _chains(hi, k - 1)
    for chunk in iter(lambda: list(islice(rows, _SUBSET_CHUNK)), []):
        cols = list(zip(*chunk))
        costs = within_columns([_tuple_getter(col)(heads) for col in cols]
                               + [_tuple_getter(cols[-1])(tails)], weight)
        low = min(costs)
        if least is None or low < least:
            least, best = low, None
        elif low > least:
            continue
        for row in compress(chunk, map(functools.partial(eq, least), costs)):
            positions = [ends[i] for i in row]
            first = positions[-1] + 1
            ties = _completion_costs([vals[p] for p in positions], vals, first + 1,
                                     weight)
            stop = first + 1 + sum(1 for _ in takewhile(functools.partial(eq, least),
                                                        ties))
            # the lowest rank in the run gives the lexicographically first subset
            positions.append(min(range(first, stop), key=by_value.__getitem__))
            combo = tuple(sorted(by_value[p] for p in positions))
            if best is None or combo < best[0]:
                best = combo, positions
    combo, positions = best
    return combo, within_columns([(vals[p],) for p in positions], weight)[0]


def greedy_match(
    items: Sequence[ScoredItem],
    k: int,
    weight: WeightKind,
    budget: int = DEFAULT_BUDGET,
) -> KPartition:
    """Repeatedly extract the cheapest k-subset of the remaining items.

    Ties go to the lexicographically smallest member ranks.  Not optimal in
    general; kept as the falsifiable baseline.  Rejects k < 2 and, naming
    the first such item, a non-finite score.

    Each step's pick is found by `_cheapest_subset` over the remaining items
    in (score, rank) order, which costs the (k - 1)-prefixes with their
    first free completions that a two-member bound leaves in play and
    extends only those that reach the minimum.  The picked subsets' own
    costs are summed in pick order.  Time is at most C(N - 1, k - 1) rows
    per step for N remaining items (on 48 U(0, 100) scores at k = 3, a run
    costs ~600 rows of 6,136, windows included); memory is one chunk of
    rows (a traced peak of ~0.03 MB at C(150, 3) and ~0.25 MB at C(20, 10)
    on U(0, 1) scores, against 0.4 and 3 MB with one cost held per prefix).
    The budget on C(N, k) (N = len(items)) is checked once, as the first
    step is the largest.
    """
    check_certified_k(k)
    if len(items) % k != 0:
        raise SizeError(f"{len(items)} items cannot be split into groups of {k}")
    check_finite(items)
    ranked = sorted(items, key=lambda it: it.input_rank)
    n = len(ranked)
    count = math.comb(n, k)
    if n and count > budget:
        raise EnumerationBudgetError(
            f"greedy step would enumerate {count} subsets, over budget {budget}"
        )
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
    whose partial cost exceeds the incumbent is cut before it is entered,
    so a branch costs two list lookups and no call of its own.  With
    `finish`, a full permutation is passed on as finish(partial, perm,
    incumbent), which returns (cost, result) for a cheaper completion or
    (incumbent, None).
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
            if best_cost is None or cost <= best_cost:
                perm.append(j)
                if not leaf:
                    rec(i + 1, cost)
                elif finish is not None:
                    cost, result = finish(cost, tuple(perm), best_cost)
                    if result is not None:
                        best_cost, best = cost, result
                elif best_cost is None or cost < best_cost:
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
