"""The shared exact searches and the one-pass greedy baseline against the
hand-written copies they replaced.

`min_partition` must return what exhaustive enumeration in the order of
`iter_tuple_partitions` returns, and every caller must return the same
groups with bit-equal costs as its old copy in `reference_forms`.  Scores
are tenths drawn from a small range, so ties are frequent.
"""

import functools
import gc
import math
import random
import time
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linematch import heuristics, oracle
from linematch.core import (
    KPartition,
    KTuple,
    ScoredItem,
    SizeError,
    ValidationError,
    WeightKind,
    items_from_pairs,
    within_columns,
)
from linematch.heuristics import (
    EXACT_PAIRING_MAX_POINTS,
    _best_two_triples,
    _dist_table,
    _min_cost_pairing,
    _refine_triples,
    local_search_2tuple,
    points_from_coords,
)
from linematch.matching import match_line
from linematch.multipartite import instance_from_scores
from linematch.oracle import (
    _SUBSET_CHUNK,
    brute_force_assignment,
    brute_force_partition,
    greedy_match,
    iter_tuple_partitions,
    min_partition,
)
from reference_forms import (
    best_two_triples_reference,
    brute_force_assignment_reference,
    brute_force_partition_reference,
    exact_pairing_reference,
    greedy_match_reference,
    local_search_2tuple_reference,
    pairwise_exact,
    refine_triples_reference,
    subset_costs_reference,
)

tenths = st.integers(0, 30).map(lambda t: t / 10)
weights = st.sampled_from(list(WeightKind))


def _each(scores):
    return lambda size: st.lists(scores, min_size=size, max_size=size)


# Score families, each a function of the list size: tied tenths, mixed ints
# and floats, signed zeros, +-1e308 (where abs groups overflow to inf),
# tied integers, one repeated score (every candidate costs 0, the least the
# one-gap bound can rule out), and evenly spaced scores (every window
# costs the same, so the bound rules out fewest candidates).
SCORE_FAMILIES = st.sampled_from([
    _each(tenths),
    _each(st.one_of(st.integers(0, 5), tenths)),
    _each(st.sampled_from([0.0, -0.0, 0, 0.5, -0.5])),
    _each(st.sampled_from([1e308, -1e308, 0.0, -0.0, 1.0, 2.0])),
    _each(st.integers(0, 3)),
    lambda size: tenths.map(lambda x: [x] * size),
    lambda size: st.sampled_from([0.25, 0.1, 3]).map(
        lambda step: [i * step for i in range(size)]),
])


def same_bits(a, b):
    return type(a) is type(b) and repr(a) == repr(b)


def running_cost(partition, group_cost):
    total = 0
    for group in partition:
        total = total + group_cost(group)
    return total


class TestMinPartition:
    @given(st.sampled_from([(1, 1), (2, 1), (3, 1), (2, 2), (4, 2), (6, 2),
                            (8, 2), (3, 3), (6, 3), (9, 3), (4, 4), (8, 4)]),
           st.booleans(), st.data())
    def test_equals_first_minimum_of_the_enumeration(self, size, real, data):
        n_items, k = size
        groups = list(combinations(range(n_items), k))
        values = st.integers(0, 3).map(lambda v: v / 10 if real else v)
        table = dict(zip(groups, data.draw(
            st.lists(values, min_size=len(groups), max_size=len(groups)))))
        cost = table.__getitem__
        first = min(iter_tuple_partitions(n_items, k),
                    key=lambda part: running_cost(part, cost))
        want = running_cost(first, cost)
        got = min_partition(n_items, k, cost)
        assert got[0] == first and same_bits(got[1], want)

    @pytest.mark.parametrize("n_items,k", [(2, 1), (8, 2), (9, 3), (8, 4)])
    def test_streamed_levels_equal_tabled_levels(self, monkeypatch, n_items, k):
        # levels above _SPLIT_CACHE_MAX splits are streamed, not tabled;
        # the same search must come out of either
        rng = random.Random(n_items * k)
        table = {g: rng.randint(0, 3) for g in combinations(range(n_items), k)}
        cost = table.__getitem__
        tabled = (list(iter_tuple_partitions(n_items, k)),
                  min_partition(n_items, k, cost))
        monkeypatch.setattr(oracle, "_SPLIT_CACHE_MAX", 0)
        assert (list(iter_tuple_partitions(n_items, k)),
                min_partition(n_items, k, cost)) == tabled

    def test_empty_and_indivisible(self):
        assert min_partition(0, 3, len) == ((), 0)
        with pytest.raises(SizeError, match="groups of 2"):
            min_partition(5, 2, len)

    def test_first_partition_wins_when_every_group_costs_inf(self):
        # no branch is cut before the first leaf, and no inf cost replaces
        # an inf incumbent
        assert min_partition(6, 2, lambda g: math.inf) == (
            ((0, 1), (2, 3), (4, 5)), math.inf)


@settings(deadline=None)
@given(st.sampled_from([(2, 5), (3, 3), (4, 2), (5, 2)]), weights, st.data())
def test_brute_force_partition_equals_reference(size, weight, data):
    k, n = size
    scores = data.draw(st.lists(tenths, min_size=k * n, max_size=k * n))
    items = items_from_pairs((f"i{i}", s) for i, s in enumerate(scores))
    got = brute_force_partition(items, k, weight)
    want = brute_force_partition_reference(items, k, weight)
    assert got.tuples == want.tuples
    assert same_bits(got.total_within, want.total_within)


# k=8, n=2: C(16, 8) = 12,870 subsets, more than one cost chunk, and not a
# whole number of them
@settings(deadline=None, max_examples=10)
@given(weights, st.data())
def test_brute_force_partition_equals_reference_across_chunks(weight, data):
    count = math.comb(16, 8)
    assert count > _SUBSET_CHUNK and count % _SUBSET_CHUNK
    scores = data.draw(st.lists(tenths, min_size=16, max_size=16))
    items = items_from_pairs((f"i{i}", s) for i, s in enumerate(scores))
    got = brute_force_partition(items, 8, weight)
    want = brute_force_partition_reference(items, 8, weight)
    assert got.tuples == want.tuples
    assert same_bits(got.total_within, want.total_within)


@settings(deadline=None)
@given(st.integers(1, 5), st.integers(1, 2), st.data())
def test_exact_pairing_equals_reference(pairs, dims, data):
    coords = data.draw(st.lists(st.lists(tenths, min_size=dims, max_size=dims),
                                min_size=2 * pairs, max_size=2 * pairs))
    points = points_from_coords(coords)
    assert len(points) <= EXACT_PAIRING_MAX_POINTS
    assert _min_cost_pairing(_dist_table(points)) == (
        exact_pairing_reference(points), True)


@given(st.integers(1, 2), st.data())
def test_best_two_triples_equals_reference(dims, data):
    coords = data.draw(st.lists(st.lists(tenths, min_size=dims, max_size=dims),
                                min_size=6, max_size=9))
    points = points_from_coords(coords)
    members = data.draw(st.permutations(range(len(points))))[:6]
    got = _best_two_triples(_dist_table(points), members)
    want = best_two_triples_reference(points, members)
    assert got[:2] == want[:2] and same_bits(got[2], want[2])


# Triples as drawn, each sorted (as the hierarchy holds them), or sorted and
# taken from the points in coordinate order, which the nearest cross distance
# tells apart without a search
@settings(deadline=None)
@given(st.integers(2, 6), st.integers(1, 2), SCORE_FAMILIES,
       st.sampled_from(["drawn", "sorted", "clustered"]), st.data())
def test_refine_triples_equals_reference(count, dims, family, layout, data):
    flat = data.draw(family(3 * count * dims))
    coords = [flat[i : i + dims] for i in range(0, len(flat), dims)]
    dist = _dist_table(points_from_coords(coords))
    order = data.draw(st.permutations(range(3 * count)))
    if layout == "clustered":
        order.sort(key=coords.__getitem__)
    triples = [tuple(order[i : i + 3]) for i in range(0, 3 * count, 3)]
    if layout != "drawn":
        triples = [tuple(sorted(t)) for t in triples]
    assert _refine_triples(dist, list(triples)) == refine_triples_reference(
        dist, list(triples))


LOCAL_SEARCH_CASES = [(k, w) for k in (2, 3, 4, 5) for w in WeightKind]


def _chunked(items, k, weight):
    return KPartition(
        k, [KTuple.of(items[i : i + k]) for i in range(0, len(items), k)], 0, weight)


@st.composite
def local_search_starts(draw, families=SCORE_FAMILIES, cases=LOCAL_SEARCH_CASES):
    """A start partition and a weight: groups drawn from shuffled items, or
    sorted chunks in a shuffled order with up to two members swapped, so
    groups that do not interleave, or touch on a tied score, which local
    search keeps without a kernel call."""
    k, weight = draw(st.sampled_from(cases))
    n = draw(st.integers(2, 4))
    scores = draw(draw(families)(k * n))
    items = draw(st.permutations(
        items_from_pairs((f"i{i}", s) for i, s in enumerate(scores))))
    if draw(st.booleans()):
        items.sort(key=lambda it: (it.score, it.input_rank))
        for a, b in draw(st.lists(st.tuples(*[st.integers(0, k * n - 1)] * 2),
                                  max_size=2)):
            items[a], items[b] = items[b], items[a]
        chunks = draw(st.permutations(range(0, k * n, k)))
        items = [items[c + i] for c in chunks for i in range(k)]
    return _chunked(items, k, weight), weight


# `match_line`'s groups, which touch at 0.5: float rounding prices
# (0.2, 0.3, 0.8), (0.5, 0.5, 0.5) below them at an equal exact cost, but
# they are their own sorted split, the proven cheapest, so local search
# keeps them
TOUCHING_ON_A_FLOAT_TIE = (
    match_line(items_from_pairs((f"i{i}", s) for i, s in enumerate(
        [0.2, 0.3, 0.5, 0.5, 0.5, 0.8])), 3, WeightKind.ABS),
    WeightKind.ABS)


@settings(deadline=None)
@given(local_search_starts())
@example(TOUCHING_ON_A_FLOAT_TIE)
def test_local_search_equals_reference(case):
    start, weight = case
    got = local_search_2tuple(start, weight)
    want = local_search_2tuple_reference(start, weight)
    assert got.tuples == want.tuples
    assert same_bits(got.total_within, want.total_within)


@st.composite
def match_line_outputs(draw):
    """`match_line`'s partition of tenths, tied integers or U(0, 1) scores,
    and its weight."""
    k, weight, n = draw(st.integers(2, 4)), draw(weights), draw(st.integers(2, 4))
    family = draw(st.sampled_from([
        _each(tenths), _each(st.integers(0, 3)), _each(st.floats(0, 1))]))
    scores = draw(family(k * n))
    items = items_from_pairs((f"i{i}", s) for i, s in enumerate(scores))
    return match_line(items, k, weight), weight


@settings(deadline=None)
@given(match_line_outputs())
@example(TOUCHING_ON_A_FLOAT_TIE)
def test_local_search_keeps_match_line_output(case):
    start, weight = case
    got = local_search_2tuple(start, weight)
    assert got.tuples == start.tuples
    assert same_bits(got.total_within, start.total_within)


def _exact_cost(members, weight):
    return pairwise_exact([m.score for m in members], weight)


# The sorted split is the cheapest in exact arithmetic, and on integer and
# tenths scores float rounding is far below any nonzero exact difference,
# so no pair of groups local search returns has a cheaper split of any
# kind: each of its C(2k, k) splits is costed in `Fraction` arithmetic.
@settings(deadline=None)
@given(local_search_starts(
    st.sampled_from([_each(tenths), _each(st.integers(0, 3)),
                     _each(st.one_of(st.integers(0, 5), tenths))]),
    [(k, w) for k in (2, 3, 4) for w in WeightKind]))
def test_local_search_fixpoint_is_pairwise_optimal_in_exact_arithmetic(case):
    start, weight = case
    got = local_search_2tuple(start, weight)
    for first, second in combinations([t.members for t in got.tuples], 2):
        members = first + second
        current = _exact_cost(first, weight) + _exact_cost(second, weight)
        for chosen in combinations(members, len(first)):
            rest = [m for m in members if m not in chosen]
            assert _exact_cost(chosen, weight) + _exact_cost(rest, weight) >= current


# A partition is pairwise optimal when no two of its groups have a strictly
# cheaper sorted split (the lower k and the upper k of their members).
# Every partition of small tied integer instances is enumerated: each
# pairwise-optimal one costs the minimum, and an abs cost is the gap form
# sum_j g_j * sum_G a_G(j)(k - a_G(j)) of the README's cost model, where
# g_j is the j-th sorted gap and a_G(j) counts G's members at sorted
# positions <= j.  k = 4 with 4 groups (2,627,625 partitions) is left out.
@pytest.mark.parametrize("k,n,instances", [
    (2, 2, 40), (2, 3, 40), (2, 4, 20), (3, 2, 40), (3, 3, 10), (3, 4, 3),
    (4, 2, 40), (4, 3, 3)])
@pytest.mark.parametrize("weight", list(WeightKind))
def test_pairwise_optimal_partitions_are_optimal(k, n, instances, weight):
    rng = random.Random(10 * k + n)
    partitions = list(iter_tuple_partitions(k * n, k))
    for _ in range(instances):
        scores = sorted(rng.randrange(5) for _ in range(k * n))
        gaps = [b - a for a, b in zip(scores, scores[1:])]

        @functools.cache
        def cost(group):
            diffs = [scores[q] - scores[p] for p, q in combinations(group, 2)]
            return sum(d if weight is WeightKind.ABS else d * d for d in diffs)

        @functools.cache
        def gap_form(group):
            below = [sum(p <= j for p in group) for j in range(len(gaps))]
            return sum(g * a * (k - a) for g, a in zip(gaps, below))

        @functools.cache
        def split_no_cheaper(first, second):
            merged = sorted(first + second)
            low, high = tuple(merged[:k]), tuple(merged[k:])
            return cost(first) + cost(second) <= cost(low) + cost(high)

        totals = [sum(map(cost, part)) for part in partitions]
        least = min(totals)
        for i, (part, total) in enumerate(zip(partitions, totals)):
            if weight is WeightKind.ABS:
                assert total == sum(map(gap_form, part))
            if all(split_no_cheaper(*pair) for pair in combinations(part, 2)):
                assert total == least
            else:
                assert i > 0  # the sorted chunks, listed first, are pairwise optimal


@pytest.mark.parametrize("presorted", [False, True])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("weight", list(WeightKind))
def test_local_search_costs_in_its_own_weight(k, weight, presorted):
    # the start partition carries the other weight; the search must not use
    # it, also where no group is re-split (sorted chunks are already optimal)
    other = WeightKind.SQ if weight is WeightKind.ABS else WeightKind.ABS
    scores = [0.0, 2.9, 0.1, 3.0, 1.4, 1.6, 0.2, 2.5, 0.7, 2.2, 1.1, 1.9][:4 * k]
    if presorted:
        scores.sort()
    items = items_from_pairs((f"i{i}", s) for i, s in enumerate(scores))
    start = KPartition(
        k, [KTuple.of(items[i : i + k]) for i in range(0, 4 * k, k)], 0, other)
    got = local_search_2tuple(start, weight)
    want = local_search_2tuple_reference(start, weight)
    assert got.tuples == want.tuples
    assert same_bits(got.total_within, want.total_within)


def _count_verdicts(monkeypatch):
    """Record each pair verdict of local search, as the two groups and the
    bound it is asked about; and the row count of each `within_columns`
    call local search makes."""
    verdicts, kernel_calls = [], []
    cheaper_split = heuristics._cheaper_split

    def verdict(first, second, bound, weight):
        verdicts.append((tuple(first), tuple(second), bound))
        return cheaper_split(first, second, bound, weight)

    def kernel(cols, weight):
        kernel_calls.append(len(cols[0]))
        return within_columns(cols, weight)

    monkeypatch.setattr(heuristics, "_cheaper_split", verdict)
    monkeypatch.setattr(heuristics, "within_columns", kernel)
    return verdicts, kernel_calls


@pytest.mark.parametrize("weight", list(WeightKind))
@pytest.mark.parametrize("k", [2, 3])
def test_local_search_improves_over_more_than_one_sweep(monkeypatch, k, weight):
    # full-precision floats: two different merged groups never cost the same
    rng = random.Random(k)
    items = items_from_pairs((f"i{i}", rng.random()) for i in range(8 * k))
    start = greedy_match(items, k, weight)
    verdicts, _ = _count_verdicts(monkeypatch)
    got = local_search_2tuple(start, weight)
    assert got.total_within < start.total_within
    assert len(verdicts) > math.comb(8, 2)
    want = local_search_2tuple_reference(start, weight)
    assert got.tuples == want.tuples
    assert same_bits(got.total_within, want.total_within)


@pytest.mark.parametrize("weight", list(WeightKind))
def test_local_search_on_a_pairwise_optimal_start_evaluates_each_pair_once(
        monkeypatch, weight):
    rng = random.Random(7)
    items = items_from_pairs((f"i{i}", rng.random()) for i in range(24))
    start = match_line(items, 3, weight)
    verdicts, kernel_calls = _count_verdicts(monkeypatch)
    got = local_search_2tuple(start, weight)
    assert got.tuples == start.tuples
    assert len(verdicts) == math.comb(8, 2)
    # sorted groups do not interleave, so no verdict calls the kernel: its
    # one call costs the eight start groups
    assert kernel_calls == [8]


# A pair of groups is re-split by its sorted split alone, so two
# interleaved groups at k = 1000, whose C(2000, 1000) candidate groups no
# search could cost, take O(k) time and memory.
def test_local_search_memory_is_linear_in_k():
    rng = random.Random(0)
    items = sorted(items_from_pairs((f"i{i}", rng.random()) for i in range(2000)),
                   key=lambda it: it.score)
    start = KPartition(1000, [KTuple.of(items[0::2]), KTuple.of(items[1::2])], 0,
                       WeightKind.ABS)
    gc.collect()
    tracemalloc.start()
    try:
        got = local_search_2tuple(start, WeightKind.ABS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.tuples == [KTuple.of(items[:1000]), KTuple.of(items[1000:])]
    assert peak / len(items) < 1024


# tied tenths, and +-1e308, whose edges weigh inf: an inf partial cost
# reaches an inf incumbent, so it is cut, and never replaces it
ASSIGNMENT_SCORES = st.sampled_from([
    tenths,
    st.sampled_from([1e308, -1e308, 0.0, 1.0]),
])


# tripartite n = 5 is the shape `bench` runs
@settings(deadline=None)
@given(st.sampled_from([(2, 5), (2, 6), (3, 4), (3, 5)]), weights,
       ASSIGNMENT_SCORES, st.data())
def test_brute_force_assignment_equals_reference(shape, weight, family, data):
    parts, n = shape
    scores = data.draw(st.lists(st.lists(family, min_size=n, max_size=n),
                                min_size=parts, max_size=parts))
    instance = instance_from_scores(scores, weight)
    got = brute_force_assignment(instance)
    want = brute_force_assignment_reference(instance)
    assert got.tuples == want.tuples
    assert same_bits(got.weight, want.weight)


def assert_same_greedy(items, k, weight):
    got = greedy_match(items, k, weight)
    want = greedy_match_reference(items, k, weight)
    assert got.tuples == want.tuples
    assert same_bits(got.total_within, want.total_within)


@settings(deadline=None, max_examples=300)
@given(st.integers(2, 5), weights, SCORE_FAMILIES, st.data())
def test_greedy_match_equals_reference(k, weight, family, data):
    n = data.draw(st.integers(0, 4 if k < 5 else 3))
    scores = data.draw(family(k * n))
    ranks = data.draw(st.permutations(range(k * n)))
    items = [ScoredItem(f"i{i}", s, r) for i, (s, r) in enumerate(zip(scores, ranks))]
    assert_same_greedy(items, k, weight)


# The largest shapes the reference scans: its first step costs C(N, k) =
# 4,186, 5,456 and 4,845 subsets, against N - k + 1 windows for greedy_match
# (the count is not a whole number of the oracle's cost chunks, a size the
# greedy search once chunked by)
@settings(deadline=None, max_examples=15)
@given(st.sampled_from([(2, 46), (3, 11), (4, 5)]), weights, SCORE_FAMILIES,
       st.data())
def test_greedy_match_equals_reference_across_chunks(shape, weight, family, data):
    k, n = shape
    count = math.comb(k * n, k)
    assert count > _SUBSET_CHUNK and count % _SUBSET_CHUNK
    scores = data.draw(family(k * n))
    ranks = data.draw(st.permutations(range(k * n)))
    items = [ScoredItem(f"i{i}", s, r) for i, (s, r) in enumerate(zip(scores, ranks))]
    assert_same_greedy(items, k, weight)


def test_greedy_match_equal_huge_scores_form_a_group_of_cost_zero():
    scores = [1e308, 1e308, 1e308, 0.0, 1.0, 2.0]
    items = items_from_pairs((f"i{i}", s) for i, s in enumerate(scores))
    got = greedy_match(items, 3, WeightKind.ABS)
    assert [t.scores() for t in got.tuples] == [(1e308,) * 3, (0.0, 1.0, 2.0)]
    assert got.group_within == (0.0, 4.0) and same_bits(got.total_within, 4.0)
    got.check(items)
    assert_same_greedy(items, 3, WeightKind.ABS)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_greedy_match_rejects_a_non_finite_score(bad):
    items = [ScoredItem("a", 1.0, 2), ScoredItem("b", bad, 1),
             ScoredItem("c", 0.0, 0), ScoredItem("d", -bad, 3)]
    with pytest.raises(ValidationError,
                       match=f"non-finite score {bad!r} for id 'b'"):
        greedy_match(items, 2, WeightKind.ABS)


@pytest.mark.parametrize("search", [brute_force_partition, greedy_match])
def test_searches_reject_an_indivisible_item_count(search):
    items = items_from_pairs((f"i{i}", i) for i in range(5))
    with pytest.raises(SizeError, match="5 items cannot be split into groups of 2"):
        search(items, 2, WeightKind.ABS)


@pytest.mark.parametrize("k", [1, 0, -2])
def test_greedy_match_rejects_k_below_two(k):
    items = items_from_pairs((f"i{i}", i) for i in range(4))
    with pytest.raises(ValidationError, match="at least 2"):
        greedy_match(items, k, WeightKind.ABS)


# The traced peak per subset must not grow with N (a bit mask per subset
# would), so C(400, 2) is measured beside C(60, 3).
@pytest.mark.parametrize("n_items,k", [(60, 3), (400, 2)])
def test_greedy_match_memory_per_subset(n_items, k):
    rng = random.Random(0)
    items = items_from_pairs((f"i{i}", rng.random()) for i in range(n_items))
    gc.collect()
    tracemalloc.start()
    try:
        greedy_match(items, k, WeightKind.ABS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / math.comb(n_items, k) < 120


# A step holds one cost per window, not all C(N, k) subsets: holding
# C(150, 3) = 551,300 subsets' costs, order and members peaked at 56 MB.
def test_greedy_match_memory_per_step():
    rng = random.Random(0)
    items = items_from_pairs((f"i{i}", rng.random()) for i in range(150))
    gc.collect()
    tracemalloc.start()
    try:
        greedy_match(items, 3, WeightKind.ABS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_greedy_match_total_adds_the_picked_cost():
    # the int 0 of ranks (1, 3) ties the float 0.0 of ranks (0, 2), which
    # come first, so the total is the float their own cost makes it
    items = [ScoredItem(f"i{i}", s, r)
             for i, (s, r) in enumerate(zip([0, 1.0, 0, 1.0], [3, 2, 1, 0]))]
    got = greedy_match(items, 2, WeightKind.ABS)
    assert [tuple(m.input_rank for m in t.members) for t in got.tuples] == [
        (0, 2), (1, 3)]
    assert same_bits(got.total_within, 0.0)
    assert_same_greedy(items, 2, WeightKind.ABS)


# The shapes whose C(N, k) once sat at the edge of greedy's budget; a step
# now costs N - k + 1 windows and is not budgeted
@pytest.mark.parametrize("k,n", [(2, 3), (3, 3), (4, 2)])
def test_greedy_match_budget_edges(k, n):
    items = items_from_pairs((f"i{i}", i % 4 / 10) for i in range(k * n))
    assert_same_greedy(items, k, WeightKind.ABS)


# Every window on one repeated score costs 0, so every window is at the
# least cost, and a step must still take O(N·k) time
def test_greedy_match_on_one_repeated_score_picks_ranks_in_order():
    items = items_from_pairs((f"i{i}", 0.5) for i in range(150))
    start = time.perf_counter()
    got = greedy_match(items, 3, WeightKind.ABS)
    elapsed = time.perf_counter() - start
    assert [tuple(m.input_rank for m in t.members) for t in got.tuples] == [
        (i, i + 1, i + 2) for i in range(0, 150, 3)]
    assert same_bits(got.total_within, 0.0)
    assert elapsed < 1.0


# The lemma greedy_match stands on: a cheapest k-subset holds every item
# scored strictly between its lowest and highest score.  Integer costs are
# exact, so every subset at the least cost is checked, ties included.
@settings(deadline=None)
@given(st.integers(2, 5), weights, st.data())
def test_every_cheapest_subset_holds_the_scores_between_its_ends(k, weight, data):
    scores = data.draw(st.lists(st.integers(0, 6), min_size=k, max_size=10))
    costs = list(subset_costs_reference(scores, k, weight))
    least = min(cost for _, cost in costs)
    for combo, cost in costs:
        if cost == least:
            lo, hi = min(scores[i] for i in combo), max(scores[i] for i in combo)
            assert all(i in combo for i, s in enumerate(scores) if lo < s < hi)


# Where a score gap is below one unit in the last place of a group's cost,
# a group that is not a window rounds to the least cost as well: here the
# reference's first pick {0.0, 1.0, 1.0, 1.0} skips 3e-300, which lies
# between its ends, and greedy_match picks the window {3e-300, 1.0, 1.0,
# 1.0}; both cost 3.0 in floats
def test_greedy_match_picks_a_window_where_floats_tie_another_group():
    scores = [1.0, 1.0, 0.0, 1.0, 3e-300, 1e300, 0.0, 2.0]
    items = items_from_pairs((f"i{i}", s) for i, s in enumerate(scores))
    got = greedy_match(items, 4, WeightKind.ABS)
    want = greedy_match_reference(items, 4, WeightKind.ABS)
    assert same_bits(got.group_within[0], 3.0)
    assert same_bits(want.group_within[0], 3.0)
    assert got.tuples[0].scores() == (3e-300, 1.0, 1.0, 1.0)
    assert want.tuples[0].scores() == (0.0, 1.0, 1.0, 1.0)
