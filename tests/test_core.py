import math
import pickle
import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linematch.core import (
    Cohort,
    KPartition,
    KTuple,
    ScoredItem,
    ValidationError,
    WeightKind,
    check_certified_k,
    items_from_pairs,
    sort_items,
    variance_identity_check,
    within_columns,
    within_distance,
)
from linematch.matching import match_line

from reference_forms import abs_error_bound, pairwise_exact, within_scores


def tuple_of(*scores):
    return KTuple.of(ScoredItem(f"i{n}", s, n) for n, s in enumerate(scores))


def pairwise_abs(scores):
    # independent O(k^2) oracle straight from the pair definition
    return sum(abs(b - a) for a, b in combinations(scores, 2))


def pairwise_sq(scores):
    return sum((b - a) ** 2 for a, b in combinations(scores, 2))


class TestWithinAbs:
    def test_example_345(self):
        assert within_distance(tuple_of(3, 4, 5), WeightKind.ABS) == 4

    def test_example_189(self):
        assert within_distance(tuple_of(1, 8, 9), WeightKind.ABS) == 16

    def test_all_equal(self):
        assert within_distance(tuple_of(7, 7, 7, 7), WeightKind.ABS) == 0

    def test_triple_is_twice_the_range(self):
        rng = random.Random(1)
        for _ in range(50):
            a, b, c = sorted(rng.randint(-50, 50) for _ in range(3))
            assert within_distance(tuple_of(a, b, c), WeightKind.ABS) == 2 * (c - a)

    @given(st.lists(st.integers(-1000, 1000), min_size=2, max_size=16))
    def test_matches_pairwise_definition(self, scores):
        scores = sorted(scores)
        assert within_distance(tuple_of(*scores), WeightKind.ABS) == pairwise_abs(scores)


class TestWithinSq:
    def test_example_123(self):
        assert within_distance(tuple_of(1, 2, 3), WeightKind.SQ) == 6

    def test_equal_pair(self):
        assert within_distance(tuple_of(5, 5), WeightKind.SQ) == 0

    def test_unit_pair(self):
        assert within_distance(tuple_of(0, 1), WeightKind.SQ) == 1

    @given(st.lists(st.integers(-1000, 1000), min_size=2, max_size=12))
    def test_matches_pairwise_definition(self, scores):
        assert within_distance(tuple_of(*scores), WeightKind.SQ) == pairwise_sq(sorted(scores))


# Score families for the batched kernel: ints, U(0,1) floats, one-decimal
# ties, signed zeros, tenths on mixed offsets, U(0,1) on one offset of up to
# 1e12, and +-1e308, where abs groups can overflow to inf.
OFFSETS = (1e3, 1e6, 1e9, 1e12)
KERNEL_SCORES = st.sampled_from([
    st.integers(-50, 50),
    st.floats(0, 1, exclude_max=True),
    st.integers(0, 30).map(lambda t: t / 10),
    st.sampled_from([0.0, -0.0, 0, 1.5]),
    st.tuples(st.sampled_from(OFFSETS), st.integers(0, 30)).map(
        lambda p: p[0] + p[1] / 10),
    *(st.floats(0, 1).map(lambda x, offset=offset: offset + x)
      for offset in OFFSETS),
    st.sampled_from([1e308, -1e308, 0.0, 1.0]),
])

# Score families for the completion premise, each with +-inf mixed in.
tenths = st.integers(0, 30).map(lambda t: t / 10)
COMPLETION_SCORES = st.sampled_from([
    tenths,
    st.one_of(st.integers(0, 5), tenths),
    st.sampled_from([0.0, -0.0, 0, 0.5, -0.5]),
    st.sampled_from([1e308, -1e308, 0.0, -0.0, 1.0, 2.0]),
]).map(lambda family: st.one_of(family, st.sampled_from([math.inf, -math.inf])))


def typed_reprs(values):
    return [(type(v), repr(v)) for v in values]


class TestWithinColumns:
    # abs against the exact pairwise definition, within `abs_error_bound` at
    # offsets up to 1e12 and for k = 2..16; the linear form it replaced
    # missed it by up to 1.7e-3 relative at 1e12, k = 4
    @given(st.integers(2, 16), KERNEL_SCORES, st.integers(0, 6), st.data())
    def test_abs_is_within_the_bound_of_the_pairwise_definition(
            self, k, family, rows, data):
        table = [sorted(data.draw(st.lists(family, min_size=k, max_size=k)))
                 for _ in range(rows)]
        got = within_columns([[row[i] for row in table] for i in range(k)],
                             WeightKind.ABS)
        assert len(got) == rows
        for cost, row in zip(got, table):
            exact = pairwise_exact(row, WeightKind.ABS)
            assert cost >= 0
            if all(isinstance(x, int) for x in row):
                assert type(cost) is int and cost == exact
            elif math.isinf(cost):
                # overflow only where the exact cost reaches the float range
                assert exact * (1 + abs_error_bound(k)) > sys.float_info.max
            else:
                assert abs(Fraction(cost) - exact) <= abs_error_bound(k) * exact

    @pytest.mark.parametrize("k", range(2, 17))
    def test_abs_is_within_the_bound_at_an_offset_of_1e12(self, k):
        rng = random.Random(k)
        table = [sorted(1e12 + rng.random() for _ in range(k)) for _ in range(200)]
        got = within_columns([[row[i] for row in table] for i in range(k)],
                             WeightKind.ABS)
        for cost, row in zip(got, table):
            exact = pairwise_exact(row, WeightKind.ABS)
            assert abs(Fraction(cost) - exact) <= abs_error_bound(k) * exact

    @given(st.integers(2, 8), KERNEL_SCORES, st.integers(0, 6), st.data())
    def test_sq_equals_within_scores_row_by_row(self, k, family, rows, data):
        table = [sorted(data.draw(st.lists(family, min_size=k, max_size=k)))
                 for _ in range(rows)]
        columns = [[row[i] for row in table] for i in range(k)]
        got = within_columns(columns, WeightKind.SQ)
        assert typed_reprs(got) == typed_reprs(
            within_scores(row, WeightKind.SQ) for row in table)

    def test_abs_ties_and_equal_huge_scores_cost_zero(self):
        # the linear form gave -5.55e-17 and NaN here
        assert typed_reprs(within_columns([[0.1]] * 5, WeightKind.ABS)) == [
            (float, "0.0")]
        part = match_line(items_from_pairs((f"h{i}", 1e308) for i in range(3)),
                          3, WeightKind.ABS)
        assert part.group_within == (0.0,) and part.total_within == 0.0
        part.check()

    # a fixed sorted prefix costs no less with a later completion: the
    # one-member case of the window lemma in the README's cost model, which
    # holds in floats for finite scores; with +-inf only NaN runs at the
    # start or the end break it
    @given(st.integers(2, 6), st.sampled_from(list(WeightKind)), COMPLETION_SCORES,
           st.integers(1, 8), st.data())
    def test_completions_of_a_prefix_cost_in_order(self, k, weight, family, m, data):
        scores = sorted(data.draw(st.lists(family, min_size=k - 1 + m,
                                           max_size=k - 1 + m)))
        head, tail = scores[:k - 1], scores[k - 1:]
        costs = within_columns([[x] * m for x in head] + [tail], weight)
        kept = [i for i, cost in enumerate(costs) if cost == cost]
        # NaN costs form a leading or a trailing run, or both
        assert kept == list(range(kept[0], kept[-1] + 1) if kept else [])
        values = [costs[i] for i in kept]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_overflow_and_integers(self):
        cols = [(1e308, 0, 2), (1e308, 1, 2), (1e308, 5, 2)]
        assert typed_reprs(within_columns(cols, WeightKind.ABS)) == [
            (float, "0.0"), (int, "10"), (int, "0")]
        assert typed_reprs(within_columns([(-1e308,), (1e308,), (1e308,)],
                                          WeightKind.ABS)) == [(float, "inf")]
        assert typed_reprs(within_columns(cols, WeightKind.SQ)) == [
            (float, "0.0"), (int, "42"), (int, "0")]

    def test_deep_groups_fold_in_stages(self):
        # an iterator nested once per column would overflow the C stack
        k = 100_000
        assert within_columns([[i] for i in range(k)], WeightKind.ABS) == [
            (k - 1) * k * (k + 1) // 6]


class TestInvariances:
    @given(
        st.lists(st.integers(-500, 500), min_size=2, max_size=10),
        st.integers(-100, 100),
    )
    def test_translation(self, scores, c):
        base = sorted(scores)
        shifted = [x + c for x in base]
        assert within_distance(tuple_of(*base), WeightKind.ABS) == within_distance(
            tuple_of(*shifted), WeightKind.ABS
        )
        assert within_distance(tuple_of(*base), WeightKind.SQ) == within_distance(
            tuple_of(*shifted), WeightKind.SQ
        )

    @given(
        st.lists(st.integers(-500, 500), min_size=2, max_size=10),
        st.integers(-20, 20),
    )
    def test_scaling(self, scores, b):
        base = sorted(scores)
        scaled = [b * x for x in base]
        assert within_distance(tuple_of(*scaled), WeightKind.ABS) == abs(b) * within_distance(
            tuple_of(*base), WeightKind.ABS
        )
        assert within_distance(tuple_of(*scaled), WeightKind.SQ) == b * b * within_distance(
            tuple_of(*base), WeightKind.SQ
        )

    @given(st.lists(st.integers(-100, 100), min_size=2, max_size=8), st.randoms())
    def test_permutation_invariance(self, scores, rnd):
        shuffled = scores[:]
        rnd.shuffle(shuffled)
        assert within_distance(tuple_of(*scores), WeightKind.ABS) == within_distance(
            tuple_of(*shuffled), WeightKind.ABS
        )
        assert within_distance(tuple_of(*scores), WeightKind.SQ) == within_distance(
            tuple_of(*shuffled), WeightKind.SQ
        )


class TestSortItems:
    def test_sorts_by_score(self):
        items = items_from_pairs([("a", 3), ("b", 1), ("c", 2)])
        assert [it.id for it in sort_items(items)] == ["b", "c", "a"]

    def test_tie_keeps_input_order(self):
        items = items_from_pairs([("a", 1), ("b", 1)])
        assert [it.id for it in sort_items(items)] == ["a", "b"]

    def test_empty(self):
        assert sort_items([]) == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError):
            sort_items([ScoredItem("a", bad, 0)])

    def test_items_from_pairs_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            items_from_pairs([("a", 1), ("a", 2)])

    def test_items_from_pairs_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="non-finite score inf for id 'b'"):
            items_from_pairs([("a", 1), ("b", math.inf)])


class TestVarianceIdentity:
    def test_example(self):
        assert variance_identity_check([1, 2, 3]) == (12, 12)

    def test_constant_vector(self):
        assert variance_identity_check([4, 4, 4, 4]) == (0, 0)

    def test_rejects_short_input(self):
        with pytest.raises(ValidationError):
            variance_identity_check([1])

    @given(st.lists(st.integers(-10_000, 10_000), min_size=2, max_size=50))
    def test_exact_on_integers(self, values):
        lhs, rhs = variance_identity_check(values)
        assert lhs == rhs

    @given(
        st.lists(st.integers(-50, 50), min_size=2, max_size=12),
        st.integers(-9, 9),
        st.integers(-9, 9),
    )
    def test_affine_map_scales_both_sides_by_b_squared(self, values, a, b):
        lhs0, _ = variance_identity_check(values)
        lhs1, rhs1 = variance_identity_check([a + b * x for x in values])
        assert lhs1 == b * b * lhs0
        assert rhs1 == lhs1

    def test_float_relative_error(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(2, 50)
            values = [rng.uniform(-100, 100) for _ in range(n)]
            lhs, rhs = variance_identity_check(values)
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) / scale < 1e-9

    def test_integer_rhs_goes_through_rationals(self):
        lhs, rhs = variance_identity_check([0, 1])
        assert isinstance(rhs, (int, Fraction))
        assert lhs == rhs == 2


class TestTypes:
    def test_ktuple_of_sorts_and_validates(self):
        t = tuple_of(3, 1, 2)
        assert t.scores() == (1, 2, 3)
        with pytest.raises(ValidationError):
            KTuple.of([ScoredItem("a", 1, 0)])

    def test_check_sorted_catches_disorder(self):
        bad = KTuple((ScoredItem("a", 2, 0), ScoredItem("b", 1, 1)))
        with pytest.raises(ValidationError):
            bad.check_sorted()

    def test_check_sorted_needs_two_members(self):
        with pytest.raises(ValidationError, match="needs at least 2 members"):
            KTuple((ScoredItem("a", 1, 0),)).check_sorted()

    def test_partition_check(self):
        t1 = tuple_of(1, 2)
        t2 = KTuple.of(
            [ScoredItem("x", 3, 2), ScoredItem("y", 4, 3)]
        )
        part = KPartition(2, [t1, t2], 2, WeightKind.ABS)
        part.check()
        bad = KPartition(2, [t1, t2], 99, WeightKind.ABS)
        with pytest.raises(ValidationError):
            bad.check()

    def test_partition_rejects_wrong_group_size_at_construction(self):
        with pytest.raises(ValidationError, match="group of size 3 in a 2-partition"):
            KPartition(2, [tuple_of(1, 2), tuple_of(3, 4, 5)], 0, WeightKind.ABS)

    def test_partition_check_rejects_unsorted_group(self):
        group = KTuple((ScoredItem("a", 2, 0), ScoredItem("b", 1, 1)))
        part = KPartition(2, [group], 1, WeightKind.ABS)
        with pytest.raises(ValidationError, match="not in sorted order"):
            part.check()

    def test_partition_check_rejects_duplicated_member(self):
        a, b, c = ScoredItem("a", 1, 0), ScoredItem("b", 2, 1), ScoredItem("c", 3, 2)
        part = KPartition(2, [KTuple((a, b)), KTuple((a, c))], 2, WeightKind.ABS)
        with pytest.raises(ValidationError, match="more than one group"):
            part.check()

    def test_partition_check_rejects_inexact_cover(self):
        items = [ScoredItem(f"i{n}", n, n) for n in range(4)]
        part = KPartition(2, [KTuple(tuple(items[:2]))], 1, WeightKind.ABS)
        part.check()
        with pytest.raises(ValidationError, match="does not cover the input exactly"):
            part.check(items)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("weight", list(WeightKind))
    def test_group_within_equals_within_distance_bitwise(self, k, weight):
        rng = random.Random(k)
        specials = [0.0, -0.0, 0, 1e308, -1e308, 1e-300, 2.5]
        for _ in range(50):
            scores = [rng.choice([rng.choice(specials), rng.uniform(-9, 9),
                                  rng.randint(-5, 5)]) for _ in range(3 * k)]
            flat = sort_items(
                [ScoredItem(f"i{n}", s, n) for n, s in enumerate(scores)]
            )
            lazy = KPartition.from_sorted_items(k, flat, 0, weight)
            built = KPartition(k, KPartition.from_sorted_items(
                k, flat, 0, weight).tuples, 0, weight)
            want = [repr(within_scores(t.scores(), weight)) for t in built.tuples]
            for part in (lazy, built):
                assert list(map(repr, part.group_within)) == want
                assert part.group_within is part.group_within

    def test_group_within_k2_abs_never_negative_zero(self):
        # +0.0 sorts before -0.0 by input rank; x1 - x0 alone would be -0.0
        flat = sort_items([ScoredItem("a", 0.0, 0), ScoredItem("b", -0.0, 1)])
        part = KPartition.from_sorted_items(2, flat, 0, WeightKind.ABS)
        assert repr(part.group_within[0]) == "0.0"

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_partition_pickles_at_every_protocol(self, protocol):
        pairs = [("a", 1), ("b", 2.5), ("c", -0.0), ("d", 2.5), ("e", 7), ("f", 0.0)]
        for part in (match_line(items_from_pairs(pairs), 3, WeightKind.SQ),
                     match_line(Cohort(*map(list, zip(*pairs))), 2, WeightKind.ABS)):
            back = pickle.loads(pickle.dumps(part, protocol))
            assert type(back) is KPartition and back == part
            assert back.items() == part.items() and repr(back) == repr(part)
            assert list(map(repr, back.group_within)) == list(map(repr, part.group_within))

    def test_certified_gate(self):
        # every k >= 2 is proven (certify.certify_general); only k < 2 fails
        for k in (2, 9, 17, 10**6):
            check_certified_k(k)
        for k in (1, 0, -3):
            with pytest.raises(ValidationError):
                check_certified_k(k)
