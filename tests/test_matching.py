import math
import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference_forms import balance_columns_reference

from linematch.core import (
    Cohort,
    EnumerationBudgetError,
    KPartition,
    KTuple,
    SizeError,
    ValidationError,
    WeightKind,
    items_from_pairs,
    within_distance,
)
from linematch.matching import balance_columns, match_line, slot_sums
from linematch.oracle import brute_force_partition, greedy_match


def make_items(scores):
    return items_from_pairs([(f"i{n}", s) for n, s in enumerate(scores)])


# score strategies for the reference equality test of balance_columns
SCORE_FAMILIES = {
    "tenths": st.integers(0, 30).map(lambda t: t / 10),
    "uniform": st.floats(0, 1),
    "offset": st.integers(0, 30).map(lambda t: 1e12 + t / 10),
    "overflow": st.sampled_from([1.7e308, -1.7e308, 1e308, -1e308, 5e307, 1.0]),
    "signed_zeros": st.sampled_from([0.0, -0.0, 1.0, -1.0]),
}


def assert_equals_reference(part):
    """balance_columns returns what the k!-permutation loop returns; repr
    tells -0.0 from 0.0."""
    balanced = balance_columns(part)
    got = (balanced.column_assignment, balanced.column_means)
    assert repr(got) == repr(balance_columns_reference(part))


def group_scores(partition):
    return [[m.score for m in t.members] for t in partition.tuples]


class TestMatchLine:
    def test_six_point_example(self):
        part = match_line(make_items([1, 3, 4, 5, 8, 9]), 3, WeightKind.ABS)
        assert group_scores(part) == [[1, 3, 4], [5, 8, 9]]
        assert part.total_within == 14

    def test_four_point_pairs(self):
        part = match_line(make_items([1, 2, 3, 4]), 2, WeightKind.ABS)
        assert group_scores(part) == [[1, 2], [3, 4]]
        assert part.total_within == 2

    def test_all_equal(self):
        part = match_line(make_items([5] * 6), 3, WeightKind.SQ)
        assert part.total_within == 0

    def test_single_group(self):
        items = make_items([4, 1, 3, 2])
        part = match_line(items, 4, WeightKind.ABS)
        assert len(part.tuples) == 1
        assert part.total_within == within_distance(part.tuples[0], WeightKind.ABS)

    def test_unsorted_input_is_sorted_first(self):
        part = match_line(make_items([9, 1, 5, 4, 8, 3]), 3, WeightKind.ABS)
        assert group_scores(part) == [[1, 3, 4], [5, 8, 9]]
        assert part.total_within == 14

    def test_size_error(self):
        with pytest.raises(SizeError):
            match_line(make_items([1, 2, 3]), 2, WeightKind.ABS)

    @pytest.mark.parametrize("weight", list(WeightKind))
    def test_every_k_from_2_is_accepted(self, weight):
        # no certified-range cap: abs k = 20 and sq k = 10 chunk as any k
        for k in (10, 20):
            part = match_line(make_items(list(range(20))), k, weight)
            assert [g.scores() for g in part.tuples] == [
                tuple(range(i, i + k)) for i in range(0, 20, k)]
        with pytest.raises(ValidationError):
            match_line(make_items([1, 2]), 1, weight)

    def test_empty_input(self):
        part = match_line([], 2, WeightKind.ABS)
        assert part.tuples == [] and part.total_within == 0

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("weight", list(WeightKind))
    def test_cohort_partition_equals_item_partition(self, k, weight):
        rng = random.Random(k)
        for n in (0, 1, 7):
            scores = [rng.choice([0.0, -0.0, 1, 2.5, rng.random(), rng.randint(-3, 3)])
                      for _ in range(n * k)]
            ids = [f"i{j}" for j in range(len(scores))]
            columnar = match_line(Cohort(ids, scores), k, weight)
            items = match_line(make_items(scores), k, weight)
            assert columnar == items and columnar.items() == items.items()
            assert columnar.tuples == items.tuples and columnar.n == items.n == n
            assert repr(columnar.group_within) == repr(items.group_within)
            assert repr(columnar.total_within) == repr(items.total_within)
            columnar.check(items.items())

    def test_cohort_rejects_non_finite_scores_and_ragged_columns(self):
        with pytest.raises(ValidationError, match="non-finite score nan for id 'b'"):
            match_line(Cohort(["a", "b"], [1.0, math.nan]), 2, WeightKind.ABS)
        with pytest.raises(ValidationError, match="2 ids for 1 scores"):
            Cohort(["a", "b"], [1.0])

    def test_total_matches_per_group_sum(self):
        rng = random.Random(3)
        for _ in range(30):
            k = rng.choice([2, 3, 4])
            n = rng.randint(1, 4)
            scores = [rng.randint(-40, 40) for _ in range(k * n)]
            for weight in WeightKind:
                part = match_line(make_items(scores), k, weight)
                assert part.total_within == sum(
                    within_distance(t, weight) for t in part.tuples
                )
                part.check(make_items(scores))

    @pytest.mark.parametrize("offset", [1e6, 1e9, 1e12])
    def test_k2_abs_total_exact_at_large_offsets(self, offset):
        # the total is summed from the per-pair differences; the sum of
        # uppers minus the sum of lowers missed fsum by 1.8e-3, 1.9e-1 and
        # 100% relative on these scores, and check() rejected the partition
        rng = random.Random(2018)
        items = make_items([offset + rng.random() for _ in range(199_998)])
        part = match_line(items, 2, WeightKind.ABS)
        want = math.fsum(abs(y - x) for t in part.tuples
                         for x, y in combinations(t.scores(), 2))
        assert math.isclose(part.total_within, want, rel_tol=1e-9, abs_tol=0)
        part.check()

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("weight", list(WeightKind))
    def test_total_is_the_sum_of_the_group_costs_bitwise(self, k, weight):
        rng = random.Random(k)
        part = match_line(make_items([rng.uniform(-40, 40) for _ in range(30 * k)]),
                          k, weight)
        # the group costs added left to right from int 0, on every Python
        # (the builtin sum is compensated from 3.12 on)
        want = 0
        for t in part.tuples:
            want = want + within_distance(t, weight)
        assert repr(part.total_within) == repr(want)

    def test_ties_broken_by_input_rank(self):
        part = match_line(make_items([2, 2, 1, 1]), 2, WeightKind.ABS)
        ids = [[m.id for m in t.members] for t in part.tuples]
        assert ids == [["i2", "i3"], ["i0", "i1"]]


class TestOracleEquivalence:
    def test_matches_brute_force_exactly(self):
        rng = random.Random(11)
        cases = [(k, n) for k in (2, 3, 4) for n in range(1, 13) if k * n <= 12]
        for k, n in cases:
            for weight in WeightKind:
                for _ in range(20):
                    scores = [rng.randint(0, 30) for _ in range(k * n)]
                    items = make_items(scores)
                    fast = match_line(items, k, weight)
                    exact = brute_force_partition(items, k, weight)
                    assert fast.total_within == exact.total_within

    def test_idempotent(self):
        rng = random.Random(5)
        for _ in range(20):
            scores = [rng.randint(0, 20) for _ in range(12)]
            part = match_line(make_items(scores), 3, WeightKind.ABS)
            flat = [m for t in part.tuples for m in t.members]
            again = match_line(flat, 3, WeightKind.ABS)
            assert again == part

    def test_never_worse_than_greedy(self):
        rng = random.Random(13)
        for _ in range(40):
            k = rng.choice([2, 3])
            n = rng.randint(1, 4)
            scores = [rng.randint(0, 25) for _ in range(k * n)]
            for weight in WeightKind:
                items = make_items(scores)
                assert (
                    match_line(items, k, weight).total_within
                    <= greedy_match(items, k, weight).total_within
                )

    def test_strictly_beats_greedy_on_the_six_point_case(self):
        items = make_items([1, 3, 4, 5, 8, 9])
        assert match_line(items, 3, WeightKind.ABS).total_within == 14
        assert greedy_match(items, 3, WeightKind.ABS).total_within == 20


class TestBalanceColumns:
    def test_two_pairs_balance_exactly(self):
        part = match_line(make_items([1, 2, 3, 4]), 2, WeightKind.ABS)
        balanced = balance_columns(part)
        sums = slot_sums(balanced)
        assert sorted(sums) == [5, 5]
        assert max(sums) - min(sums) == 0
        assert balanced.column_means == (2.5, 2.5)

    def test_constant_scores_any_assignment_is_flat(self):
        part = match_line(make_items([3, 3, 3, 3]), 2, WeightKind.ABS)
        sums = slot_sums(balance_columns(part))
        assert max(sums) - min(sums) == 0

    def test_single_group_keeps_identity(self):
        part = match_line(make_items([1, 5, 9]), 3, WeightKind.ABS)
        balanced = balance_columns(part)
        assert balanced.column_assignment == ((0, 1, 2),)
        assert balanced.column_means == (1, 5, 9)

    def test_assignments_are_permutations_and_cost_is_untouched(self):
        rng = random.Random(23)
        for _ in range(25):
            k = rng.choice([2, 3, 4])
            n = rng.randint(1, 5)
            scores = [rng.randint(0, 50) for _ in range(k * n)]
            part = match_line(make_items(scores), k, WeightKind.ABS)
            total_before = part.total_within
            balanced = balance_columns(part)
            assert balanced.partition.total_within == total_before
            for perm in balanced.column_assignment:
                assert sorted(perm) == list(range(k))

    def test_never_worse_than_keeping_sorted_order(self):
        rng = random.Random(29)
        for _ in range(40):
            k = rng.choice([2, 3])
            n = rng.randint(1, 6)
            scores = [rng.randint(0, 50) for _ in range(k * n)]
            part = match_line(make_items(scores), k, WeightKind.ABS)
            balanced = balance_columns(part)
            sums = slot_sums(balanced)
            identity_sums = [0] * k
            for t in part.tuples:
                for j, m in enumerate(t.members):
                    identity_sums[j] += m.score
            assert max(sums) - min(sums) <= max(identity_sums) - min(identity_sums)

    def test_empty_partition(self):
        balanced = balance_columns(KPartition(2, [], 0, WeightKind.ABS))
        assert balanced.column_assignment == ()
        assert balanced.column_means == ()

    @given(
        st.integers(2, 6),
        st.sampled_from(list(WeightKind)),
        st.sampled_from(sorted(SCORE_FAMILIES)),
        st.data(),
    )
    def test_equals_reference_loop_on_tied_scores(self, k, weight, family, data):
        # tied tenths give many tied groups and spreads; the other families
        # cover full-precision floats, a 1e12 offset, slot sums that
        # overflow (a non-finite floor) and signed zeros
        n = data.draw(st.integers(0, 12))
        scores = data.draw(st.lists(SCORE_FAMILIES[family], min_size=k * n,
                                    max_size=k * n))
        assert_equals_reference(match_line(make_items(scores), k, weight))

    @pytest.mark.parametrize("k", [2, 3])
    def test_overflowing_slot_sums_keep_identity(self, k):
        # the second group overflows every slot sum to inf: each spread is
        # NaN, none below another, so the first permutation stays
        part = match_line(make_items([1.7e308] * (2 * k)), k, WeightKind.ABS)
        assert balance_columns(part).column_assignment == (tuple(range(k)),) * 2
        assert_equals_reference(part)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_equal_score_groups_equal_reference_loop(self, k):
        # every group holds one value, so each keeps the identity with no
        # floor: zeros of mixed sign, and 1.7e308 groups whose slot sums
        # overflow to inf (and to NaN once -1.7e308 groups join them)
        rng = random.Random(k)
        values = [0.0, 1.7e308, -1.7e308, 1.5, 25.5, 0.1, -3.0]
        for _ in range(30):
            scores = []
            for value in rng.sample(values, rng.randint(1, 4)):
                scores += [value] * (k * rng.randint(1, 3))
            scores = [rng.choice([0.0, -0.0]) if s == 0 else s for s in scores]
            rng.shuffle(scores)
            for weight in WeightKind:
                part = match_line(make_items(scores), k, weight)
                assert all(len(set(g)) == 1 for g in group_scores(part))
                assert_equals_reference(part)

    @pytest.mark.parametrize("k", [2, 3, 215])
    def test_k_cubed_within_budget_is_balanced(self, k):
        rng = random.Random(k)
        part = match_line(make_items([rng.random() for _ in range(2 * k)]),
                          k, WeightKind.ABS)
        assert len(balance_columns(part).column_assignment) == 2

    def test_k216_is_refused_before_any_group(self):
        # 216^3 exceeds DEFAULT_BUDGET; a lone group, which needs no
        # balancing, is refused as well
        for n in (1, 2):
            part = match_line(make_items([float(i) for i in range(216 * n)]),
                              216, WeightKind.SQ)
            with pytest.raises(EnumerationBudgetError, match="budget"):
                balance_columns(part)

    @pytest.mark.parametrize("weight", list(WeightKind))
    def test_k7_equals_reference_loop(self, weight):
        rng = random.Random(37)
        scores = [rng.random() for _ in range(7 * 8)]
        assert_equals_reference(match_line(make_items(scores), 7, weight))

    def test_tuple_built_partition_equals_reference_loop(self):
        # groups are not sorted by the KPartition constructor: every other
        # group is reversed, so the floor must sort the scores itself
        rng = random.Random(31)
        for k in range(2, 7):
            for draw in (lambda: rng.randint(0, 9), rng.random):
                scores = [draw() for _ in range(8 * k)]
                for weight in WeightKind:
                    fast = match_line(make_items(scores), k, weight)
                    tuples = [KTuple(t.members[::-1]) if i % 2 else t
                              for i, t in enumerate(fast.tuples)]
                    assert any(t.scores() != sorted(t.scores()) for t in tuples)
                    assert_equals_reference(
                        KPartition(k, tuples, fast.total_within, weight))
