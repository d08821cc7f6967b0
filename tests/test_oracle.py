import math
import random
from itertools import permutations

import pytest

from linematch.core import (
    DEFAULT_BUDGET,
    EnumerationBudgetError,
    SizeError,
    WeightKind,
    items_from_pairs,
)
from linematch.multipartite import instance_from_scores, match_sorted
from linematch.oracle import (
    brute_force_assignment,
    brute_force_partition,
    greedy_match,
    iter_tuple_partitions,
    partition_count,
)


def make_items(scores):
    return items_from_pairs([(f"i{n}", s) for n, s in enumerate(scores)])


def group_scores(partition):
    return [[m.score for m in t.members] for t in partition.tuples]


class TestEnumeration:
    @pytest.mark.parametrize(
        "k,n",
        [(k, n) for k in (2, 3, 4, 6) for n in range(1, 7) if k * n <= 12],
    )
    def test_count_matches_closed_form(self, k, n):
        seen = set()
        for part in iter_tuple_partitions(k * n, k):
            assert part not in seen
            seen.add(part)
            used = sorted(i for group in part for i in group)
            assert used == list(range(k * n))
        assert len(seen) == partition_count(k, n)

    def test_count_values(self):
        assert partition_count(2, 2) == 3
        assert partition_count(3, 2) == 10
        assert partition_count(2, 3) == 15

    def test_indivisible_raises(self):
        with pytest.raises(SizeError):
            list(iter_tuple_partitions(5, 2))


class TestBruteForcePartition:
    def test_six_point_example(self):
        part = brute_force_partition(make_items([1, 3, 4, 5, 8, 9]), 3, WeightKind.ABS)
        assert part.total_within == 14
        assert group_scores(part) == [[1, 3, 4], [5, 8, 9]]

    def test_two_pairs(self):
        part = brute_force_partition(make_items([1, 2, 3, 4]), 2, WeightKind.ABS)
        assert part.total_within == 2
        assert group_scores(part) == [[1, 2], [3, 4]]

    def test_single_group_is_trivially_minimal(self):
        part = brute_force_partition(make_items([9, 2, 5]), 3, WeightKind.SQ)
        assert len(part.tuples) == 1
        assert group_scores(part) == [[2, 5, 9]]

    def test_budget_error(self):
        items = make_items(list(range(12)))
        with pytest.raises(EnumerationBudgetError):
            brute_force_partition(items, 2, WeightKind.ABS, budget=100)

    def test_budget_charges_the_cost_table_at_n2(self):
        # n = 2 is the one shape whose C(2k, k) group costs outnumber its
        # partitions, here 70 against 35
        items = make_items([5, 1, 4, 2, 8, 7, 3, 6])
        assert (partition_count(4, 2), math.comb(8, 4)) == (35, 70)
        with pytest.raises(EnumerationBudgetError, match="70 group costs"):
            brute_force_partition(items, 4, WeightKind.ABS, budget=69)
        part = brute_force_partition(items, 4, WeightKind.ABS, budget=70)
        assert group_scores(part) == [[1, 2, 3, 4], [5, 6, 7, 8]]
        # k = 13 has 5,200,300 partitions, under the default budget, and a
        # table of 10,400,600 costs (~2.6 GB) over it
        assert partition_count(13, 2) < DEFAULT_BUDGET < math.comb(26, 13)
        with pytest.raises(EnumerationBudgetError, match="10400600 group costs"):
            brute_force_partition(make_items(list(range(26))), 13, WeightKind.ABS)

    def test_deterministic_tie_break(self):
        # all-equal scores: every partition costs 0, the index-chunked one wins
        part = brute_force_partition(make_items([4, 4, 4, 4]), 2, WeightKind.ABS)
        ids = [[m.id for m in t.members] for t in part.tuples]
        assert ids == [["i0", "i1"], ["i2", "i3"]]


class TestGreedy:
    def test_six_point_example(self):
        part = greedy_match(make_items([1, 3, 4, 5, 8, 9]), 3, WeightKind.ABS)
        assert group_scores(part) == [[3, 4, 5], [1, 8, 9]]
        assert part.total_within == 20

    def test_two_pairs(self):
        part = greedy_match(make_items([1, 2, 3, 4]), 2, WeightKind.ABS)
        assert part.total_within == 2
        assert group_scores(part) == [[1, 2], [3, 4]]

    def test_all_equal(self):
        part = greedy_match(make_items([6] * 6), 2, WeightKind.SQ)
        assert part.total_within == 0

    def test_needs_no_budget(self):
        # C(30, 15) = 155,117,520 subsets, and a step costs 16 windows
        part = greedy_match(make_items(list(range(30))), 15, WeightKind.ABS)
        assert group_scores(part) == [list(range(15)), list(range(15, 30))]

    def test_never_beats_brute_force(self):
        rng = random.Random(17)
        for _ in range(30):
            k = rng.choice([2, 3])
            n = rng.randint(1, 4)
            scores = [rng.randint(0, 30) for _ in range(k * n)]
            for weight in WeightKind:
                items = make_items(scores)
                assert (
                    brute_force_partition(items, k, weight).total_within
                    <= greedy_match(items, k, weight).total_within
                )


def perm_oracle_bipartite(xs, ys, weight):
    def w(a, b):
        return abs(a - b) if weight is WeightKind.ABS else (a - b) ** 2

    return min(
        sum(w(x, ys[p]) for x, p in zip(xs, perm))
        for perm in permutations(range(len(ys)))
    )


class TestBruteForceAssignment:
    def test_identical_lists_identity(self):
        inst = instance_from_scores([[1, 2, 3], [1, 2, 3]], WeightKind.ABS)
        m = brute_force_assignment(inst)
        assert m.weight == 0
        assert m.tuples == ((0, 0), (1, 1), (2, 2))

    def test_reversed_pair(self):
        inst = instance_from_scores([[1, 2], [2, 1]], WeightKind.ABS)
        m = brute_force_assignment(inst)
        assert m.weight == 0
        matched_values = sorted(
            (inst.parts[0][a].score, inst.parts[1][b].score) for a, b in m.tuples
        )
        assert matched_values == [(1, 1), (2, 2)]

    def test_tripartite_trivial(self):
        inst = instance_from_scores([[0, 1], [0, 1], [0, 1]], WeightKind.ABS)
        m = brute_force_assignment(inst)
        assert m.weight == 0
        assert m.tuples == ((0, 0, 0), (1, 1, 1))

    def test_size_limits(self):
        big2 = instance_from_scores([list(range(9))] * 2, WeightKind.ABS)
        with pytest.raises(EnumerationBudgetError):
            brute_force_assignment(big2)
        big3 = instance_from_scores([list(range(7))] * 3, WeightKind.ABS)
        with pytest.raises(EnumerationBudgetError):
            brute_force_assignment(big3)

    def test_matches_direct_permutation_minimum(self):
        rng = random.Random(19)
        for _ in range(40):
            n = rng.randint(1, 5)
            xs = [rng.randint(0, 20) for _ in range(n)]
            ys = [rng.randint(0, 20) for _ in range(n)]
            for weight in WeightKind:
                inst = instance_from_scores([xs, ys], weight)
                assert brute_force_assignment(inst).weight == perm_oracle_bipartite(
                    xs, ys, weight
                )

    def test_agrees_with_sorted_matching_on_samples(self):
        rng = random.Random(21)
        for _ in range(25):
            arity = rng.choice([2, 3])
            n = rng.randint(1, 5 if arity == 3 else 6)
            lists = [[rng.randint(0, 15) for _ in range(n)] for _ in range(arity)]
            for weight in WeightKind:
                inst = instance_from_scores(lists, weight)
                assert (
                    brute_force_assignment(inst).weight == match_sorted(inst).weight
                )
