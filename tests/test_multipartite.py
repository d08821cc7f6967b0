import functools
import math
import operator
import random
import sys
from fractions import Fraction

import pytest

from linematch.core import ArityError, EnumerationBudgetError, ValidationError, WeightKind
from linematch.multipartite import (
    Matching,
    heuristic_ratio_bound,
    instance_from_scores,
    is_lm_on_samples,
    match_sorted,
    matching_weight,
    tripartite_lower_bound,
)
from linematch.oracle import _edge_rows, brute_force_assignment
from reference_forms import abs_error_bound, edge_weight, pairwise_exact, tuple_weight


def product_weight(x, y):
    return x * y


class TestInstance:
    def test_rejects_wrong_arity(self):
        with pytest.raises(ArityError):
            instance_from_scores([[1, 2]], WeightKind.ABS)
        with pytest.raises(ArityError):
            instance_from_scores([[1]] * 4, WeightKind.ABS)

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValidationError):
            instance_from_scores([[1, 2], [1]], WeightKind.ABS)

    def test_rejects_empty_parts(self):
        with pytest.raises(ValidationError):
            instance_from_scores([[], []], WeightKind.ABS)

    def test_rejects_non_finite_scores(self):
        with pytest.raises(ValidationError, match="non-finite score for id 'b1'"):
            instance_from_scores([[1, 2], [3, math.nan]], WeightKind.ABS)


class TestMatchSorted:
    def test_identical_lists_cost_zero(self):
        inst = instance_from_scores([[1, 2, 3], [1, 2, 3]], WeightKind.ABS)
        assert match_sorted(inst).weight == 0

    def test_reversed_list_still_pairs_by_value(self):
        inst = instance_from_scores([[1, 2], [2, 1]], WeightKind.ABS)
        m = match_sorted(inst)
        assert m.weight == 0
        values = sorted(
            (inst.parts[0][a].score, inst.parts[1][b].score) for a, b in m.tuples
        )
        assert values == [(1, 1), (2, 2)]

    def test_tripartite_ranks_align(self):
        inst = instance_from_scores(
            [[1, 5, 9], [2, 4, 8], [0, 6, 7]], WeightKind.ABS
        )
        m = match_sorted(inst)
        assert m.tuples == ((0, 0, 0), (1, 1, 1), (2, 2, 2))

    def test_matches_oracle_exactly(self):
        rng = random.Random(101)
        for _ in range(60):
            arity = rng.choice([2, 3])
            n = rng.randint(1, 6 if arity == 2 else 5)
            lists = [[rng.randint(0, 25) for _ in range(n)] for _ in range(arity)]
            for weight in WeightKind:
                inst = instance_from_scores(lists, weight)
                assert match_sorted(inst).weight == brute_force_assignment(inst).weight

    def test_invariant_under_translation_and_positive_scaling(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(2, 5)
            lists = [[rng.randint(0, 20) for _ in range(n)] for _ in range(3)]
            base = match_sorted(instance_from_scores(lists, WeightKind.ABS))
            mapped = [[3 * x + 11 for x in part] for part in lists]
            moved = match_sorted(instance_from_scores(mapped, WeightKind.ABS))
            assert moved.tuples == base.tuples
            assert moved.weight == 3 * base.weight


class TestLowerBound:
    def test_identical_parts_bound_zero(self):
        inst = instance_from_scores([[1, 2, 3]] * 3, WeightKind.ABS)
        assert tripartite_lower_bound(inst) == 0

    def test_bipartite_input_rejected(self):
        inst = instance_from_scores([[1, 2], [3, 4]], WeightKind.ABS)
        with pytest.raises(ArityError):
            tripartite_lower_bound(inst)
        with pytest.raises(ArityError, match="defined for tripartite instances"):
            heuristic_ratio_bound(inst, match_sorted(inst))

    def test_equals_sorted_matching_weight(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(1, 7)
            lists = [[rng.randint(0, 30) for _ in range(n)] for _ in range(3)]
            for weight in WeightKind:
                inst = instance_from_scores(lists, weight)
                assert tripartite_lower_bound(inst) == match_sorted(inst).weight

    def test_never_exceeds_oracle_minimum(self):
        rng = random.Random(37)
        for _ in range(40):
            n = rng.randint(1, 5)
            lists = [[rng.randint(0, 20) for _ in range(n)] for _ in range(3)]
            for weight in WeightKind:
                inst = instance_from_scores(lists, weight)
                assert tripartite_lower_bound(inst) <= brute_force_assignment(inst).weight


def same_bits(a, b):
    return type(a) is type(b) and repr(a) == repr(b)


def fold(values):
    return functools.reduce(operator.add, values, 0)


def random_score(rng):
    return rng.choice([rng.randint(-20, 20), rng.uniform(-20, 20),
                       rng.randint(0, 4) / 2, 1e12 + rng.randint(0, 30) / 10,
                       0.0, -0.0, 1e308, -1e308])


class TestTripleDecomposition:
    # a triple costs the k=3 kernel on its sorted scores; the cycle of its
    # three edges in part order adds the same pairs in another order
    @pytest.mark.parametrize("weight", list(WeightKind))
    def test_triple_weight_is_within_the_bound_of_the_cycle(self, weight):
        rng = random.Random(43)
        # sq squares each difference: six roundings bound both weights
        bound = 2 * abs_error_bound(6)
        for _ in range(500):
            scores = [random_score(rng) for _ in range(3)]
            inst = instance_from_scores([[x] for x in scores], weight)
            got = matching_weight(inst, Matching(((0, 0, 0),), 0))
            want = tuple_weight(weight, scores)
            exact = pairwise_exact(sorted(scores), weight)
            if all(isinstance(x, int) for x in scores):
                assert same_bits(got, want)
            elif math.isinf(got) or math.isinf(want):
                # overflow only where the exact weight reaches the float range
                assert exact * (1 + bound) > sys.float_info.max
            else:
                assert abs(Fraction(got) - Fraction(want)) <= bound * exact


class TestLmSampling:
    def test_abs_weight_passes(self):
        ok, witness = is_lm_on_samples(
            lambda x, y: abs(x - y), trials=150, n_max=5, seed=3
        )
        assert ok and witness is None

    def test_sq_weight_passes(self):
        ok, witness = is_lm_on_samples(
            lambda x, y: (x - y) ** 2, trials=150, n_max=5, seed=4
        )
        assert ok and witness is None

    def test_n_max_over_the_default_budget_is_refused_before_sampling(self, monkeypatch):
        # 10! = 3,628,800 permutations per trial fit the default budget of
        # 10^7 and 11! do not; no trial at all is drawn for the refusal
        import linematch.multipartite as multipartite

        assert is_lm_on_samples(product_weight, trials=0, n_max=10) == (True, None)
        monkeypatch.setattr(multipartite, "random", None)
        with pytest.raises(EnumerationBudgetError,
                           match="39916800 permutations exceeds budget 10000000"):
            is_lm_on_samples(product_weight, n_max=11)

    def test_product_weight_fails_with_witness(self):
        ok, witness = is_lm_on_samples(product_weight, trials=200, n_max=4, seed=5)
        assert not ok
        assert witness is not None
        assert witness.best_weight < witness.sorted_weight
        # re-check the witness by hand
        resorted = sum(
            product_weight(x, y) for x, y in zip(witness.x, witness.y)
        )
        best = sum(
            product_weight(witness.x[i], witness.y[p])
            for i, p in enumerate(witness.best_assignment)
        )
        assert resorted == witness.sorted_weight
        assert best == witness.best_weight

    def test_product_counterexample_values(self):
        xs = ys = (1, 2, 3)
        sorted_w = sum(x * y for x, y in zip(xs, ys))
        reversed_w = sum(x * y for x, y in zip(xs, reversed(ys)))
        assert sorted_w == 14
        assert reversed_w == 10
        assert reversed_w < sorted_w


class TestRatioBound:
    def test_sorted_matching_gets_ratio_one(self):
        rng = random.Random(53)
        for _ in range(30):
            n = rng.randint(1, 6)
            lists = [[rng.randint(0, 30) for _ in range(n)] for _ in range(3)]
            inst = instance_from_scores(lists, WeightKind.ABS)
            ratio = heuristic_ratio_bound(inst, match_sorted(inst))
            if tripartite_lower_bound(inst) > 0:
                assert ratio == 1.0
            else:
                assert ratio == 1.0

    def test_degenerate_all_equal_is_one(self):
        inst = instance_from_scores([[5, 5], [5, 5], [5, 5]], WeightKind.ABS)
        identity = Matching(((0, 0, 0), (1, 1, 1)), 0)
        assert heuristic_ratio_bound(inst, identity) == 1.0

    def test_zero_bound_positive_weight_is_unbounded(self):
        inst = instance_from_scores([[0, 1], [0, 1], [0, 1]], WeightKind.ABS)
        crossed = Matching(((0, 1, 0), (1, 0, 1)), 0)
        assert heuristic_ratio_bound(inst, crossed) == math.inf

    def test_any_valid_matching_is_at_least_one(self):
        rng = random.Random(59)
        for _ in range(30):
            n = rng.randint(2, 5)
            lists = [[rng.randint(0, 25) for _ in range(n)] for _ in range(3)]
            inst = instance_from_scores(lists, WeightKind.ABS)
            identity = Matching(
                tuple((i, i, i) for i in range(n)),
                0,
            )
            if tripartite_lower_bound(inst) > 0:
                assert heuristic_ratio_bound(inst, identity) >= 1.0

    def test_invalid_matching_rejected(self):
        inst = instance_from_scores([[1, 2], [1, 2], [1, 2]], WeightKind.ABS)
        broken = Matching(((0, 0, 0), (1, 0, 1)), 0)
        with pytest.raises(ValidationError):
            heuristic_ratio_bound(inst, broken)

    def test_weight_is_recomputed_not_trusted(self):
        inst = instance_from_scores([[0, 10], [0, 10], [0, 10]], WeightKind.ABS)
        lying = Matching(((0, 1, 0), (1, 0, 1)), weight=-999)
        # each crossed triple pays 10 + 10 + 0 over its cycle
        assert matching_weight(inst, lying) == 40
        # identical parts give bound 0; positive recomputed weight -> inf
        assert heuristic_ratio_bound(inst, lying) == math.inf

    def test_weight_of_a_matching_of_the_wrong_arity_is_refused(self):
        inst = instance_from_scores([[0, 10], [0, 10]], WeightKind.ABS)
        triples = Matching(((0, 0, 0), (1, 1, 1)), 0)
        with pytest.raises(ValidationError, match="arity does not fit the instance"):
            matching_weight(inst, triples)


class TestEdgeRows:
    @pytest.mark.parametrize("weight", list(WeightKind))
    def test_edge_rows_equal_edge_weight(self, weight):
        # ties of an int and a float, and of the two zeros, keep the float
        xs = [3, 7, 0.0, -0.0, 1, 1.0, 2.5, 1e308, -1e308, 0.1, 1e12 + 0.1]
        ys = xs[::-1] + [0]
        got = _edge_rows(weight, xs, ys)
        want = [[edge_weight(weight, x, y) for y in ys] for x in xs]
        assert [list(map(repr, row)) for row in got] == [
            list(map(repr, row)) for row in want]
        assert [list(map(type, row)) for row in got] == [
            list(map(type, row)) for row in want]

    @pytest.mark.parametrize("weight", list(WeightKind))
    def test_bipartite_weights_are_edge_weight_sums(self, weight):
        inst = instance_from_scores([[3], [7]], weight)
        assert brute_force_assignment(inst).weight == (
            4 if weight is WeightKind.ABS else 16)
        rng = random.Random(61)
        for _ in range(100):
            n = rng.randint(1, 5)
            inst = instance_from_scores(
                [[random_score(rng) for _ in range(n)] for _ in range(2)], weight)
            xs, ys = inst.scores(0), inst.scores(1)
            for matching in (brute_force_assignment(inst), match_sorted(inst)):
                want = fold(edge_weight(weight, xs[i], ys[j])
                            for i, j in matching.tuples)
                assert same_bits(matching.weight, want)
                assert same_bits(matching_weight(inst, matching), want)
