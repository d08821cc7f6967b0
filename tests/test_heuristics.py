import math
import random

import pytest

from linematch.core import (
    ArityError,
    SizeError,
    ValidationError,
    WeightKind,
    items_from_pairs,
)
from linematch.heuristics import (
    EuclideanPoint,
    hierarchical_triple_match,
    local_search_2tuple,
    points_from_coords,
    triangle_matching,
)
from linematch.matching import match_line
from linematch.multipartite import (
    instance_from_scores,
    match_sorted,
    tripartite_lower_bound,
)
from linematch.oracle import (
    brute_force_assignment,
    greedy_match,
    iter_tuple_partitions,
)


def make_items(scores):
    return items_from_pairs([(f"i{n}", s) for n, s in enumerate(scores)])


def triple_cost(points, triple):
    a, b, c = (points[i] for i in triple)
    return (
        math.dist(a.coords, b.coords)
        + math.dist(b.coords, c.coords)
        + math.dist(c.coords, a.coords)
    )


def optimal_triple_cost(points):
    # exhaustive reference over all partitions into triples
    return min(
        sum(triple_cost(points, t) for t in part)
        for part in iter_tuple_partitions(len(points), 3)
    )


class TestHierarchical:
    def test_collinear_six_points(self):
        points = points_from_coords([[1], [3], [4], [5], [8], [9]])
        result = hierarchical_triple_match(points)
        assert result.cost == 14
        groups = sorted(
            tuple(sorted(p.coords[0] for p in triple)) for triple in result.triples
        )
        assert groups == [(1, 3, 4), (5, 8, 9)]

    def test_three_points_single_triple(self):
        points = points_from_coords([[0, 0], [1, 1], [2, 0]])
        result = hierarchical_triple_match(points)
        assert len(result.triples) == 1
        assert result.pairing_exact == ()

    def test_size_gate(self):
        for bad in (0, 9, 15, 18):
            with pytest.raises(SizeError):
                hierarchical_triple_match(
                    points_from_coords([[float(i)] for i in range(bad)])
                )

    def test_collinear_matches_line_optimum(self):
        rng = random.Random(71)
        for m in range(4):
            n_points = 3 * 2**m
            for _ in range(4):
                scores = [rng.randint(0, 60) for _ in range(n_points)]
                points = points_from_coords([[s] for s in scores])
                result = hierarchical_triple_match(points)
                exact = match_line(make_items(scores), 3, WeightKind.ABS)
                assert result.cost == exact.total_within

    def test_twelve_planar_points_bounds(self):
        rng = random.Random(73)
        for _ in range(3):
            coords = [
                [rng.uniform(0, 10), rng.uniform(0, 10)] for _ in range(12)
            ]
            points = points_from_coords(coords)
            result = hierarchical_triple_match(points)
            # never below the true optimum
            opt = optimal_triple_cost(points)
            assert result.cost >= opt - 1e-9
            # never above chunking by x-coordinate rank
            by_x = sorted(range(12), key=lambda i: (coords[i][0], i))
            baseline = sum(
                triple_cost(points, tuple(by_x[j : j + 3]))
                for j in range(0, 12, 3)
            )
            assert result.cost <= baseline + 1e-9

    def test_partition_covers_all_points(self):
        points = points_from_coords([[float(i), float(i % 3)] for i in range(12)])
        result = hierarchical_triple_match(points)
        seen = sorted(p.id for t in result.triples for p in t)
        assert seen == sorted(p.id for p in points)

    def test_rejects_non_finite_coordinates(self):
        with pytest.raises(ValidationError):
            EuclideanPoint((math.nan, 0.0), "bad")

    def test_point_without_coordinates_is_rejected(self):
        with pytest.raises(ValidationError, match="'p0' has no coordinates"):
            points_from_coords([[]])

    def test_unequal_dimensions_name_the_first_odd_point(self):
        points = points_from_coords([[0, 0], [1, 1], [2], [3, 3], [4], [5, 5]])
        with pytest.raises(ValidationError,
                           match="'p2' has 1 coordinates, point 'p0' has 2"):
            hierarchical_triple_match(points)

    def test_overflowing_midpoint_is_rejected(self):
        points = points_from_coords([[1e308]] * 3 + [[1.7e308]] * 3)
        with pytest.raises(ValidationError):
            hierarchical_triple_match(points)

    # pinned outputs: above 12 points a level pairs greedily and then by
    # 2-opt, which swaps pairs at every size here
    @pytest.mark.parametrize("n,cost,exact,triples", [
        (24, 450.07893651236395, (False, True, True),
         [(0, 5, 9), (15, 19, 21), (6, 8, 18), (7, 12, 20), (1, 10, 16),
          (3, 4, 11), (2, 14, 22), (13, 17, 23)]),
        (48, 575.5006845824871, (False, False, True, True),
         [(0, 21, 40), (12, 19, 20), (8, 41, 43), (10, 22, 33), (1, 11, 28),
          (15, 29, 47), (2, 13, 37), (3, 7, 30), (4, 32, 39), (18, 25, 44),
          (14, 31, 35), (26, 34, 45), (5, 16, 42), (9, 27, 46), (6, 17, 24),
          (23, 36, 38)]),
        (96, 882.7189571279961, (False, False, False, True, True),
         [(0, 10, 87), (60, 84, 90), (9, 64, 91), (39, 63, 78), (2, 18, 34),
          (11, 80, 93), (45, 47, 89), (27, 61, 86), (8, 15, 72), (22, 24, 58),
          (17, 42, 79), (21, 32, 36), (14, 35, 41), (50, 55, 71), (23, 25, 94),
          (33, 52, 69), (1, 4, 75), (29, 37, 73), (31, 59, 62), (48, 81, 83),
          (3, 40, 67), (12, 53, 70), (43, 51, 68), (66, 77, 95), (5, 65, 88),
          (6, 56, 92), (7, 16, 46), (19, 44, 57), (20, 26, 28), (30, 49, 76),
          (13, 82, 85), (38, 54, 74)]),
    ])
    def test_planar_points_keep_their_triples(self, n, cost, exact, triples):
        rng = random.Random(n)
        coords = [[rng.uniform(0, 100), rng.uniform(0, 100)] for _ in range(n)]
        result = hierarchical_triple_match(points_from_coords(coords))
        assert [tuple(int(p.id[1:]) for p in t) for t in result.triples] == triples
        assert repr(result.cost) == repr(cost)
        assert result.pairing_exact == exact


class TestTriangleMatching:
    def test_line_instance_composes_to_sorted_triples(self):
        # both bipartite minima match rank for rank, so the composition is
        # the sorted matching, weight bits included
        rng = random.Random(79)
        draws = [
            lambda: rng.randint(0, 30),
            lambda: rng.randint(0, 3),
            lambda: round(rng.uniform(-50, 50), rng.choice([0, 1, 6])),
            lambda: rng.choice([0.0, -0.0, 0.5, -0.5]),
            lambda: rng.choice([1e308, -1e308, 0.0, -0.0, 1.0]),
        ]
        for _ in range(30):
            for draw in draws:
                for weight in WeightKind:
                    n = rng.randint(1, 6)
                    lists = [[draw() for _ in range(n)] for _ in range(3)]
                    inst = instance_from_scores(lists, weight)
                    tri, ref = triangle_matching(inst), match_sorted(inst)
                    assert tri.tuples == ref.tuples
                    assert repr(tri.weight) == repr(ref.weight)

    def test_all_equal_scores(self):
        inst = instance_from_scores([[4, 4], [4, 4], [4, 4]], WeightKind.ABS)
        assert triangle_matching(inst).weight == 0

    def test_bound_chain_on_metric_instances(self):
        rng = random.Random(83)
        for _ in range(30):
            n = rng.randint(1, 5)
            lists = [[rng.randint(0, 25) for _ in range(n)] for _ in range(3)]
            inst = instance_from_scores(lists, WeightKind.ABS)
            tri = triangle_matching(inst)
            ab = match_sorted(
                instance_from_scores([lists[0], lists[1]], WeightKind.ABS)
            ).weight
            bc = match_sorted(
                instance_from_scores([lists[1], lists[2]], WeightKind.ABS)
            ).weight
            assert tri.weight <= 2 * (ab + bc)
            opt = brute_force_assignment(inst).weight
            if opt > 0:
                assert tri.weight / opt <= 2
            bound = tripartite_lower_bound(inst)
            if bound > 0:
                assert tri.weight / bound <= 2

    def test_bipartite_rejected(self):
        inst = instance_from_scores([[1, 2], [1, 2]], WeightKind.ABS)
        with pytest.raises(ArityError):
            triangle_matching(inst)


class TestLocalSearch:
    def test_already_optimal_partition_unchanged(self):
        rng = random.Random(89)
        for _ in range(20):
            k = rng.choice([2, 3])
            n = rng.randint(1, 4)
            scores = [rng.randint(0, 40) for _ in range(k * n)]
            for weight in WeightKind:
                part = match_line(make_items(scores), k, weight)
                refined = local_search_2tuple(part, weight)
                assert refined.total_within == part.total_within
                assert [t.members for t in refined.tuples] == [
                    t.members for t in part.tuples
                ]

    def test_fixes_greedy_on_six_point_example(self):
        items = make_items([1, 3, 4, 5, 8, 9])
        greedy = greedy_match(items, 3, WeightKind.ABS)
        assert greedy.total_within == 20
        refined = local_search_2tuple(greedy, WeightKind.ABS)
        assert refined.total_within == 14

    def test_single_group_unchanged(self):
        part = match_line(make_items([2, 9, 4]), 3, WeightKind.ABS)
        refined = local_search_2tuple(part, WeightKind.ABS)
        assert refined.total_within == part.total_within

    def test_never_increases_cost_and_covers_input(self):
        rng = random.Random(97)
        for _ in range(25):
            k = rng.choice([2, 3, 4])
            n = rng.randint(2, 4)
            scores = [rng.randint(0, 50) for _ in range(k * n)]
            items = make_items(scores)
            for weight in WeightKind:
                start = greedy_match(items, k, weight)
                refined = local_search_2tuple(start, weight)
                assert refined.total_within <= start.total_within
                refined.check(items)

    def test_one_group_is_returned_as_given(self):
        one = match_line(make_items(list(range(12))), 12, WeightKind.ABS)
        refined = local_search_2tuple(one, WeightKind.ABS)
        assert refined.tuples == one.tuples, "a single group is returned as given"
        assert refined.total_within == one.total_within == 286
