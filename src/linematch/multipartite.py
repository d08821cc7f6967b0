"""Minimal matching across two or three equal-size score lists.

For absolute or squared score differences, sorting each side and matching
rank for rank is globally minimal; both weights have the property that makes
this work (sorted-against-sorted is never beaten).  Arbitrary user weights
only get a randomized refuter, never a certification: a weight like the
plain product fails (reversing one side beats the sorted pairing).

A matched pair or triple weighs the within-distance of its scores (for a
triple, its three edges), from the `core.within_columns` kernel.  The
tripartite minimum is bounded below by the sum of the three pairwise
bipartite minima, which turns any heuristic tripartite matching into a
certified approximation ratio.
"""

from __future__ import annotations

import math
import random
from functools import reduce
from itertools import permutations
from operator import add
from typing import Callable, Sequence

from .core import ArityError, Record, ScoredItem, ValidationError, WeightKind, within_columns


class MultipartiteInstance(Record):
    """Two or three equal-length score lists with a shared weight kind."""

    parts: tuple[tuple[ScoredItem, ...], ...]
    weight: WeightKind

    def __post_init__(self):
        if len(self.parts) not in (2, 3):
            raise ArityError(f"need 2 or 3 parts, got {len(self.parts)}")
        sizes = {len(p) for p in self.parts}
        if len(sizes) != 1:
            raise ValidationError(f"parts have unequal sizes {sorted(sizes)}")
        if self.n < 1:
            raise ValidationError("parts must be non-empty")
        for part in self.parts:
            for it in part:
                if not math.isfinite(it.score):
                    raise ValidationError(f"non-finite score for id {it.id!r}")

    @property
    def n(self) -> int:
        return len(self.parts[0])

    def scores(self, part: int) -> tuple[float, ...]:
        return tuple(it.score for it in self.parts[part])


_PART_PREFIXES = "abc"


def instance_from_scores(
    score_lists: Sequence[Sequence[float]], weight: WeightKind
) -> MultipartiteInstance:
    """Convenience constructor: raw score lists, ids generated per part."""
    if len(score_lists) not in (2, 3):
        raise ArityError(f"need 2 or 3 parts, got {len(score_lists)}")
    parts = tuple(
        tuple(
            ScoredItem(f"{_PART_PREFIXES[p]}{i}", s, i) for i, s in enumerate(scores)
        )
        for p, scores in enumerate(score_lists)
    )
    return MultipartiteInstance(parts, weight)


class Matching(Record):
    """A perfect matching: one index per part in each tuple, plus its weight."""

    tuples: tuple[tuple[int, ...], ...]
    weight: float


def _rank_orders(instance: MultipartiteInstance) -> list[list[int]]:
    return [
        sorted(range(instance.n), key=lambda i: part[i].sort_key())
        for part in instance.parts
    ]


def match_sorted(instance: MultipartiteInstance) -> Matching:
    """Minimal perfect matching: sort every part, match rank for rank.

    Minimality is exact for both supported weight kinds; ties inside a part
    keep input order.  O(n log n).
    """
    orders = _rank_orders(instance)
    tuples = tuple(
        tuple(order[r] for order in orders) for r in range(instance.n)
    )
    return Matching(tuples, matching_weight(instance, Matching(tuples, 0)))


def tripartite_lower_bound(instance: MultipartiteInstance) -> float:
    """Sum of the three pairwise bipartite minima; never exceeds the
    tripartite minimum, and equals it when matching rank-for-rank (which it
    does for the supported weights)."""
    if len(instance.parts) != 3:
        raise ArityError("lower bound is defined for tripartite instances")
    total = 0
    for i, j in ((0, 1), (1, 2), (2, 0)):
        sub = MultipartiteInstance((instance.parts[i], instance.parts[j]),
                                   instance.weight)
        total += match_sorted(sub).weight
    return total


def matching_weight(instance: MultipartiteInstance, matching: Matching) -> float:
    """Recompute a matching's weight from the instance (ignores the stored
    one): each tuple costs its sorted scores' within-distance, all tuples in
    one `within_columns` call, added left to right from int 0."""
    arity = len(instance.parts)
    rows = []
    for tup in matching.tuples:
        if len(tup) != arity:
            raise ValidationError("matching arity does not fit the instance")
        rows.append(sorted([instance.parts[p][i].score for p, i in enumerate(tup)]))
    cols = [[row[p] for row in rows] for p in range(arity)]
    return reduce(add, within_columns(cols, instance.weight), 0)


def _check_perfect(instance: MultipartiteInstance, matching: Matching) -> None:
    n = instance.n
    for p in range(len(instance.parts)):
        used = sorted(t[p] for t in matching.tuples)
        if used != list(range(n)):
            raise ValidationError(f"part {p} is not matched exactly once each")


def heuristic_ratio_bound(
    instance: MultipartiteInstance, heuristic_matching: Matching
) -> float:
    """Certified upper bound on a tripartite heuristic's approximation ratio.

    Returns heuristic weight / pairwise lower bound.  A zero bound with a
    positive heuristic weight yields math.inf; zero over zero is ratio 1.
    """
    if len(instance.parts) != 3:
        raise ArityError("ratio bound is defined for tripartite instances")
    _check_perfect(instance, heuristic_matching)
    heu = matching_weight(instance, heuristic_matching)
    bound = tripartite_lower_bound(instance)
    if bound == 0:
        return 1.0 if heu == 0 else math.inf
    return heu / bound


class LmWitness(Record):
    """A sampled instance where some permutation beats the sorted matching."""

    x: tuple[float, ...]
    y: tuple[float, ...]
    sorted_weight: float
    best_weight: float
    best_assignment: tuple[int, ...]


def is_lm_on_samples(
    weight_fn: Callable[[float, float], float],
    trials: int = 200,
    n_max: int = 5,
    seed: int = 0,
    score_range: tuple[int, int] = (0, 20),
) -> tuple[bool, LmWitness | None]:
    """Randomized refuter for the sorted-matching-is-minimal property.

    Samples sorted integer score vectors and compares the rank-for-rank
    weight against full permutation enumeration.  Returns (False, witness)
    on the first refutation; (True, None) means no counterexample was found,
    which is evidence only, not a proof.
    """
    rng = random.Random(seed)
    lo, hi = score_range
    for _ in range(trials):
        n = rng.randint(2, n_max)
        xs = tuple(sorted(rng.randint(lo, hi) for _ in range(n)))
        ys = tuple(sorted(rng.randint(lo, hi) for _ in range(n)))
        sorted_weight = sum(weight_fn(x, y) for x, y in zip(xs, ys))
        best = None
        best_perm = None
        for perm in permutations(range(n)):
            w = sum(weight_fn(xs[i], ys[perm[i]]) for i in range(n))
            if best is None or w < best:
                best = w
                best_perm = perm
        if best < sorted_weight:
            return False, LmWitness(xs, ys, sorted_weight, best, best_perm)
    return True, None


__all__ = [
    "LmWitness",
    "Matching",
    "MultipartiteInstance",
    "heuristic_ratio_bound",
    "instance_from_scores",
    "is_lm_on_samples",
    "match_sorted",
    "matching_weight",
    "tripartite_lower_bound",
]
