"""Optimal k-group partitioning of scored items by sort-and-chunk.

Sorting the scores and cutting consecutive blocks of k minimizes the summed
within-group distance for both weight kinds, within the certified k range
(see the certify module for the machine-checked exchange inequalities that
back this).  Total runtime is dominated by the sort.

Also provides the column-balancing pass that reassigns members to treatment
slots so per-slot score means come out nearly equal, without touching the
matching cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from operator import add, attrgetter, itemgetter
from typing import Sequence

from .core import (
    KPartition,
    ScoredItem,
    SizeError,
    WeightKind,
    check_certified_k,
    sort_items,
    sq_within_scores,
    within_distance,  # unused; perfbench/trace.py rebinds this name to count calls
)


_score_of = attrgetter("score")


def _pair_total_abs(ordered: list[ScoredItem]) -> float:
    # sum of uppers minus sum of lowers; all C-level.  Exact on integer
    # scores; on floats it agrees with per-group summation to roundoff.
    return sum(map(_score_of, ordered[1::2])) - sum(map(_score_of, ordered[0::2]))


def _chunk_total_abs(scores: Sequence[float], k: int) -> float:
    coeffs = [2 * j - k + 1 for j in range(k)]
    columns = [scores[j::k] for j in range(k)]
    return sum(
        sum(c * x for c, x in zip(coeffs, chunk)) for chunk in zip(*columns)
    )


def _chunk_total_sq(scores: Sequence[float], k: int) -> float:
    return sum(
        sq_within_scores(scores[i : i + k]) for i in range(0, len(scores), k)
    )


def match_line(
    items: Sequence[ScoredItem],
    k: int,
    weight: WeightKind,
    uncertified: bool = False,
) -> KPartition:
    """Partition items into groups of k with minimal total within-distance.

    Sorts by (score, input_rank) and takes consecutive blocks of k.  The
    result is provably minimal for k within the certified range (abs: 16,
    sq: 8); larger k requires uncertified=True and yields the same chunking
    without an optimality guarantee.  O(N log N).

    Raises SizeError if len(items) is not divisible by k, and
    CertifiedRangeError for out-of-range k without the override.
    """
    check_certified_k(k, weight, uncertified)
    if len(items) % k != 0:
        raise SizeError(f"{len(items)} items cannot be split into groups of {k}")
    ordered = sort_items(items)
    if weight is WeightKind.ABS and k == 2:
        total = _pair_total_abs(ordered)
    elif weight is WeightKind.ABS:
        total = _chunk_total_abs(list(map(_score_of, ordered)), k)
    else:
        total = _chunk_total_sq(list(map(_score_of, ordered)), k)
    return KPartition.from_sorted_items(k, ordered, total, weight)


@dataclass(frozen=True)
class BalancedPartition:
    """A partition plus a member-to-slot assignment and the slot score means.

    column_assignment[i][j] is the member index (into the sorted group
    partition.tuples[i]) placed at slot j; the matching cost is untouched
    because within-distance ignores member order.
    """

    partition: KPartition
    column_assignment: tuple[tuple[int, ...], ...]
    column_means: tuple[float, ...]


def balance_columns(partition: KPartition) -> BalancedPartition:
    """Assign members to slots so running per-slot score sums stay close.

    Groups are processed in nonincreasing within-distance order (ties by the
    first member's input rank).  The first group keeps sorted order; every
    later group takes the slot permutation minimizing the spread
    max(slot sums) - min(slot sums) after placement, ties resolved by the
    lexicographically smallest permutation.  Enumerates k! permutations per
    group, so intended for the small k used in practice.
    """
    k = partition.k
    within = partition.group_within
    n = len(within)
    identity = tuple(range(k))
    if n == 0:
        return BalancedPartition(partition, (), ())

    members = partition.items()
    scores = list(map(_score_of, members))
    order = sorted(range(n), key=lambda i: (-within[i], members[i * k].input_rank))
    # permutations() yields in lexicographic order, identity first, so a
    # strict < keeps the smallest permutation among equal spreads
    candidates = [(perm, itemgetter(*perm)) for perm in permutations(identity)]
    sums = [0] * k
    assignment: list[tuple[int, ...]] = [identity] * n
    for step, idx in enumerate(order):
        group = scores[idx * k : idx * k + k]
        best_perm = best_spread = best_sums = None
        for perm, pick in candidates if step else candidates[:1]:
            trial = list(map(add, sums, pick(group)))
            spread = max(trial) - min(trial)
            if best_spread is None or spread < best_spread:
                best_perm, best_spread, best_sums = perm, spread, trial
        sums = best_sums
        assignment[idx] = best_perm
    means = tuple(s / n for s in sums)
    return BalancedPartition(partition, tuple(assignment), means)


def slot_sums(balanced: BalancedPartition) -> tuple[float, ...]:
    """Per-slot score sums implied by a balanced assignment."""
    k = balanced.partition.k
    sums = [0] * k
    for group, perm in zip(balanced.partition.tuples, balanced.column_assignment):
        scores = group.scores()
        for j in range(k):
            sums[j] += scores[perm[j]]
    return tuple(sums)


__all__ = [
    "BalancedPartition",
    "balance_columns",
    "match_line",
    "slot_sums",
]
