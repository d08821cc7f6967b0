"""Optimal k-group partitioning of scored items by sort-and-chunk.

Sorting the scores and cutting consecutive blocks of k minimizes the summed
within-group distance for both weight kinds and every k >= 2 (see the
certify module for the machine-checked exchange inequalities that back
this).  Runtime is the sort: the partition adopts the sorted list (or,
for a `Cohort`, the sorted columns), costs each group on first read, and
sums the total once, on first read, from those stored group costs.

Also provides the column-balancing pass that reassigns members to treatment
slots so per-slot score means come out nearly equal, without touching the
matching cost.  Each group gets the lexicographically first slot
permutation of minimal spread, found exactly without enumerating the k!
permutations: the anti-sorted assignment (ascending slot sums, descending
scores) sets a floor that monotone float rounding keeps valid, and a
slot-by-slot descent tested against that floor finds the permutation in
O(k^3) per group.  A group of equal scores places the same values under
every permutation, so it keeps the identity without a floor: that is ~94%
of the groups of k=4 on one-decimal ages, while on U(0,1) scores at k=4
~95% of the groups descend.
"""

from __future__ import annotations

from math import isfinite
from operator import add
from typing import Sequence

from .core import (
    DEFAULT_BUDGET,
    Cohort,
    EnumerationBudgetError,
    KPartition,
    Record,
    ScoredItem,
    SizeError,
    ValidationError,
    WeightKind,
    check_certified_k,
    sort_items,
    within_distance,  # unused; perfbench/trace.py rebinds this name to count calls
)


def match_line(
    items: Sequence[ScoredItem] | Cohort,
    k: int,
    weight: WeightKind,
) -> KPartition:
    """Partition items into groups of k with minimal total within-distance.

    Sorts by (score, input_rank) and takes consecutive blocks of k; nothing
    else runs over the items, so the sort is the whole cost.  A `Cohort`
    is sorted by one stable index sort on its score column, which is the
    same order because its input ranks are its row order; the partition
    holds the sorted columns and builds no item.  The group
    costs (`KPartition.group_within`) are computed on first read, and the
    total (`KPartition.total_within`) is summed once from them.  The result is
    provably minimal for every k >= 2 (certify.certify_general).  O(N log N).

    Raises SizeError if len(items) is not divisible by k, and
    ValidationError for k below 2.
    """
    check_certified_k(k)
    if len(items) % k != 0:
        raise SizeError(f"{len(items)} items cannot be split into groups of {k}")
    if isinstance(items, Cohort):
        ids, scores = items.ids, items.scores
        if not all(map(isfinite, scores)):
            bad = next(i for i, s in enumerate(scores) if not isfinite(s))
            raise ValidationError(
                f"non-finite score {scores[bad]!r} for id {ids[bad]!r}")
        order = sorted(range(len(scores)), key=scores.__getitem__)
        return KPartition.from_columns(
            k, list(map(ids.__getitem__, order)),
            list(map(scores.__getitem__, order)), order, None, weight)
    return KPartition.from_sorted_items(k, sort_items(items), None, weight)


class BalancedPartition(Record):
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
    lexicographically smallest permutation (as the strict `<` of a loop
    over all k! permutations in lexicographic order would pick).

    The minimum is found without enumerating permutations.  Pairing the
    slots in ascending order of sum with the members in descending order of
    score (the anti-sorted assignment) minimizes the largest slot sum and
    maximizes the smallest one at once, by the exchange argument of the
    rearrangement inequality.  Rounded addition and subtraction are monotone,
    so the argument holds in floats too: no permutation's spread is below
    the anti-sorted spread, the floor.  The identity is kept when it meets
    the floor; otherwise slots are filled in order, each with the smallest
    free member whose prefix still admits a completion at the floor.  The
    best completion of a prefix is the anti-sorted assignment of the rest,
    so that test is exact and needs no backtracking: O(k^3) per group.  A
    non-finite floor (overflowing slot sums) makes every spread inf or NaN,
    none below another, so the identity is kept.  So does a group of equal
    scores, with no floor computed: every permutation places the same
    values (up to the sign of a zero), so none has a smaller spread.

    Raises EnumerationBudgetError, before any group is placed, when k^3
    exceeds DEFAULT_BUDGET (k >= 216).
    """
    k = partition.k
    if k**3 > DEFAULT_BUDGET:
        raise EnumerationBudgetError(
            f"balancing groups of {k} takes {k**3} steps per group, "
            f"over budget {DEFAULT_BUDGET}")
    within = partition.group_within
    n = len(within)
    identity = tuple(range(k))
    if n == 0:
        return BalancedPartition(partition, (), ())

    _, scores, ranks = partition.columns()
    groups = list(zip(*[iter(scores)] * k))  # scores per group
    first_ranks = ranks[::k]
    order = sorted(range(n), key=first_ranks.__getitem__)
    order.sort(key=within.__getitem__, reverse=True)
    sums = list(map(add, [0] * k, groups[order[0]]))
    assignment: list[tuple[int, ...]] = [identity] * n
    for idx in order[1:]:
        group = groups[idx]
        trial = list(map(add, sums, group))
        if group.count(group[0]) == k:
            sums = trial
            continue
        spread = max(trial) - min(trial)
        ascending = sorted(sums)
        descending = sorted(group, reverse=True)
        floor = list(map(add, ascending, descending))
        best = max(floor) - min(floor)
        if spread == best or not isfinite(best):
            sums = trial
        else:
            assignment[idx], sums = _descend(sums, group, best, ascending, descending)
    means = tuple(s / n for s in sums)
    return BalancedPartition(partition, tuple(assignment), means)


def _descend(sums, group, best, ascending, descending):
    """The lexicographically first permutation placing `group` on the slots
    with spread `best`, the finite anti-sorted floor, and the new slot sums.

    `ascending` holds the slot sums and `descending` the group's scores,
    both sorted; the two lists are consumed.
    """
    k = len(sums)
    free = list(range(k))
    perm = []
    placed = []
    for j in range(k - 1):
        s = sums[j]
        ascending.remove(s)
        # the last free member needs no test: the prefix admits a completion
        for m in free[:-1]:
            rest = descending.copy()
            rest.remove(group[m])
            trial = list(map(add, ascending, rest))
            trial += placed
            trial.append(s + group[m])
            if max(trial) - min(trial) == best:
                break
        else:
            m = free[-1]
        free.remove(m)
        descending.remove(group[m])
        perm.append(m)
        placed.append(s + group[m])
    perm.append(free[0])
    placed.append(sums[-1] + group[free[0]])
    return tuple(perm), placed


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
