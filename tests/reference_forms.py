"""Hand-checked reference data for the k=3 exchange inequalities, and
reference transcriptions of library loops that were later rewritten.

Each entry maps the split (positions of the group keeping x1, out of the six
sorted values) to the expected cost-difference data.  All values were derived
by expanding cost(split) - cost(sorted split) by hand; see the test modules
for the independent expansion oracles that re-derive them.
"""

# difference forms under absolute differences, as coefficient vectors over
# (x1..x6); e.g. {1,2,4} gives 4*x4 - 4*x3
K3_ABS_FORMS = {
    (1, 2, 4): (0, 0, -4, 4, 0, 0),
    (1, 2, 5): (0, 0, -4, 2, 2, 0),
    (1, 2, 6): (0, 0, -4, 2, 2, 0),
    (1, 3, 4): (0, -2, -2, 4, 0, 0),
    (1, 3, 5): (0, -2, -2, 2, 2, 0),
    (1, 3, 6): (0, -2, -2, 2, 2, 0),
    (1, 4, 5): (0, -2, -2, 2, 2, 0),
    (1, 4, 6): (0, -2, -2, 2, 2, 0),
    (1, 5, 6): (0, -2, -2, 4, 0, 0),
}

# factor pairs under squared differences: the difference form equals
# 2 * L1 * L2; each factor is a coefficient vector, the pair is stored
# sorted so comparisons are order-insensitive.  e.g. {1,2,4} gives
# 2 * (x4 - x3) * (x6 + x5 - x2 - x1)
K3_SQ_FACTORS = {
    (1, 2, 4): ((-1, -1, 0, 0, 1, 1), (0, 0, -1, 1, 0, 0)),
    (1, 2, 5): ((-1, -1, 0, 1, 0, 1), (0, 0, -1, 0, 1, 0)),
    (1, 2, 6): ((-1, -1, 0, 1, 1, 0), (0, 0, -1, 0, 0, 1)),
    (1, 3, 4): ((-1, 0, -1, 0, 1, 1), (0, -1, 0, 1, 0, 0)),
    (1, 3, 5): ((-1, 0, -1, 1, 0, 1), (0, -1, 0, 0, 1, 0)),
    (1, 3, 6): ((-1, 0, -1, 1, 1, 0), (0, -1, 0, 0, 0, 1)),
    (1, 4, 5): ((-1, 0, 0, 0, 0, 1), (0, -1, -1, 1, 1, 0)),
    (1, 4, 6): ((-1, 0, 0, 0, 1, 0), (0, -1, -1, 1, 0, 1)),
    (1, 5, 6): ((-1, 0, 0, 1, 0, 0), (0, -1, -1, 0, 1, 1)),
}

# C(2k-1, k-1) for k = 2..8
ENTRY_COUNTS = {2: 3, 3: 10, 4: 35, 5: 126, 6: 462, 7: 1716, 8: 6435}


def balance_columns_reference(partition):
    """The column-balancing loop as first written: per-group costs recomputed
    with within_distance, each permutation scored by a Python-level loop.
    Returns (column_assignment, column_means) for comparison with
    linematch.matching.balance_columns."""
    from itertools import permutations

    from linematch.core import within_distance

    k = partition.k
    tuples = partition.tuples
    n = len(tuples)
    identity = tuple(range(k))
    if n == 0:
        return (), ()

    order = sorted(
        range(n),
        key=lambda i: (
            -within_distance(tuples[i], partition.weight),
            tuples[i].members[0].input_rank,
        ),
    )
    sums = [0] * k
    assignment = [identity] * n
    first = True
    for idx in order:
        scores = tuples[idx].scores()
        if first:
            best_perm = identity
            first = False
        else:
            best_perm = None
            best_spread = None
            for perm in permutations(range(k)):
                trial = [sums[j] + scores[perm[j]] for j in range(k)]
                spread = max(trial) - min(trial)
                if best_spread is None or spread < best_spread:
                    best_spread = spread
                    best_perm = perm
        for j in range(k):
            sums[j] += scores[best_perm[j]]
        assignment[idx] = tuple(best_perm)
    means = tuple(s / n for s in sums)
    return tuple(assignment), means
