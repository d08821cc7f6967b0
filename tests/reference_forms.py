"""Hand-checked reference data for the k=3 exchange inequalities, and
reference transcriptions of library loops that were later rewritten.

Each entry maps the split (positions of the group keeping x1, out of the six
sorted values) to the expected cost-difference data.  All values were derived
by expanding cost(split) - cost(sorted split) by hand; see the test modules
for the independent expansion oracles that re-derive them.
"""

import functools
import math
import operator
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Sequence

from linematch.core import (
    EnumerationBudgetError,
    KPartition,
    KTuple,
    ScoredItem,
    SizeError,
    WeightKind,
    check_certified_k,
    sort_items,
)
from linematch.certify import (
    CertificateEntry,
    ExchangeCertificate,
    FactorProof,
    LinearForm,
    QuadraticForm,
    SuffixSumProof,
    _check_bipartition,
)
from linematch.heuristics import EuclideanPoint, _best_two_triples
from linematch.multipartite import Matching, MultipartiteInstance
from linematch.oracle import (
    DEFAULT_BUDGET,
    iter_tuple_partitions,
    partition_count,
)

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


# The scalar cost forms one group at a time, abs as the gap form: the
# batched kernel linematch.core.within_columns must return the same bits for
# every row, and the reference searches below cost their groups with them.
def abs_within_scores(scores: Sequence[float]) -> float:
    """Sum of |x_j - x_i| over all pairs of a nondecreasing score sequence.

    Uses the gap form sum(i * (k - i) * (x_i - x_{i-1}), i=1..k-1), which
    equals the O(k^2) pairwise definition on sorted input, added left to
    right from int 0.
    """
    k = len(scores)
    total = 0
    for i in range(1, k):
        total = total + i * (k - i) * (scores[i] - scores[i - 1])
    return total


def sq_within_scores(scores: Sequence[float]) -> float:
    """Sum of (x_j - x_i)**2 over all pairs; order-independent."""
    total = 0
    for i in range(len(scores) - 1):
        xi = scores[i]
        for xj in scores[i + 1 :]:
            d = xj - xi
            total += d * d
    return total


def within_scores(scores: Sequence[float], weight: WeightKind) -> float:
    """Within-distance of a nondecreasing score sequence under `weight`."""
    if weight is WeightKind.ABS:
        return abs_within_scores(scores)
    return sq_within_scores(scores)


def pairwise_exact(scores: Sequence[float], weight: WeightKind):
    """The pairwise definition of a group's cost in exact rational
    arithmetic, as a Fraction."""
    diffs = [Fraction(b) - Fraction(a) for a, b in combinations(scores, 2)]
    if weight is WeightKind.ABS:
        return sum(map(abs, diffs))
    return sum(d * d for d in diffs)


def abs_error_bound(k: int) -> Fraction:
    """Relative error bound of the abs gap form of a k-group: each of its
    k - 1 nonnegative terms passes at most k roundings (its gap, its weight
    and the later additions), so a float cost is within
    gamma_k = k*u / (1 - k*u), u = 2^-53, of the exact cost relative to it:
    within about k units in the last place, at any offset."""
    u = Fraction(1, 2**53)
    return k * u / (1 - k * u)


# The multipartite weights as first written, a second kernel beside
# within_columns: the assignment oracle's edge rows must equal edge_weight bit
# for bit, and a matched triple's weight stays within the kernel's error
# bound of tuple_weight.
def edge_weight(weight: WeightKind, a: float, b: float) -> float:
    if weight is WeightKind.ABS:
        return abs(a - b)
    d = a - b
    return d * d


def tuple_weight(weight: WeightKind, values: Sequence[float]) -> float:
    """Weight of one matched pair or triple (all cyclic edges for a triple)."""
    if len(values) == 2:
        return edge_weight(weight, values[0], values[1])
    a, b, c = values
    return (
        edge_weight(weight, a, b)
        + edge_weight(weight, b, c)
        + edge_weight(weight, c, a)
    )


def balance_columns_reference(partition):
    """The column-balancing loop as first written: per-group costs recomputed
    with within_scores, each permutation scored by a Python-level loop.
    Returns (column_assignment, column_means) for comparison with
    linematch.matching.balance_columns."""
    from itertools import permutations

    k = partition.k
    tuples = partition.tuples
    n = len(tuples)
    identity = tuple(range(k))
    if n == 0:
        return (), ()

    order = sorted(
        range(n),
        key=lambda i: (
            -within_scores(tuples[i].scores(), partition.weight),
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


# The exact searches as each caller first wrote them out, one hand-written
# enumeration per caller, kept verbatim as references: the shared
# branch-and-bound enumerator (linematch.oracle.min_partition) and permutation
# search must return the same groups with bit-equal costs.


def brute_force_partition_reference(
    items: Sequence[ScoredItem],
    k: int,
    weight: WeightKind,
    budget: int = DEFAULT_BUDGET,
) -> KPartition:
    """Exact minimal k-group partition by exhaustive search.

    Among equal-cost minima returns the lexicographically smallest by sorted
    group contents.  Refuses instances whose partition count exceeds the
    budget.
    """
    if len(items) % k != 0:
        raise SizeError(f"{len(items)} items cannot be split into groups of {k}")
    n = len(items) // k
    count = partition_count(k, n)
    if count > budget:
        raise EnumerationBudgetError(
            f"instance too large for oracle: {count} partitions exceeds budget {budget}"
        )
    ordered = sort_items(items)
    scores = [it.score for it in ordered]

    best_cost = None
    best_groups: tuple[tuple[int, ...], ...] | None = None

    def rec(unused: tuple[int, ...], partial: float, acc: tuple[tuple[int, ...], ...]):
        nonlocal best_cost, best_groups
        if not unused:
            if best_cost is None or partial < best_cost:
                best_cost = partial
                best_groups = acc
            return
        anchor = unused[0]
        rest = unused[1:]
        for companions in combinations(rest, k - 1):
            group = (anchor,) + companions
            cost = partial + within_scores([scores[i] for i in group], weight)
            # group costs are nonnegative, so an incumbent-matching partial
            # can at best tie, and ties never replace the first minimum
            if best_cost is not None and cost >= best_cost:
                continue
            chosen = set(companions)
            remaining = tuple(i for i in rest if i not in chosen)
            rec(remaining, cost, acc + (group,))

    rec(tuple(range(len(ordered))), 0, ())
    tuples = [KTuple(tuple(ordered[i] for i in group)) for group in best_groups]
    return KPartition(k, tuples, best_cost, weight)

def _bipartite_min_assignment_reference(cost: list[list[float]]) -> tuple[tuple[int, ...], float]:
    n = len(cost)
    best: list = [None, None]

    def rec(i: int, used: list[bool], partial: float, perm: list[int]):
        if best[0] is not None and partial > best[0]:
            return
        if i == n:
            if best[0] is None or partial < best[0]:
                best[0] = partial
                best[1] = tuple(perm)
            return
        row = cost[i]
        for j in range(n):
            if not used[j]:
                used[j] = True
                perm.append(j)
                rec(i + 1, used, partial + row[j], perm)
                perm.pop()
                used[j] = False

    rec(0, [False] * n, 0, [])
    return best[1], best[0]

def brute_force_assignment_reference(instance: MultipartiteInstance,
                                     budget: int = DEFAULT_BUDGET) -> Matching:
    """Exact minimal perfect matching by permutation enumeration.

    Refuses an instance whose (n!)^(parts - 1) assignments exceed the
    budget; ties broken by the lexicographically smallest permutation (pair
    of permutations for three parts).  Matched tuples are listed against
    part 0 in input order.
    """
    n = instance.n
    w = instance.weight
    parts = instance.parts
    count = math.factorial(n) ** (len(parts) - 1)
    if count > budget:
        raise EnumerationBudgetError(
            f"instance too large for oracle: {count} assignments exceeds budget {budget}"
        )
    if len(parts) == 2:
        xs = instance.scores(0)
        ys = instance.scores(1)
        cost = [[edge_weight(w, x, y) for y in ys] for x in xs]
        perm, total = _bipartite_min_assignment_reference(cost)
        return Matching(tuple((i, perm[i]) for i in range(n)), total)

    xs = instance.scores(0)
    ys = instance.scores(1)
    zs = instance.scores(2)
    ab = [[edge_weight(w, x, y) for y in ys] for x in xs]
    bc = [[edge_weight(w, y, z) for z in zs] for y in ys]
    ca = [[edge_weight(w, z, x) for x in xs] for z in zs]

    best: list = [None, None, None]

    def rec_tau(i: int, sigma: tuple[int, ...], used: list[bool],
                partial: float, tau: list[int]):
        if best[0] is not None and partial > best[0]:
            return
        if i == len(sigma):
            if best[0] is None or partial < best[0]:
                best[0] = partial
                best[1] = sigma
                best[2] = tuple(tau)
            return
        b = sigma[i]
        for j in range(len(sigma)):
            if not used[j]:
                used[j] = True
                tau.append(j)
                rec_tau(i + 1, sigma, used, partial + bc[b][j] + ca[j][i], tau)
                tau.pop()
                used[j] = False

    def rec_sigma(i: int, used: list[bool], partial: float, sigma: list[int]):
        if best[0] is not None and partial > best[0]:
            return
        if i == n:
            rec_tau(0, tuple(sigma), [False] * n, partial, [])
            return
        for j in range(n):
            if not used[j]:
                used[j] = True
                sigma.append(j)
                rec_sigma(i + 1, used, partial + ab[i][j], sigma)
                sigma.pop()
                used[j] = False

    rec_sigma(0, [False] * n, 0, [])
    sigma, tau = best[1], best[2]
    return Matching(tuple((i, sigma[i], tau[i]) for i in range(n)), best[0])

# The point-based distance helpers the heuristics called before they read
# one math.dist table per contraction level.
def _dist(p: EuclideanPoint, q: EuclideanPoint) -> float:
    return math.dist(p.coords, q.coords)


def _triple_cost(points: Sequence[EuclideanPoint], triple: Sequence[int]) -> float:
    a, b, c = (points[i] for i in triple)
    return _dist(a, b) + _dist(b, c) + _dist(c, a)


def exact_pairing_reference(points: Sequence[EuclideanPoint]) -> list[tuple[int, int]]:
    n = len(points)
    d = [[_dist(points[i], points[j]) for j in range(n)] for i in range(n)]
    best: list = [None, None]

    def rec(unused: tuple[int, ...], partial: float, acc: tuple[tuple[int, int], ...]):
        if not unused:
            if best[0] is None or partial < best[0]:
                best[0] = partial
                best[1] = acc
            return
        if best[0] is not None and partial > best[0]:
            return
        a = unused[0]
        rest = unused[1:]
        for idx, b in enumerate(rest):
            remaining = rest[:idx] + rest[idx + 1 :]
            rec(remaining, partial + d[a][b], acc + ((a, b),))

    rec(tuple(range(n)), 0.0, ())
    return list(best[1])

def best_two_triples_reference(
    points: Sequence[EuclideanPoint], members: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...], float]:
    """Cheapest split of six point indices into two triples (first member
    anchored; ties go to the first combination in lexicographic order)."""
    members = sorted(members)
    anchor = members[0]
    rest = members[1:]
    best = None
    best_split = None
    for companions in combinations(rest, 2):
        t1 = (anchor,) + companions
        t2 = tuple(x for x in rest if x not in companions)
        c = _triple_cost(points, t1) + _triple_cost(points, t2)
        if best is None or c < best:
            best = c
            best_split = (t1, t2)
    return best_split[0], best_split[1], best

# The pairwise refinement of the hierarchical heuristic as first written,
# every pair of triples re-split again on every sweep: the one in
# linematch.heuristics, which skips pairs whose triples did not change, must
# end at the same triples.
def refine_triples_reference(
    dist: list[list[float]], triples: list[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    def cost(triple):
        a, b, c = triple
        return dist[a][b] + dist[b][c] + dist[c][a]

    improved = True
    while improved:
        improved = False
        for i in range(len(triples)):
            for j in range(i + 1, len(triples)):
                cur = cost(triples[i]) + cost(triples[j])
                t1, t2, c = _best_two_triples(dist, triples[i] + triples[j])
                if c < cur:
                    triples[i], triples[j] = t1, t2
                    improved = True
    return triples


def local_search_2tuple_reference(
    partition: KPartition,
    weight: WeightKind,
) -> KPartition:
    """Re-split pairs of groups until no pair's sorted split is cheaper.

    Scans group pairs in index order, sweep after sweep; each pair's 2k
    members, sorted by (score, rank), are split into the lower and the
    upper k, applied only when strictly cheaper than the pair's current
    cost.  Every pair is judged on every sweep, also pairs that do not
    interleave, whose sorted split has their own scores.
    """
    k = partition.k
    groups = [list(t.members) for t in partition.tuples]

    def split_cost(members):
        return within_scores([m.score for m in members], weight)

    costs = [split_cost(g) for g in groups]
    improved = True
    while improved:
        improved = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                merged = sorted(groups[i] + groups[j], key=lambda m: m.sort_key())
                g1, g2 = merged[:k], merged[k:]
                c1, c2 = split_cost(g1), split_cost(g2)
                if c1 + c2 < costs[i] + costs[j]:
                    groups[i], groups[j], costs[i], costs[j] = g1, g2, c1, c2
                    improved = True
    tuples = [KTuple(tuple(g)) for g in groups]
    return KPartition(k, tuples, functools.reduce(operator.add, costs, 0), weight)


def subset_costs_reference(
    scores: Sequence[float], k: int, weight: WeightKind
) -> Iterator[tuple[tuple[int, ...], float]]:
    """Each k-subset of the positions of `scores`, in `combinations` order,
    with its cost: the exhaustive scan of each `greedy_match_reference` step."""
    for combo in combinations(range(len(scores)), k):
        yield combo, within_scores(sorted(scores[i] for i in combo), weight)


def greedy_match_reference(
    items: Sequence[ScoredItem],
    k: int,
    weight: WeightKind,
) -> KPartition:
    """Repeatedly extract the cheapest k-subset of the remaining items.

    Ties go to the lexicographically smallest member ranks.  Not optimal in
    general; kept as the falsifiable baseline.
    """
    if len(items) % k != 0:
        raise SizeError(f"{len(items)} items cannot be split into groups of {k}")
    remaining = sorted(items, key=lambda it: it.input_rank)
    tuples = []
    total = 0
    while remaining:
        best_cost = None
        best_combo = None
        for combo, cost in subset_costs_reference([it.score for it in remaining],
                                                  k, weight):
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_combo = combo
        group = KTuple.of(remaining[i] for i in best_combo)
        tuples.append(group)
        total += best_cost
        chosen = set(best_combo)
        remaining = [it for i, it in enumerate(remaining) if i not in chosen]
    return KPartition(k, tuples, total, weight)


# The certifiers as first written: the sq form built by pairwise scalar
# updates, factored with m^2 scalar re-expansion checks, each factor negated
# to test the flipped orientation, and an entry built for every split.  The
# row-class constructor and one-pass checks in linematch.certify must return equal
# forms, factorizations and certificates.


def _abs_coeffs_into(coeffs: list[int], subset: Sequence[int], sign: int) -> None:
    k = len(subset)
    for j, pos in enumerate(subset):
        coeffs[pos - 1] += sign * (2 * j - k + 1)


def _sq_matrix_into(matrix: list[list[int]], subset: Sequence[int], sign: int) -> None:
    for a_idx in range(len(subset)):
        a = subset[a_idx] - 1
        for b_idx in range(a_idx + 1, len(subset)):
            b = subset[b_idx] - 1
            matrix[a][a] += sign
            matrix[b][b] += sign
            matrix[a][b] -= sign
            matrix[b][a] -= sign


def difference_form_reference(k, first_half, weight):
    """Symbolic cost(split) - cost(sorted split) over 2k sorted variables.

    `first_half` lists the k positions (1-based, containing 1) of the group
    that keeps x_1; the other group is the complement.  The sorted split
    {1..k | k+1..2k} yields the zero form.
    """
    first, second = _check_bipartition(k, first_half)
    m = 2 * k
    low = tuple(range(1, k + 1))
    high = tuple(range(k + 1, m + 1))
    if weight is WeightKind.ABS:
        coeffs = [0] * m
        _abs_coeffs_into(coeffs, first, +1)
        _abs_coeffs_into(coeffs, second, +1)
        _abs_coeffs_into(coeffs, low, -1)
        _abs_coeffs_into(coeffs, high, -1)
        return LinearForm(tuple(coeffs))
    matrix = [[0] * m for _ in range(m)]
    _sq_matrix_into(matrix, first, +1)
    _sq_matrix_into(matrix, second, +1)
    _sq_matrix_into(matrix, low, -1)
    _sq_matrix_into(matrix, high, -1)
    return QuadraticForm(tuple(tuple(row) for row in matrix))


def factor_as_double_product_reference(self):
    """Recover integer (u, v) with M = u v^T + v u^T, i.e. form = 2*u.x*v.x.

    Exchange difference forms have zero diagonal, which forces the two
    factors to use disjoint variables; the matrix then contains a rank-1
    block u (column) times v (row), recovered with exact integer
    arithmetic and re-verified entrywise.  Returns None when no such
    factorization exists.
    """
    m = self.m
    mat = self.matrix
    if self.is_zero():
        z = LinearForm.zero(m)
        return z, z
    if any(mat[i][i] != 0 for i in range(m)):
        return None
    r = next(i for i in range(m) if any(mat[i]))
    v_support = [j for j in range(m) if mat[r][j] != 0]
    j0 = v_support[0]
    u_support = [i for i in range(m) if mat[i][j0] != 0]
    if set(u_support) & set(v_support):
        return None
    g = math.gcd(*(abs(mat[i][j0]) for i in u_support))
    u = [0] * m
    for i in u_support:
        u[i] = mat[i][j0] // g
    u_r = u[r]
    v = [0] * m
    for j in v_support:
        q, rem = divmod(mat[r][j], u_r)
        if rem:
            return None
        v[j] = q
    for i in range(m):
        ui, vi = u[i], v[i]
        row = mat[i]
        for j in range(m):
            if row[j] != ui * v[j] + vi * u[j]:
                return None
    return LinearForm(tuple(u)), LinearForm(tuple(v))


def _iter_splits(k: int):
    """Every split of positions 1..2k into two k-groups, the first holding 1."""
    one_based = (1).__add__
    for first, second in iter_tuple_partitions(2 * k, k):
        yield tuple(map(one_based, first)), tuple(map(one_based, second))


def _colex_key(entry: CertificateEntry) -> tuple[int, ...]:
    return tuple(reversed(entry.first))


def certify_abs_reference(k: int, collect: bool = True) -> ExchangeCertificate:
    """Certify sorted-split minimality for absolute differences at size k.

    Checks the suffix-sum criterion on every split's difference form.
    Entry count is C(2k-1, k-1); per-entry work is O(k), so cost roughly
    quadruples per increment of k.
    """
    check_certified_k(k)
    m = 2 * k
    base = [0] * m
    _abs_coeffs_into(base, tuple(range(1, k + 1)), +1)
    _abs_coeffs_into(base, tuple(range(k + 1, m + 1)), +1)
    neg_base = [-c for c in base]

    entries: list[CertificateEntry] = []
    failures: list[CertificateEntry] = []
    count = 0
    first_coeff = 1 - k  # weight of x_1 inside any k-group it leads
    for companions in combinations(range(2, m + 1), k - 1):
        count += 1
        coeffs = neg_base.copy()
        coeffs[0] += first_coeff
        for j, pos in enumerate(companions):
            coeffs[pos - 1] += 2 * (j + 1) - k + 1
        # complement walk: positions 2..m not in companions, in order
        ptr = 0
        j = 0
        for pos in range(2, m + 1):
            if ptr < k - 1 and companions[ptr] == pos:
                ptr += 1
            else:
                coeffs[pos - 1] += 2 * j - k + 1
                j += 1
        s = 0
        ok = True
        for c in reversed(coeffs):
            s += c
            if s < 0:
                ok = False
                break
        if ok:
            ok = s == 0  # full pass: s is the total
        if collect or not ok:
            form = LinearForm(tuple(coeffs))
            comp_set = set(companions)
            entry = CertificateEntry(
                first=(1,) + companions,
                second=tuple(p for p in range(2, m + 1) if p not in comp_set),
                form=form,
                proof=SuffixSumProof(form.suffix_sums()),
                ok=ok,
                reason="" if ok else "suffix-sum criterion failed",
            )
            if collect:
                entries.append(entry)
            if not ok:
                failures.append(entry)
    entries.sort(key=_colex_key)
    return ExchangeCertificate(
        k=k,
        weight=WeightKind.ABS,
        entry_count=count,
        verified=not failures,
        entries=tuple(entries),
        failures=tuple(failures),
    )


def certify_sq_reference(k: int, collect: bool = True) -> ExchangeCertificate:
    """Certify sorted-split minimality for squared differences at size k.

    Every split's quadratic difference form is factored as 2 * L1 * L2 with
    exact integer arithmetic (verified by re-expansion), and both factors
    must pass the suffix-sum criterion.  A failed factorization or a factor
    that is not nonnegative on the sorted cone marks the entry failed.
    """
    check_certified_k(k)
    entries: list[CertificateEntry] = []
    failures: list[CertificateEntry] = []
    count = 0
    for first, second in _iter_splits(k):
        count += 1
        form = difference_form_reference(k, first, WeightKind.SQ)
        pair = factor_as_double_product_reference(form)
        proof: FactorProof | None = None
        ok = False
        reason = ""
        if pair is None:
            reason = "no factorization into two linear forms"
        else:
            u, v = pair
            if u.is_cone_nonnegative() and v.is_cone_nonnegative():
                pass
            elif (-u).is_cone_nonnegative() and (-v).is_cone_nonnegative():
                u, v = -u, -v
            else:
                reason = "factor not nonnegative on the sorted cone"
            if not reason:
                left, right = sorted((u, v), key=lambda f: f.coeffs)
                proof = FactorProof(left, right)
                ok = True
        entry = CertificateEntry(
            first=first, second=second, form=form, proof=proof, ok=ok, reason=reason
        )
        if collect:
            entries.append(entry)
        if not ok:
            failures.append(entry)
    entries.sort(key=_colex_key)
    return ExchangeCertificate(
        k=k,
        weight=WeightKind.SQ,
        entry_count=count,
        verified=not failures,
        entries=tuple(entries),
        failures=tuple(failures),
    )


# The match front end as first written, kept verbatim as references:
# sorting on a (score, input_rank) key tuple, and the CSV row loop calling
# len(items) and the module-level functions on every row.


def sort_items_reference(items):
    """linematch.core.sort_items with one sort on a key tuple."""
    from operator import attrgetter

    from linematch.core import ValidationError

    for it in items:
        if not math.isfinite(it.score):
            raise ValidationError(f"non-finite score {it.score!r} for id {it.id!r}")
    return sorted(items, key=attrgetter("score", "input_rank"))


def read_cohort_csv_reference(path):
    """linematch.cli.read_cohort_csv before the row loop bound its
    callables to locals.  It numbers rows, not physical lines, so a bad row
    after a quoted field that spans lines gets too small a line number."""
    import csv

    from linematch.cli import CsvError

    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise CsvError(f"cannot open {path}: {exc}") from exc
    try:
        with fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise CsvError(f"{path}: empty file, expected header 'id,score'")
            if [h.strip() for h in header] != ["id", "score"]:
                raise CsvError(
                    f"{path}: line 1: expected header 'id,score', got {','.join(header)!r}"
                )
            items = []
            seen: set[str] = set()
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 2:
                    raise CsvError(f"{path}: line {line_no}: expected 2 fields, got {len(row)}")
                item_id = row[0].strip()
                if not item_id:
                    raise CsvError(f"{path}: line {line_no}: empty id")
                if item_id in seen:
                    raise CsvError(f"{path}: line {line_no}: duplicate id {item_id!r}")
                try:
                    score = float(row[1])
                except ValueError:
                    raise CsvError(
                        f"{path}: line {line_no}: score {row[1]!r} is not a number"
                    )
                if not math.isfinite(score):
                    raise CsvError(f"{path}: line {line_no}: non-finite score {row[1]!r}")
                seen.add(item_id)
                items.append(ScoredItem(item_id, score, len(items)))
    except UnicodeDecodeError:
        with open(path, "rb") as raw:
            # the first line whose bytes do not survive a UTF-8 round trip
            line_no = next(n for n, line in enumerate(raw, start=1)
                           if line.decode("utf-8", "replace").encode() != line)
        raise CsvError(f"{path}: line {line_no}: not valid UTF-8") from None
    return items


# The match pipeline as it was before the columnar CLI, kept as a
# reference: one ScoredItem per row from read_cohort_csv_reference, the item
# sort of match_line, and the writers filling one document-sized string
# from the partition's item list.


def match_stdout_reference(argv):
    """stdout of `linematch match` for argv, as the item pipeline printed
    it; the input must be a valid cohort."""
    import csv
    import io
    import json
    from json.encoder import encode_basestring_ascii

    from linematch.cli import (
        SCHEMA_VERSION,
        _json_array,
        _json_numbers,
        build_parser,
        config_echo,
        config_from_args,
    )
    from linematch.matching import balance_columns, match_line

    cfg = config_from_args(build_parser().parse_args(argv))
    items = read_cohort_csv_reference(cfg.input)
    partition = match_line(items, cfg.k, cfg.weight)
    members = partition.items()
    slots = column_means = None
    if cfg.balance:
        balanced = balance_columns(partition)
        inverse = {perm: [perm.index(pos) for pos in range(cfg.k)]
                   for perm in set(balanced.column_assignment)}
        slots = [slot for perm in balanced.column_assignment
                 for slot in inverse[perm]]
        column_means = balanced.column_means
    within = partition.group_within
    if cfg.format == "csv":
        # "\r\n" row ends make csv.writer quote a field holding a lone "\r"
        # as well as one holding "\n"; each end is then cut to "\n"
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        lines = []
        for row in [("group", "id", "score", "slot", "within")] + [
            (i // cfg.k, m.id, m.score, "" if slots is None else slots[i],
             within[i // cfg.k])
            for i, m in enumerate(members)
        ]:
            writer.writerow(row)
            lines.append(buf.getvalue()[:-2] + "\n")
            buf.seek(0)
            buf.truncate()
        return "".join(lines)
    k = partition.k
    columns = [[encode_basestring_ascii(m.id) for m in members],
               _json_numbers(m.score for m in members)]
    member = '        {\n          "id": %s,\n          "score": %s'
    if slots is not None:
        columns.append(slots)
        member += ',\n          "slot": %s'
    member += "\n        }"
    template = ('    {\n      "index": %s,\n      "members": [\n'
                + ",\n".join([member] * k)
                + '\n      ],\n      "within": %s\n    }')
    n, run = partition.n, 2 + k * len(columns)
    fields = [None] * (n * run)
    fields[0::run] = range(n)
    for pos in range(k):
        for c, column in enumerate(columns):
            fields[1 + pos * len(columns) + c :: run] = column[pos::k]
    fields[run - 1 :: run] = _json_numbers(within)
    groups = ",\n".join([template] * n) % tuple(fields)
    head = json.dumps(
        {"schema_version": SCHEMA_VERSION, "config": config_echo(cfg)}, indent=2
    )
    parts = [head[: -len("\n}")], ',\n  "groups": ', _json_array(groups, "  "),
             ',\n  "total_within": ', *_json_numbers([partition.total_within])]
    if column_means is not None:
        means = ",\n".join("    " + x for x in _json_numbers(column_means))
        parts += [',\n  "column_means": ', _json_array(means, "  ")]
    parts.append("\n}\n")
    return "".join(parts)
