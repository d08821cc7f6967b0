"""Machine-checked exchange inequalities behind sort-and-chunk optimality.

For a sorted 2k-tuple x_1 <= ... <= x_2k, the sorted split into lo = {1..k}
and hi = {k+1..2k} must beat every other split into two k-groups.  A split
is named by its group A holding x_1; B is the other.  Its symbolic cost
difference cost(split) - cost(sorted split) must be nonnegative on the cone
of nondecreasing vectors, where a linear form is nonnegative exactly when
its coefficients sum to zero and every suffix sum is nonnegative (Abel
summation against the cone generators (0,..,0,1,..,1)).

Scanned from x_2k down, a split passes states (c, t): c is a suffix length
(1..2k), t the number of A's members in it.  Each suffix sum a proof needs
depends on the state alone, so a table of the O(k^2) reachable states
decides all C(2k-1, k-1) splits: a split verifies iff every state on its
path does.

* abs: the difference is a linear form with suffix sum W(t) + W(c-t) - W(h)
  - W(c-h) at (c, t), h = min(c, k), where W(t) sums the top t weights
  w_j = 2j - k + 1 of a group's cost sum(w_j * x_(j)).  An entry reads its
  suffix sums along its path; its coefficients are their differences.
* sq: the difference is the quadratic form with zero diagonal and
  M[a][b] = [same half] - [same group].  It is 2 * u.x * v.x with
  u = 1_hi - 1_A and v = 1_A - 1_lo: M and u v^T + v u^T depend only on the
  (half, group) classes of a and b, so the identity is checked once over the
  4 x 4 classes (the sorted split holds two, every other split all four).
  The factors' suffix sums at (c, t) are h - t and t - (c - h).

certify_general proves both for every k: the abs suffix sum at (c, t) is
2 * (h - t) * (t - (c - h)), twice the product of the sq factors' sums.

A table of more than DEFAULT_BUDGET states is refused before it is built.
An uncollected certificate that no state fails enumerates nothing.
Otherwise the splits are walked as joins of a top half (positions
k+1..2k) and a bottom half (1..k), each tabulated once from the table, and
an entry is built for every split (collected) or every failing one.  All
arithmetic is exact (Python integers); an entry carries the split, the
difference form and the proof that re-verifies it independently: an abs
entry's suffix sums, or an sq entry's factors (u, v), which re-expand to its
matrix as u v^T + v u^T.

Certificate text has one renderer, which builds no entry object: the same
walk over halves tabulated as texts, each line joined from its split's two
halves.  certificate_chunks streams every line; certificate_render joins
them, or lists only an uncollected certificate's failing lines.
"""

from __future__ import annotations

import math
from itertools import accumulate, compress, islice, product
from operator import add, attrgetter, getitem, not_, sub
from typing import Callable, Iterator, Sequence, Union

from .core import (
    DEFAULT_BUDGET,
    EnumerationBudgetError,
    Record,
    ValidationError,
    WeightKind,
    check_certified_k,
)


def _suffix_sums(coeffs: Sequence[int]) -> list[int]:
    """[S_1, ..., S_m] with S_j = sum of coeffs from position j on."""
    sums = list(accumulate(reversed(coeffs)))
    sums.reverse()
    return sums


def _term(c: int, body: str) -> str:
    """The term c*body as a form's text holds it, after a space: " -x3",
    " +2*x1*x4", and "" for c = 0."""
    if not c:
        return ""
    mag = abs(c)
    return (" -" if c < 0 else " +") + (body if mag == 1 else f"{mag}*{body}")


def _lead(terms: str) -> str:
    """A form's text from its terms: the first one's space and plus sign
    dropped, "0" for no terms."""
    return terms[1:].removeprefix("+") if terms else "0"


class _TermText(dict):
    """_term(c, body) keyed by (*positions, c), body x<p> for one position
    and x<p>*x<q> for two: (3, -1) -> " -x3", (1, 4, 2) -> " +2*x1*x4";
    memoized over one rendering pass."""

    def __missing__(self, key: tuple[int, ...]) -> str:
        *positions, c = key
        text = self[key] = _term(c, "*".join(map("x{}".format, positions)))
        return text


class LinearForm(Record):
    """Integer linear form sum(coeffs[i] * x_{i+1}) over sorted variables."""

    coeffs: tuple[int, ...]

    @classmethod
    def zero(cls, m: int) -> "LinearForm":
        return cls((0,) * m)

    def evaluate(self, xs: Sequence[float]) -> float:
        if len(xs) != len(self.coeffs):
            raise ValidationError(
                f"form over {len(self.coeffs)} variables evaluated on {len(xs)}"
            )
        return sum(c * x for c, x in zip(self.coeffs, xs))

    def suffix_sums(self) -> tuple[int, ...]:
        """(S_1, ..., S_m) with S_j = sum of coeffs from position j on."""
        return tuple(_suffix_sums(self.coeffs))

    def is_cone_nonnegative(self) -> bool:
        """True iff the form is >= 0 for every nondecreasing real vector.

        Exact criterion: total coefficient sum is zero (the all-ones line is
        in the cone both ways) and every suffix sum is nonnegative (the
        step-vector generators).
        """
        sums = _suffix_sums(self.coeffs)
        return not sums or (sums[0] == 0 and min(sums) >= 0)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __neg__(self) -> "LinearForm":
        return LinearForm(tuple(-c for c in self.coeffs))


class QuadraticForm(Record):
    """Integer quadratic form x^T M x with a symmetric coefficient matrix.

    An sq entry's form is re-verified by re-expanding its FactorProof
    (u, v) as M = u v^T + v u^T.
    """

    matrix: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.matrix)

    def evaluate(self, xs: Sequence[float]) -> float:
        if len(xs) != self.m:
            raise ValidationError(
                f"form over {self.m} variables evaluated on {len(xs)}"
            )
        total = 0
        for i, row in enumerate(self.matrix):
            xi = xs[i]
            total += xi * sum(c * x for c, x in zip(row, xs))
        return total

    def is_zero(self) -> bool:
        return all(c == 0 for row in self.matrix for c in row)


DifferenceForm = Union[LinearForm, QuadraticForm]


class SuffixSumProof(Record):
    """Nonnegativity witness for a linear difference form."""

    suffix_sums: tuple[int, ...]


class FactorProof(Record):
    """Witness 2 * left * right for a quadratic difference form, both
    factors nonnegative on the sorted cone."""

    left: LinearForm
    right: LinearForm
    scale: int = 2


class CertificateEntry(Record):
    first: tuple[int, ...]
    second: tuple[int, ...]
    form: DifferenceForm
    proof: SuffixSumProof | FactorProof | None
    ok: bool
    reason: str = ""


class ExchangeCertificate(Record):
    """Verification record for all two-group splits of a sorted 2k-tuple.

    entry_count is always the full C(2k-1, k-1); `entries` is only populated
    when collected (large k would not fit in memory).  `failures` always
    holds every non-verifying entry, so a falsification is never silent.
    """

    k: int
    weight: WeightKind
    entry_count: int
    verified: bool
    entries: tuple[CertificateEntry, ...]
    failures: tuple[CertificateEntry, ...]


def _abs_weights(k: int) -> list[int]:
    """w[j], the weight of a k-group's (j+1)-th smallest member in its cost."""
    return [2 * j - k + 1 for j in range(k)]


def _fails_criterion(last: bool, *sums: int) -> bool:
    """The suffix-sum criterion broken at one state: a negative suffix sum,
    or a nonzero total at the full length (`last`)."""
    return min(sums) < 0 or (last and any(sums))


def _abs_states(k: int) -> list[list[int]]:
    """T[c-1][t], the suffix sum over the last c positions of the abs
    difference form of a split with t members of A there.  Unreachable
    states (c - t > k, or t = k below c = 2k) read 0 for any weights."""
    top = [0, *accumulate(reversed(_abs_weights(k)))]  # W(0..k)
    table = []
    for c in range(1, 2 * k + 1):
        h = min(c, k)
        table.append([top[t] + top[c - t] - top[h] - top[c - h] if c - t <= k
                      else 0 for t in range(h + 1)])
    return table


# sq class of a position: 2 * [in hi] + [in A], so 0 = (lo, B), 1 = (lo, A),
# 2 = (hi, B), 3 = (hi, A); the factors' coefficients by class
_SQ_U = (0, -1, 1, 0)  # u = 1_hi - 1_A
_SQ_V = (-1, 0, 0, 1)  # v = 1_A - 1_lo


def _sq_cell(p: int, q: int) -> int:
    """M[a][b] for a in class p, b in class q: [same half] - [same group]."""
    return int((p ^ q) < 2) - int((p ^ q) & 1 == 0)


def _sq_factor_sums(k: int, c: int, t: int) -> tuple[int, int]:
    """Suffix sums of u and v over the last c positions, t of them in A."""
    h = min(c, k)
    return h - t, t - (c - h)


def _class_matrix(classes: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The sq matrix for positions of the given classes, from one row tuple
    per class."""
    rows = [tuple([_sq_cell(p, q) for q in classes]) for p in range(4)]
    return tuple(map(rows.__getitem__, classes))


def _identity_fails(classes: Sequence[int]) -> bool:
    """Whether M = u v^T + v u^T fails for positions of the given classes."""
    return any(_sq_cell(p, q) != _SQ_U[p] * _SQ_V[q] + _SQ_V[p] * _SQ_U[q]
               for p in classes for q in classes)


def _sq_states(k: int) -> list[list[int]]:
    """Verdict code of each state: 0 holds, 1 a factor breaks the suffix-sum
    criterion, 2 the class identity M = u v^T + v u^T fails.  The identity
    is charged to c = k, where t = 0 only on the sorted split's path."""
    identity = (2 * _identity_fails((1, 2)), 2 * _identity_fails(range(4)))
    m = 2 * k
    table = []
    for c in range(1, m + 1):
        row = [int(c - t <= k and _fails_criterion(c == m, *_sq_factor_sums(k, c, t)))
               for t in range(min(c, k) + 1)]
        if c == k:
            row = [max(code, identity[t > 0]) for t, code in enumerate(row)]
        table.append(row)
    return table


class GeneralProof(Record):
    """Claims proving the sorted split cheapest for every k >= 2, checked."""

    checks: tuple[tuple[str, bool], ...]
    verified: bool

    def render(self) -> str:
        lines = [f"{claim}: {'OK' if ok else 'FAILED'}" for claim, ok in self.checks]
        return "\n".join(["exchange proof for every k >= 2; state (c,t), h = min(c,k)",
                          *lines, f"verified={str(self.verified).lower()}"])


def certify_general() -> GeneralProof:
    """Check for every k what the per-k certificates check state by state.
    W, T and the factor sums have degree <= 2 in each of k, c and t on each
    region c <= k and c > k, so a 3x3x3 grid per region proves them, and so
    the factors' signs, for all k.  The class identity is free of k."""
    ks = (8, 9, 10)
    regions = (((2, 3, 4), (0, 1, 2)), ((11, 12, 13), (5, 6, 7)))  # all reachable
    grid = [(k, c, t, min(c, k)) for k in ks for cs, ts in regions for c in cs for t in ts]
    checks = (
        ("W(t) = t(k-t) sums the top t abs weights 2j-k+1", all(
            w == t * (k - t) for k in ks
            for t, w in enumerate(accumulate(reversed(_abs_weights(k)), initial=0)))),
        ("sq factor sums u = h-t, v = t-(c-h); abs suffix sum T = 2*u*v", all(
            _sq_factor_sums(k, c, t) == (h - t, t - c + h)
            and _abs_states(k)[c - 1][t] == 2 * (h - t) * (t - c + h)
            for k, c, t, h in grid)),
        ("sq matrix M = u v^T + v u^T over the 4x4 (half, group) classes",
         not _identity_fails(range(4))),
        ("u, v >= 0 on reachable c-h <= t <= h, both 0 at c = 2k",
         1 not in {code for k in ks for row in _sq_states(k) for code in row}),
    )
    return GeneralProof(checks, all(ok for _, ok in checks))


def _check_bipartition(k: int, first_half: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    first = tuple(sorted(first_half))
    m = 2 * k
    if len(first) != k or len(set(first)) != k:
        raise ValidationError(f"first group must hold {k} distinct positions")
    if any(not isinstance(p, int) or p < 1 or p > m for p in first):
        raise ValidationError(f"positions must lie in 1..{m}")
    if first[0] != 1:
        raise ValidationError("position 1 must be in the first group")
    in_first = set(first)
    second = tuple(p for p in range(1, m + 1) if p not in in_first)
    return first, second


def difference_form(
    k: int, first_half: Sequence[int], weight: WeightKind
) -> DifferenceForm:
    """Symbolic cost(split) - cost(sorted split) over 2k sorted variables.

    `first_half` lists the k positions (1-based, containing 1) of the group
    that keeps x_1; the other group is the complement.  The sorted split
    {1..k | k+1..2k} yields the zero form.
    """
    first, second = _check_bipartition(k, first_half)
    m = 2 * k
    if weight is WeightKind.SQ:
        return QuadraticForm(_class_matrix(
            [2 * (p > k) + (p in first) for p in range(1, m + 1)]))
    w = _abs_weights(k)
    coeffs = [0] * m
    for group, sign in ((first, 1), (second, 1), (range(1, k + 1), -1),
                        (range(k + 1, m + 1), -1)):
        for pos, c in zip(group, w):
            coeffs[pos - 1] += sign * c
    return LinearForm(tuple(coeffs))


def _walk(
    k: int, states: list[list[int]], half: Callable
) -> Iterator[tuple[tuple, list[tuple]]]:
    """Every split as its top half (positions k+1..2k, t of them in A) and
    bottom half (1..k, k - t in A): the tops in colex order, each followed
    by the bottoms of its t in colex order, so A ascends in colex order.

    Each half is tabulated once as (code, half(positions, bits, path)):
    the largest verdict code on its part of the path, its A-membership bits
    and the t of each suffix length from its entry on (path[0] is the top's
    t in a bottom half).  Yields each top with its whole run of bottoms.
    """
    m = 2 * k

    def tabulate(positions: range, scan: tuple[int, ...], t: int) -> tuple:
        path = list(accumulate(scan, initial=t))  # scan: bits from the end
        c = m - positions[-1]
        return (max(map(getitem, states[c:c + k], path[1:])),
                half(positions, scan[::-1], path))

    bottoms: list[list[tuple]] = [[] for _ in range(k)]  # by the top's t
    for scan in product((0, 1), repeat=k - 1):  # product's order is colex
        t = k - 1 - sum(scan)
        bottoms[t].append(tabulate(range(1, k + 1), scan + (1,), t))
    for scan in islice(product((0, 1), repeat=k), (1 << k) - 1):  # t < k
        yield tabulate(range(k + 1, m + 1), scan, 0), bottoms[sum(scan)]


def _groups(positions: range, bits: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """A half's positions in A and in B."""
    return tuple(compress(positions, bits)), tuple(compress(positions, map(not_, bits)))


def _group_texts(positions: range, bits: Sequence[int]) -> tuple[tuple[int, ...], str, str]:
    """A half's positions in A, then _groups as a split's line lists them,
    the bottom's before the top's."""
    first, second = _groups(positions, bits)
    if positions[0] == 1:
        return first, ",".join(map(str, first)), "".join(map("{},".format, second))
    return first, "".join(map(",{}".format, first)), ",".join(map(str, second))


# A weight's plan at size k: (states, reasons, half, join).  states[c-1][t]
# is the verdict code of state (c, t), 0 if it holds, reasons[code] the
# failure's reason, half a half's value for _walk, led by its positions in A
# and in B, and join(bottom, top, code) a split's (form, proof) from two
# values; with `text`, the values are led by the positions in A and hold
# texts, and join gives the split's line.


def _statuses(reasons: Sequence[str]) -> list[str]:
    return ["OK", *(f"FAILED({reason})" for reason in reasons[1:])]


def _abs_plan(k: int, text: bool) -> tuple:
    table = [[0], *_abs_states(k)]  # S(c, t) = table[c][t], 0 at c = 0
    states = [[int(_fails_criterion(c == 2 * k, s)) for s in row]
              for c, row in enumerate(table[1:], 1)]
    reasons = ("", "suffix-sum criterion failed")
    status, terms = _statuses(reasons), _TermText()

    def half(positions, bits, path):
        c = 2 * k - positions[-1]
        sums = list(map(getitem, table[c:c + k + 1], path))
        coeffs = list(map(sub, sums[1:], sums))  # by suffix length
        coeffs.reverse()
        sums = sums[:0:-1]
        if text:
            return (*_group_texts(positions, bits), ",".join(map(str, sums)),
                    "".join(map(terms.__getitem__, zip(positions, coeffs))))
        return *_groups(positions, bits), tuple(sums), tuple(coeffs)

    def join(bottom, top, code):
        if text:
            return (f"{{{bottom[1]}{top[1]}|{bottom[2]}{top[2]}}} :: "
                    f"{_lead(bottom[4] + top[4])} :: "
                    f"suffix_sums=({bottom[3]},{top[3]}) {status[code]}")
        return LinearForm(bottom[3] + top[3]), SuffixSumProof(bottom[2] + top[2])

    return states, reasons, half, join


def _sq_plan(k: int, text: bool) -> tuple:
    reasons = ("", "factor not nonnegative on the sorted cone",
               "no factorization into two linear forms")
    status, terms = _statuses(reasons), _TermText()
    pair = [[_sq_cell(p, q) + _sq_cell(q, p) for q in range(4)] for p in range(4)]
    zeros = ",".join(["0"] * (2 * k))

    def half(positions, bits, path):
        hi = positions[0] > k
        classes = [2 * hi + b for b in bits]
        factors = [tuple([f[c] for c in classes]) for f in (_SQ_U, _SQ_V)]
        if not text:
            return (*_groups(positions, bits), tuple(classes), *factors)

        def row(p, c):  # x_p's terms with the half's later positions
            return "".join([terms[p, q, pair[c][d]]
                            for q, d in zip(positions, classes) if q > p])

        rows = [row(p, c) for p, c in zip(positions, classes)]
        if hi:  # and every bottom position's row, in B (0) or in A (1)
            cross = [row(p, c) for p in range(1, k + 1) for c in (0, 1)]
            rows = "".join(rows)
        else:  # the keys of its positions' rows in a top's cross rows
            cross = [2 * i + b for i, b in enumerate(bits)]
        proof = []
        for f, coeffs in zip((_SQ_U, _SQ_V), factors):
            # a bottom's suffix sums start from the top's total, t in A
            sums = accumulate(reversed(coeffs), initial=0 if hi else
                              path[0] * f[3] + (k - path[0]) * f[2])
            proof += ["".join(map(terms.__getitem__, zip(positions, coeffs))),
                      ",".join(map(str, list(sums)[:0:-1]))]
        return (*_group_texts(positions, bits), not any(bits), rows, cross,
                "".join([_term(_sq_cell(c, c), f"x{p}^2")
                         for p, c in zip(positions, classes)]), *proof)

    def join(bottom, top, code):
        if not text:
            form = QuadraticForm(_class_matrix(bottom[2] + top[2]))
            if code:
                return form, None
            if not top[0]:  # the sorted split's zero form
                zero = LinearForm((0,) * (2 * k))
                return form, FactorProof(zero, zero)
            return form, FactorProof(LinearForm(bottom[3] + top[3]),
                                     LinearForm(bottom[4] + top[4]))
        _, b_first, b_second, _, b_rows, b_keys, b_diagonal, b_u, b_us, b_v, b_vs = bottom
        _, t_first, t_second, zero, t_rows, t_cross, t_diagonal, t_u, t_us, t_v, t_vs = top
        line = f"{{{b_first}{t_first}|{b_second}{t_second}}} :: " + _lead(
            b_diagonal + t_diagonal + "".join(map(add, b_rows, map(
                t_cross.__getitem__, b_keys))) + t_rows)
        if code:
            return f"{line} :: no-proof {status[code]}"
        if zero:
            return f"{line} :: factors=2*(0)*(0) suffix_sums=({zeros});({zeros}) OK"
        return (f"{line} :: factors=2*({_lead(b_u + t_u)})*({_lead(b_v + t_v)})"
                f" suffix_sums=({b_us},{t_us});({b_vs},{t_vs}) OK")

    return _sq_states(k), reasons, half, join


_PLANS = {WeightKind.ABS: _abs_plan, WeightKind.SQ: _sq_plan}


def _certify(k: int, weight: WeightKind, collect: bool) -> ExchangeCertificate:
    """The certificate decided by the states' verdict codes: a split's code
    is the largest on its path, 0 if it verifies.  At most DEFAULT_BUDGET
    states are tabulated and splits walked (EnumerationBudgetError before
    either), the splits only when entries are collected or some state fails."""
    cells = k * (3 * k + 5) // 2  # sum of min(c, k) + 1 over c = 1..2k
    if cells > DEFAULT_BUDGET:
        raise EnumerationBudgetError(f"certify k={k} would tabulate {cells} "
                                     f"states, over budget {DEFAULT_BUDGET}")
    states, reasons, half, entry_form = _PLANS[weight](k, False)
    total = math.comb(2 * k - 1, k - 1)
    entries: list[CertificateEntry] = []
    failures: list[CertificateEntry] = []
    if collect or any(map(any, states)):
        if total > DEFAULT_BUDGET:
            raise EnumerationBudgetError(f"certify k={k} would enumerate {total} "
                                         f"splits, over budget {DEFAULT_BUDGET}")
        for (t_code, top), bottoms in _walk(k, states, half):
            for b_code, bottom in bottoms:
                code = max(b_code, t_code)
                if code or collect:
                    entry = CertificateEntry(
                        bottom[0] + top[0], bottom[1] + top[1],
                        *entry_form(bottom, top, code), not code, reasons[code])
                    if collect:
                        entries.append(entry)
                    if code:
                        failures.append(entry)
    failures.sort(key=attrgetter("first"))  # lexicographic split order
    return ExchangeCertificate(k, weight, total, not failures, tuple(entries),
                               tuple(failures))


def certify_abs(k: int, collect: bool = True) -> ExchangeCertificate:
    """Certify sorted-split minimality for absolute differences at size k.

    Checks the suffix-sum criterion on the table of the O(k^2) states'
    suffix sums.  A collected or failing entry reads its suffix sums from
    the table along its path.  Uncollected, the splits are walked only
    when some state fails, to list every failure.  Raises
    EnumerationBudgetError instead of tabulating or walking more than
    DEFAULT_BUDGET states or splits.
    """
    check_certified_k(k)
    return _certify(k, WeightKind.ABS, collect)


def certify_sq(k: int, collect: bool = True) -> ExchangeCertificate:
    """Certify sorted-split minimality for squared differences at size k.

    Checks the class identity of the factors u = 1_hi - 1_A, v = 1_A - 1_lo
    once and their suffix sums on the O(k^2) states.  A collected or failing
    entry carries its matrix; a verified one also the factors (u, v), which
    are in sorted order since u_1 = -1 < 0 = v_1 (zero for the sorted
    split's zero form).  Walks the splits and raises EnumerationBudgetError
    as certify_abs does.
    """
    check_certified_k(k)
    return _certify(k, WeightKind.SQ, collect)


def _header(cert: ExchangeCertificate) -> str:
    return (f"k={cert.k} weight={cert.weight.value} entries={cert.entry_count} "
            f"verified={'true' if cert.verified else 'false'}")


def certificate_render(cert: ExchangeCertificate) -> str:
    """Stable text of the certificate of cert.k and cert.weight, with cert's
    verdict in the header.  Collected, it is certificate_chunks' text without
    its final newline: one line per split in colexicographic order.
    Uncollected, the header and an "(N entries not collected)" line are
    followed only by the failing lines, in lexicographic order of A; the
    splits are walked only if cert has failures."""
    if cert.entries:
        return "".join(certificate_chunks(cert))[:-1]
    lines = [_header(cert), f"({cert.entry_count} entries not collected)"]
    if cert.failures:
        states, _, half, line = _PLANS[cert.weight](cert.k, True)
        failing = [(bottom[0] + top[0], line(bottom, top, code))
                   for (t_code, top), bottoms in _walk(cert.k, states, half)
                   for b_code, bottom in bottoms if (code := max(b_code, t_code))]
        lines += [text for _, text in sorted(failing)]
    return "\n".join(lines)


_CHUNK_LINES = 1024


def certificate_chunks(cert: ExchangeCertificate) -> Iterator[str]:
    """The text of the collected certificate of cert.k and cert.weight,
    with cert's verdict in the header, each line ending in a newline:
    yielded in chunks of about _CHUNK_LINES lines, each line joined from the
    texts of its split's two halves, so no entry, form or proof object is
    built."""
    states, _, half, line = _PLANS[cert.weight](cert.k, True)
    lines = [_header(cert)]
    for (t_code, top), bottoms in _walk(cert.k, states, half):
        lines += [line(bottom, top, max(b_code, t_code)) for b_code, bottom in bottoms]
        if len(lines) >= _CHUNK_LINES:
            yield "\n".join(lines) + "\n"
            lines = []
    if lines:
        yield "\n".join(lines) + "\n"


__all__ = [
    "CertificateEntry",
    "ExchangeCertificate",
    "FactorProof",
    "GeneralProof",
    "LinearForm",
    "QuadraticForm",
    "SuffixSumProof",
    "certificate_chunks",
    "certificate_render",
    "certify_abs",
    "certify_general",
    "certify_sq",
    "difference_form",
]
