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

An uncollected certificate that no state fails enumerates nothing.
Otherwise each split's verdict is read from the same table, and an entry is
built for every split (collected) or every failing one.  All arithmetic is
exact (Python integers); an entry carries the split, the difference form and
the proof (suffix sums, or the factors) that re-verify it independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, combinations, compress, count, islice, repeat
from operator import add, attrgetter, getitem, mod, mul, sub
from typing import Callable, Iterable, Iterator, Sequence, Union

from .core import ValidationError, WeightKind, check_certified_k

# A certifier given a `progress` callback calls it every PROGRESS_EVERY splits
# with (splits done, total splits).
PROGRESS_EVERY = 1 << 20
Progress = Callable[[int, int], None]


def _suffix_sums(coeffs: Sequence[int]) -> list[int]:
    """[S_1, ..., S_m] with S_j = sum of coeffs from position j on."""
    sums = list(accumulate(reversed(coeffs)))
    sums.reverse()
    return sums


def _suffix_criterion(coeffs: Sequence[int]) -> bool:
    """The suffix-sum criterion on c_1..c_m: total 0 and every suffix sum
    >= 0, scanned from c_m and stopped at the first negative sum."""
    s = 0
    for c in reversed(coeffs):
        s += c
        if s < 0:
            return False
    return s == 0


class _IntText(dict):
    """str(n) for each int n, memoized over one rendering pass."""

    def __missing__(self, n: int) -> str:
        text = self[n] = str(n)
        return text


class _TermText(dict):
    """Signed term of a linear form keyed by (position, coefficient), e.g.
    (3, -1) -> "-x3", (3, 2) -> "+2*x3", and "" for a zero coefficient;
    memoized over one rendering pass."""

    def __missing__(self, key: tuple[int, int]) -> str:
        position, c = key
        if c == 0:
            text = ""
        else:
            mag = abs(c)
            body = f"x{position}" if mag == 1 else f"{mag}*x{position}"
            text = ("-" if c < 0 else "+") + body
        self[key] = text
        return text


def _render_linear(coeffs: Sequence[int], terms: _TermText) -> str:
    out = " ".join(filter(None, map(terms.__getitem__, enumerate(coeffs, 1))))
    if not out:
        return "0"
    return out[1:] if out[0] == "+" else out


@dataclass(frozen=True)
class LinearForm:
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

    def total(self) -> int:
        return sum(self.coeffs)

    def suffix_sums(self) -> tuple[int, ...]:
        """(S_1, ..., S_m) with S_j = sum of coeffs from position j on."""
        return tuple(_suffix_sums(self.coeffs))

    def is_cone_nonnegative(self) -> bool:
        """True iff the form is >= 0 for every nondecreasing real vector.

        Exact criterion: total coefficient sum is zero (the all-ones line is
        in the cone both ways) and every suffix sum is nonnegative (the
        step-vector generators).
        """
        return _suffix_criterion(self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __neg__(self) -> "LinearForm":
        return LinearForm(tuple(-c for c in self.coeffs))

    def render(self) -> str:
        return _render_linear(self.coeffs, _TermText())


@dataclass(frozen=True)
class QuadraticForm:
    """Integer quadratic form x^T M x with a symmetric coefficient matrix."""

    matrix: tuple[tuple[int, ...], ...]

    @classmethod
    def zero(cls, m: int) -> "QuadraticForm":
        return cls(tuple((0,) * m for _ in range(m)))

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

    def factor_as_double_product(self) -> tuple[LinearForm, LinearForm] | None:
        """Recover integer (u, v) with M = u v^T + v u^T, i.e. form = 2*u.x*v.x.

        Exchange difference forms have zero diagonal, which forces the two
        factors to use disjoint variables; the matrix then contains a rank-1
        block u (column) times v (row), recovered with exact integer
        arithmetic and re-verified entrywise, each row against
        u_i*v + v_i*u.  Returns None when no such factorization exists.
        """
        pair = _factor_pair(self.matrix)
        if pair is None:
            return None
        return LinearForm(pair[0]), LinearForm(pair[1])

    def render(self) -> str:
        terms = []
        for i in range(self.m):
            c = self.matrix[i][i]
            if c:
                sign = "-" if c < 0 else "+"
                mag = abs(c)
                body = f"x{i + 1}^2" if mag == 1 else f"{mag}*x{i + 1}^2"
                terms.append(f"{sign}{body}")
        for p in range(self.m):
            for q in range(p + 1, self.m):
                c = self.matrix[p][q] + self.matrix[q][p]
                if c:
                    sign = "-" if c < 0 else "+"
                    mag = abs(c)
                    body = (
                        f"x{p + 1}*x{q + 1}"
                        if mag == 1
                        else f"{mag}*x{p + 1}*x{q + 1}"
                    )
                    terms.append(f"{sign}{body}")
        if not terms:
            return "0"
        out = " ".join(terms)
        return out[1:] if out.startswith("+") else out


DifferenceForm = Union[LinearForm, QuadraticForm]


@dataclass(frozen=True)
class SuffixSumProof:
    """Nonnegativity witness for a linear difference form."""

    suffix_sums: tuple[int, ...]


@dataclass(frozen=True)
class FactorProof:
    """Witness 2 * left * right for a quadratic difference form, both
    factors nonnegative on the sorted cone."""

    left: LinearForm
    right: LinearForm
    scale: int = 2


@dataclass(frozen=True)
class CertificateEntry:
    first: tuple[int, ...]
    second: tuple[int, ...]
    form: DifferenceForm
    proof: SuffixSumProof | FactorProof | None
    ok: bool
    reason: str = ""


@dataclass(frozen=True)
class ExchangeCertificate:
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


def _sq_states(k: int) -> list[list[int]]:
    """Verdict code of each state: 0 holds, 1 a factor breaks the suffix-sum
    criterion, 2 the class identity M = u v^T + v u^T fails.  The identity
    is charged to c = k, where t = 0 only on the sorted split's path."""
    def fails(classes: Sequence[int]) -> bool:
        return any(_sq_cell(p, q) != _SQ_U[p] * _SQ_V[q] + _SQ_V[p] * _SQ_U[q]
                   for p in classes for q in classes)

    identity = (2 * fails((1, 2)), 2 * fails(range(4)))
    m = 2 * k
    table = []
    for c in range(1, m + 1):
        row = [int(c - t <= k and _fails_criterion(c == m, *_sq_factor_sums(k, c, t)))
               for t in range(min(c, k) + 1)]
        if c == k:
            row = [max(code, identity[t > 0]) for t, code in enumerate(row)]
        table.append(row)
    return table


def _factor_pair(
    mat: Sequence[tuple[int, ...]]
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Coefficient tuples (u, v) with mat = u v^T + v u^T, or None.

    Rejects a nonzero diagonal, overlapping supports, a row of the v block
    that u's pivot does not divide, and any cell that differs from
    u_i*v_j + v_i*u_j.  Rows are compared whole, against one expected row
    per distinct (u_i, v_i).
    """
    m = len(mat)
    nonzero_rows = list(map(any, mat))
    if not any(nonzero_rows):
        zero = (0,) * m
        return zero, zero
    if any(map(getitem, mat, range(m))):
        return None
    r = nonzero_rows.index(True)
    row_r = mat[r]
    j0 = next(compress(count(), row_r))
    col = [row[j0] for row in mat]
    if any(map(mul, row_r, col)):  # supports overlap
        return None
    g = math.gcd(*col)
    u = [c // g for c in col]
    u_r = u[r]
    if any(map(mod, row_r, repeat(u_r))):
        return None
    v = [c // u_r for c in row_r]
    pairs = list(zip(u, v))
    # the supports are disjoint, so u_i*v + v_i*u has at most one nonzero term
    expected = {
        (ui, vi): tuple(map(mul, u, repeat(vi)) if vi else map(mul, v, repeat(ui)))
        for ui, vi in set(pairs)
    }
    if tuple(map(expected.__getitem__, pairs)) != tuple(map(tuple, mat)):
        return None
    return tuple(u), tuple(v)


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


def _split_batches(
    k: int, progress: Progress | None
) -> Iterator[Iterator[tuple[int, ...]]]:
    """The companions of x_1 in every split, each listed largest position
    first, in descending colexicographic order of the first group.

    They come in batches of PROGRESS_EVERY splits (the last one shorter);
    each batch must be used up before the next is taken.  With `progress`,
    progress(done, total) is called after each batch but the last.
    Reversed, a list of entries built in this order is in the ascending
    colex order the certificate keeps, with no sort.
    """
    total = math.comb(2 * k - 1, k - 1)
    splits = combinations(range(2 * k, 1, -1), k - 1)
    every = PROGRESS_EVERY
    for done in range(0, total, every):
        yield islice(splits, every)
        if progress is not None and done + every < total:
            progress(done + every, total)


def _certify(
    k: int,
    weight: WeightKind,
    states: list[list[int]],
    entry_form: Callable[[list[int], list[int], int], tuple],
    reasons: tuple[str, ...],
    collect: bool,
    progress: Progress | None,
) -> ExchangeCertificate:
    """The certificate decided by the states' verdict codes: a split's code
    is the largest on its path, 0 if it verifies.  Splits are enumerated
    only when entries are collected or some state fails; entry_form(bits,
    path, code) builds an entry's (form, proof) from its A-membership bits
    and its t, both by suffix length 1..2k."""
    m = 2 * k
    entries: list[CertificateEntry] = []
    failures: list[CertificateEntry] = []
    if collect or any(map(any, states)):
        others = frozenset(range(2, m + 1))
        start = [0] * (m - 1) + [1]  # x_1, scanned last, is in A
        for batch in _split_batches(k, progress):
            for companions in batch:
                bits = start.copy()
                for pos in companions:
                    bits[m - pos] = 1
                path = list(accumulate(bits))
                code = max(map(getitem, states, path))
                if code or collect:
                    entry = CertificateEntry(
                        (1,) + companions[::-1],
                        tuple(sorted(others.difference(companions))),
                        *entry_form(bits, path, code), not code, reasons[code])
                    if collect:
                        entries.append(entry)
                    if code:
                        failures.append(entry)
    entries.reverse()
    failures.sort(key=attrgetter("first"))  # lexicographic split order
    return ExchangeCertificate(k, weight, math.comb(m - 1, k - 1),
                               not failures, tuple(entries), tuple(failures))


def certify_abs(
    k: int,
    exploratory: bool = False,
    collect: bool = True,
    *,
    progress: Progress | None = None,
) -> ExchangeCertificate:
    """Certify sorted-split minimality for absolute differences at size k.

    Checks the suffix-sum criterion on the table of the O(k^2) states'
    suffix sums.  A collected or failing entry reads its suffix sums from
    the table along its path, O(k) per split.
    """
    check_certified_k(k, WeightKind.ABS, exploratory)
    table = _abs_states(k)
    states = [[int(_fails_criterion(c == 2 * k, s)) for s in row]
              for c, row in enumerate(table, 1)]

    def entry_form(bits, path, code):
        sums = list(map(getitem, table, path))  # S_2k, ..., S_1
        sums.reverse()
        # exact-size tuples: a tuple built from an iterator keeps its
        # over-allocated block, which shows in a collected run's peak RSS
        coeffs = list(map(sub, sums, sums[1:] + [0]))
        return LinearForm(tuple(coeffs)), SuffixSumProof(tuple(sums))

    return _certify(k, WeightKind.ABS, states, entry_form,
                    ("", "suffix-sum criterion failed"), collect, progress)


def certify_sq(
    k: int,
    exploratory: bool = False,
    collect: bool = True,
    *,
    progress: Progress | None = None,
) -> ExchangeCertificate:
    """Certify sorted-split minimality for squared differences at size k.

    Checks the class identity of the factors u = 1_hi - 1_A, v = 1_A - 1_lo
    once and their suffix sums on the O(k^2) states.  A collected or failing
    entry carries its matrix; a verified one also the factors, sorted (zero
    for the sorted split's zero form).
    """
    check_certified_k(k, WeightKind.SQ, exploratory)
    halves = [0] * k + [2] * k
    zero = LinearForm((0,) * (2 * k))

    def entry_form(bits, path, code):
        classes = list(map(add, halves, reversed(bits)))
        if code:
            proof = None
        elif path[k - 1]:  # A reaches into hi: not the sorted split
            left, right = sorted((tuple([_SQ_U[c] for c in classes]),
                                  tuple([_SQ_V[c] for c in classes])))
            proof = FactorProof(LinearForm(left), LinearForm(right))
        else:
            proof = FactorProof(zero, zero)
        return QuadraticForm(_class_matrix(classes)), proof

    return _certify(k, WeightKind.SQ, _sq_states(k), entry_form,
                    ("", "factor not nonnegative on the sorted cone",
                     "no factorization into two linear forms"),
                    collect, progress)


def _render_tuple(values: Iterable[int], ints: _IntText) -> str:
    return "(" + ",".join(map(ints.__getitem__, values)) + ")"


def _render_entry(entry: CertificateEntry, ints: _IntText, terms: _TermText) -> str:
    proof = entry.proof
    if isinstance(proof, SuffixSumProof):
        proof_text = "suffix_sums=" + _render_tuple(proof.suffix_sums, ints)
    elif isinstance(proof, FactorProof):
        left, right = proof.left.coeffs, proof.right.coeffs
        proof_text = (
            f"factors={proof.scale}*({_render_linear(left, terms)})"
            f"*({_render_linear(right, terms)})"
            f" suffix_sums={_render_tuple(_suffix_sums(left), ints)}"
            f";{_render_tuple(_suffix_sums(right), ints)}"
        )
    else:
        proof_text = "no-proof"
    form = entry.form
    if isinstance(form, LinearForm):
        form_text = _render_linear(form.coeffs, terms)
    else:
        form_text = form.render()
    status = "OK" if entry.ok else f"FAILED({entry.reason})"
    return (
        f"{{{','.join(map(ints.__getitem__, entry.first))}"
        f"|{','.join(map(ints.__getitem__, entry.second))}}}"
        f" :: {form_text} :: {proof_text} {status}"
    )


def certificate_render(cert: ExchangeCertificate) -> str:
    """Stable text rendering: header, then one line per entry in
    colexicographic split order."""
    lines = [
        f"k={cert.k} weight={cert.weight.value} entries={cert.entry_count} "
        f"verified={'true' if cert.verified else 'false'}"
    ]
    ints, terms = _IntText(), _TermText()
    if cert.entries:
        lines.extend(_render_entry(e, ints, terms) for e in cert.entries)
    else:
        if cert.entry_count:
            lines.append(f"({cert.entry_count} entries not collected)")
        lines.extend(_render_entry(e, ints, terms) for e in cert.failures)
    return "\n".join(lines)


__all__ = [
    "CertificateEntry",
    "ExchangeCertificate",
    "FactorProof",
    "LinearForm",
    "QuadraticForm",
    "SuffixSumProof",
    "certificate_render",
    "certify_abs",
    "certify_sq",
    "difference_form",
]
