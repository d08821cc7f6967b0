"""Machine-checked exchange inequalities behind sort-and-chunk optimality.

For a sorted 2k-tuple x_1 <= ... <= x_2k, splitting into the first and last
k elements must beat every other split into two k-groups.  This module
proves that mechanically for a given k and weight kind by enumerating all
C(2k-1, k-1) splits (the one containing x_1, times the complement) and
certifying that the symbolic cost difference

    cost(split) - cost(sorted split)

is nonnegative on the cone of nondecreasing real vectors:

* absolute differences: the difference is a linear form with integer
  coefficients; it is nonnegative on the sorted cone exactly when its
  coefficients sum to zero and every suffix sum is nonnegative (Abel
  summation against the cone generators (0,..,0,1,..,1)).  Per split, one
  O(k) pass builds the coefficients and one scan of the suffix sums gives
  the verdict; the sums are kept as the proof when an entry is built.

* squared differences: the difference is a quadratic form with no square
  terms.  Off the diagonal its matrix holds [same half of the sorted split]
  - [same group of the split], so each row is one of four, set by the row's
  half and group; the matrix is assembled from those four rows.  It factors
  as 2 * L1 * L2 with integer linear forms of disjoint support, recovered
  exactly from the rank-2 matrix and re-verified entrywise, one whole row
  against u_i*v + v_i*u at a time.  Each factor then passes the suffix-sum
  criterion (or, negated, its mirror: total zero and every suffix sum <= 0),
  from one suffix-sum pass per factor.

All arithmetic is exact (Python integers).  A certificate is a re-checkable
artifact: every collected entry carries the split, the difference form, and
the proof data needed to re-verify it independently.  Uncollected runs build
an entry only for a split that fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, combinations, compress, count, islice, repeat
from operator import attrgetter, getitem, mod, mul, sub
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


def _nonnegative_on_cone(sums_from_end: list[int]) -> bool:
    """The suffix-sum criterion, given S_m, ..., S_1 (S_1 is the total):
    total 0 and every suffix sum >= 0."""
    return sums_from_end[-1] == 0 and min(sums_from_end) >= 0


def _nonpositive_on_cone(sums_from_end: list[int]) -> bool:
    """The criterion for the negated form: total 0 and every suffix sum <= 0."""
    return sums_from_end[-1] == 0 and max(sums_from_end) <= 0


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


def _abs_coeffs_into(coeffs: list[int], subset: Sequence[int], sign: int) -> None:
    k = len(subset)
    for j, pos in enumerate(subset):
        coeffs[pos - 1] += sign * (2 * j - k + 1)


def _sq_matrix(k: int, first: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Matrix of the sq difference form for the split whose first group holds
    the 1-based positions `first`.

    M[a][b] = [a, b in the same half of the sorted split] - [a, b in the same
    group of the split], and the diagonal is 0 (each position has k-1
    partners in its group and in its half).  Row a therefore depends only on
    a's half and a's group, so the matrix is assembled from four row tuples,
    one per (half, group) class.
    """
    m = 2 * k
    in_first = [0] * m
    for p in first:
        in_first[p - 1] = 1
    low = (1,) * k + (0,) * k
    high = (0,) * k + (1,) * k
    low_rows = (tuple(map(sub, in_first, high)), tuple(map(sub, low, in_first)))
    high_rows = (tuple(map(sub, in_first, low)), tuple(map(sub, high, in_first)))
    return tuple(map(low_rows.__getitem__, in_first[:k])) + tuple(
        map(high_rows.__getitem__, in_first[k:])
    )


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


def _cone_sign(u: Sequence[int], v: Sequence[int]) -> int:
    """+1 if both factors are nonnegative on the sorted cone, -1 if both
    negated factors are, else 0.

    A form is nonnegative on the cone iff its total is 0 and every suffix sum
    is >= 0, so its negation is iff the total is 0 and every suffix sum is
    <= 0: one suffix-sum pass per factor decides both orientations.
    """
    su = list(accumulate(reversed(u)))
    sv = list(accumulate(reversed(v)))
    if _nonnegative_on_cone(su) and _nonnegative_on_cone(sv):
        return 1
    if _nonpositive_on_cone(su) and _nonpositive_on_cone(sv):
        return -1
    return 0


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
    if weight is WeightKind.ABS:
        m = 2 * k
        low = tuple(range(1, k + 1))
        high = tuple(range(k + 1, m + 1))
        coeffs = [0] * m
        _abs_coeffs_into(coeffs, first, +1)
        _abs_coeffs_into(coeffs, second, +1)
        _abs_coeffs_into(coeffs, low, -1)
        _abs_coeffs_into(coeffs, high, -1)
        return LinearForm(tuple(coeffs))
    return QuadraticForm(_sq_matrix(k, first))


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


def certify_abs(
    k: int,
    exploratory: bool = False,
    collect: bool = True,
    *,
    progress: Progress | None = None,
) -> ExchangeCertificate:
    """Certify sorted-split minimality for absolute differences at size k.

    Checks the suffix-sum criterion on every split's difference form.
    Entry count is C(2k-1, k-1); per split, one O(k) walk builds the
    coefficients and one scan of the suffix sums gives the verdict, so cost
    roughly quadruples per increment of k.  With collect=False an entry (and
    its suffix-sum proof) is built only for a failing split.
    """
    check_certified_k(k, WeightKind.ABS, exploratory)
    m = 2 * k
    # weight of the j-th smallest member of a k-group in its cost
    w = [2 * j - k + 1 for j in range(k)]
    neg_base = [-c for c in w] * 2  # minus the sorted split's cost
    neg_base[0] += w[0]  # x_1 leads the first group of every split
    w_companions = w[:0:-1]  # largest companion first
    others = frozenset(range(2, m + 1))

    entries: list[CertificateEntry] = []
    failures: list[CertificateEntry] = []
    for batch in _split_batches(k, progress):
        for companions in batch:
            coeffs = neg_base.copy()
            for pos, c in zip(companions, w_companions):
                coeffs[pos - 1] += c
            # complement walk: positions m..2 not in companions, in order
            ptr = 0
            j = k - 1
            for pos in range(m, 1, -1):
                if ptr < k - 1 and companions[ptr] == pos:
                    ptr += 1
                else:
                    coeffs[pos - 1] += w[j]
                    j -= 1
            ok = _suffix_criterion(coeffs)
            if ok and not collect:
                continue
            entry = CertificateEntry(
                (1,) + companions[::-1],
                tuple(sorted(others.difference(companions))),
                LinearForm(tuple(coeffs)),
                SuffixSumProof(tuple(_suffix_sums(coeffs))),
                ok,
                "" if ok else "suffix-sum criterion failed",
            )
            if collect:
                entries.append(entry)
            if not ok:
                failures.append(entry)
    entries.reverse()
    failures.sort(key=attrgetter("first"))  # lexicographic split order
    return ExchangeCertificate(
        k=k,
        weight=WeightKind.ABS,
        entry_count=math.comb(m - 1, k - 1),
        verified=not failures,
        entries=tuple(entries),
        failures=tuple(failures),
    )


def certify_sq(
    k: int,
    exploratory: bool = False,
    collect: bool = True,
    *,
    progress: Progress | None = None,
) -> ExchangeCertificate:
    """Certify sorted-split minimality for squared differences at size k.

    Every split's quadratic difference form is assembled from its four
    distinct rows, factored as 2 * L1 * L2 with exact integer arithmetic
    (re-verified entrywise, row by row), and both factors must pass the
    suffix-sum criterion, in one orientation or both negated.  A failed
    factorization or a factor that is not nonnegative on the sorted cone
    marks the entry failed.  With collect=False no form, proof or entry is
    built for a split that verifies.
    """
    check_certified_k(k, WeightKind.SQ, exploratory)
    m = 2 * k
    others = frozenset(range(2, m + 1))
    entries: list[CertificateEntry] = []
    failures: list[CertificateEntry] = []
    for batch in _split_batches(k, progress):
        for companions in batch:
            mat = _sq_matrix(k, (1,) + companions)
            pair = _factor_pair(mat)
            sign = 0 if pair is None else _cone_sign(*pair)
            if sign and not collect:
                continue
            proof: FactorProof | None = None
            reason = ""
            if pair is None:
                reason = "no factorization into two linear forms"
            elif not sign:
                reason = "factor not nonnegative on the sorted cone"
            else:
                u, v = pair
                if sign < 0:
                    u = tuple(-c for c in u)
                    v = tuple(-c for c in v)
                left, right = sorted((u, v))
                proof = FactorProof(LinearForm(left), LinearForm(right))
            entry = CertificateEntry(
                (1,) + companions[::-1],
                tuple(sorted(others.difference(companions))),
                QuadraticForm(mat),
                proof,
                bool(sign),
                reason,
            )
            if collect:
                entries.append(entry)
            if not sign:
                failures.append(entry)
    entries.reverse()
    failures.sort(key=attrgetter("first"))  # lexicographic split order
    return ExchangeCertificate(
        k=k,
        weight=WeightKind.SQ,
        entry_count=math.comb(m - 1, k - 1),
        verified=not failures,
        entries=tuple(entries),
        failures=tuple(failures),
    )


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
