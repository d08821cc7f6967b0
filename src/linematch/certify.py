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
  summation against the cone generators (0,..,0,1,..,1)).

* squared differences: the difference is a quadratic form with no square
  terms; it factors as 2 * L1 * L2 with integer linear forms of disjoint
  support, recovered exactly from the rank-2 coefficient matrix and
  re-verified by expansion, after which each factor passes the same
  suffix-sum criterion.

All arithmetic is exact (Python integers).  A certificate is a re-checkable
artifact: every entry carries the split, the difference form, and the proof
data needed to re-verify it independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence, Union

from .core import (
    CERTIFIED_MAX_K,
    CertifiedRangeError,
    ValidationError,
    WeightKind,
)
from .oracle import iter_tuple_partitions


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
        sums = []
        s = 0
        for c in reversed(self.coeffs):
            s += c
            sums.append(s)
        return tuple(reversed(sums))

    def is_cone_nonnegative(self) -> bool:
        """True iff the form is >= 0 for every nondecreasing real vector.

        Exact criterion: total coefficient sum is zero (the all-ones line is
        in the cone both ways) and every suffix sum is nonnegative (the
        step-vector generators).
        """
        sums = self.suffix_sums()
        return sums[0] == 0 and all(s >= 0 for s in sums)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __neg__(self) -> "LinearForm":
        return LinearForm(tuple(-c for c in self.coeffs))

    def render(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            body = f"x{i + 1}" if mag == 1 else f"{mag}*x{i + 1}"
            terms.append(f"{sign}{body}")
        if not terms:
            return "0"
        out = " ".join(terms)
        return out[1:] if out.startswith("+") else out


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


def _sq_matrix_into(matrix: list[list[int]], subset: Sequence[int], sign: int) -> None:
    for a_idx in range(len(subset)):
        a = subset[a_idx] - 1
        for b_idx in range(a_idx + 1, len(subset)):
            b = subset[b_idx] - 1
            matrix[a][a] += sign
            matrix[b][b] += sign
            matrix[a][b] -= sign
            matrix[b][a] -= sign


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


def _iter_splits(k: int) -> Iterable[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every split of positions 1..2k into two k-groups, the first holding 1."""
    one_based = (1).__add__
    for first, second in iter_tuple_partitions(2 * k, k):
        yield tuple(map(one_based, first)), tuple(map(one_based, second))


def _colex_key(entry: CertificateEntry) -> tuple[int, ...]:
    return tuple(reversed(entry.first))


def _gate(k: int, weight: WeightKind, exploratory: bool) -> None:
    cap = CERTIFIED_MAX_K[weight]
    if k < 2:
        raise ValidationError(f"group size must be at least 2, got {k}")
    if k > cap and not exploratory:
        raise CertifiedRangeError(
            f"certification for weight '{weight.value}' is capped at k<={cap}; "
            "pass exploratory=True to run beyond the verified range"
        )


def certify_abs(
    k: int, exploratory: bool = False, collect: bool = True
) -> ExchangeCertificate:
    """Certify sorted-split minimality for absolute differences at size k.

    Checks the suffix-sum criterion on every split's difference form.
    Entry count is C(2k-1, k-1); per-entry work is O(k), so cost roughly
    quadruples per increment of k.
    """
    _gate(k, WeightKind.ABS, exploratory)
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


def certify_sq(
    k: int, exploratory: bool = False, collect: bool = True
) -> ExchangeCertificate:
    """Certify sorted-split minimality for squared differences at size k.

    Every split's quadratic difference form is factored as 2 * L1 * L2 with
    exact integer arithmetic (verified by re-expansion), and both factors
    must pass the suffix-sum criterion.  A failed factorization or a factor
    that is not nonnegative on the sorted cone marks the entry failed.
    """
    _gate(k, WeightKind.SQ, exploratory)
    entries: list[CertificateEntry] = []
    failures: list[CertificateEntry] = []
    count = 0
    for first, second in _iter_splits(k):
        count += 1
        form = difference_form(k, first, WeightKind.SQ)
        pair = form.factor_as_double_product()
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


def _render_tuple(values: Iterable[int]) -> str:
    return "(" + ",".join(str(v) for v in values) + ")"


def _render_entry(entry: CertificateEntry) -> str:
    split = (
        "{"
        + ",".join(str(p) for p in entry.first)
        + "|"
        + ",".join(str(p) for p in entry.second)
        + "}"
    )
    if isinstance(entry.proof, SuffixSumProof):
        proof = f"suffix_sums={_render_tuple(entry.proof.suffix_sums)}"
    elif isinstance(entry.proof, FactorProof):
        proof = (
            f"factors={entry.proof.scale}*({entry.proof.left.render()})"
            f"*({entry.proof.right.render()})"
            f" suffix_sums={_render_tuple(entry.proof.left.suffix_sums())}"
            f";{_render_tuple(entry.proof.right.suffix_sums())}"
        )
    else:
        proof = "no-proof"
    status = "OK" if entry.ok else f"FAILED({entry.reason})"
    return f"{split} :: {entry.form.render()} :: {proof} {status}"


def certificate_render(cert: ExchangeCertificate) -> str:
    """Stable text rendering: header, then one line per entry in
    colexicographic split order."""
    lines = [
        f"k={cert.k} weight={cert.weight.value} entries={cert.entry_count} "
        f"verified={'true' if cert.verified else 'false'}"
    ]
    if cert.entries:
        lines.extend(_render_entry(e) for e in cert.entries)
    else:
        if cert.entry_count:
            lines.append(f"({cert.entry_count} entries not collected)")
        lines.extend(_render_entry(e) for e in cert.failures)
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
