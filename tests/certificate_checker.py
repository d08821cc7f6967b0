"""Re-check `linematch certify` text from the text alone.

Shares no code with linematch: every claim a line makes is recomputed from
the definitions.  Usage:

    linematch certify --k 6 | python tests/certificate_checker.py
    python tests/certificate_checker.py CERTIFICATE.txt

Exit 0 and one summary line on stdout when the certificate proves that no
split of a sorted 2k-tuple into two k-groups beats the sorted split; exit 1
and the errors on stderr otherwise.

What is checked, for a collected certificate of k and weight abs or sq:
* the header's `entries` is C(2k-1, k-1), the number of splits with x_1 in
  the first group, and there is one line per split, in colex order of A;
* each line `{A|B} :: form :: proof STATUS` names a split of 1..2k into two
  k-groups, A holding 1, and its form equals cost(A, B) - cost(sorted
  split), recomputed symbolically over sorted variables x_1 <= ... <= x_2k
  from the pairwise cost: sum over a group's pairs i < j of x_j - x_i (abs)
  or (x_j - x_i)^2 (sq);
* the proof shows the form is nonnegative on every nondecreasing vector.  A
  linear form is, exactly when its coefficients sum to zero and every suffix
  sum is nonnegative.  abs: the printed suffix sums are the form's, all
  >= 0, total 0.  sq: the printed `s*(L1)*(L2)` expands back to the form
  with s > 0, and both factors' printed suffix sums are theirs, all >= 0,
  total 0;
* every status is OK and the header says verified=true.
"""

from __future__ import annotations

import math
import re
import sys
from collections import Counter
from itertools import combinations

_HEADER = re.compile(r"k=(\d+) weight=(abs|sq) entries=(\d+) verified=(true|false)")
_LINE = re.compile(r"\{([\d,]+)\|([\d,]+)\} :: (.+?) :: (.+) (OK|FAILED\(.*\))")
_TERM = re.compile(r"([+-]?)(?:(\d+)\*)?x(\d+)(?:(\^2)|\*x(\d+))?")
_SUMS = r"\((-?\d+(?:,-?\d+)*)\)"
_ABS_PROOF = re.compile(rf"suffix_sums={_SUMS}")
_SQ_PROOF = re.compile(rf"factors=(\d+)\*\((.+?)\)\*\((.+?)\) suffix_sums={_SUMS};{_SUMS}")


def parse_form(text: str) -> dict[tuple[int, ...], int]:
    """A form's nonzero coefficients by monomial: (i,) for x_i, (i, j) with
    i <= j for x_i*x_j, (i, i) for x_i^2.  Raises ValueError on bad text."""
    form: Counter = Counter()
    if text != "0":
        for n, token in enumerate(text.split(" ")):
            match = _TERM.fullmatch(token)
            if not match or (n and not match[1]):
                raise ValueError(f"bad term {token!r}")
            sign, mag, i, square, j = match.groups()
            c = int(mag or 1) * (-1 if sign == "-" else 1)
            variables = (int(i), int(i)) if square else (int(i), int(j)) if j else (int(i),)
            form[tuple(sorted(variables))] += c
    return {key: c for key, c in form.items() if c}


def pairwise_difference(k: int, weight: str, a: list[int], b: list[int]) -> dict:
    """cost(a, b) - cost(lo, hi) by the pairwise definition, as parse_form
    returns a form."""
    form: Counter = Counter()
    m = 2 * k
    for sign, groups in ((1, (a, b)), (-1, (range(1, k + 1), range(k + 1, m + 1)))):
        for group in groups:
            for i, j in combinations(sorted(group), 2):  # x_i <= x_j
                if weight == "abs":
                    form[(j,)] += sign
                    form[(i,)] -= sign
                else:
                    form[(i, i)] += sign
                    form[(j, j)] += sign
                    form[(i, j)] -= 2 * sign
    return {key: c for key, c in form.items() if c}


def _sums_errors(name: str, coeffs: dict, printed: str, m: int) -> list[str]:
    """Whether the printed suffix sums are those of the linear form `coeffs`
    over x_1..x_m, and prove it nonnegative on the sorted cone."""
    if any(not 1 <= key[0] <= m for key in coeffs):
        return [f"{name} has a variable outside x1..x{m}"]
    sums, total = [], 0
    for position in range(m, 0, -1):
        total += coeffs.get((position,), 0)
        sums.append(total)
    sums.reverse()
    got = [int(s) for s in printed.split(",")]
    if got != sums:
        return [f"{name} suffix sums ({printed}) are not the form's {tuple(sums)}"]
    if min(sums) < 0 or sums[0] != 0:
        return [f"{name} suffix sums ({printed}) do not prove it nonnegative"]
    return []


def _expand(scale: int, left: dict, right: dict) -> dict:
    """scale * left * right for linear forms, as parse_form returns a form."""
    form: Counter = Counter()
    for (i,), c in left.items():
        for (j,), d in right.items():
            form[tuple(sorted((i, j)))] += scale * c * d
    return {key: c for key, c in form.items() if c}


def check_line(k: int, weight: str, line: str) -> tuple[tuple[int, ...] | None, list[str]]:
    """The line's A, or None if unreadable, and every error in the line."""
    match = _LINE.fullmatch(line)
    if not match:
        return None, ["not a `{A|B} :: form :: proof STATUS` line"]
    a_text, b_text, form_text, proof, status = match.groups()
    a = [int(p) for p in a_text.split(",")]
    b = [int(p) for p in b_text.split(",")]
    m = 2 * k
    if (len(a) != k or len(b) != k or a != sorted(a) or b != sorted(b)
            or sorted(a + b) != list(range(1, m + 1)) or a[0] != 1):
        return None, [f"{{{a_text}|{b_text}}} is not a split of 1..{m} into two "
                      f"ascending {k}-groups with 1 in the first"]
    errors = []
    if status != "OK":
        errors.append(f"status {status}")
    try:
        form = parse_form(form_text)
    except ValueError as exc:
        return tuple(a), errors + [f"form: {exc}"]
    if form != pairwise_difference(k, weight, a, b):
        errors.append(f"form {form_text} is not cost(split) - cost(sorted split)")
    if weight == "abs":
        proof_match = _ABS_PROOF.fullmatch(proof)
        if not proof_match:
            return tuple(a), errors + [f"bad abs proof {proof!r}"]
        if any(len(key) != 1 for key in form):
            return tuple(a), errors + ["abs form is not linear"]
        errors += _sums_errors("form", form, proof_match[1], m)
        return tuple(a), errors
    proof_match = _SQ_PROOF.fullmatch(proof)
    if not proof_match:
        return tuple(a), errors + [f"bad sq proof {proof!r}"]
    scale, left_text, right_text, left_sums, right_sums = proof_match.groups()
    try:
        left, right = parse_form(left_text), parse_form(right_text)
    except ValueError as exc:
        return tuple(a), errors + [f"factor: {exc}"]
    if any(len(key) != 1 for key in (*left, *right)):
        return tuple(a), errors + ["a factor is not linear"]
    if int(scale) <= 0 or _expand(int(scale), left, right) != form:
        errors.append(f"factors {scale}*({left_text})*({right_text}) do not expand "
                      "to the form")
    errors += _sums_errors("first factor", left, left_sums, m)
    errors += _sums_errors("second factor", right, right_sums, m)
    return tuple(a), errors


def check_certificate(text: str) -> list[str]:
    """Every error in one certificate's text; [] accepts it."""
    lines = text.splitlines()
    header = _HEADER.fullmatch(lines[0]) if lines else None
    if not header:
        return ["line 1: not a `k=K weight=W entries=N verified=V` header"]
    k, weight, entries, verified = int(header[1]), header[2], int(header[3]), header[4]
    errors = []
    expected = math.comb(2 * k - 1, k - 1) if k else 0
    if entries != expected:
        errors.append(f"line 1: entries={entries}, but k={k} has {expected} splits")
    if lines[1:2] == [f"({entries} entries not collected)"]:
        return errors + ["line 2: the certificate is not collected; nothing to check"]
    if len(lines) - 1 != entries:
        errors.append(f"line 1: entries={entries}, but {len(lines) - 1} lines follow")
    if verified != "true":
        errors.append("line 1: verified=false")
    last = None
    for n, line in enumerate(lines[1:], 2):
        a, line_errors = check_line(k, weight, line)
        errors += [f"line {n}: {e}" for e in line_errors]
        if a is not None:
            key = a[::-1]  # colex order compares the largest members first
            if last is not None and key <= last:
                errors.append(f"line {n}: split out of colex order or repeated")
            last = key
    return errors


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1:
        print("usage: certificate_checker.py [CERTIFICATE]", file=sys.stderr)
        return 2
    if args:
        with open(args[0], encoding="utf-8") as f:
            text = f.read()
    else:
        text = sys.stdin.read()
    errors = check_certificate(text)
    for error in errors[:20]:
        print(error, file=sys.stderr)
    if len(errors) > 20:
        print(f"... and {len(errors) - 20} more errors", file=sys.stderr)
    if errors:
        return 1
    header, *lines = text.splitlines()
    print(f"{header}: {len(lines)} lines re-checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
