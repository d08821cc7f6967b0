"""The independent certificate checker accepts every certificate line and
rejects corrupted ones."""

import ast
import re
from pathlib import Path

import pytest

from linematch.certify import certificate_render, certify_abs, certify_sq

import certificate_checker
from certificate_checker import check_certificate, check_line

CERTIFIERS = {"abs": certify_abs, "sq": certify_sq}


def text_of(weight, k):
    return certificate_render(CERTIFIERS[weight](k))


def test_checker_imports_nothing_from_linematch():
    tree = ast.parse(Path(certificate_checker.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert not any(name.split(".")[0] == "linematch" for name in imported)


@pytest.mark.parametrize(
    "weight,k", [("abs", k) for k in range(2, 9)] + [("sq", k) for k in range(2, 8)]
)
def test_every_line_passes(weight, k):
    assert check_certificate(text_of(weight, k)) == []


def flip_coefficient(line):
    """Negate the form's first term."""
    split, form, proof = line.split(" :: ")
    if form == "0":
        return None
    first, *rest = form.split(" ")
    first = first[1:] if first.startswith("-") else "-" + first
    return " :: ".join([split, " ".join([first, *rest]), proof])


def alter_suffix_sum(line):
    """Add 1 to the middle printed suffix sum (the first factor's, for sq)."""
    match = re.search(r"suffix_sums=\(([^)]*)\)", line)
    sums = match[1].split(",")
    middle = len(sums) // 2
    sums[middle] = str(int(sums[middle]) + 1)
    return line[:match.start(1)] + ",".join(sums) + line[match.end(1):]


def alter_factor_term(line):
    """Negate the first term of the second factor."""
    match = re.search(r"\)\*\(([^)]*)\)", line)
    if match is None or match[1] == "0":
        return None
    first, *rest = match[1].split(" ")
    first = first[1:] if first.startswith("-") else "-" + first
    return line[:match.start(1)] + " ".join([first, *rest]) + line[match.end(1):]


def swap_positions(line):
    """Swap A's largest member with B's smallest, keeping both ascending."""
    match = re.match(r"\{([\d,]+)\|([\d,]+)\}", line)
    a = [int(p) for p in match[1].split(",")]
    b = [int(p) for p in match[2].split(",")]
    if len(a) < 2:
        return None
    a[-1], b[0] = b[0], a[-1]
    split = f"{{{','.join(map(str, sorted(a)))}|{','.join(map(str, sorted(b)))}}}"
    return split + line[match.end():]


@pytest.mark.parametrize("weight,corrupt", [
    *((weight, corrupt) for weight in ("abs", "sq")
      for corrupt in (flip_coefficient, alter_suffix_sum, swap_positions)),
    ("sq", alter_factor_term),
])
def test_each_corrupted_line_is_rejected(weight, corrupt):
    lines = text_of(weight, 4).splitlines()
    corrupted = 0
    for n in range(1, len(lines)):
        bad = corrupt(lines[n])
        if bad is None:
            continue
        corrupted += 1
        errors = check_certificate("\n".join([*lines[:n], bad, *lines[n + 1:]]))
        assert errors, (n, bad)
    assert corrupted >= len(lines) - 2  # all but the sorted split's zero form


@pytest.mark.parametrize("weight", ["abs", "sq"])
def test_another_splits_form_or_proof_is_rejected(weight):
    lines = text_of(weight, 4).splitlines()[1:]
    for line, other in zip(lines, lines[1:]):
        split, form, _ = line.split(" :: ")
        _, other_form, other_proof = other.split(" :: ")
        if other_form == form:
            continue
        # the form and proof agree with each other; only the form recomputed
        # from {A|B} tells them apart
        _, errors = check_line(4, weight, " :: ".join([split, other_form, other_proof]))
        assert errors == [f"form {other_form} is not cost(split) - cost(sorted split)"]
        # a proof that holds, but of another form
        _, errors = check_line(4, weight, " :: ".join([split, form, other_proof]))
        assert ("are not the form's" if weight == "abs" else
                "do not expand to the form") in errors[0]


@pytest.mark.parametrize("weight", ["abs", "sq"])
def test_repeated_or_reordered_lines_are_rejected(weight):
    lines = text_of(weight, 4).splitlines()
    for n in range(2, len(lines)):
        repeated = [*lines[:n], lines[n - 1], *lines[n + 1:]]
        swapped = [*lines[:n - 1], lines[n], lines[n - 1], *lines[n + 1:]]
        for bad in (repeated, swapped):
            assert check_certificate("\n".join(bad)) == [
                f"line {n + 1}: split out of colex order or repeated"]


def test_negated_factors_are_rejected():
    # 2*(-L1)*(-L2) is the same form, but the factors are not nonnegative
    def negate(terms):
        signed = [t if t[0] in "+-" else "+" + t for t in terms.split(" ")]
        return " ".join(("-" if t[0] == "+" else "+") + t[1:]
                        for t in signed).removeprefix("+")

    for line in text_of("sq", 4).splitlines()[2:]:
        match = re.fullmatch(r"(.*) :: factors=2\*\((.*)\)\*\((.*)\) "
                             r"suffix_sums=\((.*)\);\((.*)\) OK", line)
        head, left, right, *sums = match.groups()
        sums = [",".join(str(-int(s)) for s in part.split(",")) for part in sums]
        bad = (f"{head} :: factors=2*({negate(left)})*({negate(right)}) "
               f"suffix_sums=({sums[0]});({sums[1]}) OK")
        _, errors = check_line(4, "sq", bad)
        assert errors == [f"{name} suffix sums ({part}) do not prove it nonnegative"
                          for name, part in zip(("first factor", "second factor"), sums)]


@pytest.mark.parametrize("weight", ["abs", "sq"])
def test_wrong_header_count_is_rejected(weight):
    text = text_of(weight, 4)
    for entries in (34, 36):
        bad = text.replace("entries=35", f"entries={entries}", 1)
        assert any(e.startswith("line 1: entries=") for e in check_certificate(bad))


@pytest.mark.parametrize("weight", ["abs", "sq"])
def test_each_dropped_line_is_rejected(weight):
    lines = text_of(weight, 4).splitlines()
    for n in range(1, len(lines)):
        assert check_certificate("\n".join(lines[:n] + lines[n + 1:]))


def test_failed_status_and_uncollected_certificates_are_rejected():
    lines = text_of("abs", 3).splitlines()
    lines[2] = lines[2].replace(" OK", " FAILED(suffix-sum criterion failed)")
    assert check_certificate("\n".join(lines)) == ["line 3: status FAILED(suffix-sum criterion failed)"]
    uncollected = certificate_render(certify_abs(6, collect=False))
    assert check_certificate(uncollected)


def test_main_reads_a_file(tmp_path, capsys):
    path = tmp_path / "cert.txt"
    path.write_text(text_of("sq", 3) + "\n")
    assert certificate_checker.main([str(path)]) == 0
    assert capsys.readouterr().out == "k=3 weight=sq entries=10 verified=true: 10 lines re-checked\n"
    path.write_text(text_of("sq", 3).replace("entries=10", "entries=9"))
    assert certificate_checker.main([str(path)]) == 1
    assert "entries=9" in capsys.readouterr().err
