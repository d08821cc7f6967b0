"""Golden byte-identity of `linematch match` output.

The expected bytes are rebuilt here the straightforward way: one dict per
group and member from library values, then `json.dumps(doc, indent=2)` or
`csv.writer`.  The CLI must print exactly those bytes.
"""

import csv
import io
import json

import pytest

from linematch.cli import main
from linematch.core import WeightKind, items_from_pairs, within_distance
from linematch.matching import balance_columns, match_line

FIXTURES = {
    "tied": [(f"p{n}", f"{18 + (n * 7) % 13 / 10:.1f}") for n in range(24)],
    # non-ASCII and escaped ids; +0.0 sorts before -0.0, so k=2 pairs them
    "specials": [("zero", "0.0"), ("negzero", "-0.0"), ("é", "1.5"),
                 ("中文", "2.25"), ('q"uote', "3"), ("back\\slash", "3"),
                 ("x", "-2.5"), ("tiny", "1e-300"), ("big", "1e16"),
                 ("tab\there", "7.125"), ("n", "-4"), ("m", "12")],
    # within and total_within overflow to Infinity
    "overflow": [("lo", "-1e308"), ("hi", "1e308")],
    # the k=4 abs linear form overflows both ways: NaN
    "huge": [(f"h{n}", "1e308") for n in range(4)],
    "header_only": [],
}
CASES = [
    (name, k, weight, balance, fmt)
    for name, rows in FIXTURES.items()
    for k in (2, 3, 4)
    if len(rows) % k == 0
    for weight in ("abs", "sq")
    for balance in (False, True)
    for fmt in ("json", "csv")
]


def write_cohort(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "score"])
        writer.writerows(rows)


def expected_output(path, rows, k, weight, balance, fmt):
    kind = WeightKind(weight)
    part = match_line(items_from_pairs((i, float(s)) for i, s in rows), k, kind)
    balanced = balance_columns(part) if balance else None
    groups = []
    for idx, group in enumerate(part.tuples):
        members = []
        for pos, member in enumerate(group.members):
            entry = {"id": member.id, "score": member.score}
            if balanced is not None:
                entry["slot"] = balanced.column_assignment[idx].index(pos)
            members.append(entry)
        groups.append({"index": idx, "members": members,
                       "within": within_distance(group, kind)})
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["group", "id", "score", "slot", "within"])
        for g in groups:
            for m in g["members"]:
                writer.writerow([g["index"], m["id"], m["score"],
                                 m.get("slot", ""), g["within"]])
        return buf.getvalue()
    config = {"subcommand": "match", "input": str(path), "k": k,
              "weight": weight, "balance": balance, "format": fmt, "seed": 0,
              "budget": 10_000_000, "uncertified": False, "full_range": False}
    doc = {"schema_version": 1, "config": config, "groups": groups,
           "total_within": part.total_within}
    if balanced is not None:
        doc["column_means"] = list(balanced.column_means)
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("name,k,weight,balance,fmt", CASES)
def test_stdout_equals_reference_rendering(tmp_path, capsys, name, k, weight,
                                           balance, fmt):
    rows = FIXTURES[name]
    path = tmp_path / "cohort.csv"
    write_cohort(path, rows)
    argv = ["match", "--input", str(path), "--k", str(k), "--weight", weight,
            "--format", fmt] + (["--balance"] if balance else [])
    assert main(argv) == 0
    assert capsys.readouterr().out == expected_output(
        path, rows, k, weight, balance, fmt)


def test_fixtures_reach_the_edge_renderings(tmp_path):
    path = tmp_path / "cohort.csv"
    empty = expected_output(path, [], 2, "abs", True, "json")
    assert '"groups": []' in empty and '"column_means": []' in empty
    assert '"total_within": 0,' in empty
    overflow = expected_output(path, FIXTURES["overflow"], 2, "abs", False, "json")
    assert overflow.count("Infinity") == 2
    assert "NaN" in expected_output(path, FIXTURES["huge"], 4, "abs", False, "json")
    specials = expected_output(path, FIXTURES["specials"], 2, "abs", False, "json")
    assert '"id": "\\u00e9"' in specials and '"id": "q\\"uote"' in specials
    assert '"id": "back\\\\slash"' in specials
    assert '"score": -0.0' in specials and '"within": -0.0' not in specials
