"""Golden byte-identity of `linematch match` output.

The expected bytes are rebuilt here the straightforward way: one dict per
group and member from library values, then `json.dumps(doc, indent=2)` or
`csv.writer`.  The CLI must print exactly those bytes.  The columnar CLI
must also print what the item pipeline printed
(`reference_forms.match_stdout_reference`), and stream it in chunks
without building an item or a group object.
"""

import contextlib
import csv
import hashlib
import io
import json
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_forms import match_stdout_reference

from linematch.cli import BATCH_ROWS, build_parser, cmd_match, config_from_args, main
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
    # equal huge scores: every gap is 0, so each group costs 0.0
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
              "budget": 10_000_000, "full_range": False}
    doc = {"schema_version": 2, "config": config, "groups": groups,
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
    huge = expected_output(path, FIXTURES["huge"], 4, "abs", False, "json")
    assert '"within": 0.0' in huge and "NaN" not in huge
    specials = expected_output(path, FIXTURES["specials"], 2, "abs", False, "json")
    assert '"id": "\\u00e9"' in specials and '"id": "q\\"uote"' in specials
    assert '"id": "back\\\\slash"' in specials
    assert '"score": -0.0' in specials and '"within": -0.0' not in specials


SCORE_TEXTS = st.one_of(
    st.sampled_from(["0", "0.0", "-0.0", "1", "1.0", "2.5", "2.5", "-3", "1e16"]),
    st.integers(-60, 60).map(str),  # integer-valued, parsed as floats
    st.integers(-60, 60).map("{}.0".format),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(0, 1).map(repr),  # full precision
)
ID_TEXTS = st.text(alphabet='ab ,"é中\\', min_size=1, max_size=4).map(str.strip)


@st.composite
def match_cases(draw):
    k = draw(st.integers(2, 6))
    n = draw(st.integers(0, 6)) * k  # 0: a cohort with only a header
    ids = draw(st.lists(ID_TEXTS.filter(bool), min_size=n, max_size=n, unique=True))
    rows = [(i, draw(SCORE_TEXTS)) for i in ids]
    options = ["--k", str(k), "--weight", draw(st.sampled_from(["abs", "sq"])),
               "--format", draw(st.sampled_from(["json", "csv"]))]
    return rows, options + (["--balance"] if draw(st.booleans()) else [])


@pytest.fixture(scope="module")
def cohort_file(tmp_path_factory):
    return tmp_path_factory.mktemp("columnar") / "cohort.csv"


def stdout_of(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


@settings(max_examples=300, deadline=None)
@given(match_cases())
def test_stdout_equals_item_pipeline(cohort_file, case):
    rows, options = case
    write_cohort(cohort_file, rows)
    argv = ["match", "--input", str(cohort_file), *options]
    assert stdout_of(argv) == match_stdout_reference(argv)


# quoted ids holding line breaks (LF and CRLF), commas, doubled quotes and
# non-ASCII text; tied scores
MULTILINE_IDS = [("a\nb", "1"), ("c\r\nd", "1"), ("e,f", "2.5"), ('g""h', "0"),
                 ("é\n中文", "-3"), ('one\n"two",\r\nthree', "2.5"),
                 ("plain", "7"), ("x\ny\nz", "0.1"), ('"q"', "1e16"),
                 ("tab\there\n", "-0.0"), ("two\r\n\r\nbreaks", "4"), ("end", "2.5")]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("balance", [False, True])
@pytest.mark.parametrize("k,weight", [(2, "abs"), (3, "sq"), (4, "abs")])
def test_multiline_ids_equal_item_pipeline(tmp_path, k, weight, balance, fmt):
    path = tmp_path / "cohort.csv"
    write_cohort(path, MULTILINE_IDS)
    argv = ["match", "--input", str(path), "--k", str(k), "--weight", weight,
            "--format", fmt] + (["--balance"] if balance else [])
    got = stdout_of(argv)
    assert got == match_stdout_reference(argv)
    # the line breaks reach the output: quoted in CSV, escaped in JSON
    assert ('"c\r\nd"' if fmt == "csv" else '"c\\r\\nd"') in got


# ids holding a lone "\r", which csv.writer(lineterminator="\n") does not
# quote, next to ids it quotes for their "\n"; the cohort quotes every id
CR_IDS = ["r\rs", "a\r\rb", "c\r\nd", "x\ry\nz", 'q"\r"', "plain", "e\nf", "t\r\tu"]


def write_quoted_cohort(path, rows):
    path.write_text("id,score\n" + "".join(
        '"%s",%s\n' % (i.replace('"', '""'), s) for i, s in rows),
        encoding="utf-8", newline="")


def read_back(text):
    return list(csv.reader(io.StringIO(text, newline="")))


@pytest.mark.parametrize("balance", [False, True])
@pytest.mark.parametrize("k", [2, 4])
def test_ids_with_a_lone_cr_round_trip_through_csv_reader(tmp_path, k, balance):
    rows = [(i, str(n % 3)) for n, i in enumerate(CR_IDS)]
    path = tmp_path / "cohort.csv"
    write_quoted_cohort(path, rows)
    argv = ["match", "--input", str(path), "--k", str(k), "--format", "csv"]
    argv += ["--balance"] if balance else []
    got, want = stdout_of(argv), match_stdout_reference(argv)
    assert got == want
    for text in (got, want):
        table = read_back(text)
        assert table[0] == ["group", "id", "score", "slot", "within"]
        assert all(len(row) == 5 for row in table)
        assert sorted(row[1] for row in table[1:]) == sorted(CR_IDS)
    assert '"r\rs"' in got and '"c\r\nd"' in got and ",plain," in got


def test_ids_needing_quotes_in_a_later_chunk_round_trip(tmp_path):
    # the largest scores put a lone "\r", a comma and a quote in the last
    # group, so only the third chunk holds ids that need quoting
    rows = [(f"p{n}", str(n % 89)) for n in range(2 * BATCH_ROWS + 7)]
    late = ["late\rid", "com,ma", 'quo"te']
    rows[BATCH_ROWS + 3:BATCH_ROWS + 6] = [(i, str(200 + n)) for n, i in enumerate(late)]
    path = tmp_path / "cohort.csv"
    write_quoted_cohort(path, rows)
    argv = ["match", "--input", str(path), "--k", "3", "--weight", "sq",
            "--balance", "--format", "csv"]
    got = stdout_of(argv)
    assert got == match_stdout_reference(argv)
    third_chunk = got.index("\n%d," % (2 * (BATCH_ROWS // 3)))
    assert got.index('"') > third_chunk
    table = read_back(got)
    assert len(table) == len(rows) + 1 and all(len(row) == 5 for row in table)
    assert sorted(row[1] for row in table[1:]) == sorted(i for i, _ in rows)
    assert [row[1] for row in table[-3:]] == late


class _Writes:
    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)


def _refuse(*args, **kwargs):
    raise AssertionError("the columnar match path built an item or a group")


# bytes of one write at most: BATCH_ROWS rows of this cohort come to
# ~0.6 MB in JSON with slots, its whole JSON output to ~3 MB
WRITE_BOUND = 1 << 20


@pytest.mark.parametrize("options", [
    ["--k", "2", "--format", "json"],
    ["--k", "4", "--weight", "sq", "--format", "csv"],
    ["--k", "3", "--format", "json", "--balance"],
    ["--k", "4", "--weight", "sq", "--format", "csv", "--balance"],
])
def test_streams_chunks_without_items(tmp_path, monkeypatch, options):
    rng = random.Random(13)
    rows = [(f"p{n:06d}", repr(rng.choice([rng.random(), rng.randint(0, 99)])))
            for n in range(24_000)]
    path = tmp_path / "cohort.csv"
    write_cohort(path, rows)
    argv = ["match", "--input", str(path), *options]
    want = match_stdout_reference(argv)
    for name, module in list(sys.modules.items()):
        if name.startswith("linematch"):
            for cls in ("ScoredItem", "KTuple"):
                if hasattr(module, cls):
                    monkeypatch.setattr(module, cls, _refuse)
    out = _Writes()
    assert cmd_match(config_from_args(build_parser().parse_args(argv)), out=out) == 0
    got = "".join(out.parts)
    # digests: a failing comparison of the texts themselves would diff MBs
    assert hashlib.sha256(got.encode()).digest() == hashlib.sha256(want.encode()).digest()
    assert len(out.parts) > len(rows) // BATCH_ROWS > 1
    assert max(map(len, out.parts)) < WRITE_BOUND


def test_reader_leaving_early_ends_quietly(tmp_path):
    # ~3 MB of JSON, far more than a pipe holds: a later chunk meets the
    # closed pipe (`linematch match ... | head`)
    path = tmp_path / "cohort.csv"
    write_cohort(path, [(f"p{n:06d}", str(n % 97)) for n in range(24_000)])
    proc = subprocess.Popen(
        [sys.executable, "-m", "linematch", "match", "--input", str(path), "--k", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(20) == b'{\n  "schema_version"'
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (0, b"")
