"""The `match` front end against its first-written forms: `sort_items`,
`read_cohort_csv` (past row 4,096 too) and the `ScoredItem` value type."""

import csv
import dataclasses
import io
import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference_forms import read_cohort_csv_reference, sort_items_reference

from linematch.cli import BATCH_ROWS, EXIT_BAD_CSV, CsvError, main, read_cohort_csv
from linematch.core import Cohort, ScoredItem, ValidationError, sort_items

SORT_SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2, 0]),  # heavy ties, signed zeros
    st.floats(-1e6, 1e6),
    st.integers(0, 40).map(lambda t: 1e12 + t / 8),  # ties on a 1e12 offset
    st.integers(-3, 3),
)


@given(st.lists(st.tuples(SORT_SCORES, st.integers(0, 6)), max_size=40),
       st.booleans(), st.randoms())
def test_sort_items_returns_the_reference_list(pairs, unique_ranks, rnd):
    # ranks either a shuffled permutation or drawn with duplicates
    items = [ScoredItem(f"i{n}", score, n if unique_ranks else rank)
             for n, (score, rank) in enumerate(pairs)]
    rnd.shuffle(items)
    got, want = sort_items(items), sort_items_reference(items)
    assert len(got) == len(want)
    assert all(a is b for a, b in zip(got, want))


@given(st.lists(st.one_of(st.floats(-10, 10),
                          st.sampled_from([math.nan, math.inf, -math.inf])),
                min_size=1, max_size=20).filter(
                    lambda scores: not all(map(math.isfinite, scores))))
def test_sort_items_names_the_first_non_finite_item(scores):
    items = [ScoredItem(f"i{n}", s, len(scores) - n) for n, s in enumerate(scores)]
    with pytest.raises(ValidationError) as got:
        sort_items(items)
    with pytest.raises(ValidationError) as want:
        sort_items_reference(items)
    assert str(got.value) == str(want.value)
    first = next(it for it in items if not math.isfinite(it.score))
    assert str(got.value).endswith(f"for id {first.id!r}")


ID_TEXTS = st.one_of(
    st.integers(0, 400).map("p{}".format),
    st.text(alphabet="ab ,\"é", max_size=4),  # spaces, commas, quotes, empty
)
SCORE_TEXTS = st.one_of(
    st.integers(-1000, 1000).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["nan", "NaN", "inf", "-Infinity", "1e999", "abc", "",
                     " 2.5 ", "-0.0", "1,5", "0x10", "1_0"]),
)


@st.composite
def rows(draw):
    # mostly two fields, so that some files parse to the end; 0 is a blank line
    width = draw(st.sampled_from([2] * 12 + [0, 1, 3]))
    if not width:
        return []
    return [draw(ID_TEXTS)] + [draw(SCORE_TEXTS) for _ in range(1, width)]


@st.composite
def cohort_texts(draw):
    if draw(st.integers(0, 19)) == 0:
        return ""
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    header = draw(st.sampled_from(["id,score"] * 6 + [" id , score", "id,score,x",
                                                     "name,score"]))
    buf = io.StringIO()
    csv.writer(buf, lineterminator=eol).writerows(draw(st.lists(rows(), max_size=12)))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + header + eol + buf.getvalue()


def cohort_items(parsed):
    """A Cohort's rows as ScoredItems, the row being the input rank; an item
    list as it is."""
    if isinstance(parsed, Cohort):
        return list(map(ScoredItem, parsed.ids, parsed.scores, range(len(parsed))))
    return parsed


def _outcome(reader, path):
    try:
        return [(it.id, repr(it.score), it.input_rank)
                for it in cohort_items(reader(path))]
    except CsvError as exc:
        return f"CsvError: {exc}"


@pytest.fixture(scope="module")
def cohort_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest") / "cohort.csv"


@given(text=cohort_texts())
def test_read_cohort_csv_equals_reference(cohort_path, text):
    cohort_path.write_text(text, encoding="utf-8", newline="")
    assert _outcome(read_cohort_csv, cohort_path) == _outcome(
        read_cohort_csv_reference, cohort_path)


def test_read_cohort_csv_counts_ranks_over_blank_lines(tmp_path):
    path = tmp_path / "cohort.csv"
    path.write_text("\ufeffid,score\n\n a ,1\n\nb,2.5\n", encoding="utf-8")
    assert cohort_items(read_cohort_csv(path)) == [
        ScoredItem("a", 1.0, 0), ScoredItem("b", 2.5, 1)]


def _numbered_rows(n):
    return [f"p{i},{i % 97}.5\n" for i in range(n)]


# each fault placed past row 4,096, most of them well past it
LATE_FAULTS = {
    "field_count": lambda rows: rows[:BATCH_ROWS + 7] + ["x,1,2\n"] + rows[BATCH_ROWS + 7:],
    "empty_id": lambda rows: rows[:-3] + [" ,1\n"] + rows[-3:],
    "duplicate_across_batches": lambda rows: rows + ["p5,3\n"],
    "nan_in_last_row": lambda rows: rows + ["last,nan\n"],
    "not_a_number": lambda rows: rows[:BATCH_ROWS] + ["y,1.2.3\n"] + rows[BATCH_ROWS:],
    "blank_rows_then_duplicate": lambda rows: (
        rows[:BATCH_ROWS + 1] + ["\n", "\r\n"] + rows[BATCH_ROWS + 1:] + ["p1,0\n"]),
    "blank_rows_only": lambda rows: rows[:BATCH_ROWS * 2] + ["\n"] + rows[BATCH_ROWS * 2:],
}


@pytest.mark.parametrize("fault", sorted(LATE_FAULTS))
def test_read_cohort_csv_names_late_lines_as_reference(tmp_path, fault):
    path = tmp_path / "cohort.csv"
    rows = LATE_FAULTS[fault](_numbered_rows(2 * BATCH_ROWS + 50))
    path.write_text("id,score\n" + "".join(rows), encoding="utf-8", newline="")
    got = _outcome(read_cohort_csv, path)
    assert got == _outcome(read_cohort_csv_reference, path)
    assert isinstance(got, str) == (fault != "blank_rows_only")


def test_read_cohort_csv_names_late_invalid_utf8_as_reference(tmp_path):
    path = tmp_path / "cohort.csv"
    rows = _numbered_rows(BATCH_ROWS + 10)
    rows[BATCH_ROWS + 4] = "\udce9,1\n"
    path.write_bytes(("id,score\n" + "".join(rows)).encode("utf-8", "surrogateescape"))
    got = _outcome(read_cohort_csv, path)
    assert got == _outcome(read_cohort_csv_reference, path)
    assert got.endswith(f"line {BATCH_ROWS + 6}: not valid UTF-8")


@pytest.mark.parametrize("text,message", [
    ('id,score\n"a\nb",1\nc,x\n', "line 4: score 'x' is not a number"),
    ('id,score\n"a\nb",1\n"c\r\nd",2\ne,nan\n', "line 6: non-finite score 'nan'"),
    ('id,score\n"a\nb",1,2\n', "line 3: expected 2 fields, got 3"),
], ids=["one_multiline_id_before", "two_multiline_ids_before", "field_count_over_two_lines"])
def test_read_cohort_csv_counts_the_lines_of_multiline_fields(tmp_path, text, message):
    # a bad row is named by its last physical line, not by its row number
    path = tmp_path / "cohort.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert _outcome(read_cohort_csv, path) == f"CsvError: {path}: {message}"


@pytest.mark.parametrize("text,line", [
    ("id,score\na,1\n{big},2\nb,3\n", 3),
    ('id,score\n"a\nb",1\n"{big}",2\n', 4),
    ("{big},score\na,1\n", 1),
], ids=["row", "after_a_multiline_id", "header"])
def test_read_cohort_csv_names_an_oversized_field(tmp_path, capsys, text, line):
    # csv.reader refuses a field over csv.field_size_limit() with csv.Error
    path = tmp_path / "cohort.csv"
    path.write_text(text.format(big="x" * (csv.field_size_limit() + 1)),
                    encoding="utf-8", newline="")
    message = f"{path}: line {line}: field larger than field limit"
    assert _outcome(read_cohort_csv, path).startswith(f"CsvError: {message}")
    assert main(["match", "--input", str(path), "--k", "2"]) == EXIT_BAD_CSV
    assert capsys.readouterr().err.startswith(f"error: {message}")


# the class as `@dataclass(frozen=True, slots=True)` generates it
GeneratedScoredItem = dataclasses.make_dataclass(
    "ScoredItem", [("id", str), ("score", float), ("input_rank", int)],
    frozen=True, slots=True)

FIELD_VALUES = st.tuples(st.sampled_from(["a", "b", "é", ""]),
                         st.one_of(st.sampled_from([0, 0.0, -0.0, 1, 1.0]),
                                   st.floats(allow_nan=False)),
                         st.integers(0, 3))


class TestScoredItemContract:
    def test_assignment_and_deletion_raise_frozen_instance_error(self):
        item = ScoredItem("a", 1.5, 0)
        for name in ("id", "score", "input_rank", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(item, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(item, name)
        assert item == ScoredItem("a", 1.5, 0)
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match="cannot assign to field 'other'"):
            item.other = 1
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match="cannot delete field 'other'"):
            del item.other

    @given(FIELD_VALUES, FIELD_VALUES)
    def test_eq_hash_repr_as_generated(self, a, b):
        assert repr(ScoredItem(*a)) == repr(GeneratedScoredItem(*a))
        assert hash(ScoredItem(*a)) == hash(GeneratedScoredItem(*a))
        assert (ScoredItem(*a) == ScoredItem(*b)) == (
            GeneratedScoredItem(*a) == GeneratedScoredItem(*b))

    def test_literal_eq_hash_repr(self):
        item = ScoredItem("a", 1.5, 0)
        assert repr(item) == "ScoredItem(id='a', score=1.5, input_rank=0)"
        assert hash(item) == hash(("a", 1.5, 0))
        assert item == ScoredItem(id="a", score=1.5, input_rank=0)
        assert item != ScoredItem("a", 1.5, 1)
        assert item != ("a", 1.5, 0)
        assert item != GeneratedScoredItem("a", 1.5, 0)
        assert ScoredItem("a", 1, 0) == ScoredItem("a", 1.0, 0)

    def test_fields_and_replace(self):
        # a Record, not a dataclass: its fields are the __slots__, in the
        # __match_args__ order
        fields = ("id", "score", "input_rank")
        assert ScoredItem.__slots__ == ScoredItem.__match_args__ == fields
        item = ScoredItem("a", 1.5, 0)
        values = {f: getattr(item, f) for f in ScoredItem.__match_args__}
        assert ScoredItem(**{**values, "score": 2.5}) == ScoredItem("a", 2.5, 0)
        assert tuple(values.values()) == ("a", 1.5, 0)
        with pytest.raises(TypeError):
            ScoredItem("a", 1.5)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        item = ScoredItem("é", -0.0, 7)
        back = pickle.loads(pickle.dumps(item, protocol=protocol))
        assert type(back) is ScoredItem and repr(back) == repr(item)
        assert back == item and hash(back) == hash(item)

    def test_slots_only(self):
        item = ScoredItem("a", 1.5, 0)
        assert not hasattr(item, "__dict__")
        assert ScoredItem.__slots__ == ("id", "score", "input_rank")
