import csv
import hashlib
import io
import json
import math
import random
import re
import time

import pytest

from linematch import certify, cli
from linematch.cli import main

PROGRESS_LINE = re.compile(
    r"certify k=(\d+) weight=(abs|sq): (\d+)/(\d+) splits, \d+ splits/s, eta \d+ s"
)


def write_csv(tmp_path, rows, name="cohort.csv", header="id,score", bom=False):
    path = tmp_path / name
    lines = [header] + rows
    path.write_text("\n".join(lines) + "\n", encoding="utf-8-sig" if bom else "utf-8")
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CANONICAL = ["a,1", "b,3", "c,4", "d,5", "e,8", "f,9"]


class TestMatchCommand:
    def test_six_point_json(self, tmp_path, capsys):
        path = write_csv(tmp_path, CANONICAL)
        code, out, err = run_cli(capsys, ["match", "--input", path, "--k", "3"])
        assert code == 0, err
        doc = json.loads(out)
        assert doc["schema_version"] == 2
        assert doc["total_within"] == 14
        groups = [
            [m["id"] for m in g["members"]] for g in doc["groups"]
        ]
        assert groups == [["a", "b", "c"], ["d", "e", "f"]]
        assert [g["within"] for g in doc["groups"]] == [6, 8]

    def test_identical_scores_balance(self, tmp_path, capsys):
        path = write_csv(tmp_path, ["a,2", "b,2", "c,2", "d,2"])
        code, out, _ = run_cli(
            capsys, ["match", "--input", path, "--k", "2", "--balance"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["total_within"] == 0
        assert doc["column_means"][0] == doc["column_means"][1]
        for g in doc["groups"]:
            slots = sorted(m["slot"] for m in g["members"])
            assert slots == [0, 1]

    def test_k16_balance_meets_the_anti_sorted_floor(self, tmp_path, capsys):
        # abs k=16 is certified; 16! slot permutations per group must not be
        # enumerated.  The floor is recomputed here from the printed slots.
        rng = random.Random(41)
        path = write_csv(tmp_path, [f"s{i},{rng.random()!r}" for i in range(160)])
        code, out, err = run_cli(capsys, ["match", "--input", path, "--k", "16",
                                          "--weight", "abs", "--balance",
                                          "--format", "csv"])
        assert code == 0, err
        groups = {}
        for row in csv.DictReader(io.StringIO(out)):
            groups.setdefault(row["group"], []).append(row)
        assert len(groups) == 10
        # balancing order: nonincreasing within, ties by first input rank
        order = sorted(groups.values(), key=lambda rows: (
            -float(rows[0]["within"]), int(rows[0]["id"][1:])))
        assert [int(r["slot"]) for r in order[0]] == list(range(16))
        sums = [float(r["score"]) for r in order[0]]
        for rows in order[1:]:
            placed = [0.0] * 16
            for r in rows:
                placed[int(r["slot"])] = float(r["score"])
            floor = [a + b for a, b in zip(sorted(sums), sorted(placed, reverse=True))]
            sums = [a + b for a, b in zip(sums, placed)]
            assert max(sums) - min(sums) == max(floor) - min(floor)

    def test_balance_over_budget_exits_5(self, tmp_path, capsys):
        # 216^3 steps per group exceed DEFAULT_BUDGET; matching alone is fine
        path = write_csv(tmp_path, [f"i{n},{n % 7}" for n in range(432)])
        argv = ["match", "--input", path, "--k", "216", "--format", "csv"]
        assert run_cli(capsys, argv)[0] == 0
        code, out, err = run_cli(capsys, argv + ["--balance"])
        assert code == 5
        assert out == ""
        assert err.startswith("error: ") and "budget" in err

    def test_csv_format(self, tmp_path, capsys):
        path = write_csv(tmp_path, CANONICAL)
        code, out, _ = run_cli(
            capsys, ["match", "--input", path, "--k", "3", "--format", "csv"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "group,id,score,slot,within"
        assert len(lines) == 7

    def test_indivisible_exits_3(self, tmp_path, capsys):
        path = write_csv(tmp_path, ["a,1", "b,2", "c,3", "d,4", "e,5"])
        code, _, err = run_cli(capsys, ["match", "--input", path, "--k", "2"])
        assert code == 3
        assert "groups of 2" in err

    @pytest.mark.parametrize("weight", ["abs", "sq"])
    def test_any_k_from_2_matches_without_a_flag(self, tmp_path, capsys, weight):
        path = write_csv(tmp_path, [f"i{n},{n}" for n in range(20)])
        code, out, err = run_cli(capsys, ["match", "--input", path, "--k", "20",
                                          "--weight", weight])
        assert code == 0, err
        doc = json.loads(out)
        assert [m["id"] for m in doc["groups"][0]["members"]] == [
            f"i{n}" for n in range(20)]
        assert "uncertified" not in doc["config"]

    def test_undersized_k_exits_4(self, tmp_path, capsys):
        path = write_csv(tmp_path, ["a,1", "b,2"])
        code, _, err = run_cli(capsys, ["match", "--input", path, "--k", "1"])
        assert code == 4
        assert "at least 2" in err

    @pytest.mark.parametrize(
        "rows,header,fragment",
        [
            (["a,1"], "name,score", "line 1"),
            (["a,not_a_number"], "id,score", "line 2"),
            (["a,1", "a,2"], "id,score", "duplicate id"),
            (["a,1,9"], "id,score", "expected 2 fields"),
            (["a,nan"], "id,score", "non-finite"),
            ([",1"], "id,score", "empty id"),
        ],
    )
    def test_malformed_csv_exits_2(self, tmp_path, capsys, rows, header, fragment):
        path = write_csv(tmp_path, rows, header=header)
        code, _, err = run_cli(capsys, ["match", "--input", path, "--k", "2"])
        assert code == 2
        assert fragment in err

    def test_utf8_bom_gives_the_same_output(self, tmp_path, capsys):
        argv = ["match", "--input", write_csv(tmp_path, CANONICAL), "--k", "3"]
        plain = run_cli(capsys, argv)
        write_csv(tmp_path, CANONICAL, bom=True)
        assert run_cli(capsys, argv) == plain
        assert plain[0] == 0

    @pytest.mark.parametrize(
        "rows,header",
        [(["a,1"], "name,score"), (["a,1", "b,x"], "id,score"),
         (["a,1", "", "a,2"], "id,score")],
    )
    def test_utf8_bom_errors_name_the_same_line(self, tmp_path, capsys, rows, header):
        path = write_csv(tmp_path, rows, header=header)
        argv = ["match", "--input", path, "--k", "2"]
        plain = run_cli(capsys, argv)
        write_csv(tmp_path, rows, header=header, bom=True)
        assert run_cli(capsys, argv) == plain
        assert plain[0] == 2 and "line" in plain[2]

    def test_invalid_utf8_exits_2_naming_the_line(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"id,score\na,1\n\xe9,2\n")
        code, _, err = run_cli(capsys, ["match", "--input", str(path), "--k", "2"])
        assert code == 2
        assert "line 3: not valid UTF-8" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, ["match", "--input", "/nonexistent.csv", "--k", "2"]
        )
        assert code == 2

    def test_round_trip_reproduces_grouping(self, tmp_path, capsys):
        path = write_csv(tmp_path, ["a,5", "b,1", "c,9", "d,2", "e,7", "f,3"])
        code, out, _ = run_cli(capsys, ["match", "--input", path, "--k", "2"])
        assert code == 0
        doc = json.loads(out)
        rows = [
            f"{m['id']},{m['score']}"
            for g in doc["groups"]
            for m in g["members"]
        ]
        path2 = write_csv(tmp_path, rows, name="again.csv")
        code2, out2, _ = run_cli(capsys, ["match", "--input", path2, "--k", "2"])
        assert code2 == 0
        doc2 = json.loads(out2)
        assert doc2["groups"] == doc["groups"]
        assert doc2["total_within"] == doc["total_within"]


class TestCertifyCommand:
    def test_k3_abs(self, capsys):
        code, out, _ = run_cli(capsys, ["certify", "--k", "3", "--weight", "abs"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k=3 weight=abs entries=10 verified=true"
        assert len(lines) == 11
        assert sum(" OK" in line for line in lines) == 10

    def test_k2_sq_factors(self, capsys):
        code, out, _ = run_cli(capsys, ["certify", "--k", "2", "--weight", "sq"])
        assert code == 0
        assert "factors=2*(-x1 +x4)*(-x2 +x3)" in out
        assert "factors=2*(-x1 +x3)*(-x2 +x4)" in out

    @pytest.mark.parametrize("argv", ["certify --weight abs", "certify --k 1"])
    def test_missing_or_undersized_k_exits_4(self, capsys, argv):
        code, out, _ = run_cli(capsys, argv.split())
        assert (code, out) == (4, "")

    def test_state_table_over_budget_exits_5_before_tabulating(self, capsys):
        # C(2k - 1, k - 1) alone takes tens of seconds at k = 10^6
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, ["certify", "--k", "1000000"])
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (5, "")
        assert "would tabulate 1500002500000 states, over budget 10000000" in err

    def test_state_table_just_under_the_budget_verifies(self, capsys, monkeypatch):
        # 1,000 states at k = 25, 1,079 at k = 26
        monkeypatch.setattr(certify, "DEFAULT_BUDGET", 1000)
        code, out, err = run_cli(capsys, ["certify", "--k", "25"])
        assert (code, err) == (0, "")
        assert out.startswith("k=25 weight=abs entries=63205303218876 verified=true\n")
        code, out, err = run_cli(capsys, ["certify", "--k", "26", "--weight", "sq"])
        assert (code, out) == (5, "")
        assert "1079 states, over budget 1000" in err

    @pytest.mark.parametrize("k,weight", [(40, "abs"), (17, "abs"), (14, "sq")])
    def test_large_k_over_budget_exits_5_before_enumerating(
        self, capsys, monkeypatch, k, weight
    ):
        # one failing state: the splits would be enumerated to list the
        # failures, which is over the budget
        def refuse(*args):
            raise AssertionError("the splits were enumerated")

        monkeypatch.setattr(certify, "_walk", refuse)
        monkeypatch.setattr(
            certify, "_fails_criterion", lambda last, *sums: last and min(sums) == 0
        )
        code, out, err = run_cli(
            capsys, ["certify", "--k", str(k), "--weight", weight]
        )
        assert code == 5
        assert out == ""
        assert f"{math.comb(2 * k - 1, k - 1)} splits" in err

    def test_failing_certified_k_over_budget_exits_5_before_enumerating(
        self, capsys, monkeypatch
    ):
        def refuse(*args):
            raise AssertionError("the splits were enumerated")

        monkeypatch.setattr(certify, "_walk", refuse)
        monkeypatch.setattr(
            certify, "_fails_criterion", lambda last, *sums: last and min(sums) == 0
        )
        code, out, err = run_cli(capsys, ["certify", "--k", "14"])
        assert (code, out) == (5, "")
        assert "20058300 splits, over budget 10000000" in err

    @pytest.mark.parametrize("k,weight", [(40, "abs"), (20, "abs"), (17, "abs"),
                                          (14, "sq")])
    def test_large_k_verified_certificates_over_budget_print_the_header(
        self, capsys, monkeypatch, k, weight
    ):
        # a verified uncollected certificate enumerates nothing, so the budget
        # does not apply to it
        def refuse(*args):
            raise AssertionError("the splits were enumerated")

        monkeypatch.setattr(certify, "_walk", refuse)
        t0 = time.perf_counter()
        code, out, err = run_cli(
            capsys, ["certify", "--k", str(k), "--weight", weight]
        )
        assert time.perf_counter() - t0 < 1.0
        assert code == 0 and err == ""
        splits = math.comb(2 * k - 1, k - 1)
        assert out == (f"k={k} weight={weight} entries={splits} verified=true\n"
                       f"({splits} entries not collected)\n")

    @pytest.mark.parametrize(
        "argv", [["certify", "--k", "9"], ["certify", "--full-range", "--weight", "sq"]]
    )
    def test_certificates_within_collect_limit_write_no_progress(self, capsys, argv):
        code, _, err = run_cli(capsys, argv)
        assert code == 0
        assert err == ""

    @pytest.mark.parametrize(
        "argv", ["certify --full-range", "certify --k 12",
                 "certify --full-range --weight sq"],
    )
    def test_verified_uncollected_certificates_enumerate_nothing(
        self, capsys, monkeypatch, argv
    ):
        def refuse(*args):
            raise AssertionError("the splits were enumerated")

        monkeypatch.setattr(certify, "_walk", refuse)
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, argv.split())
        assert time.perf_counter() - t0 < 1.0
        assert code == 0 and err == ""
        assert "verified=false" not in out

    @pytest.mark.parametrize(
        "argv, collect_limit, every, expected",
        [
            # k=7 (1716 splits) and k=8 (6435) count as long
            ("certify --full-range --weight sq", 1000, 1000,
             [("7", "sq", 1000, 1716)]
             + [("8", "sq", done, 6435) for done in range(1000, 6001, 1000)]),
            ("certify --k 6", 100, 200,
             [("6", "abs", 200, 462), ("6", "abs", 400, 462)]),
        ],
        ids=["full-range-sq", "k6-abs"],
    )
    def test_uncollected_failing_certificates_report_progress(
        self, capsys, monkeypatch, argv, collect_limit, every, expected
    ):
        # one failing state, the full suffix, fails every split: the splits
        # are enumerated to list the failures, with the same progress lines
        monkeypatch.setattr(
            certify, "_fails_criterion", lambda last, *sums: last and min(sums) == 0
        )
        monkeypatch.setattr(cli, "COLLECT_LIMIT", collect_limit)
        monkeypatch.setattr(certify, "PROGRESS_EVERY", every)
        code, out, err = run_cli(capsys, argv.split())
        assert code == 1
        assert "FAILED(" in out
        parsed = [PROGRESS_LINE.fullmatch(line) for line in err.splitlines()]
        assert all(parsed), err
        assert [(p[1], p[2], int(p[3]), int(p[4])) for p in parsed] == expected

    @pytest.mark.parametrize(
        "argv,certifier,k",
        [(f"certify --k {k}", certify.certify_abs, k) for k in range(2, 11)]
        + [(f"certify --k {k} --weight sq", certify.certify_sq, k) for k in range(2, 10)],
    )
    def test_streamed_certificate_equals_rendered_entries(
        self, capsys, argv, certifier, k
    ):
        code, out, _ = run_cli(capsys, argv.split())
        cert = certifier(k)
        assert code == (0 if cert.verified else 1)
        assert out == certify.certificate_render(cert) + "\n"

    @pytest.mark.parametrize(
        "argv,certifier,k,name,bad",
        [
            # states with suffix sum 2 fail: OK and FAILED lines interleave
            ("certify --k 5", certify.certify_abs, 5, "_fails_criterion",
             lambda real: lambda last, *sums: real(last, *sums) or 2 in sums),
            # factor sums (0, 0) fail, the sorted split's at its entry
            ("certify --k 4 --weight sq", certify.certify_sq, 4, "_fails_criterion",
             lambda real: lambda last, *sums: real(last, *sums) or sums == (1, 1)),
            # a wrong (lo, B) diagonal cell: every split but the sorted one
            # fails the class identity and prints x^2 terms
            ("certify --k 4 --weight sq", certify.certify_sq, 4, "_sq_cell",
             lambda real: lambda p, q: real(p, q) + (p == q == 0)),
        ],
        ids=["abs-criterion", "sq-criterion", "sq-cell"],
    )
    def test_streamed_failing_certificate_equals_rendered_entries(
        self, capsys, monkeypatch, argv, certifier, k, name, bad
    ):
        monkeypatch.setattr(certify, name, bad(getattr(certify, name)))
        code, out, _ = run_cli(capsys, argv.split())
        cert = certifier(k)
        assert not cert.verified and 0 < len(cert.failures) < len(cert.entries)
        assert code == 1
        assert out == certify.certificate_render(cert) + "\n"
        assert "verified=false" in out and "FAILED(" in out and " OK\n" in out

    @pytest.mark.parametrize(
        "argv,digest",
        [("certify --k 9",
          "4ed6b63062f4f0be58138d9b58cf1a576feb8d87826fdb09cfd3189c44170d92"),
         ("certify --k 8 --weight sq",
          "edde7546b3a34844ae610fbfe801923fd81be737ecf4b081c2b978e09cc04047")],
    )
    def test_collected_certificate_streams_without_entry_objects(
        self, monkeypatch, argv, digest
    ):
        # no entry, form or proof object and no single document-sized write
        def refuse(*args, **kwargs):
            raise AssertionError("an entry object was built")

        for name in ("CertificateEntry", "LinearForm", "QuadraticForm",
                     "SuffixSumProof", "FactorProof"):
            monkeypatch.setattr(certify, name, refuse)
        writes = []

        class Out(io.StringIO):
            def write(self, text):
                writes.append(len(text))
                return super().write(text)

        out, err = Out(), io.StringIO()
        cfg = cli.config_from_args(cli.build_parser().parse_args(argv.split()))
        assert cli.cmd_certify(cfg, out, err) == 0
        assert err.getvalue() == ""
        assert len(writes) > 1
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest

    def test_full_range_small_weight_sq(self, capsys):
        # sq full range is k <= 8; entry work stays small enough for a test
        code, out, _ = run_cli(
            capsys, ["certify", "--weight", "sq", "--full-range"]
        )
        assert code == 0
        for k in range(2, 9):
            assert f"k={k} weight=sq" in out
        assert "verified=false" not in out


@pytest.mark.parametrize(
    "argv",
    ["match --input x.csv --k 2 --seed 1", "match --input x.csv --k 2 --budget 9",
     "match --input x.csv --k 2 --full-range", "certify --k 2 --seed 1",
     "certify --k 2 --format csv", "certify --k 2 --budget 9",
     "bench --full-range", "match --input x.csv --k 20 --uncertified",
     "certify --k 20 --uncertified", "bench --k 20 --uncertified"],
)
def test_flags_a_subcommand_never_reads_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv,rows,code,message", [
    ("match --k 2", ["a,1", "b,x"], 2, "{csv}: line 3: score 'x' is not a number"),
    ("match --k 2", ["a,1", "b,2", "c,3"], 3, "3 items cannot be split into groups of 2"),
    ("match --k 1", ["a,1", "b,2"], 4, "group size must be at least 2, got 1"),
    ("match --k 216 --balance", [f"i{n},{n % 7}" for n in range(216)], 5,
     "balancing groups of 216 takes 10077696 steps per group, over budget 10000000"),
    ("certify --k 1", None, 4, "certify needs --k >= 2 or --full-range"),
    ("certify --k 1000000", None, 5,
     "certify k=1000000 would tabulate 1500002500000 states, over budget 10000000"),
    ("bench --k 1", None, 4, "group size must be at least 2, got 1"),
    ("bench --oracle --line-sizes 16 --tri-sizes 2 --instances 1", None, 5,
     "instance too large for oracle: 210314486592266380347977873920000000"
     " partitions exceeds budget 10000000"),
    ("bench --oracle --line-sizes 2 --tri-sizes 7 --instances 1", None, 5,
     "tripartite oracle limited to n<=6 within budget, requested n=7"),
    ("bench --line-sizes 8 --tri-sizes 2 --budget 10", None, 5,
     "greedy step would enumerate 20 subsets, over budget 10"),
], ids=["match_csv", "match_size", "match_k", "match_balance", "certify_k",
        "certify_budget", "bench_k", "bench_line_oracle", "bench_tri_oracle",
        "bench_greedy"])
def test_each_error_exits_with_its_code_and_one_stderr_line(
    tmp_path, capsys, argv, rows, code, message
):
    argv = argv.split()
    csv_path = ""
    if rows is not None:
        csv_path = write_csv(tmp_path, rows)
        argv += ["--input", csv_path]
    assert run_cli(capsys, argv) == (code, "", f"error: {message.format(csv=csv_path)}\n")


class TestBenchCommand:
    def test_deterministic_output(self, capsys):
        argv = [
            "bench", "--seed", "7", "--line-sizes", "2,4", "--tri-sizes", "2,4",
            "--instances", "2",
        ]
        code1, out1, _ = run_cli(capsys, argv)
        code2, out2, _ = run_cli(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_canonical_instance_ratios(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["bench", "--seed", "1", "--line-sizes", "2", "--tri-sizes", "2",
             "--instances", "1"],
        )
        assert code == 0
        doc = json.loads(out)
        canonical = doc["line_instances"][0]
        assert canonical["instance"] == "canonical"
        assert canonical["match_line"] == 14
        assert canonical["greedy"] == 20
        assert canonical["local_search"] == 14
        assert canonical["optimal"] == 14
        assert canonical["ratio_greedy"] == pytest.approx(20 / 14)
        assert canonical["ratio_match_line"] == 1.0

    def test_line_ratio_is_always_one(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["bench", "--seed", "3", "--line-sizes", "2,3", "--tri-sizes", "2",
             "--instances", "3"],
        )
        doc = json.loads(out)
        assert code == 0
        for row in doc["line_instances"]:
            assert row["ratio_match_line"] == 1.0

    def test_triangle_ratios_bounded(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["bench", "--seed", "5", "--line-sizes", "2", "--tri-sizes", "2,4,6",
             "--instances", "3"],
        )
        doc = json.loads(out)
        assert code == 0
        for row in doc["tripartite_instances"]:
            assert row["ratio_triangle_to_bound"] <= 2.0

    @pytest.mark.parametrize("k", ["0", "1"])
    def test_undersized_k_exits_4(self, capsys, k):
        code, out, err = run_cli(capsys, ["bench", "--k", k, "--instances", "1"])
        assert code == 4
        assert out == ""
        assert "group size must be at least 2" in err

    def test_oracle_over_budget_exits_5(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["bench", "--line-sizes", "50", "--oracle", "--instances", "1"],
        )
        assert code == 5
        assert "budget" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["bench", "--seed", "2", "--line-sizes", "2", "--tri-sizes", "2",
             "--instances", "1", "--format", "csv"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("family,instance,k,n,")
        assert any(line.startswith("line,") for line in lines)
        assert any(line.startswith("tripartite,") for line in lines)

    def test_hierarchical_column_for_power_of_two_sizes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["bench", "--seed", "11", "--line-sizes", "2,3", "--tri-sizes", "2",
             "--instances", "1"],
        )
        doc = json.loads(out)
        assert code == 0
        by_n = {row["n"]: row for row in doc["line_instances"]}
        assert by_n[2]["hierarchical"] is not None
        assert by_n[3]["hierarchical"] is None
