"""End-to-end acceptance checks.

Each test covers one release criterion at its stated tolerance and prints a
single PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see
them).  All numeric checks on integer inputs are exact equality; runtime
budgets are asserted with wall-clock measurements.
"""

import math
import random
import subprocess
import sys
import time

from linematch.certify import certify_abs, certify_sq
from linematch.core import WeightKind, items_from_pairs, sort_items, variance_identity_check
from linematch.heuristics import (
    hierarchical_triple_match,
    points_from_coords,
    triangle_matching,
)
from linematch.matching import match_line
from linematch.multipartite import (
    instance_from_scores,
    is_lm_on_samples,
    match_sorted,
    tripartite_lower_bound,
)
from linematch.oracle import (
    brute_force_assignment,
    brute_force_partition,
    greedy_match,
)

from reference_forms import ENTRY_COUNTS, K3_ABS_FORMS, K3_SQ_FACTORS

CANONICAL_SCORES = [1, 3, 4, 5, 8, 9]


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def make_items(scores):
    return items_from_pairs([(f"i{n}", s) for n, s in enumerate(scores)])


def test_1_greedy_counterexample_exact_and_fast():
    items = make_items(CANONICAL_SCORES)
    # warm caches before timing
    greedy_match(items, 3, WeightKind.ABS)
    match_line(items, 3, WeightKind.ABS)
    t0 = time.perf_counter()
    greedy_total = greedy_match(items, 3, WeightKind.ABS).total_within
    match_total = match_line(items, 3, WeightKind.ABS).total_within
    elapsed = time.perf_counter() - t0
    ok = (
        greedy_total == 20
        and match_total == 14
        and isinstance(greedy_total, int)
        and isinstance(match_total, int)
        and elapsed < 1e-3
    )
    report(
        "criterion 1: six-point greedy gap",
        ok,
        f"greedy={greedy_total} optimal={match_total} in {elapsed * 1e3:.3f} ms",
    )


def test_2_sort_and_chunk_equals_brute_force():
    rng = random.Random(2024)
    cases = [(k, n) for k in (2, 3, 4) for n in range(1, 13) if k * n <= 12]
    checked = 0
    t0 = time.perf_counter()
    for k, n in cases:
        for _ in range(200):
            scores = [rng.randint(-50, 50) for _ in range(k * n)]
            items = make_items(scores)
            for weight in WeightKind:
                fast = match_line(items, k, weight).total_within
                exact = brute_force_partition(items, k, weight).total_within
                assert fast == exact, (k, n, weight, scores)
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60
    report(
        "criterion 2: chunking matches exhaustive minimum",
        ok,
        f"{checked} instance/weight checks, all exact, {elapsed:.1f}s (< 60s)",
    )


def test_3_certificates_small_range():
    t0 = time.perf_counter()
    for k, expected in ENTRY_COUNTS.items():
        cert = certify_abs(k, collect=(expected <= 10000))
        assert cert.verified and cert.entry_count == expected, k
    for k in range(2, 6):
        cert = certify_sq(k)
        assert cert.verified and cert.entry_count == ENTRY_COUNTS[k], k
        for entry in cert.entries:
            assert entry.proof is not None

    abs3 = certify_abs(3)
    got_abs = {e.first: e.form.coeffs for e in abs3.entries if not e.form.is_zero()}
    assert got_abs == K3_ABS_FORMS

    sq3 = certify_sq(3)
    got_sq = {
        e.first: (e.proof.left.coeffs, e.proof.right.coeffs)
        for e in sq3.entries
        if not e.form.is_zero()
    }
    assert got_sq == K3_SQ_FACTORS
    elapsed = time.perf_counter() - t0
    ok = elapsed < 300
    report(
        "criterion 3: exchange certificates",
        ok,
        f"abs k<=8 + sq k<=5 verified, k=3 forms match references, "
        f"{elapsed:.1f}s (< 300s)",
    )


def test_4_sorted_matching_equals_assignment_oracle():
    rng = random.Random(4096)
    t0 = time.perf_counter()
    bi_checked = 0
    for _ in range(200):
        n = rng.randint(1, 8)
        lists = [[rng.randint(0, 40) for _ in range(n)] for _ in range(2)]
        for weight in WeightKind:
            inst = instance_from_scores(lists, weight)
            assert match_sorted(inst).weight == brute_force_assignment(inst).weight
            bi_checked += 1
    tri_checked = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        lists = [[rng.randint(0, 40) for _ in range(n)] for _ in range(3)]
        for weight in WeightKind:
            inst = instance_from_scores(lists, weight)
            opt = brute_force_assignment(inst).weight
            sorted_w = match_sorted(inst).weight
            bound = tripartite_lower_bound(inst)
            assert sorted_w == opt
            assert bound == sorted_w  # equality on score-valued parts
            assert bound <= opt
            tri_checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120
    report(
        "criterion 4: rank matching equals permutation oracle",
        ok,
        f"{bi_checked} bipartite + {tri_checked} tripartite checks, all exact, "
        f"{elapsed:.1f}s (< 120s)",
    )


def test_5_product_weight_is_not_line_matchable():
    xs = ys = (1, 2, 3)
    sorted_w = sum(x * y for x, y in zip(xs, ys))
    reversed_w = sum(x * y for x, y in zip(xs, reversed(ys)))
    ok_values = sorted_w == 14 and reversed_w == 10
    verdict, witness = is_lm_on_samples(
        lambda x, y: x * y, trials=300, n_max=4, seed=99, score_range=(1, 9)
    )
    ok = ok_values and verdict is False and witness is not None
    report(
        "criterion 5: product weight counterexample",
        ok,
        f"sorted=14 reversed=10, sampler refuted with witness x={witness.x} "
        f"y={witness.y} ({witness.best_weight} < {witness.sorted_weight})",
    )


def test_6_pairwise_squares_variance_identity():
    rng = random.Random(66)
    for _ in range(1000):
        n = rng.randint(2, 50)
        values = [rng.randint(-1000, 1000) for _ in range(n)]
        lhs, rhs = variance_identity_check(values)
        assert lhs == rhs, values
    worst = 0.0
    for _ in range(300):
        n = rng.randint(2, 50)
        values = [rng.uniform(-1000, 1000) for _ in range(n)]
        lhs, rhs = variance_identity_check(values)
        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)
        worst = max(worst, rel)
        assert rel < 1e-9
    report(
        "criterion 6: pairwise-squares identity",
        True,
        f"1000 integer vectors exact, float worst relative error {worst:.2e} (< 1e-9)",
    )


def test_7_triangle_bound_and_hierarchy():
    rng = random.Random(77)
    worst_ratio = 0.0
    for _ in range(100):
        n = rng.randint(1, 6)
        lists = [[rng.randint(0, 30) for _ in range(n)] for _ in range(3)]
        inst = instance_from_scores(lists, WeightKind.ABS)
        tri = triangle_matching(inst)
        opt = brute_force_assignment(inst).weight
        bound = tripartite_lower_bound(inst)
        if opt > 0:
            assert tri.weight / opt <= 2.0
            worst_ratio = max(worst_ratio, tri.weight / opt)
        else:
            assert tri.weight == 0
        if bound > 0:
            assert tri.weight / bound <= 2.0

    for m in range(4):
        for _ in range(5):
            scores = [rng.randint(0, 80) for _ in range(3 * 2**m)]
            points = points_from_coords([[s] for s in scores])
            hier = hierarchical_triple_match(points)
            exact = match_line(make_items(scores), 3, WeightKind.ABS).total_within
            assert hier.cost == exact, (m, scores)
    report(
        "criterion 7: triangle composition and hierarchy",
        True,
        f"100 metric instances ratio <= 2 (worst {worst_ratio:.3f}); "
        "collinear hierarchy exact for 3,6,12,24 points",
    )


def test_8_matching_is_sort_dominated():
    rng = random.Random(88)
    scores = [rng.random() for _ in range(1_000_000)]
    items = make_items(scores)  # construction stays outside the timed region

    def best_of(fn, runs=3):
        best = math.inf
        for _ in range(runs):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    t_sort = best_of(lambda: sort_items(items))
    t_match = best_of(lambda: match_line(items, 2, WeightKind.ABS))
    overhead = t_match - t_sort
    share = overhead / t_match
    ok = t_match < 2.0 and share < 0.20
    report(
        "criterion 8: sort-dominated runtime",
        ok,
        f"match {t_match:.3f}s (< 2s), sort {t_sort:.3f}s, "
        f"overhead {max(share, 0) * 100:.1f}% (< 20%)",
    )


def test_9_cli_byte_determinism(tmp_path):
    rng = random.Random(909)
    rows = ["id,score"] + [f"p{n},{rng.uniform(0, 50):.4f}" for n in range(60)]
    path = tmp_path / "cohort.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    def run(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "linematch", *argv],
            capture_output=True,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    match_argv = ["match", "--input", str(path), "--k", "3", "--balance"]
    bench_argv = ["bench", "--seed", "5", "--line-sizes", "2,4",
                  "--tri-sizes", "2,4", "--instances", "2"]
    match_same = run(match_argv) == run(match_argv)
    bench_same = run(bench_argv) == run(bench_argv)
    ok = match_same and bench_same
    report(
        "criterion 9: deterministic CLI output",
        ok,
        f"match byte-identical={match_same}, bench byte-identical={bench_same}",
    )
