import random
import time
from itertools import accumulate, combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linematch import certify
from linematch.certify import (
    CertificateEntry,
    ExchangeCertificate,
    LinearForm,
    QuadraticForm,
    SuffixSumProof,
    certificate_render,
    certify_abs,
    certify_general,
    certify_sq,
    difference_form,
)
from linematch.core import (
    EnumerationBudgetError,
    ValidationError,
    WeightKind,
)

from reference_forms import (
    ENTRY_COUNTS,
    K3_ABS_FORMS,
    K3_SQ_FACTORS,
    certify_abs_reference,
    certify_sq_reference,
    difference_form_reference,
    factor_as_double_product_reference,
    linear_render_reference,
)


def abs_cost(scores, subset):
    return sum(
        abs(scores[b - 1] - scores[a - 1]) for a, b in combinations(subset, 2)
    )


def sq_cost(scores, subset):
    return sum(
        (scores[b - 1] - scores[a - 1]) ** 2 for a, b in combinations(subset, 2)
    )


def numeric_difference(k, first, weight, scores):
    """Independent evaluation of cost(split) - cost(sorted split)."""
    m = 2 * k
    second = tuple(p for p in range(1, m + 1) if p not in first)
    cost = abs_cost if weight is WeightKind.ABS else sq_cost
    return (
        cost(scores, first)
        + cost(scores, second)
        - cost(scores, range(1, k + 1))
        - cost(scores, range(k + 1, m + 1))
    )


def random_sorted_vectors(m, count, seed, lo=-30, hi=30):
    rng = random.Random(seed)
    return [
        sorted(rng.randint(lo, hi) for _ in range(m)) for _ in range(count)
    ]


class TestDifferenceForm:
    def test_k2_abs_example(self):
        form = difference_form(2, (1, 3), WeightKind.ABS)
        assert form.coeffs == (0, -2, 2, 0)

    def test_k3_abs_example(self):
        form = difference_form(3, (1, 2, 4), WeightKind.ABS)
        assert form.coeffs == (0, 0, -4, 4, 0, 0)

    def test_sorted_split_is_zero(self):
        assert difference_form(3, (1, 2, 3), WeightKind.ABS).is_zero()
        assert difference_form(3, (1, 2, 3), WeightKind.SQ).is_zero()

    def test_k2_sq_example(self):
        # factor orientation is normalized by certify_sq; here compare up to
        # a global sign flip of the pair
        form = difference_form(2, (1, 3), WeightKind.SQ)
        u, v = form.factor_as_double_product()
        oriented = sorted((u.coeffs, v.coeffs))
        flipped = sorted(
            (tuple(-c for c in u.coeffs), tuple(-c for c in v.coeffs))
        )
        expected = [(-1, 0, 0, 1), (0, -1, 1, 0)]
        assert oriented == expected or flipped == expected

    @pytest.mark.parametrize(
        "first",
        [(1, 2), (2, 3, 4), (1, 2, 7), (1, 1, 2), (1, 2, 3, 4)],
    )
    def test_malformed_split_rejected(self, first):
        with pytest.raises(ValidationError):
            difference_form(3, first, WeightKind.ABS)

    @given(
        st.integers(2, 5),
        st.data(),
    )
    def test_symbolic_matches_numeric_evaluation(self, k, data):
        companions = data.draw(
            st.sets(st.integers(2, 2 * k), min_size=k - 1, max_size=k - 1)
        )
        first = tuple(sorted({1} | companions))
        scores = sorted(
            data.draw(
                st.lists(
                    st.integers(-20, 20), min_size=2 * k, max_size=2 * k
                )
            )
        )
        for weight in WeightKind:
            form = difference_form(k, first, weight)
            assert form.evaluate(scores) == numeric_difference(
                k, first, weight, scores
            )


class TestSuffixSumCriterion:
    def test_suffix_sums(self):
        assert LinearForm((0, -2, 2, 0)).suffix_sums() == (0, 0, 2, 0)

    def cone_generators(self, m):
        gens = [tuple([0] * j + [1] * (m - j)) for j in range(1, m)]
        return gens

    @given(st.lists(st.integers(-6, 6), min_size=2, max_size=8))
    def test_criterion_equals_generator_check(self, coeffs):
        form = LinearForm(tuple(coeffs))
        m = len(coeffs)
        ones = (1,) * m
        by_generators = form.evaluate(ones) == 0 and all(
            form.evaluate(g) >= 0 for g in self.cone_generators(m)
        )
        assert form.is_cone_nonnegative() == by_generators

    @given(st.lists(st.integers(-6, 6), min_size=2, max_size=8), st.integers())
    def test_positive_verdict_holds_on_random_sorted_vectors(self, coeffs, seed):
        form = LinearForm(tuple(coeffs))
        if form.is_cone_nonnegative():
            for vec in random_sorted_vectors(len(coeffs), 25, seed):
                assert form.evaluate(vec) >= 0


class TestCertifyAbs:
    @pytest.mark.parametrize("k", list(ENTRY_COUNTS))
    def test_counts_and_verification(self, k):
        cert = certify_abs(k)
        assert cert.entry_count == ENTRY_COUNTS[k]
        assert len(cert.entries) == ENTRY_COUNTS[k]
        assert cert.verified
        assert cert.failures == ()

    def test_k3_matches_reference_forms(self):
        cert = certify_abs(3)
        got = {e.first: e.form.coeffs for e in cert.entries if not e.form.is_zero()}
        assert got == K3_ABS_FORMS

    def test_numeric_soundness_of_certified_forms(self):
        for k in (2, 3, 4):
            cert = certify_abs(k)
            for entry in cert.entries:
                for vec in random_sorted_vectors(2 * k, 1000, seed=41 * k):
                    assert entry.form.evaluate(vec) >= 0

    def test_gate(self):
        with pytest.raises(ValidationError):
            certify_abs(1)

    def test_uncollected_certificate_keeps_counts(self):
        cert = certify_abs(6, collect=False)
        assert cert.entries == ()
        assert cert.entry_count == ENTRY_COUNTS[6]
        assert cert.verified

    def test_proofs_recheckable(self):
        cert = certify_abs(4)
        for entry in cert.entries:
            assert isinstance(entry.proof, SuffixSumProof)
            sums = entry.proof.suffix_sums
            assert sums == entry.form.suffix_sums()
            assert sums[0] == 0 and min(sums) >= 0


class TestCertifySq:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_counts_and_verification(self, k):
        cert = certify_sq(k)
        assert cert.entry_count == ENTRY_COUNTS[k]
        assert cert.verified
        assert cert.failures == ()

    def test_k3_matches_reference_factorizations(self):
        cert = certify_sq(3)
        got = {
            e.first: (e.proof.left.coeffs, e.proof.right.coeffs)
            for e in cert.entries
            if not e.form.is_zero()
        }
        assert got == K3_SQ_FACTORS

    def test_k2_matches_reference_factorizations(self):
        cert = certify_sq(2)
        got = {
            e.first: (e.proof.left.coeffs, e.proof.right.coeffs)
            for e in cert.entries
            if not e.form.is_zero()
        }
        assert got == {
            (1, 3): ((-1, 0, 0, 1), (0, -1, 1, 0)),
            (1, 4): ((-1, 0, 1, 0), (0, -1, 0, 1)),
        }

    def test_factor_pairs_reexpand_exactly(self):
        for k in (2, 3, 4):
            cert = certify_sq(k)
            m = 2 * k
            for entry in cert.entries:
                u = entry.proof.left.coeffs
                v = entry.proof.right.coeffs
                expanded = tuple(
                    tuple(u[i] * v[j] + v[i] * u[j] for j in range(m))
                    for i in range(m)
                )
                assert expanded == entry.form.matrix

    def test_factors_nonnegative_and_numeric_soundness(self):
        for k in (2, 3):
            cert = certify_sq(k)
            for entry in cert.entries:
                assert entry.proof.left.is_cone_nonnegative()
                assert entry.proof.right.is_cone_nonnegative()
                for vec in random_sorted_vectors(2 * k, 1000, seed=13 * k):
                    assert entry.form.evaluate(vec) >= 0

    def test_gate(self):
        with pytest.raises(ValidationError):
            certify_sq(1)


class TestFactoring:
    def test_rank2_recovery_roundtrip(self):
        rng = random.Random(3)
        for _ in range(200):
            m = rng.randint(2, 8)
            support = list(range(m))
            rng.shuffle(support)
            cut = rng.randint(1, m - 1)
            u = [0] * m
            v = [0] * m
            for i in support[:cut]:
                u[i] = rng.choice([-2, -1, 1, 2])
            for j in support[cut:]:
                v[j] = rng.choice([-2, -1, 1, 2])
            matrix = tuple(
                tuple(u[i] * v[j] + v[i] * u[j] for j in range(m)) for i in range(m)
            )
            form = QuadraticForm(matrix)
            pair = form.factor_as_double_product()
            assert pair is not None
            a, b = pair
            expanded = tuple(
                tuple(
                    a.coeffs[i] * b.coeffs[j] + b.coeffs[i] * a.coeffs[j]
                    for j in range(m)
                )
                for i in range(m)
            )
            assert expanded == matrix

    def test_unfactorable_returns_none(self):
        # x1*x2 + x3*x4 has rank 4: no two-linear-form product exists
        matrix = (
            (0, 1, 0, 0),
            (1, 0, 0, 0),
            (0, 0, 0, 1),
            (0, 0, 1, 0),
        )
        assert QuadraticForm(matrix).factor_as_double_product() is None

    def test_square_term_returns_none(self):
        matrix = ((1, 0), (0, 0))
        assert QuadraticForm(matrix).factor_as_double_product() is None

    def test_v_row_not_divisible_by_the_pivot_returns_none(self):
        # u = (2, 3, 0, 0) from column 3; row 1's v block (2, 3) is not a
        # multiple of u's pivot 2
        matrix = (
            (0, 0, 2, 3),
            (0, 0, 3, 3),
            (2, 3, 0, 0),
            (3, 3, 0, 0),
        )
        assert QuadraticForm(matrix).factor_as_double_product() is None

    def test_evaluate_refuses_the_wrong_length(self):
        with pytest.raises(ValidationError, match="form over 2 variables evaluated on 3"):
            LinearForm((1, -1)).evaluate([1, 2, 3])
        with pytest.raises(ValidationError, match="form over 2 variables evaluated on 1"):
            QuadraticForm(((0, 1), (1, 0))).evaluate([1])


def symmetric_double_product(u, v):
    m = len(u)
    return [[u[i] * v[j] + v[i] * u[j] for j in range(m)] for i in range(m)]


@st.composite
def factoring_inputs(draw):
    """Integer symmetric matrices: u v^T + v u^T with disjoint or overlapping
    supports, either as is, with one off-diagonal pair moved by +-1, or with
    one diagonal entry moved; and the zero matrix."""
    m = draw(st.integers(2, 8))
    if draw(st.integers(0, 9)) == 0:
        return tuple((0,) * m for _ in range(m))
    coeff = st.integers(-3, 3)
    u = draw(st.lists(coeff, min_size=m, max_size=m))
    v = draw(st.lists(coeff, min_size=m, max_size=m))
    if not draw(st.booleans()):  # disjoint supports
        in_u = draw(st.lists(st.booleans(), min_size=m, max_size=m))
        u = [c if b else 0 for c, b in zip(u, in_u)]
        v = [0 if b else c for c, b in zip(v, in_u)]
    mat = symmetric_double_product(u, v)
    change = draw(st.sampled_from([None, "pair", "diagonal"]))
    if change == "pair":
        i, j = draw(st.sampled_from([(i, j) for i in range(m) for j in range(i + 1, m)]))
        delta = draw(st.sampled_from([-1, 1]))
        mat[i][j] += delta
        mat[j][i] += delta
    elif change == "diagonal":
        i = draw(st.integers(0, m - 1))
        mat[i][i] += draw(st.sampled_from([-2, -1, 1, 2]))
    return tuple(map(tuple, mat))


class TestReferenceEquality:
    """The row-class sq constructor, the row-wise factoring check, the one-pass
    cone test and the collect=False shortcuts against the certifiers as first
    written (tests/reference_forms.py)."""

    @pytest.mark.parametrize("collect", [True, False])
    @pytest.mark.parametrize("k", range(2, 10))
    def test_certify_abs_equals_reference(self, k, collect):
        assert certify_abs(k, collect=collect) == certify_abs_reference(
            k, collect=collect
        )

    @pytest.mark.parametrize("k", [10, 11])
    def test_uncollected_certify_abs_equals_reference_beyond_k9(self, k):
        assert certify_abs(k, collect=False) == certify_abs_reference(
            k, collect=False
        )

    @pytest.mark.parametrize("collect", [True, False])
    @pytest.mark.parametrize("k", range(2, 9))
    def test_certify_sq_equals_reference(self, k, collect):
        assert certify_sq(k, collect=collect) == certify_sq_reference(
            k, collect=collect
        )

    @pytest.mark.parametrize(
        "weight,ks", [(WeightKind.ABS, range(2, 10)), (WeightKind.SQ, range(2, 9))]
    )
    def test_difference_form_equals_reference_on_every_split(self, weight, ks):
        for k in ks:
            for companions in combinations(range(2, 2 * k + 1), k - 1):
                first = (1,) + companions
                assert difference_form(k, first, weight) == (
                    difference_form_reference(k, first, weight)
                ), (k, first)

    @settings(max_examples=400)
    @given(factoring_inputs())
    def test_factoring_equals_reference(self, matrix):
        form = QuadraticForm(matrix)
        assert form.factor_as_double_product() == (
            factor_as_double_product_reference(form)
        )

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=8))
    def test_state_criterion_matches_linear_forms(self, coeffs):
        # the per-state check, applied to every suffix sum of a form, is the
        # whole-form criterion, in both orientations
        for form in (LinearForm(tuple(coeffs)), -LinearForm(tuple(coeffs))):
            m = len(form.coeffs)
            sums = accumulate(reversed(form.coeffs))
            by_states = not any(
                certify._fails_criterion(c == m, s) for c, s in enumerate(sums, 1)
            )
            assert by_states == form.is_cone_nonnegative()

    def test_mixed_orientation_factors_fail(self, monkeypatch):
        # u negated, v as is: v stays nonnegative on the sorted cone while -u
        # has a negative suffix sum on every split's path (h - t >= 1 at
        # c = k), so every split must fail, collected or not
        def mixed(k, c, t):
            su, sv = factor_sums(k, c, t)
            return -su, sv

        factor_sums = certify._sq_factor_sums
        monkeypatch.setattr(certify, "_sq_factor_sums", mixed)
        for collect in (True, False):
            cert = certify_sq(2, collect=collect)
            assert not cert.verified
            assert [e.first for e in cert.failures] == [(1, 2), (1, 3), (1, 4)]
            assert all(
                e.reason == "factor not nonnegative on the sorted cone"
                and e.proof is None
                for e in cert.failures
            )

    @pytest.mark.parametrize("collect", [True, False])
    def test_abs_failures_keep_split_order_and_proofs(self, monkeypatch, collect):
        # every split rejected: failures come in lexicographic split order,
        # collected entries in the reference's colex order, and each failure
        # carries the reference's form and suffix sums
        monkeypatch.setattr(certify, "_fails_criterion", lambda last, *sums: True)
        cert = certify_abs(4, collect=collect)
        reference = {e.first: e for e in certify_abs_reference(4).entries}
        assert not cert.verified
        assert [e.first for e in cert.failures] == [
            (1,) + c for c in combinations(range(2, 9), 3)
        ]
        for e in cert.failures:
            assert not e.ok and e.reason == "suffix-sum criterion failed"
            assert (e.second, e.form, e.proof) == (
                reference[e.first].second,
                reference[e.first].form,
                reference[e.first].proof,
            )
        assert [e.first for e in cert.entries] == (list(reference) if collect else [])


@st.composite
def splits(draw, max_k=16):
    """(k, first group) of a random split, x_1's group listed ascending."""
    k = draw(st.integers(2, max_k))
    companions = draw(
        st.sets(st.integers(2, 2 * k), min_size=k - 1, max_size=k - 1)
    )
    return k, (1,) + tuple(sorted(companions))


def path_of(k, first):
    """t(c) for c = 1..2k: members of `first` among the last c positions."""
    members = set(first)
    return list(accumulate(int(p in members) for p in range(2 * k, 0, -1)))


def every_split(k):
    return [(1,) + c for c in combinations(range(2, 2 * k + 1), k - 1)]


class TestStateTable:
    @settings(max_examples=200)
    @given(splits())
    def test_abs_table_is_suffix_sums_of_difference_form(self, split):
        k, first = split
        table = certify._abs_states(k)
        sums = difference_form(k, first, WeightKind.ABS).suffix_sums()
        # S_j is the suffix of length c = 2k - j + 1
        assert [table[c - 1][t] for c, t in enumerate(path_of(k, first), 1)] == (
            list(reversed(sums))
        )

    @settings(max_examples=100)
    @given(splits())
    def test_sq_closed_form_factors(self, split):
        # u = 1_hi - 1_A and v = 1_A - 1_lo double to the difference form,
        # and their suffix sums are the state table's
        k, first = split
        m = 2 * k
        members = set(first)
        u = tuple(int(p > k) - int(p in members) for p in range(1, m + 1))
        v = tuple(int(p in members) - int(p <= k) for p in range(1, m + 1))
        matrix = tuple(
            tuple(u[a] * v[b] + v[a] * u[b] for b in range(m)) for a in range(m)
        )
        assert difference_form(k, first, WeightKind.SQ).matrix == matrix
        sums = [certify._sq_factor_sums(k, c, t)
                for c, t in enumerate(path_of(k, first), 1)]
        assert [su for su, _ in sums] == list(
            reversed(LinearForm(u).suffix_sums())
        )
        assert [sv for _, sv in sums] == list(
            reversed(LinearForm(v).suffix_sums())
        )

    def test_verified_uncollected_certificates_enumerate_nothing(
        self, monkeypatch
    ):
        def refuse(*args):
            raise AssertionError("the splits were enumerated")

        monkeypatch.setattr(certify, "_walk", refuse)
        for k in [*range(2, 17), 17, 24, 40, 64]:
            assert certify_abs(k, collect=False).verified
            assert certify_sq(k, collect=False).verified

    def test_abs_table_is_the_general_proofs_closed_form(self):
        # T(c, t) = 2*(h - t)*(t - (c - h)), h = min(c, k), on every
        # reachable state, the table still derived from the weights
        for k in range(2, 61):
            table = certify._abs_states(k)
            for c in range(1, 2 * k + 1):
                h = min(c, k)
                for t in range(c - h, h + 1):
                    assert table[c - 1][t] == 2 * (h - t) * (t - (c - h)), (k, c, t)

    @pytest.mark.parametrize("certifier", [certify_abs, certify_sq])
    def test_state_tables_over_budget_raise_before_tabulating(
        self, monkeypatch, certifier
    ):
        # k (3k + 5) / 2 states: 9,998,794 at k = 2581, 10,006,541 at 2582
        def refuse(*args):
            raise AssertionError("a state table was built")

        monkeypatch.setattr(certify, "_PLANS", {w: refuse for w in WeightKind})
        for k in (2582, 10**6, 10**12):
            with pytest.raises(EnumerationBudgetError, match=f"certify k={k} "
                               f"would tabulate {k * (3 * k + 5) // 2} states"):
                certifier(k, collect=False)
        with pytest.raises(AssertionError, match="a state table was built"):
            certifier(2581, collect=False)

    @pytest.mark.parametrize("certifier", [certify_abs, certify_sq])
    def test_a_state_table_just_under_the_budget_verifies(
        self, monkeypatch, certifier
    ):
        # 1,000 states at k = 25, 1,079 at k = 26
        monkeypatch.setattr(certify, "DEFAULT_BUDGET", 1000)
        assert certifier(25, collect=False).verified
        with pytest.raises(EnumerationBudgetError, match="1079 states"):
            certifier(26, collect=False)


    @pytest.mark.parametrize("certifier", [certify_abs, certify_sq])
    def test_collected_certificates_over_budget_raise_before_walking(
        self, monkeypatch, certifier
    ):
        # C(27, 13) = 20,058,300 entries would exceed the default budget
        def refuse(*args):
            raise AssertionError("the splits were enumerated")

        monkeypatch.setattr(certify, "_walk", refuse)
        with pytest.raises(EnumerationBudgetError, match="20058300 splits"):
            certifier(14)
        assert certifier(14, collect=False).verified


def abs_form_from_weights(k, first, w):
    """The abs difference form for weights w by direct assembly: each
    position's weight by rank in its group minus by rank in its half."""
    m = 2 * k
    second = [p for p in range(1, m + 1) if p not in first]
    coeffs = [0] * m
    for group, sign in ((first, 1), (second, 1), (range(1, k + 1), -1),
                        (range(k + 1, m + 1), -1)):
        for rank, p in enumerate(group):
            coeffs[p - 1] += sign * w[rank]
    return LinearForm(tuple(coeffs))


def sq_matrix_from_cells(k, first, cell):
    """The sq matrix with M[a][b] = cell(class of a, class of b), cell by
    cell, class = 2 * [in hi] + [in first]."""
    members = set(first)
    classes = [2 * (p > k) + (p in members) for p in range(1, 2 * k + 1)]
    return tuple(tuple(cell(p, q) for q in classes) for p in classes)


def assert_failures(cert, expected, collect):
    """`expected` maps every split to its failing entry's (form, proof,
    reason), or None if it verifies."""
    failing = [first for first in sorted(expected) if expected[first]]
    assert not cert.verified
    assert [e.first for e in cert.failures] == failing
    for e in cert.failures:
        assert not e.ok and (e.form, e.proof, e.reason) == expected[e.first]
    if collect:
        assert {e.first: e.ok for e in cert.entries} == {
            first: not expected[first] for first in expected
        }
    else:
        assert cert.entries == ()


class TestGeneralProof:
    def test_verifies_every_claim(self):
        proof = certify_general()
        assert proof.verified and len(proof.checks) == 4
        lines = proof.render().splitlines()
        assert lines[1:] == [f"{claim}: OK" for claim, _ in proof.checks] + [
            "verified=true"]

    def test_readme_block_is_the_render(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
        section = readme.split("## Why sort-and-chunk is optimal for every k\n")[1]
        assert section.split("```\n")[1] == certify_general().render() + "\n"

    @pytest.mark.parametrize(
        "name,bad,failing",
        [
            # weights shifted by -1: W(t) = t(k-t) - t, T unchanged
            ("_abs_weights", lambda real: lambda k: [w - 1 for w in real(k)], [0]),
            # the two smallest weights swapped: W and T change
            ("_abs_weights", lambda real: lambda k: [real(k)[1], real(k)[0],
                                                     *real(k)[2:]], [0, 1]),
            # one (lo, B) x (hi, A) cell perturbed: the class identity fails
            ("_sq_cell", lambda real: lambda p, q: real(p, q) + ((p, q) == (0, 3)),
             [2]),
            # u negated: T = 2*u*v fails, and u < 0 on reachable states
            ("_sq_factor_sums", lambda real: lambda k, c, t: (
                -real(k, c, t)[0], real(k, c, t)[1]), [1, 3]),
        ],
        ids=["shifted-weights", "swapped-weights", "class-cell", "negated-u"],
    )
    def test_negative_controls_fail(self, monkeypatch, name, bad, failing):
        monkeypatch.setattr(certify, name, bad(getattr(certify, name)))
        proof = certify_general()
        assert not proof.verified
        assert [i for i, (_, ok) in enumerate(proof.checks) if not ok] == failing
        assert proof.render().endswith("verified=false")


class TestMutations:
    """A bad abs weight and a wrong sq class cell must fail exactly the
    splits that a per-split recomputation rejects, collected or not."""

    @pytest.mark.parametrize("collect", [True, False])
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_bad_abs_weight(self, monkeypatch, k, collect):
        # the two smallest members' weights swapped
        w = certify._abs_weights(k)
        w[0], w[1] = w[1], w[0]
        monkeypatch.setattr(certify, "_abs_weights", lambda k: list(w))
        expected = {}
        for first in every_split(k):
            form = abs_form_from_weights(k, first, w)
            expected[first] = None if form.is_cone_nonnegative() else (
                form, SuffixSumProof(form.suffix_sums()),
                "suffix-sum criterion failed",
            )
        assert 0 < sum(map(bool, expected.values())) < len(expected)
        assert_failures(certify_abs(k, collect=collect), expected, collect)

    @pytest.mark.parametrize("collect", [True, False])
    @pytest.mark.parametrize(  # classes 0..3: (lo, B), (lo, A), (hi, B), (hi, A)
        "p,q", [(0, 3), (1, 2), (0, 0), (3, 1)],
        ids=["loB-hiA", "loA-hiB", "loB-loB", "hiA-loA"],
    )
    def test_wrong_sq_class_cell(self, monkeypatch, p, q, collect):
        cell = certify._sq_cell

        def wrong(a, b):
            return cell(a, b) + ((a, b) == (p, q))

        monkeypatch.setattr(certify, "_sq_cell", wrong)
        k = 4
        expected = {}
        for first in every_split(k):
            members = set(first)
            u = [int(a > k) - int(a in members) for a in range(1, 2 * k + 1)]
            v = [int(a in members) - int(a <= k) for a in range(1, 2 * k + 1)]
            matrix = sq_matrix_from_cells(k, first, wrong)
            doubled = tuple(tuple(ua * vb + va * ub for ub, vb in zip(u, v))
                            for ua, va in zip(u, v))
            expected[first] = None if matrix == doubled else (
                QuadraticForm(matrix), None, "no factorization into two linear forms"
            )
        assert_failures(certify_sq(k, collect=collect), expected, collect)
        uncollected = certify_sq(k, collect=False).failures
        assert uncollected == certify_sq(k).failures


class TestRender:
    @given(st.lists(st.integers(-12, 12), min_size=1, max_size=20))
    def test_linear_render_equals_reference(self, coeffs):
        form = LinearForm(tuple(coeffs))
        assert form.render() == linear_render_reference(form)

    def test_k2_abs_layout(self):
        text = certificate_render(certify_abs(2))
        lines = text.splitlines()
        assert lines[0] == "k=2 weight=abs entries=3 verified=true"
        assert len(lines) == 4
        assert lines[1].startswith("{1,2|3,4} :: 0 ::")
        assert "-2*x2 +2*x3" in text

    def test_k3_sq_has_nine_factored_lines(self):
        text = certificate_render(certify_sq(3))
        assert text.count("factors=2*(") == 10  # nine real + the zero split
        assert "verified=true" in text

    def test_failed_entries_are_marked(self):
        bad_form = LinearForm((1, -1))
        entry = CertificateEntry(
            first=(1,),
            second=(2,),
            form=bad_form,
            proof=SuffixSumProof(bad_form.suffix_sums()),
            ok=False,
            reason="suffix-sum criterion failed",
        )
        cert = ExchangeCertificate(
            k=1,
            weight=WeightKind.ABS,
            entry_count=1,
            verified=False,
            entries=(entry,),
            failures=(entry,),
        )
        text = certificate_render(cert)
        assert "verified=false" in text
        assert "FAILED(suffix-sum criterion failed)" in text

    def test_uncollected_render_mentions_elision(self):
        text = certificate_render(certify_abs(6, collect=False))
        assert "(462 entries not collected)" in text


class TestGrowthLaw:
    """Collected certificates still build an entry per split, joined from
    two halves tabulated once (3 * 2^(k-1) of them), so their cost follows
    C(2k-1, k-1); uncollected ones that verify enumerate nothing
    (TestStateTable.test_verified_uncollected_certificates_enumerate_nothing)."""

    def _time_certify(self, k):
        # min over repeated runs is the noise-robust estimator for
        # deterministic CPU-bound work
        best = None
        spent = 0.0
        reps = 0
        while spent < 0.1 or reps < 3:
            t0 = time.perf_counter()
            certify_abs(k)
            elapsed = time.perf_counter() - t0
            spent += elapsed
            best = elapsed if best is None else min(best, elapsed)
            reps += 1
            if reps >= 500:
                break
        return best

    def test_cost_roughly_quadruples_per_k(self):
        last_ratios = None
        for _ in range(3):  # timing property; shield against load spikes
            times = {k: self._time_certify(k) for k in range(5, 10)}
            last_ratios = [times[k + 1] / times[k] for k in range(5, 9)]
            if all(3.0 < r < 6.0 for r in last_ratios):
                return
        raise AssertionError(
            f"per-k cost ratios {last_ratios} escape [3, 6] in 3 attempts"
        )
