"""Verification battery: outcome bookkeeping, caps, and edge dimensions."""

import dataclasses
import os
import random
from fractions import Fraction

import pytest

from signconj import (
    Matrix,
    admissible_sign_vectors,
    Polynomial,
    RangeError,
    blockform,
    decomposition,
    graph_components,
    invariants,
    parse_sign_vector,
    verify_matrix,
    verification,
)
from signconj.verification import CheckOutcome, format_value
from oracles import random_matrix
from splitting import assert_all_reaped, on_cpus, split_test

# two components, {1, 2} and {3}: the stabilizer is {(1,1,1), (1,1,-1)}
EDGE_PLUS_LOOP = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 5]])


class TestCheckOutcome:
    def test_records_first_pair(self):
        out = CheckOutcome(name="x")
        out.record(5, 5)
        assert out.passed and out.lhs == "5" and out.rhs == "5"

    def test_failure_keeps_first_mismatch(self):
        out = CheckOutcome(name="x")
        out.record(1, 1, "c=1,1")
        out.record(2, 3, "c=1,-1")
        out.record(4, 5, "c=-1,-1")
        assert not out.passed
        assert (out.lhs, out.rhs) == ("2", "3")
        assert "c=1,-1" in out.note

    def test_format_value(self):
        from fractions import Fraction

        from signconj import Polynomial, parse_sign_vector

        assert format_value(Fraction(2, 3)) == "2/3"
        assert format_value(Polynomial([1, -2])) == "[1, -2]"
        assert format_value(Matrix([[1, 2], [3, 4]])) == "[1, 2; 3, 4]"
        assert format_value(parse_sign_vector("1,-1")) == "1,-1"
        assert format_value((1, 2)) == "(1, 2)"


class TestVerifyMatrix:
    def test_random_matrices_pass(self):
        rng = random.Random(77)
        for _ in range(8):
            n = rng.randint(1, 5)
            report = verify_matrix(random_matrix(rng, n))
            assert report.passed, [c.name for c in report.failures()]
            assert all(c.lhs == c.rhs for c in report.checks)

    def test_one_by_one(self):
        report = verify_matrix(Matrix([[7]]))
        assert report.passed
        assert ("minor2_additivity", "n=1 has no order-2 minors") in report.skipped

    def test_zero_matrix(self):
        report = verify_matrix(Matrix.zero(3))
        assert report.passed

    def test_caps_produce_skips_not_failures(self):
        a = Matrix.identity(4)
        report = verify_matrix(a, permpoly_cap=3, perm_cap=3, orbit_cap=3)
        assert report.passed
        skipped_names = {name for name, _ in report.skipped}
        assert "permanent_invariant" in skipped_names
        assert "perm_poly_invariant" in skipped_names
        assert "orbit_enumeration" in skipped_names
        run_names = {c.name for c in report.checks}
        assert "permanent_invariant" not in run_names
        # above the orbit cap nothing is recorded in place of the brute-force count
        assert "orbit_times_stabilizer" not in run_names

    def test_no_census_above_orbit_cap(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("orbit_size called above the orbit cap")

        monkeypatch.setattr(verification, "orbit_size", refuse)
        report = verify_matrix(random_matrix(random.Random(31), 4), orbit_cap=0)
        assert report.passed
        assert ("orbit_enumeration", "n=4 exceeds orbit cap 0") in report.skipped

    def test_sampled_vectors_deterministic(self):
        a = Matrix([[1, 2], [3, 4]])
        first = verify_matrix(a, samples=4, seed=11)
        second = verify_matrix(a, samples=4, seed=11)
        assert [(c.name, c.lhs, c.rhs) for c in first.checks] == [
            (c.name, c.lhs, c.rhs) for c in second.checks
        ]

    def test_check_roster_covers_every_theorem(self):
        report = verify_matrix(Matrix([[1, 2], [3, 4]]))
        names = {c.name for c in report.checks}
        expected = {
            "trace_invariant",
            "determinant_invariant",
            "permanent_invariant",
            "rank_invariant",
            "char_poly_invariant",
            "perm_poly_invariant",
            "minor_sum_invariant",
            "permanent_sum_invariant",
            "entrywise_matches_signature_product",
            "signature_matrix_self_inverse",
            "diagonal_preserved",
            "involution",
            "composition_matches_pointwise_product",
            "multiplicative_over_product",
            "split_reconstructs",
            "split_parts_fixed_and_negated",
            "mask_matches_half_sum",
            "mask_dimensions",
            "minor2_additivity_sign_split",
            "permanent2_additivity_sign_split",
            "minor2_additivity_transpose_split",
            "permanent2_additivity_transpose_split",
            "sym_part_block_similarity",
            "antisym_part_block_similarity",
            "sym_part_factorizations",
            "antisym_part_factorizations",
            "distinct_maps_on_dense_witness",
            "orbit_matches_component_count",
            "stabilizer_matches_brute_force",
            "orbit_times_stabilizer",
        }
        assert expected <= names

    def test_antidiag_sign_note_present(self):
        report = verify_matrix(Matrix([[1, 2], [3, 4]]))
        notes = {c.name: c.note for c in report.checks}
        assert "(-1)^(n/2)" in notes["antisym_part_factorizations"]


class TestSamples:
    @pytest.mark.parametrize("samples", [0, -3])
    def test_below_one_rejected(self, samples):
        with pytest.raises(RangeError):
            verify_matrix(Matrix([[1, 2], [3, 4]]), samples=samples)

    def test_one_sample_accepted(self):
        report = verify_matrix(Matrix.zero(4), samples=1, seed=3)
        assert report.passed

    @staticmethod
    def _checked(monkeypatch, a, **kwargs):
        """The sign vectors verify_matrix checks, one entry per check."""
        seen = []
        real = verification.conjugate_by_signature

        def spy(m, c):
            seen.append(c)
            return real(m, c)

        monkeypatch.setattr(verification, "conjugate_by_signature", spy)
        # one part: a forked child's calls never reach `seen`
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(1), raising=False)
        assert verify_matrix(a, **kwargs).passed
        return seen

    def test_sampled_vectors_are_distinct_draws_of_the_seeded_stream(self, monkeypatch):
        rng = random.Random(0)
        draws = [tuple([1] + [rng.choice((1, -1)) for _ in range(4)]) for _ in range(64)]
        # drawn with replacement, the first 16 draws hold only 10 distinct vectors
        assert len(set(draws[:16])) == 10
        checked = self._checked(monkeypatch, random_matrix(random.Random(5), 5), samples=16, seed=0)
        assert [c.signs for c in checked] == list(dict.fromkeys(draws))[:16]

    def test_samples_beyond_the_vector_count_check_each_vector_once(self, monkeypatch):
        a = Matrix([[1, "1/2", 0], [2, 3, "-1/3"], [0, 4, 5]])
        checked = self._checked(monkeypatch, a, samples=100, seed=0)
        assert sorted(c.signs for c in checked) == sorted(
            c.signs for c in admissible_sign_vectors(3)
        )


class TestStabilizerBruteForce:
    """`stabilizer_matches_brute_force` compares the constructive
    stabilizer with a search over every admissible vector."""

    def outcome(self, report):
        return next(c for c in report.checks if c.name == "stabilizer_matches_brute_force")

    @pytest.mark.parametrize(
        "a, samples, count",
        [
            (EDGE_PLUS_LOOP, None, "2"),
            (EDGE_PLUS_LOOP, 2, "2"),
            # five components: all 16 admissible vectors fix it, in the same order
            (Matrix.diagonal([1, 2, 3, 4, 5]), 2, "16"),
        ],
    )
    def test_passes_and_reports_counts(self, a, samples, count):
        out = self.outcome(verify_matrix(a, samples=samples))
        assert out.passed
        assert (out.lhs, out.rhs) == (count, count)

    @pytest.mark.parametrize("samples", [None, 2])
    def test_fails_when_a_vector_is_dropped(self, monkeypatch, samples):
        real = verification.orbit_size

        def dropping(a, cap):
            report = real(a, cap=cap)
            return dataclasses.replace(report, stabilizer=report.stabilizer[:-1])

        monkeypatch.setattr(verification, "orbit_size", dropping)
        report = verify_matrix(EDGE_PLUS_LOOP, samples=samples)
        assert not self.outcome(report).passed
        assert not report.passed

    @pytest.mark.parametrize("samples", [None, 2])
    def test_fails_when_a_vector_is_swapped(self, monkeypatch, samples):
        # same count, wrong member: only the element comparison catches it
        real = verification.orbit_size
        wrong = parse_sign_vector("1,-1,1")

        def swapping(a, cap):
            report = real(a, cap=cap)
            return dataclasses.replace(report, stabilizer=report.stabilizer[:-1] + (wrong,))

        monkeypatch.setattr(verification, "orbit_size", swapping)
        out = self.outcome(verify_matrix(EDGE_PLUS_LOOP, samples=samples))
        assert not out.passed
        assert out.lhs == "(1,1,1, 1,-1,1)"
        assert out.rhs == "(1,1,1, 1,1,-1)"

    @pytest.mark.parametrize("components", [1, 2, 3, 4])
    def test_sparse_rational_orbit_checks_pass(self, components):
        # the brute-force pass keys conjugates by signed numerators; rational
        # entries with repeated magnitudes and signs must not collide
        rng = random.Random(40 + components)
        n = 8
        labels = [i % components for i in range(n)]
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = Fraction(rng.choice((0, 1, -1)), rng.randint(1, 3))
            for j in range(n):
                if i != j and labels[i] == labels[j] and rng.random() < 0.6:
                    rows[i][j] = Fraction(rng.choice((1, -1, 2)), rng.randint(1, 3))
        for i in range(n - components):
            # chain each label class so it is one connected component
            j = i + components
            if not rows[i][j] and not rows[j][i]:
                rows[i][j] = Fraction(1, 2)
        a = Matrix(rows)
        assert graph_components(a).count == components
        report = verify_matrix(a, samples=2, perm_cap=0, permpoly_cap=0)
        names = {c.name: c for c in report.checks}
        for name in ("orbit_matches_component_count", "stabilizer_matches_brute_force",
                     "orbit_times_stabilizer"):
            assert names[name].passed, name
        assert report.passed
        assert names["stabilizer_matches_brute_force"].lhs == str(1 << (components - 1))


class TestBlockSimilarity:
    """The block-similarity checks read P^-1*A*P through the permutation
    itself, so a gather fault that also corrupts the blocks consistently
    still fails them."""

    def test_fail_when_gather_negates(self, monkeypatch):
        real = blockform._pick
        monkeypatch.setattr(blockform, "_pick", lambda a, rows, cols: -real(a, rows, cols))
        report = verify_matrix(Matrix([[1, 2, 0], [3, 4, 5], [0, 6, 7]]))
        failed = {c.name for c in report.failures()}
        assert {"sym_part_block_similarity", "antisym_part_block_similarity"} <= failed


class TestOneBlockFormPerVector:
    def test_each_block_form_is_built_once_per_sign_vector(self, monkeypatch):
        calls = {"sym_block_form": 0, "antisym_block_form": 0}
        for name in calls:
            real = getattr(blockform, name)

            def spy(a, c, name=name, real=real):
                calls[name] += 1
                return real(a, c)

            # the factor reports would find the blockform binding, verify its own
            monkeypatch.setattr(blockform, name, spy)
            monkeypatch.setattr(verification, name, spy)
        # one part: a forked child's calls never reach `calls`
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(1), raising=False)
        report = verify_matrix(random_matrix(random.Random(19), 5))
        assert report.passed
        assert calls == {"sym_block_form": 16, "antisym_block_form": 16}


class TestOrderTwoSums:
    A = Matrix([[1, 2, 0, "1/2", 3], [3, 4, 5, 0, 1], [0, 6, 7, 1, 0], [2, 0, "-1/3", 1, 2],
                [1, 1, 0, 2, 5]])
    PERMANENT_CHECKS = {"permanent2_additivity_sign_split", "permanent2_additivity_transpose_split"}

    def test_one_transpose_split_per_report(self, monkeypatch):
        real = decomposition.classic_split
        calls = []

        def spy(a):
            calls.append(a)
            return real(a)

        monkeypatch.setattr(decomposition, "classic_split", spy)
        monkeypatch.setattr(verification, "classic_split", spy, raising=False)
        report = verify_matrix(self.A)
        assert report.passed
        assert {"minor2_additivity_transpose_split", "permanent2_additivity_transpose_split"} <= {
            c.name for c in report.checks
        }
        assert calls == [self.A]

    # the order-2 sums are O(n^2) closed forms: the permanental-polynomial
    # cap bounds no cost there
    @pytest.mark.parametrize("samples", [None, 3])
    def test_permanent_checks_run_above_permpoly_cap(self, samples):
        report = verify_matrix(self.A, samples=samples, permpoly_cap=3)
        assert report.passed
        assert self.PERMANENT_CHECKS <= {c.name for c in report.checks}
        assert not self.PERMANENT_CHECKS & {name for name, _ in report.skipped}
        assert "perm_poly_invariant" in {name for name, _ in report.skipped}

    def test_perturbed_permanent_sum_fails_above_permpoly_cap(self, monkeypatch):
        real = verification.order2_permanent_sum
        monkeypatch.setattr(verification, "order2_permanent_sum", lambda m: real(m) + 1)
        report = verify_matrix(self.A, permpoly_cap=3)
        assert {c.name for c in report.failures()} == self.PERMANENT_CHECKS


class TestPrincipalSums:
    """The independent side of the principal-sum checks interpolates
    det(A - x*I) and perm(A - x*I) from n+1 shifted matrices; each
    conjugate's sums are read off its own char_poly and perm_poly."""

    A = Matrix([[1, 2, 0, "1/2"], [3, 4, 5, 0], [0, 6, 7, 1], [2, 0, "-1/3", 1]])

    # The principal sums of each kind come from one interpolation pass over
    # the shifts of A, never from a conjugate.
    @pytest.mark.parametrize("name", ["sum_principal_minors", "sum_principal_permanents"])
    def test_subset_sums_run_only_on_a(self, monkeypatch, name):
        real = verification._interpolate_shifts
        seen = []

        def spy(m, value):
            if (value is verification.determinant) != (name == "sum_principal_minors"):
                return real(m, value)

            def recorded(shifted):
                seen.append(shifted)
                return value(shifted)

            return real(m, recorded)

        monkeypatch.setattr(verification, "_interpolate_shifts", spy)
        assert verify_matrix(self.A).passed
        n = self.A.rows
        assert seen == [self.A + Matrix.identity(n) * -x for x in range(n + 1)]

    @pytest.mark.parametrize("side, check", [
        ("determinant", "minor_sum_invariant"),
        ("permanent", "permanent_sum_invariant"),
    ])
    @pytest.mark.parametrize("samples", [None, 3])
    def test_shifted_helper_output_fails(self, monkeypatch, side, check, samples):
        real = verification._interpolate_shifts

        def shifted(m, value):
            poly = real(m, value)
            if (value is verification.determinant) != (side == "determinant"):
                return poly
            # moves the order-2 sum, the x^(n-2) coefficient
            return poly + Polynomial([0] * (m.rows - 2) + [1])

        monkeypatch.setattr(verification, "_interpolate_shifts", shifted)
        report = verify_matrix(self.A, samples=samples)
        assert {c.name for c in report.failures()} == {check}

    @pytest.mark.parametrize("kernel, check", [
        ("_char_poly_int", "minor_sum_invariant"),
        ("_perm_poly_int", "permanent_sum_invariant"),
    ])
    def test_perturbed_polynomial_kernel_fails(self, monkeypatch, kernel, check):
        real = getattr(invariants, kernel)

        def perturbed(rows):
            coeffs = real(rows)
            return [coeffs[0] + 1] + coeffs[1:]

        monkeypatch.setattr(invariants, kernel, perturbed)
        report = verify_matrix(self.A)
        assert check in {c.name for c in report.failures()}


# verify_matrix runs contiguous parts of its sign vectors in forked
# children; the report must not depend on how many parts ran.


@split_test
@pytest.mark.parametrize("cpus", [2, 4])
@pytest.mark.parametrize("perturbed", [(15,), (9, 15)])
def test_split_report_keeps_the_serial_walks_first_failure(monkeypatch, cpus, perturbed):
    # vector 15 is in the last part, and with 4 parts vector 9 is in the one
    # before it: the first failing part's sides and note win
    a = random_matrix(random.Random(23), 5)
    vectors = list(admissible_sign_vectors(5))
    wrong = {vectors[i] for i in perturbed}
    real = verification.sym_part
    monkeypatch.setattr(
        verification, "sym_part", lambda m, c: real(m, c) * 2 if c in wrong else real(m, c)
    )
    with on_cpus(1):
        serial = verify_matrix(a)
    failed = serial.failures()
    assert failed and all(c.note.endswith(f"failed at c={vectors[perturbed[0]]}") for c in failed)
    with on_cpus(cpus) as (mp, forks):
        mp.setattr(verification, "_SPLIT_MIN_VECTORS", 1)
        assert verify_matrix(a) == serial
    assert len(forks) == cpus - 1
    assert_all_reaped()


@split_test
def test_split_verify_forks_only_at_the_outer_level(tmp_path):
    # at n = 16 the permanent's walk splits on 2 CPUs, but not inside a part
    # of the vectors, in the parent's part or in the child's
    log = tmp_path / "forks"
    fork = os.fork

    def logging_fork():
        with open(log, "a") as file:
            file.write(f"{os.getpid()}\n")
        return fork()

    n = 16
    a = Matrix([[(i * 5 + j * 3) % 7 - 3 for j in range(n)] for i in range(n)])
    with on_cpus(2) as (mp, _):
        mp.setattr(os, "fork", logging_fork)
        report = verify_matrix(a, samples=16, seed=1)
    assert report.passed
    assert "permanent_invariant" in {c.name for c in report.checks}
    # one fork for the permanent of A, one for the second half of the vectors
    assert log.read_text().split() == [str(os.getpid())] * 2
    assert_all_reaped()


@split_test
@pytest.mark.parametrize("n, samples, parts", [(5, None, 2), (7, None, 8), (9, 15, 1)])
def test_split_parts_keep_their_share_of_the_vectors(n, samples, parts):
    # on 64 CPUs, the vectors are still split only as far as each part keeps
    # at least _SPLIT_MIN_VECTORS of them
    a = random_matrix(random.Random(n), n)
    with on_cpus(64) as (_, forks):
        report = verify_matrix(a, samples=samples)
    assert len(forks) == parts - 1
    assert_all_reaped()
    with on_cpus(1):
        assert verify_matrix(a, samples=samples) == report
