"""Block canonical forms and their invariant factorizations."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signconj import (
    DimensionMismatchError,
    Matrix,
    NotSignAntisymmetricError,
    NotSignSymmetricError,
    SignVector,
    antisym_block_form,
    antisym_part,
    assemble_antidiag,
    assemble_diag,
    char_poly,
    determinant,
    index_partition,
    parse_sign_vector,
    permanent,
    sym_block_form,
    sym_part,
)
from signconj.cli import load_matrix
from signconj.verification import _factor_sides
from oracles import (
    conjugate_by_permutation_matrix,
    permutation_matrix,
    random_matrix,
    random_sign_vector,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


class TestIndexPartition:
    @pytest.mark.parametrize(
        "signs,plus,minus",
        [
            ("1,1,-1", (1, 2), (3,)),
            ("1,-1,1,-1", (1, 3), (2, 4)),
            ("1,1,1,1", (1, 2, 3, 4), ()),
        ],
    )
    def test_examples(self, signs, plus, minus):
        part = index_partition(parse_sign_vector(signs))
        assert part.plus_indices == plus
        assert part.minus_indices == minus
        assert 1 in part.plus_indices


class TestBlockPermutation:
    @pytest.mark.parametrize(
        "signs,images",
        [
            ("1,-1,1", (1, 3, 2)),
            ("1,1,-1", (1, 2, 3)),
            ("1,-1,-1,1", (1, 4, 2, 3)),
        ],
    )
    def test_examples(self, signs, images):
        assert index_partition(parse_sign_vector(signs)).permutation == images

    def test_orthogonal(self):
        p = permutation_matrix(index_partition(parse_sign_vector("1,-1,1,-1")).permutation)
        assert p.transpose() @ p == Matrix.identity(4)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 10).flatmap(
            lambda n: st.tuples(
                st.lists(st.sampled_from((1, -1)), min_size=n - 1, max_size=n - 1),
                st.lists(st.integers(-9, 9), min_size=n * n, max_size=n * n),
            )
        )
    )
    def test_property_bijection_plus_then_minus(self, drawn):
        """The permutation is a bijection of 1..n listing the +1 positions,
        then the -1 positions, each increasing, and both block forms carry
        the partition it comes from."""
        tail, entries = drawn
        c = SignVector([1] + tail)
        n = len(c)
        part = index_partition(c)
        p = part.permutation
        assert sorted(p) == list(range(1, n + 1))
        r = part.plus_count
        assert all(c[i - 1] == 1 for i in p[:r]) and all(c[i - 1] == -1 for i in p[r:])
        assert list(p[:r]) == sorted(p[:r]) and list(p[r:]) == sorted(p[r:])
        a = Matrix([entries[i * n:(i + 1) * n] for i in range(n)])
        assert sym_block_form(sym_part(a, c), c).partition == part
        assert antisym_block_form(antisym_part(a, c), c).partition == part


class TestSymBlockForm:
    def test_identity_permutation_case(self):
        a = Matrix([[1, 2, 0], [3, 4, 0], [0, 0, 5]])
        form = sym_block_form(a, parse_sign_vector("1,1,-1"))
        assert form.plus_block == Matrix([[1, 2], [3, 4]])
        assert form.minus_block == Matrix([[5]])
        assert form.partition.permutation == (1, 2, 3)
        assert form.conjugated == a

    def test_interleaved_case(self):
        a = Matrix([[1, 0, 5], [0, 2, 0], [7, 0, 3]])
        form = sym_block_form(a, parse_sign_vector("1,-1,1"))
        assert form.partition.permutation == (1, 3, 2)
        assert form.plus_block == Matrix([[1, 5], [7, 3]])
        assert form.minus_block == Matrix([[2]])
        assert form.conjugated == assemble_diag(form.plus_block, form.minus_block)

    def test_all_ones_gives_empty_minus_block(self):
        a = Matrix([[1, 2], [3, 4]])
        form = sym_block_form(a, parse_sign_vector("1,1"))
        assert form.plus_block == a
        assert (form.minus_block.rows, form.minus_block.cols) == (0, 0)
        assert form.conjugated == a

    def test_rejects_unfixed_matrix(self):
        with pytest.raises(NotSignSymmetricError):
            sym_block_form(Matrix([[1, 2], [3, 4]]), parse_sign_vector("1,-1"))

    def test_random_sym_matrices_block_diagonalize(self):
        rng = random.Random(21)
        for _ in range(60):
            n = rng.randint(1, 8)
            c = random_sign_vector(rng, n)
            a = sym_part(random_matrix(rng, n), c)
            form = sym_block_form(a, c)
            assert form.conjugated == assemble_diag(form.plus_block, form.minus_block)


class TestAntisymBlockForm:
    def test_two_by_two(self):
        a = Matrix([[0, 2], [3, 0]])
        form = antisym_block_form(a, parse_sign_vector("1,-1"))
        assert form.upper_block == Matrix([[2]])
        assert form.lower_block == Matrix([[3]])
        assert assemble_antidiag(form.upper_block, form.lower_block) == a
        assert form.conjugated == a

    def test_identity_permutation_case(self):
        a = Matrix([[0, 0, 1], [0, 0, 2], [3, 4, 0]])
        form = antisym_block_form(a, parse_sign_vector("1,1,-1"))
        assert form.upper_block == Matrix([[1], [2]])
        assert form.lower_block == Matrix([[3, 4]])
        assert assemble_antidiag(form.upper_block, form.lower_block) == a

    def test_all_ones_admits_only_zero(self):
        form = antisym_block_form(Matrix.zero(2), parse_sign_vector("1,1"))
        assert (form.upper_block.rows, form.upper_block.cols) == (2, 0)
        assert (form.lower_block.rows, form.lower_block.cols) == (0, 2)
        assert assemble_antidiag(form.upper_block, form.lower_block) == Matrix.zero(2)

    def test_assembly_shapes(self):
        d, e = Matrix([[1, 2, 3]]), Matrix([[4], [5]])
        assert assemble_diag(d, e) == Matrix([[1, 2, 3, 0], [0, 0, 0, 4], [0, 0, 0, 5]])
        assert assemble_antidiag(d, Matrix([[6], [7], [8]])) == Matrix(
            [[0, 1, 2, 3], [6, 0, 0, 0], [7, 0, 0, 0], [8, 0, 0, 0]]
        )
        with pytest.raises(DimensionMismatchError):
            assemble_antidiag(d, e)

    def test_rejects_unnegated_matrix(self):
        with pytest.raises(NotSignAntisymmetricError):
            antisym_block_form(Matrix([[1, 2], [3, 4]]), parse_sign_vector("1,-1"))

    def test_random_antisym_matrices_antidiagonalize(self):
        rng = random.Random(22)
        for _ in range(60):
            n = rng.randint(1, 8)
            c = random_sign_vector(rng, n)
            a = antisym_part(random_matrix(rng, n), c)
            form = antisym_block_form(a, c)
            assert form.conjugated == assemble_antidiag(form.upper_block, form.lower_block)


class TestAgainstPermutationMatrix:
    """The gathered conjugate against the dense product P^T * A * P."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_fixed_inputs(self, n):
        rng = random.Random(260 + n)
        for _ in range(12):
            c = random_sign_vector(rng, n)
            a = sym_part(random_matrix(rng, n), c)
            form = sym_block_form(a, c)
            images = index_partition(c).permutation
            assert form.conjugated == conjugate_by_permutation_matrix(a, images)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_negated_inputs(self, n):
        rng = random.Random(270 + n)
        for _ in range(12):
            c = random_sign_vector(rng, n)
            a = antisym_part(random_matrix(rng, n), c)
            form = antisym_block_form(a, c)
            images = index_partition(c).permutation
            assert form.conjugated == conjugate_by_permutation_matrix(a, images)


class TestSymFactorizations:
    """`_factor_sides` on a fixed form: (char, det, perm) of A against the
    products over the diagonal blocks."""

    def test_hand_value(self):
        a = Matrix([[1, 0, 5], [0, 2, 0], [7, 0, 3]])
        full, product = _factor_sides(a, sym_block_form(a, parse_sign_vector("1,-1,1")))
        assert full == product
        assert full[1] == -64

    def test_block_numbers(self):
        a = Matrix([[1, 2, 0], [3, 4, 0], [0, 0, 5]])
        full, product = _factor_sides(a, sym_block_form(a, parse_sign_vector("1,1,-1")))
        assert full[1:] == product[1:] == (-10, 50)

    def test_empty_minus_block_factors_trivially(self):
        a = Matrix([[1, 2], [3, 4]])
        _, product = _factor_sides(a, sym_block_form(a, parse_sign_vector("1,1")))
        assert product == (char_poly(a), determinant(a), permanent(a))

    def test_random(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(1, 7)
            c = random_sign_vector(rng, n)
            a = sym_part(random_matrix(rng, n), c)
            full, product = _factor_sides(a, sym_block_form(a, c))
            assert full == product


class TestAntisymFactorizations:
    """`_factor_sides` on a negated form: (det, perm) of A against the
    signed block products, or against (0, 0) when unbalanced."""

    def test_balanced_two_by_two(self):
        a = Matrix([[0, 2], [3, 0]])
        full, blocks = _factor_sides(a, antisym_block_form(a, parse_sign_vector("1,-1")))
        assert full == blocks == (-6, 6)

    def test_unbalanced_vanishes(self):
        a = Matrix([[0, 0, 1], [0, 0, 2], [3, 4, 0]])
        full, blocks = _factor_sides(a, antisym_block_form(a, parse_sign_vector("1,1,-1")))
        assert full == blocks == (0, 0)

    def test_zero_matrix(self):
        a = Matrix.zero(3)
        full, blocks = _factor_sides(a, antisym_block_form(a, parse_sign_vector("1,-1,1")))
        assert full == blocks == (0, 0)

    def test_printed_alternative_sign_fails_at_n2(self):
        # determinant of [[0, f], [g, 0]] is -f*g, so any sign rule of the
        # form (-1)^n (which is +1 at n=2) is refuted by this witness
        a = Matrix([[0, 2], [3, 0]])
        (det_full, _), (det_blocks, _) = _factor_sides(
            a, antisym_block_form(a, parse_sign_vector("1,-1"))
        )
        blocks_det = determinant(rep_upper(a)) * determinant(rep_lower(a))
        assert det_full == det_blocks == (-1) ** (2 // 2) * blocks_det
        assert det_full != (-1) ** 2 * blocks_det

    def test_balanced_random_even_sizes(self):
        rng = random.Random(24)
        for n in (2, 4, 6):
            for _ in range(20):
                # build a sign vector with exactly n/2 plus signs, first fixed
                tail = [1] * (n // 2 - 1) + [-1] * (n // 2)
                rng.shuffle(tail)
                c = parse_sign_vector(",".join(str(s) for s in [1] + tail))
                a = antisym_part(random_matrix(rng, n), c)
                full, blocks = _factor_sides(a, antisym_block_form(a, c))
                assert full == blocks

    def test_unbalanced_random(self):
        rng = random.Random(25)
        for _ in range(40):
            n = rng.randint(2, 8)
            c = random_sign_vector(rng, n)
            r = sum(1 for s in c if s == 1)
            if 2 * r == n:
                continue
            a = antisym_part(random_matrix(rng, n), c)
            full, blocks = _factor_sides(a, antisym_block_form(a, c))
            assert full == blocks == (0, 0)


class TestFactorSidesAboveDefaultCap:
    def test_sym21_golden_form(self):
        # n = 21 is above the commands' default permanent cap of 20, which
        # gates the callers only: the sides, permanents included, are computed
        a = load_matrix(str(GOLDEN / "sym21.json"), None)
        c = parse_sign_vector("1,1,1,-1,1,1,-1,1,1,-1,1,1,-1,1,1,-1,1,1,-1,1,1")
        full, product = _factor_sides(a, sym_block_form(a, c))
        assert full == product


def rep_upper(a: Matrix) -> Matrix:
    return Matrix([[a[0, 1]]])


def rep_lower(a: Matrix) -> Matrix:
    return Matrix([[a[1, 0]]])
