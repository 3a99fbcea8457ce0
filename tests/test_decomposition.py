"""Fixed/negated decomposition, product rules, and order-2 additivity."""

import random
from fractions import Fraction

import pytest

from signconj import (
    Matrix,
    RangeError,
    Symmetry,
    admissible_sign_vectors,
    antisym_part,
    classic_split,
    classify,
    order2_minor_sum,
    order2_permanent_sum,
    parse_sign_vector,
    sign_conjugate,
    split,
    subspace_dims,
    sym_part,
)
from oracles import (
    random_matrix,
    random_sign_vector,
    random_sparse_matrix,
    sum_principal_minors,
    sum_principal_permanents,
)

# entry (i, j) encoded as 10i + j so masks are readable at a glance
SYMBOLIC = Matrix([[11, 12, 13], [21, 22, 23], [31, 32, 33]])


class TestMasks:
    def test_symbolic_patterns_for_all_three_by_three_vectors(self):
        c1 = parse_sign_vector("1,1,-1")
        assert sym_part(SYMBOLIC, c1) == Matrix([[11, 12, 0], [21, 22, 0], [0, 0, 33]])
        assert antisym_part(SYMBOLIC, c1) == Matrix([[0, 0, 13], [0, 0, 23], [31, 32, 0]])

        c2 = parse_sign_vector("1,-1,1")
        assert sym_part(SYMBOLIC, c2) == Matrix([[11, 0, 13], [0, 22, 0], [31, 0, 33]])
        assert antisym_part(SYMBOLIC, c2) == Matrix([[0, 12, 0], [21, 0, 23], [0, 32, 0]])

        c3 = parse_sign_vector("1,-1,-1")
        assert sym_part(SYMBOLIC, c3) == Matrix([[11, 0, 0], [0, 22, 23], [0, 32, 33]])
        assert antisym_part(SYMBOLIC, c3) == Matrix([[0, 12, 13], [21, 0, 0], [31, 0, 0]])

        c4 = parse_sign_vector("1,1,1")
        assert sym_part(SYMBOLIC, c4) == SYMBOLIC
        assert antisym_part(SYMBOLIC, c4) == Matrix.zero(3)

    def test_two_by_two(self):
        a = Matrix([[1, 2], [3, 4]])
        c = parse_sign_vector("1,-1")
        assert sym_part(a, c) == Matrix([[1, 0], [0, 4]])
        assert antisym_part(a, c) == Matrix([[0, 2], [3, 0]])

    def test_reconstruction_and_half_formula(self):
        rng = random.Random(7)
        half = Fraction(1, 2)
        for _ in range(30):
            n = rng.randint(1, 6)
            a = random_matrix(rng, n)
            c = random_sign_vector(rng, n)
            pair = split(a, c)
            assert pair.sym + pair.antisym == a
            conj = sign_conjugate(a, c)
            assert pair.sym == (a + conj) * half
            assert pair.antisym == (a - conj) * half

    def test_parts_fixed_and_negated(self):
        rng = random.Random(8)
        for _ in range(30):
            n = rng.randint(1, 6)
            a = random_matrix(rng, n)
            c = random_sign_vector(rng, n)
            s, t = sym_part(a, c), antisym_part(a, c)
            assert sign_conjugate(s, c) == s
            assert sign_conjugate(t, c) == -t
            assert all(t[i, i] == 0 for i in range(n))

    def test_projection_idempotence_and_cross_kill(self):
        rng = random.Random(9)
        for _ in range(30):
            n = rng.randint(1, 6)
            a = random_matrix(rng, n)
            c = random_sign_vector(rng, n)
            s, t = sym_part(a, c), antisym_part(a, c)
            assert sym_part(s, c) == s
            assert antisym_part(t, c) == t
            assert antisym_part(s, c) == Matrix.zero(n)
            assert sym_part(t, c) == Matrix.zero(n)


class TestClassify:
    def test_examples(self):
        c = parse_sign_vector("1,-1")
        assert classify(Matrix([[1, 0], [0, 4]]), c) is Symmetry.SYMMETRIC
        assert classify(Matrix([[0, 2], [3, 0]]), c) is Symmetry.ANTISYMMETRIC
        assert classify(Matrix([[1, 2], [3, 4]]), c) is Symmetry.NEITHER

    def test_zero_matrix_tie_break(self):
        assert classify(Matrix.zero(3), parse_sign_vector("1,-1,1")) is Symmetry.SYMMETRIC

    def test_only_zero_in_both_classes(self):
        rng = random.Random(10)
        for _ in range(40):
            n = rng.randint(1, 5)
            a = random_matrix(rng, n)
            c = random_sign_vector(rng, n)
            if classify(a, c) is Symmetry.SYMMETRIC and classify(-a, c) is Symmetry.ANTISYMMETRIC:
                assert a == Matrix.zero(n)


class TestProductRules:
    def test_identity_is_fixed_for_every_c(self):
        for c in admissible_sign_vectors(4):
            assert classify(Matrix.identity(4), c) is Symmetry.SYMMETRIC

    def test_negation_stays_in_class(self):
        rng = random.Random(11)
        a = sym_part(random_matrix(rng, 4), parse_sign_vector("1,1,-1,-1"))
        assert classify(-a, parse_sign_vector("1,1,-1,-1")) is Symmetry.SYMMETRIC

    @pytest.mark.parametrize(
        "left,right,expected",
        [
            (Symmetry.SYMMETRIC, Symmetry.SYMMETRIC, Symmetry.SYMMETRIC),
            (Symmetry.SYMMETRIC, Symmetry.ANTISYMMETRIC, Symmetry.ANTISYMMETRIC),
            (Symmetry.ANTISYMMETRIC, Symmetry.SYMMETRIC, Symmetry.ANTISYMMETRIC),
            (Symmetry.ANTISYMMETRIC, Symmetry.ANTISYMMETRIC, Symmetry.SYMMETRIC),
        ],
    )
    def test_multiplication_table(self, left, right, expected):
        rng = random.Random(hash((left.value, right.value)) & 0xFFFF)
        for _ in range(25):
            n = rng.randint(2, 5)
            c = random_sign_vector(rng, n)

            def part(kind):
                m = random_matrix(rng, n)
                return sym_part(m, c) if kind is Symmetry.SYMMETRIC else antisym_part(m, c)

            product = part(left) @ part(right)
            got = classify(product, c)
            # the zero product is in both classes and reports SYMMETRIC
            assert got is expected or product == Matrix.zero(n)


class TestClassicSplit:
    def test_hand_value(self):
        pair = classic_split(Matrix([[1, 2], [3, 4]]))
        assert pair.sym == Matrix([[1, "5/2"], ["5/2", 4]])
        assert pair.antisym == Matrix([[0, "-1/2"], ["1/2", 0]])

    def test_symmetric_and_antisymmetric_inputs(self):
        s = Matrix([[1, 2], [2, 3]])
        pair = classic_split(s)
        assert pair.sym == s
        assert pair.antisym == Matrix.zero(2)
        t = Matrix([[0, 1], [-1, 0]])
        pair = classic_split(t)
        assert pair.sym == Matrix.zero(2)
        assert pair.antisym == t

    def test_parts_have_transpose_symmetry(self):
        rng = random.Random(12)
        for _ in range(20):
            a = random_matrix(rng, rng.randint(1, 6))
            pair = classic_split(a)
            assert pair.sym.transpose() == pair.sym
            assert pair.antisym.transpose() == -pair.antisym
            assert pair.sym + pair.antisym == a


class TestSubspaceDims:
    @pytest.mark.parametrize("n,r,expected", [(3, 2, (5, 4)), (3, 3, (9, 0)), (4, 2, (8, 8))])
    def test_examples(self, n, r, expected):
        assert subspace_dims(n, r) == expected

    def test_counts_match_masks_exhaustively(self):
        for n in range(1, 9):
            for c in admissible_sign_vectors(n):
                r = sum(1 for s in c if s == 1)
                kept = sum(1 for i in range(n) for j in range(n) if c[i] * c[j] == 1)
                dim_sym, dim_anti = subspace_dims(n, r)
                assert kept == dim_sym
                assert n * n - kept == dim_anti
                assert dim_sym + dim_anti == n * n

    def test_range_validation(self):
        with pytest.raises(RangeError):
            subspace_dims(3, 0)
        with pytest.raises(RangeError):
            subspace_dims(3, 4)


def order2_sides(summer, a: Matrix, parts) -> tuple[Fraction, Fraction, Fraction]:
    """summer on A and on the two parts of one split: the first equals the
    sum of the other two."""
    return summer(a), summer(parts.sym), summer(parts.antisym)


class TestOrder2Additivity:
    def test_hand_triple_sign_split(self):
        a = Matrix([[1, 2], [3, 4]])
        triple = order2_sides(order2_minor_sum, a, split(a, parse_sign_vector("1,-1")))
        assert triple == (-2, 4, -6)

    def test_hand_triple_classic_split(self):
        a = Matrix([[1, 2], [3, 4]])
        triple = order2_sides(order2_minor_sum, a, classic_split(a))
        assert triple == (-2, Fraction(-9, 4), Fraction(1, 4))

    def test_diagonal_matrix_puts_everything_in_sym(self):
        a = Matrix.diagonal((2, 3, 5))
        for c in admissible_sign_vectors(3):
            lhs, rhs_sym, rhs_anti = order2_sides(order2_minor_sum, a, split(a, c))
            assert (lhs, rhs_sym, rhs_anti) == (lhs, lhs, 0)

    def test_sums_vanish_below_order_two(self):
        for m in (Matrix.zero(0), Matrix([[7]])):
            assert order2_minor_sum(m) == order2_permanent_sum(m) == 0

    def test_additivity_random(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(2, 8)
            a = random_matrix(rng, n)
            c = random_sign_vector(rng, n)
            for parts in (split(a, c), classic_split(a)):
                for summer in (order2_minor_sum, order2_permanent_sum):
                    lhs, rhs_sym, rhs_anti = order2_sides(summer, a, parts)
                    assert lhs == rhs_sym + rhs_anti

    def test_matches_polynomial_coefficients(self):
        from signconj import char_poly, perm_poly

        rng = random.Random(14)
        for _ in range(15):
            n = rng.randint(2, 6)
            a = random_matrix(rng, n)
            c = random_sign_vector(rng, n)
            pair = split(a, c)
            classic = classic_split(a)
            for parts in (pair, classic):
                assert char_poly(a).coefficient(n - 2) == (
                    char_poly(parts.sym).coefficient(n - 2)
                    + char_poly(parts.antisym).coefficient(n - 2)
                )
                assert perm_poly(a).coefficient(n - 2) == (
                    perm_poly(parts.sym).coefficient(n - 2)
                    + perm_poly(parts.antisym).coefficient(n - 2)
                )


def _assert_order2_matches_subset_sums(a: Matrix, c) -> None:
    """Each closed form, on A and on the two parts of both splits, equals
    the oracle's walk over the 2x2 principal subsets, and is additive."""
    for parts in (split(a, c), classic_split(a)):
        for summer, oracle in (
            (order2_minor_sum, sum_principal_minors),
            (order2_permanent_sum, sum_principal_permanents),
        ):
            triple = order2_sides(summer, a, parts)
            assert triple == tuple(oracle(m, 2) for m in (a, parts.sym, parts.antisym))
            assert triple[0] == triple[1] + triple[2]


class TestOrder2ClosedForms:
    """The closed forms on cleared ints against the oracle's subset sums."""

    @pytest.mark.parametrize("kind", ["rational", "integer", "sparse"])
    def test_match_subset_sums(self, kind):
        rng = random.Random(f"order2-{kind}")
        for n in range(2, 10):
            if kind == "sparse":
                a = random_sparse_matrix(rng, n)
            else:
                a = random_matrix(rng, n, integer=(kind == "integer"))
            _assert_order2_matches_subset_sums(a, random_sign_vector(rng, n))


class TestOrder2AdditivityLarge:
    """Order-2 sums cost O(n^2), so they have no size cap."""

    @pytest.mark.parametrize("n", [17, 20])
    def test_matches_closed_form(self, n):
        rng = random.Random(n)
        a = random_matrix(rng, n)
        _assert_order2_matches_subset_sums(a, random_sign_vector(rng, n))
