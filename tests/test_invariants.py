"""Invariant computations against brute-force oracles and invariance laws."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signconj import (
    Matrix,
    NotSquareError,
    Polynomial,
    char_poly,
    determinant,
    invariants,
    perm_poly,
    permanent,
    rank,
    sign_conjugate,
    trace,
    verification,
)
from signconj.invariants import _char_poly_int, _perm_glynn_int, _perm_poly_int
from oracles import (
    cofactor_determinant,
    expansion_permanent,
    faddeev_char_poly,
    fraction_poly,
    fraction_poly_add,
    fraction_poly_mul,
    gaussian_rank,
    naive_permanent,
    perm_poly_by_interpolation,
    perm_poly_by_principal_sums,
    principal_submatrix,
    random_matrix,
    random_sign_vector,
    random_sparse_matrix,
    ryser_perm_poly,
    ryser_permanent,
    sum_principal_minors,
    sum_principal_permanents,
)


def _sympy_matrix(a: Matrix):
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix(
        a.rows, a.cols, [sympy.Rational(e.numerator, e.denominator) for row in a.entries for e in row]
    )


coefficients_st = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12), max_size=6)


class TestPolynomial:
    def test_normalization_strips_trailing_zeros(self):
        assert Polynomial([1, 2, 0, 0]).coefficients == (Fraction(1), Fraction(2))
        assert Polynomial([0, 0]).coefficients == (Fraction(0),)

    def test_degree_and_coefficient(self):
        p = Polynomial([3, 0, 1])
        assert p.degree == 2
        assert p.coefficient(1) == 0
        assert p.coefficient(7) == 0

    def test_arith_and_eval(self):
        p = Polynomial([-2, -5, 1])
        assert p(0) == -2
        assert p(Fraction(1, 2)) == Fraction(-17, 4)
        assert Polynomial([1, 1]) * Polynomial([-1, 1]) == Polynomial([-1, 0, 1])
        assert Polynomial([1, 1]) + Polynomial([1, -1]) == Polynomial([2])

    def test_str(self):
        assert str(Polynomial([-2, -5, 1])) == "x^2 - 5*x - 2"
        assert str(Polynomial([0])) == "0"

    @given(coefficients_st)
    def test_cleared_form_is_canonical(self, coeffs):
        p = Polynomial(coeffs)
        assert all(type(e) is int for e in p.nums) and type(p.den) is int and p.den >= 1
        assert math.gcd(p.den, *p.nums) == 1
        assert len(p.nums) == 1 or p.nums[-1] != 0
        assert p.coefficients == fraction_poly(coeffs)
        assert p.coefficients == tuple(Fraction(e, p.den) for e in p.nums)
        x = Fraction(-2, 3)
        assert p(x) == sum(c * x**k for k, c in enumerate(coeffs))

    @given(coefficients_st, coefficients_st, st.integers(1, 6))
    def test_arithmetic_matches_fraction_lists(self, p, q, extra):
        a, b = Polynomial(p), Polynomial(q)
        assert (a + b).coefficients == fraction_poly_add(p, q)
        assert (a * b).coefficients == fraction_poly_mul(p, q)
        assert (a == b) is (fraction_poly(p) == fraction_poly(q))
        # every route to one polynomial stores the same ints and hashes alike
        den = math.lcm(*(c.denominator for c in p)) * extra
        routes = [
            Polynomial([int(c * den) for c in p] + [0, 0], den=den),
            Polynomial([f"{c.numerator}/{c.denominator}" for c in p]),
            (a + b) + Polynomial([-c for c in q]),
            a * Polynomial([1]),
        ]
        for r in routes:
            assert r == a
            assert (r.nums, r.den, hash(r)) == (a.nums, a.den, hash(a))

    def test_den_argument(self):
        assert Polynomial([Fraction(1, 2)]) == Polynomial([1], den=2)
        p = Polynomial([0, 0], den=12)
        assert (p.nums, p.den) == ((0,), 1)

    @pytest.mark.parametrize("den", [0, -2, True, 1.0, "2"])
    def test_den_must_be_a_positive_int(self, den):
        with pytest.raises(ValueError):
            Polynomial([1], den=den)


class TestTrace:
    def test_examples(self):
        assert trace(Matrix([[1, 2], [3, 4]])) == 5
        assert trace(Matrix.zero(3)) == 0

    def test_invariant_under_conjugation(self):
        a = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        from signconj import parse_sign_vector

        assert trace(sign_conjugate(a, parse_sign_vector("1,-1,1"))) == trace(a) == 15

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            trace(Matrix([[1, 2, 3]]))


class TestDeterminant:
    def test_examples(self):
        assert determinant(Matrix([[1, 2], [3, 4]])) == -2
        assert determinant(Matrix.identity(5)) == 1
        assert determinant(Matrix([], cols=0)) == 1

    def test_singular_after_conjugation(self):
        from signconj import parse_sign_vector

        a = Matrix([[1, 2], [2, 4]])
        assert determinant(a) == 0
        assert determinant(sign_conjugate(a, parse_sign_vector("1,-1"))) == 0

    def test_matches_cofactor_oracle(self):
        rng = random.Random(101)
        for n in range(1, 5):
            for _ in range(25):
                a = random_matrix(rng, n)
                assert determinant(a) == cofactor_determinant(a)

    def test_pivoting_handles_leading_zeros(self):
        a = Matrix([[0, 1, 2], [1, 0, 3], [4, 5, 0]])
        assert determinant(a) == cofactor_determinant(a)

    def test_matches_sympy(self):
        rng = random.Random(1313)
        for n in range(1, 10):
            for a in (random_matrix(rng, n), random_sparse_matrix(rng, n, density=0.4)):
                d = _sympy_matrix(a).det()
                assert determinant(a) == Fraction(int(d.p), int(d.q))


class TestPermanent:
    def test_examples(self):
        assert permanent(Matrix([[1, 2], [3, 4]])) == 10
        assert permanent(Matrix([[1, 1], [1, 1]])) == 2
        assert permanent(Matrix.identity(6)) == 1
        assert permanent(Matrix([], cols=0)) == 1

    def test_matches_naive_oracle(self):
        rng = random.Random(202)
        for n in range(1, 8):
            a = random_matrix(rng, n, integer=(n > 5))
            assert permanent(a) == naive_permanent(a)

    @pytest.mark.parametrize("n", [*range(13), 16])
    def test_matches_ryser_oracle(self, n):
        rng = random.Random(1400 + n)
        dense = random_matrix(rng, n, integer=True)
        cases = [dense]
        if n <= 12:
            cases += [random_sparse_matrix(rng, n), random_matrix(rng, n)]
        if n:
            r, c = rng.randrange(n), rng.randrange(n)
            entries = dense.entries
            zero_row = [[0 if i == r else e for e in row] for i, row in enumerate(entries)]
            zero_col = [[0 if j == c else e for j, e in enumerate(row)] for row in entries]
            cases += [Matrix(zero_row, cols=n), Matrix(zero_col, cols=n)]
        for a in cases:
            expected = Fraction(ryser_permanent(a.nums), a.den**n)
            assert permanent(a) == expected
            if n <= 6:
                assert naive_permanent(a) == expected
        assert permanent(Matrix.identity(n)) == 1

    def test_matches_sympy(self):
        rng = random.Random(1515)
        for n in range(1, 9):
            for a in (random_matrix(rng, n), random_sparse_matrix(rng, n, density=0.4)):
                p = _sympy_matrix(a).per()
                assert permanent(a) == Fraction(int(p.p), int(p.q))

    @pytest.mark.parametrize(
        "bound", [2**15 - 1, 2**15, 2**31 - 1, 2**31, 2**63 - 1, 2**63, 4 * 10**40 + 1]
    )
    def test_column_sum_field_width_boundaries(self, bound):
        # The largest absolute column sum is `bound`.  The first and last
        # columns reach +bound and -bound at d = (1, -1, -1, -1), so both
        # extremes sit in a field at once.  The last bound has entries near
        # 10^40, past every struct width.
        y = bound // 4
        x = bound - 3 * y
        rng = random.Random(bound)
        rows = [
            [x if i == 0 else -y, rng.randint(-9, 9), rng.randint(-9, 9), -x if i == 0 else y]
            for i in range(4)
        ]
        assert max(sum(abs(row[j]) for row in rows) for j in range(4)) == bound
        assert _perm_glynn_int(rows) == ryser_permanent(rows)

    @pytest.mark.parametrize(
        "bound", [2**15 - 1, 2**15, 2**31 - 1, 2**31, 2**63 - 1, 2**63, 4 * 10**40 + 1]
    )
    def test_column_sum_field_width_boundaries_in_high_walk(self, bound):
        # At n = 11 the kernel decodes d_2..d_9 as one block and Gray-walks
        # d_10 and d_11.  The first column alternates in sign down its rows,
        # so its sum reaches +bound only at d_i = (-1)^(i+1), which flips the
        # high row d_10; the last column is its negation and reaches -bound
        # in the same record.
        n = 11
        y = bound // n
        x = bound - (n - 1) * y
        column = [x] + [(-1) ** i * y for i in range(1, n)]
        rng = random.Random(bound)
        rows = [
            [c, *(rng.randint(-9, 9) for _ in range(n - 2)), -c] for c in column
        ]
        d = [(-1) ** i for i in range(n)]
        assert d[9] == -1
        assert sum(di * c for di, c in zip(d, column)) == bound
        assert max(sum(abs(row[j]) for row in rows) for j in range(n)) == bound
        assert _perm_glynn_int(rows) == ryser_permanent(rows)


class TestRank:
    def test_examples(self):
        assert rank(Matrix([[1, 2], [2, 4]])) == 1
        assert rank(Matrix.zero(3)) == 0
        assert rank(Matrix.identity(2)) == 2

    def test_rectangular(self):
        assert rank(Matrix([[1, 2, 3], [2, 4, 6]])) == 1

    def test_invariant_under_conjugation(self):
        from signconj import admissible_sign_vectors

        rng = random.Random(303)
        for _ in range(20):
            n = rng.randint(1, 5)
            a = random_matrix(rng, n)
            for c in admissible_sign_vectors(n):
                assert rank(sign_conjugate(a, c)) == rank(a)

    @staticmethod
    def _rank_corpus():
        rng = random.Random(313)
        corpus = [Matrix.zero(3), Matrix.zero(2, 5), Matrix([], cols=0), Matrix([[0, 0, 7]])]
        for n, m in ((1, 1), (3, 3), (5, 5), (6, 6), (2, 5), (5, 2), (4, 7), (7, 3)):
            full = random_matrix(rng, n, m)
            corpus.append(full)
            # rank deficient: the last row repeats a combination of the first two
            if n >= 3:
                r0, r1 = full.entries[0], full.entries[1]
                k = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                last = tuple(x + k * y for x, y in zip(r0, r1))
                corpus.append(Matrix(full.entries[:-1] + (last,), cols=m))
            # a zero first column makes the elimination skip a column
            corpus.append(
                Matrix([(0,) + row[1:] for row in random_sparse_matrix(rng, max(n, m)).entries])
            )
        return corpus

    def test_matches_gaussian_oracle(self):
        for a in self._rank_corpus():
            assert rank(a) == gaussian_rank(a)

    def test_matches_sympy(self):
        for a in self._rank_corpus():
            assert rank(a) == _sympy_matrix(a).rank()


def _principal_minor(a: Matrix, indices) -> Fraction:
    return determinant(principal_submatrix(a, indices))


def _principal_permanent(a: Matrix, indices) -> Fraction:
    return permanent(principal_submatrix(a, indices))


class TestPrincipalMinors:
    def test_full_set_is_determinant(self):
        a = Matrix([[1, 2], [3, 4]])
        assert _principal_minor(a, (1, 2)) == -2
        assert _principal_permanent(a, (1, 2)) == 10

    def test_singletons_are_diagonal_entries(self):
        a = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
        for i in range(1, 4):
            assert _principal_minor(a, (i,)) == a[i - 1, i - 1]
            assert _principal_permanent(a, (i,)) == a[i - 1, i - 1]

    def test_hand_values(self):
        a = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
        assert _principal_minor(a, (1, 3)) == -11
        assert _principal_permanent(a, (2, 3)) == 98

    def test_empty_set_is_one(self):
        a = Matrix([[1, 2], [3, 4]])
        assert _principal_minor(a, ()) == 1
        assert _principal_permanent(a, ()) == 1


class TestMinorSums:
    def test_boundary_orders(self):
        rng = random.Random(404)
        for n in range(1, 6):
            a = random_matrix(rng, n)
            assert sum_principal_minors(a, 1) == trace(a)
            assert sum_principal_minors(a, n) == determinant(a)
            assert sum_principal_minors(a, 0) == 1
            assert sum_principal_permanents(a, 1) == trace(a)
            assert sum_principal_permanents(a, n) == permanent(a)

    def test_two_by_two(self):
        a = Matrix([[1, 2], [3, 4]])
        assert sum_principal_minors(a, 2) == -2
        assert sum_principal_permanents(a, 2) == 10


class TestCharPoly:
    def test_examples(self):
        assert char_poly(Matrix([[1, 2], [3, 4]])) == Polynomial([-2, -5, 1])
        assert char_poly(Matrix.zero(3)) == Polynomial([0, 0, 0, -1])
        assert char_poly(Matrix([], cols=0)) == Polynomial([1])

    def test_path_graph_invariance(self):
        from signconj import parse_sign_vector

        a = Matrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        expected = Polynomial([0, 2, 0, -1])
        assert char_poly(a) == expected
        assert char_poly(sign_conjugate(a, parse_sign_vector("1,-1,1"))) == expected

    def test_leading_coefficient(self):
        rng = random.Random(505)
        for n in range(1, 7):
            a = random_matrix(rng, n)
            assert char_poly(a).coefficient(n) == (-1) ** n

    def test_subset_sum_coefficient_law(self):
        # independent route: Berkowitz vs explicit minor sums
        rng = random.Random(606)
        for n in range(1, 11):
            a = random_matrix(rng, n, integer=(n > 6))
            p = char_poly(a)
            for k in range(n + 1):
                expected = (-1) ** (n - k) * sum_principal_minors(a, k)
                assert p.coefficient(n - k) == expected

    def test_matches_sympy_charpoly(self):
        # sympy's charpoly is det(x*I - A) = (-1)^n * det(A - x*I)
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(1414)
        for n in range(1, 9):
            for a in (random_matrix(rng, n), random_sparse_matrix(rng, n, density=0.4)):
                theirs = _sympy_matrix(a).charpoly(x).all_coeffs()[::-1]
                expected = [(-1) ** n * Fraction(int(c.p), int(c.q)) for c in theirs]
                assert list(char_poly(a).coefficients) == expected

    def test_matches_faddeev_oracle(self):
        # det(A - x*I) = (-1)^n * det(x*I - A); with N = den*A, coefficient k
        # of det(x*I - A) is that of det(x*I - N) over den^(n-k)
        rng = random.Random(808)
        cases = [Matrix([], cols=0), Matrix.zero(5), Matrix.diagonal([3, "-1/2", 0, 7])]
        for n in range(1, 13):
            cases.append(random_matrix(rng, n, integer=True))
            cases.append(random_matrix(rng, n))
            cases.append(random_sparse_matrix(rng, n, density=0.2))
            strict_upper = random_matrix(rng, n)
            cases.append(
                Matrix(
                    [[e if j > i else 0 for j, e in enumerate(row)]
                     for i, row in enumerate(strict_upper.entries)],
                    cols=n,
                )
            )
        for a in cases:
            n = a.rows
            den = math.lcm(*(e.denominator for row in a.entries for e in row))
            monic = faddeev_char_poly(
                [[int(e * den) for e in row] for row in a.entries]
            )
            expected = [(-1) ** n * Fraction(monic[k], den ** (n - k)) for k in range(n + 1)]
            assert char_poly(a) == Polynomial(expected)

    def test_constant_term_is_determinant(self):
        rng = random.Random(707)
        for n in range(1, 7):
            a = random_matrix(rng, n)
            assert char_poly(a)(0) == determinant(a)


class TestPermPoly:
    def test_examples(self):
        assert perm_poly(Matrix([[1, 2], [3, 4]])) == Polynomial([10, -5, 1])
        assert perm_poly(Matrix.zero(2)) == Polynomial([0, 0, 1])
        # fixed by the interpolation oracle: perm((1-x)I) = (1-x)^2
        assert perm_poly(Matrix.identity(2)) == Polynomial([1, -2, 1])

    def test_matches_interpolation_oracle(self):
        rng = random.Random(808)
        for n in range(1, 7):
            a = random_matrix(rng, n, integer=(n > 4))
            assert perm_poly(a) == perm_poly_by_interpolation(a)

    def test_constant_term_is_permanent(self):
        rng = random.Random(909)
        for n in range(1, 7):
            a = random_matrix(rng, n)
            assert perm_poly(a)(0) == permanent(a)

    @pytest.mark.parametrize("n", [13, 14])
    def test_above_default_cap_matches_ryser_poly_oracle(self, n):
        # the commands' default cap is 12; the kernel itself takes any n
        a = random_sparse_matrix(random.Random(2600 + n), n)
        assert perm_poly(a) == Polynomial(ryser_perm_poly(a.nums))

    @pytest.mark.parametrize("kind", ["rational", "integer", "sparse"])
    def test_matches_principal_sums_and_interpolation(self, kind):
        rng = random.Random(f"perm_poly-{kind}")
        for n in range(1, 10):
            if kind == "sparse":
                a = random_sparse_matrix(rng, n)
            else:
                a = random_matrix(rng, n, integer=(kind == "integer"))
            expected = perm_poly_by_principal_sums(a)
            assert perm_poly(a) == expected
            assert perm_poly_by_interpolation(a, permanent=expansion_permanent) == expected

    def test_zero_and_identity(self):
        for n in range(1, 8):
            # every term but T = all columns has a zero row sum outside T
            assert perm_poly(Matrix.zero(n)) == Polynomial([0] * n + [(-1) ** n])
            # perm((1 - x)I) = (1 - x)^n
            expected = Polynomial([1])
            for _ in range(n):
                expected = expected * Polynomial([1, -1])
            assert perm_poly(Matrix.identity(n)) == expected

    def test_zero_rows_and_columns(self):
        # zero row i: row i of A - x*I is -x*e_i, so perm(A - x*I) = -x * perm
        # of the minor without row and column i; zero column i likewise.
        # Rows with zero sums sit both inside and outside the column subsets.
        rng = random.Random(4242)
        for n in range(2, 8):
            for axis in ("row", "column"):
                base = random_matrix(rng, n, integer=(n > 5))
                i = rng.randrange(n)
                a = Matrix(
                    [
                        [0 if (r == i if axis == "row" else c == i) else base.entries[r][c]
                         for c in range(n)]
                        for r in range(n)
                    ]
                )
                minor = Matrix(
                    [[a.entries[r][c] for c in range(n) if c != i] for r in range(n) if r != i],
                    cols=n - 1,
                )
                assert perm_poly(a) == Polynomial([0, -1]) * perm_poly(minor)
                assert perm_poly(a) == perm_poly_by_principal_sums(a)

    def test_kernel_matches_ryser_poly_oracle(self):
        rng = random.Random(1313)
        big = 10**40
        cases = [[[0] * 6 for _ in range(6)], [[-9] * 7 for _ in range(7)]]
        for n in range(0, 13):
            cases.append(random_matrix(rng, n, integer=True).nums)
            cases.append(random_matrix(rng, n).nums)
            cases.append(random_sparse_matrix(rng, n).nums)
        cases.append([[rng.choice((-big, big)) for _ in range(5)] for _ in range(5)])
        cases.append([[rng.choice((-big, 0, 1, big)) for _ in range(6)] for _ in range(6)])
        # n = 12 inputs where most column subsets carry a zero value and are
        # skipped: a shuffled signed permutation matrix, a strictly lower
        # triangular one, and a lower block-triangular one with blocks 5, 4, 3
        images = rng.sample(range(12), 12)
        cases.append(
            [[rng.choice((-1, 1)) if j == images[i] else 0 for j in range(12)] for i in range(12)]
        )
        cases.append([[rng.randint(1, 9) if j < i else 0 for j in range(12)] for i in range(12)])
        block = [0] * 5 + [1] * 4 + [2] * 3
        cases.append(
            [
                [rng.randint(-9, 9) if block[j] <= block[i] else 0 for j in range(12)]
                for i in range(12)
            ]
        )
        for rows in cases:
            assert _perm_poly_int(rows) == ryser_perm_poly(rows)
        # perm(D - y*I) = prod_i (d_i - y); with the d_i of one sign the |c_k|
        # sum to prod_i (1 + |d_i|), the bound the base-2^k digits are sized by
        for diagonal in ([1] * 4, [3, 7, 1, 15, 3], [-9, -8, 0, -5, -2, -1, -7], [big] * 3, [-big] * 4):
            n = len(diagonal)
            rows = [[d if i == j else 0 for j in range(n)] for i, d in enumerate(diagonal)]
            coeffs = _perm_poly_int(rows)
            assert coeffs == ryser_perm_poly(rows)
            assert sum(map(abs, coeffs)) == math.prod(1 + abs(d) for d in diagonal)

    def test_kernel_shares_no_code_with_the_permanent(self, monkeypatch):
        a = random_matrix(random.Random(1414), 6)
        expected_poly, expected_perm = perm_poly(a), permanent(a)

        def forbidden(*args):
            raise AssertionError("kernel reached across")

        monkeypatch.setattr(invariants, "_perm_glynn_int", forbidden)
        monkeypatch.setattr(verification, "_interpolate_shifts", forbidden)
        assert perm_poly(a) == expected_poly
        monkeypatch.undo()
        monkeypatch.setattr(invariants, "_perm_poly_int", forbidden)
        assert permanent(a) == expected_perm

    def test_matches_sympy_per(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(1212)
        for n in range(1, 7):
            for a in (random_matrix(rng, n), random_sparse_matrix(rng, n, density=0.5)):
                p = perm_poly(a)
                m = _sympy_matrix(a)
                for k in range(n + 1):
                    per = (m - k * sympy.eye(n)).per()
                    assert p(k) == Fraction(int(per.p), int(per.q))


_entries = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-9, max_value=9, max_denominator=9)
)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )
)
def test_perm_poly_matches_oracles(rows):
    a = Matrix(rows)
    expected = perm_poly_by_principal_sums(a)
    assert perm_poly(a) == expected
    assert perm_poly_by_interpolation(a, permanent=expansion_permanent) == expected


_wide_int_entries = st.one_of(
    st.just(0), st.integers(-3, 3), st.integers(-(10**40), 10**40)
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 8).flatmap(
        lambda n: st.lists(
            st.lists(_wide_int_entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_perm_poly_kernel_matches_ryser_poly(rows):
    assert _perm_poly_int(rows) == ryser_perm_poly(rows)


def test_expansion_permanent_matches_naive_oracle():
    rng = random.Random(2020)
    for n in range(0, 7):
        for a in (random_matrix(rng, n), random_sparse_matrix(rng, n)):
            assert expansion_permanent(a) == naive_permanent(a)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9),
                         min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
            st.tuples(st.just(1), *[st.sampled_from((1, -1))] * (n - 1)),
        )
    )
)
def test_all_invariants_preserved(data):
    from signconj import SignVector

    rows, signs = data
    a, c = Matrix(rows), SignVector(signs)
    b = sign_conjugate(a, c)
    n = a.rows
    assert trace(b) == trace(a)
    assert determinant(b) == determinant(a)
    assert permanent(b) == permanent(a)
    assert rank(b) == rank(a)
    assert char_poly(b) == char_poly(a)
    assert perm_poly(b) == perm_poly(a)
    for k in range(n + 1):
        assert sum_principal_minors(b, k) == sum_principal_minors(a, k)
        assert sum_principal_permanents(b, k) == sum_principal_permanents(a, k)


def test_every_principal_minor_and_permanent_preserved():
    from itertools import combinations

    from signconj import admissible_sign_vectors

    rng = random.Random(111)
    for _ in range(10):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n)
        c = random_sign_vector(rng, n)
        b = sign_conjugate(a, c)
        for k in range(1, n + 1):
            for subset in combinations(range(1, n + 1), k):
                assert _principal_minor(b, subset) == _principal_minor(a, subset)
                assert _principal_permanent(b, subset) == _principal_permanent(a, subset)


_int_entries = st.one_of(st.just(0), st.just(0), st.integers(-3, 3))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 7).flatmap(
        lambda n: st.lists(
            st.lists(_int_entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_full_rank_exactly_when_determinant_nonzero(rows):
    # determinant and rank share one elimination kernel
    a = Matrix(rows, cols=len(rows))
    assert (rank(a) == a.rows) == (determinant(a) != 0)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 8).flatmap(
        lambda n: st.lists(
            st.lists(_int_entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_char_poly_kernel_matches_faddeev(rows):
    assert _char_poly_int(rows) == faddeev_char_poly(rows)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 8).flatmap(
        lambda n: st.lists(
            st.lists(_int_entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_permanent_kernel_matches_ryser(rows):
    assert _perm_glynn_int(rows) == ryser_permanent(rows)


@settings(max_examples=25, deadline=None)
@given(
    st.tuples(st.integers(9, 11), st.sampled_from([3, 2**20, 2**40, 10**25])).flatmap(
        lambda shape: st.lists(
            st.lists(
                st.integers(-shape[1], shape[1]), min_size=shape[0], max_size=shape[0]
            ),
            min_size=shape[0],
            max_size=shape[0],
        )
    )
)
def test_permanent_kernel_high_walk_matches_ryser(rows):
    # n = 9 fills the decoded block with no row above it, n = 10 and 11
    # reach the Gray walk over the rows above it, and the entry bounds
    # reach every field width
    assert _perm_glynn_int(rows) == ryser_permanent(rows)
