"""Core types and the sign-conjugation map."""

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from signconj import (
    DimensionMismatchError,
    EmptySignVectorError,
    FirstCoordinateNotOneError,
    MalformedSignError,
    Matrix,
    NotSquareError,
    SignVector,
    admissible_sign_vectors,
    as_scalar,
    conjugate_by_signature,
    identity_element,
    parse_sign_vector,
    sign_conjugate,
    signature_matrix,
)
from signconj import blockform, core, invariants, orbit, verification
from signconj.blockform import antisym_block_form, sym_block_form
from signconj.decomposition import antisym_part, sym_part
from signconj.invariants import char_poly, determinant, perm_poly, permanent

signs_st = st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.just(1), *[st.sampled_from((1, -1))] * (n - 1))
)
scalar_st = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def square_matrix_st(n_max=5):
    return st.integers(1, n_max).flatmap(
        lambda n: st.lists(
            st.lists(scalar_st, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


def matrix_and_signs_st(n_max=5):
    return st.integers(1, n_max).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(scalar_st, min_size=n, max_size=n), min_size=n, max_size=n),
            st.tuples(st.just(1), *[st.sampled_from((1, -1))] * (n - 1)),
        )
    )


class TestScalar:
    def test_string_forms(self):
        assert as_scalar("2/3") == Fraction(2, 3)
        assert as_scalar("-5") == Fraction(-5)
        assert as_scalar(7) == Fraction(7)

    def test_rejects_decimals_and_floats(self):
        with pytest.raises(ValueError):
            as_scalar("1.5")
        with pytest.raises(TypeError):
            as_scalar(1.5)

    def test_lowest_terms(self):
        x = as_scalar("4/6")
        assert (x.numerator, x.denominator) == (2, 3)

    def test_sign_and_whitespace(self):
        assert as_scalar(" +7/2\t") == Fraction(7, 2)
        assert as_scalar("\n-0 ") == 0

    @pytest.mark.parametrize(
        "text", ["1_000", "\uff11\uff12", "\u0663", "1/2_0", "", "/2", "1/", "1/ 2", "- 3", "0x10", "1/-2"]
    )
    def test_rejects_all_but_ascii_integer_or_ratio(self, text):
        with pytest.raises(ValueError):
            as_scalar(text)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            as_scalar("1/0")


class TestMatrix:
    def test_shape_and_entries(self):
        a = Matrix([[1, 2, 3], [4, 5, 6]])
        assert (a.rows, a.cols) == (2, 3)
        assert a[1, 2] == 6

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionMismatchError):
            Matrix([[1, 2], [3]])

    def test_product_identity_law(self):
        a = Matrix([[1, 2], [3, 4]])
        assert a @ Matrix.identity(2) == a

    def test_transposition_squared_is_identity(self):
        swap = Matrix([[0, 1], [1, 0]])
        assert swap @ swap == Matrix.identity(2)

    def test_product_hand_expansion(self):
        assert Matrix([[1, 1], [0, 1]]) @ Matrix([[1, 0], [1, 1]]) == Matrix([[2, 1], [1, 1]])

    def test_product_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Matrix([[1, 2]]) @ Matrix([[1, 2]])

    def test_add_transpose_scale(self):
        a = Matrix([[1, 2], [3, 4]])
        assert a + (-a) == Matrix.zero(2)
        assert a.transpose() == Matrix([[1, 3], [2, 4]])
        assert a * Fraction(1, 2) == Matrix([["1/2", 1], ["3/2", 2]])

    def test_empty_shapes(self):
        assert (Matrix([], cols=0).rows, Matrix([], cols=0).cols) == (0, 0)
        tall = Matrix([[], [], []])
        assert (tall.rows, tall.cols) == (3, 0)

    def test_hashable_and_immutable(self):
        a = Matrix([[1]])
        assert hash(a) == hash(Matrix([[1]]))
        with pytest.raises(AttributeError):
            a.rows = 5


class TestSignVector:
    def test_parse_spec_forms(self):
        assert parse_sign_vector("1,1,-1").signs == (1, 1, -1)
        assert parse_sign_vector("+").signs == (1,)
        assert parse_sign_vector("+1 -1  +1").signs == (1, -1, 1)

    def test_parse_rejects_first_minus(self):
        with pytest.raises(FirstCoordinateNotOneError):
            parse_sign_vector("-1,1")

    def test_parse_rejects_unknown_token(self):
        with pytest.raises(MalformedSignError):
            parse_sign_vector("1,0,1")

    def test_parse_rejects_empty(self):
        with pytest.raises(EmptySignVectorError):
            parse_sign_vector("  ")

    def test_constructor_invariants(self):
        with pytest.raises(MalformedSignError):
            SignVector([1, 2])
        with pytest.raises(EmptySignVectorError):
            SignVector([])

    def test_admissible_count_and_order(self):
        vs = list(admissible_sign_vectors(3))
        assert [v.signs for v in vs] == [(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)]


    @pytest.mark.parametrize("n", range(1, 11))
    def test_admissible_matches_bit_order_listing(self, n):
        # tail bits of mask m, most significant first, read off bin(); -1 is bit 1
        listing = [
            (1,) + tuple(-1 if bit == "1" else 1 for bit in bin(m | 1 << (n - 1))[3:])
            for m in range(1 << (n - 1))
        ]
        vs = list(admissible_sign_vectors(n))
        assert [v.signs for v in vs] == listing
        assert vs == [SignVector(signs) for signs in listing]

    @pytest.mark.parametrize("n", [0, -1])
    def test_admissible_rejects_empty_length_on_first_use(self, n):
        vectors = admissible_sign_vectors(n)
        with pytest.raises(EmptySignVectorError):
            next(vectors)

class TestSignConjugation:
    def test_three_by_three_pattern(self):
        a = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        expected = Matrix([[1, 2, -3], [4, 5, -6], [-7, -8, 9]])
        assert sign_conjugate(a, parse_sign_vector("1,1,-1")) == expected

    def test_all_ones_is_identity_map(self):
        a = Matrix([[1, 2], [3, 4]])
        assert sign_conjugate(a, identity_element(2)) == a

    def test_involution_example(self):
        a = Matrix([[0, 7], [-3, 5]])
        c = parse_sign_vector("1,-1")
        assert sign_conjugate(sign_conjugate(a, c), c) == a

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            sign_conjugate(Matrix([[1, 2], [3, 4]]), parse_sign_vector("1,-1,1"))
        with pytest.raises(NotSquareError):
            sign_conjugate(Matrix([[1, 2, 3], [4, 5, 6]]), parse_sign_vector("1,-1"))

    def test_signature_matrix_values(self):
        assert signature_matrix(parse_sign_vector("1,-1")) == Matrix([[1, 0], [0, -1]])
        assert signature_matrix(parse_sign_vector("1,1,-1")) == Matrix.diagonal((1, 1, -1))

    def test_signature_matrix_self_inverse(self):
        p = signature_matrix(parse_sign_vector("1,-1,1"))
        assert p @ p == Matrix.identity(3)

    def test_conjugate_by_signature_hand_value(self):
        a = Matrix([[1, 2], [3, 4]])
        assert conjugate_by_signature(a, parse_sign_vector("1,-1")) == Matrix([[1, -2], [-3, 4]])

    def test_conjugate_by_signature_fixes_identity(self):
        for c in admissible_sign_vectors(4):
            assert conjugate_by_signature(Matrix.identity(4), c) == Matrix.identity(4)

    def test_matches_entrywise_on_pattern(self):
        a = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        c = parse_sign_vector("1,-1,-1")
        expected = Matrix([[1, -2, -3], [-4, 5, 6], [-7, 8, 9]])
        assert sign_conjugate(a, c) == expected
        assert conjugate_by_signature(a, c) == expected

        a = Matrix([["-1/2", 0, "3/4"], [0, "-5/3", "-2/7"], ["-9/4", "1/6", 0]])
        c = parse_sign_vector("1,-1,1")
        expected = Matrix([["-1/2", 0, "3/4"], [0, "-5/3", "2/7"], ["-9/4", "-1/6", 0]])
        assert sign_conjugate(a, c) == expected
        assert conjugate_by_signature(a, c) == expected

    @given(matrix_and_signs_st())
    def test_entrywise_equals_product_route(self, data):
        rows, signs = data
        a, c = Matrix(rows), SignVector(signs)
        assert sign_conjugate(a, c) == conjugate_by_signature(a, c)

    @given(matrix_and_signs_st())
    def test_involution_and_diagonal(self, data):
        rows, signs = data
        a, c = Matrix(rows), SignVector(signs)
        conj = sign_conjugate(a, c)
        assert sign_conjugate(conj, c) == a
        assert all(conj[i, i] == a[i, i] for i in range(a.rows))

    @given(matrix_and_signs_st(), scalar_st, scalar_st)
    def test_linearity(self, data, alpha, beta):
        rows, signs = data
        a, c = Matrix(rows), SignVector(signs)
        b = a.transpose()
        lhs = sign_conjugate(a * alpha + b * beta, c)
        assert lhs == sign_conjugate(a, c) * alpha + sign_conjugate(b, c) * beta

    @given(matrix_and_signs_st())
    def test_multiplicative(self, data):
        rows, signs = data
        a, c = Matrix(rows), SignVector(signs)
        b = a.transpose()
        assert sign_conjugate(a @ b, c) == sign_conjugate(a, c) @ sign_conjugate(b, c)


def table_pair_st(max_side=4):
    """(cols, rows, other): two rational tables of one shape, either side 0..max_side."""
    return st.tuples(st.integers(0, max_side), st.integers(0, max_side)).flatmap(
        lambda shape: st.tuples(
            st.just(shape[1]),
            *[
                st.lists(
                    st.lists(scalar_st, min_size=shape[1], max_size=shape[1]),
                    min_size=shape[0],
                    max_size=shape[0],
                )
            ] * 2,
        )
    )


class TestCanonicalForm:
    """A matrix is stored as int rows `nums` over one `den` in lowest terms,
    so every route to the same rational table stores the same ints."""

    @given(table_pair_st(), st.integers(1, 6), scalar_st.filter(bool))
    def test_every_route_stores_the_same_ints(self, data, extra, k):
        cols, rows, other = data
        a = Matrix(rows, cols=cols)
        b = Matrix(other, cols=cols)
        den = math.lcm(*(e.denominator for row in rows for e in row)) * extra
        routes = [
            Matrix([[f"{e.numerator}/{e.denominator}" for e in row] for row in rows], cols=cols),
            Matrix([[int(e * den) for e in row] for row in rows], cols=cols, den=den),
            (a + b) - b,
            a @ Matrix.identity(cols),
            (a * k) * (1 / k),
        ]
        for m in routes:
            assert m == a
            assert (m.rows, m.cols, m.nums, m.den, hash(m)) == (
                a.rows, a.cols, a.nums, a.den, hash(a)
            )
        assert a.entries == tuple(map(tuple, rows))
        assert a.den == math.lcm(*(e.denominator for row in a.entries for e in row))
        assert all(
            a[i, j] == Fraction(a.nums[i][j], a.den)
            for i in range(a.rows)
            for j in range(a.cols)
        )

    @pytest.mark.parametrize("rows, cols, shape", [
        ([], 0, (0, 0)),
        ([[], [], []], 0, (3, 0)),
        ([], 3, (0, 3)),
    ])
    def test_empty_shapes(self, rows, cols, shape):
        for den in (1, 6):
            m = Matrix(rows, cols=cols, den=den)
            assert ((m.rows, m.cols), m.nums, m.den) == (shape, tuple(map(tuple, rows)), 1)
            assert m.entries == m.nums
            assert (m.transpose().rows, m.transpose().cols) == shape[::-1]
            assert m @ Matrix.identity(shape[1]) == m

    def test_zero_matrix_has_den_one(self):
        assert Matrix([[0, 0], [0, 0]], den=12).den == 1
        assert Matrix([["0/5", Fraction(0, 3)]]).den == 1
        third = Matrix([["1/3", "2/3"]])
        difference = third - third
        assert (difference.nums, difference.den) == (((0, 0),), 1)
        assert difference == Matrix.zero(1, 2)

    def test_den_argument_is_reduced(self):
        m = Matrix([[2, -4], [6, 8]], den=12)
        assert (m.nums, m.den) == (((1, -2), (3, 4)), 6)
        assert m == Matrix([["1/6", "-1/3"], ["1/2", "2/3"]])
        assert m[0, 1] == Fraction(-1, 3)

    @pytest.mark.parametrize("den", [0, -2, True, 1.0, "2"])
    def test_den_must_be_a_positive_int(self, den):
        with pytest.raises(ValueError):
            Matrix([[1]], den=den)

    def test_text_rows_read_the_ints(self):
        m = Matrix([["-3/4", 2, 0], ["1/2", "-5", "6/4"]])
        assert m.den == 4
        assert m.text_rows() == [["-3/4", "2", "0"], ["1/2", "-5", "3/2"]]
        assert Matrix([[1, -2]]).text_rows() == [["1", "-2"]]
        assert repr(m) == "Matrix([[-3/4, 2, 0], [1/2, -5, 3/2]])"
        assert m.text_rows() == [[str(e) for e in row] for row in m.entries]


def _stored(m: Matrix) -> tuple:
    return (m.rows, m.cols, m.nums, m.den)


class TestTrustedConstruction:
    """`sign_conjugate`, negation and `transpose` store their tables without
    `Matrix.__init__`; each result is exactly what `__init__` stores for
    the same table."""

    @given(matrix_and_signs_st())
    def test_sign_conjugate(self, data):
        rows, signs = data
        r = sign_conjugate(Matrix(rows), SignVector(signs))
        assert _stored(r) == _stored(Matrix(r.nums, cols=r.cols, den=r.den))

    @given(table_pair_st())
    @example((0, [], []))
    @example((0, [[], [], []], []))
    @example((3, [], []))
    def test_negation_and_transpose(self, data):
        cols, rows, _ = data
        a = Matrix(rows, cols=cols)
        for r in (-a, a.transpose()):
            assert _stored(r) == _stored(Matrix(r.nums, cols=r.cols, den=r.den))
        assert (a.transpose().rows, a.transpose().cols) == (a.cols, a.rows)


class TestReducedConstruction:
    """Tables built from Matrix tables (products, sums, scalings, picks,
    block assemblies, masked parts) and signature matrices are stored
    without `Matrix.__init__`; each result is exactly what `__init__`
    stores for the same table, and the census's sign vectors are exactly
    what `SignVector.__init__` stores."""

    @given(
        st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
            lambda shape: st.tuples(
                st.just(shape[1]),
                st.lists(
                    st.tuples(*[st.integers(-30, 30)] * shape[1]),
                    min_size=shape[0],
                    max_size=shape[0],
                ).map(tuple),
            )
        ),
        st.integers(1, 60),
    )
    @example((0, ()), 6)
    @example((0, ((), (), ())), 6)
    @example((3, ()), 6)
    @example((2, ((0, 0), (0, 0))), 12)
    def test_reduced_matches_init(self, data, den):
        cols, nums = data
        assert _stored(Matrix._reduced(nums, cols, den)) == _stored(
            Matrix(nums, cols=cols, den=den)
        )

    @given(table_pair_st(), scalar_st)
    def test_operations(self, data, k):
        cols, rows, other = data
        a, b = Matrix(rows, cols=cols), Matrix(other, cols=cols)
        for r in (a + b, a - b, a * k, a @ b.transpose(), b.transpose() @ a,
                  blockform.assemble_diag(a, b), blockform.assemble_antidiag(a, b.transpose())):
            assert _stored(r) == _stored(Matrix(r.nums, cols=r.cols, den=r.den))

    @given(matrix_and_signs_st())
    def test_picks_and_masked_parts(self, data):
        rows, signs = data
        a, c = Matrix(rows), SignVector(signs)
        fixed, negated = sym_part(a, c), antisym_part(a, c)
        sym, anti = sym_block_form(fixed, c), antisym_block_form(negated, c)
        for r in (fixed, negated, sym.plus_block, sym.minus_block, sym.conjugated,
                  anti.upper_block, anti.lower_block, anti.conjugated):
            assert _stored(r) == _stored(Matrix(r.nums, cols=r.cols, den=r.den))

    @given(signs_st)
    def test_signature_matrix(self, signs):
        p = signature_matrix(SignVector(signs))
        assert _stored(p) == _stored(Matrix.diagonal(signs))

    @given(st.integers(1, 7).flatmap(
        lambda n: st.lists(st.lists(st.sampled_from((0, 0, 1, -2)), min_size=n, max_size=n),
                           min_size=n, max_size=n)
    ))
    def test_census_sign_vectors(self, rows):
        # the census builds a vector for each component's sign patterns and
        # for each stabilizer element, and none for the conjugates it lists
        a = Matrix(rows)
        patterns = []

        def recording(m, c):
            patterns.append(c)
            return sign_conjugate(m, c)

        with mock.patch.object(orbit, "sign_conjugate", recording):
            report = orbit.orbit_size(a)
        components = orbit._members(orbit.graph_components(a))
        assert len(patterns) == sum(2 ** (len(members) - 1) for members in components)
        vectors = patterns + list(report.stabilizer)
        for v in vectors:
            assert type(v.signs) is tuple
            assert all(type(s) is int for s in v.signs)
            assert v.signs == SignVector(v.signs).signs


class TestNoEntryCoercion:
    """Results of Matrix operations are built from int numerators, so none
    of these sends an entry through `core.as_scalar`; `char_poly`,
    `perm_poly` and Polynomial products build their coefficients from
    ints too, so none sends one through `invariants.as_scalar`.
    (`_interpolate_shifts` hands its Fraction coefficients to `Polynomial`,
    which coerces each of them once; that is outside this check.)"""

    A = Matrix([["1/2", 2, 0, "-3/4"], [3, "5/6", 1, 0], [0, "-7/3", 4, 1], ["2/9", 0, -1, "1/5"]])
    B = Matrix([[1, "1/3", 0, 2], ["-1/2", 0, 1, 1], [0, 4, "2/7", 0], [1, 0, 0, -1]])
    C = SignVector((1, -1, 1, -1))

    OPERATIONS = {
        "sign_conjugate": lambda a, b, c: sign_conjugate(a, c),
        "conjugate_by_signature": lambda a, b, c: conjugate_by_signature(a, c),
        "add": lambda a, b, c: a + b,
        "sub": lambda a, b, c: a - b,
        "matmul": lambda a, b, c: a @ b,
        "transpose": lambda a, b, c: a.transpose(),
        "sym_part": lambda a, b, c: sym_part(a, c),
        "antisym_part": lambda a, b, c: antisym_part(a, c),
        "sym_block_form": lambda a, b, c: sym_block_form(sym_part(a, c), c),
        "antisym_block_form": lambda a, b, c: antisym_block_form(antisym_part(a, c), c),
        "interpolate_shifts_det": lambda a, b, c: verification._interpolate_shifts(a, determinant),
        "interpolate_shifts_perm": lambda a, b, c: verification._interpolate_shifts(a, permanent),
    }

    @pytest.fixture
    def coerced(self, monkeypatch):
        seen = []
        real = core.as_scalar

        def spy(value):
            seen.append(value)
            return real(value)

        monkeypatch.setattr(core, "as_scalar", spy)
        return seen

    @pytest.mark.parametrize("name", OPERATIONS)
    def test_no_entry_goes_through_as_scalar(self, coerced, name):
        result = self.OPERATIONS[name](self.A, self.B, self.C)
        assert result is not None
        assert coerced == []

    POLYNOMIAL_OPERATIONS = {
        "char_poly": lambda a, b: char_poly(a),
        "perm_poly": lambda a, b: perm_poly(a),
        "polynomial_product": lambda a, b: char_poly(a) * perm_poly(b),
    }

    @pytest.mark.parametrize("name", POLYNOMIAL_OPERATIONS)
    def test_no_coefficient_goes_through_as_scalar(self, monkeypatch, name):
        seen = []
        real = invariants.as_scalar

        def spy(value):
            seen.append(value)
            return real(value)

        monkeypatch.setattr(invariants, "as_scalar", spy)
        result = self.POLYNOMIAL_OPERATIONS[name](self.A, self.B)
        assert result.den > 1
        assert seen == []

    def test_scalar_product_coerces_only_the_scalar(self, coerced):
        half = self.A * "1/2"
        assert coerced == ["1/2"]
        assert half.entries == tuple(tuple(e / 2 for e in row) for row in self.A.entries)
