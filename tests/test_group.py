"""Group structure of the sign-conjugation maps."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from signconj import (
    DimensionMismatchError,
    EmptySignVectorError,
    Matrix,
    SignVector,
    SizeCapExceededError,
    admissible_sign_vectors,
    cayley_table,
    compose,
    from_bits,
    identity_element,
    parse_sign_vector,
    sign_conjugate,
    to_bits,
)
from oracles import random_matrix, random_sign_vector


class TestCompose:
    def test_table_example(self):
        c = parse_sign_vector("1,1,-1")
        d = parse_sign_vector("1,-1,1")
        assert compose(c, d) == parse_sign_vector("1,-1,-1")

    def test_identity_law(self):
        c = parse_sign_vector("1,1,-1")
        assert compose(c, identity_element(3)) == c
        g = parse_sign_vector("1,-1,1,-1")
        assert compose(identity_element(4), g) == g

    def test_self_inverse(self):
        c = parse_sign_vector("1,-1,-1")
        assert compose(c, c) == identity_element(3)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            compose(parse_sign_vector("1,1"), parse_sign_vector("1,1,1"))

    def test_matches_sequential_application(self):
        rng = random.Random(42)
        for _ in range(25):
            n = rng.randint(1, 5)
            a = random_matrix(rng, n)
            c, d = random_sign_vector(rng, n), random_sign_vector(rng, n)
            assert sign_conjugate(sign_conjugate(a, c), d) == sign_conjugate(a, compose(c, d))


class TestIdentity:
    def test_values(self):
        assert identity_element(3).signs == (1, 1, 1)
        assert identity_element(1).signs == (1,)

    def test_empty_length_rejected(self):
        with pytest.raises(EmptySignVectorError):
            identity_element(0)


class TestBits:
    @pytest.mark.parametrize(
        "signs,bits",
        [("1,1,-1", "01"), ("1,1,1", "00"), ("1,-1,-1", "11"), ("1,-1,1", "10"), ("+", "")],
    )
    def test_encoding(self, signs, bits):
        assert to_bits(parse_sign_vector(signs)) == bits
        assert from_bits(bits) == parse_sign_vector(signs)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_bijective(self, n):
        images = {to_bits(c) for c in admissible_sign_vectors(n)}
        assert len(images) == 2 ** (n - 1)
        assert all(len(b) == n - 1 for b in images)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_xor_compatible(self, n):
        for c in admissible_sign_vectors(n):
            for d in admissible_sign_vectors(n):
                composed = to_bits(compose(c, d))
                xored = "".join(
                    "1" if x != y else "0" for x, y in zip(to_bits(c), to_bits(d))
                )
                assert composed == xored


class TestGroupLaws:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_commutative_exhaustive(self, n):
        for c in admissible_sign_vectors(n):
            for d in admissible_sign_vectors(n):
                assert compose(c, d) == compose(d, c)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_element_order_two(self, n):
        for c in admissible_sign_vectors(n):
            assert compose(c, c) == identity_element(n)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_distinct_maps_witnessed_on_dense_matrix(self, n):
        dense = Matrix([[1] * n for _ in range(n)])
        images = {sign_conjugate(dense, c) for c in admissible_sign_vectors(n)}
        assert len(images) == 2 ** (n - 1)


class TestCayleyTable:
    def test_golden_four_by_four(self):
        c1 = parse_sign_vector("1,1,-1")
        c2 = parse_sign_vector("1,-1,1")
        c3 = parse_sign_vector("1,-1,-1")
        e = identity_element(3)
        table = cayley_table(3)
        assert table.elements == (c1, c2, c3, e)
        assert table.products == (
            (e, c3, c2, c1),
            (c3, e, c1, c2),
            (c2, c1, e, c3),
            (c1, c2, c3, e),
        )

    def test_n2(self):
        e = identity_element(2)
        g = parse_sign_vector("1,-1")
        table = cayley_table(2)
        assert table.elements == (e, g)
        assert table.products == ((e, g), (g, e))

    def test_n1(self):
        table = cayley_table(1)
        assert table.elements == (identity_element(1),)
        assert table.products == ((identity_element(1),),)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_symmetric_with_identity_diagonal(self, n):
        table = cayley_table(n)
        size = 2 ** (n - 1)
        for i in range(size):
            assert table.products[i][i] == identity_element(n)
            for j in range(size):
                assert table.products[i][j] == table.products[j][i]

    def test_cap(self):
        with pytest.raises(SizeCapExceededError):
            cayley_table(7)


@given(st.integers(2, 5).flatmap(lambda n: st.tuples(
    st.tuples(st.just(1), *[st.sampled_from((1, -1))] * (n - 1)),
    st.tuples(st.just(1), *[st.sampled_from((1, -1))] * (n - 1)),
)))
def test_compose_is_coordinatewise_product(pair):
    c, d = SignVector(pair[0]), SignVector(pair[1])
    assert compose(c, d).signs == tuple(x * y for x, y in zip(c, d))
