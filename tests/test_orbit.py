"""Graph components and the distinct-conjugate census."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signconj import (
    EmptySignVectorError,
    Matrix,
    NotSquareError,
    admissible_sign_vectors,
    char_poly,
    compose,
    determinant,
    graph_components,
    orbit_size,
    parse_sign_vector,
    permanent,
    rank,
    sign_conjugate,
    trace,
)
from oracles import (
    components_by_reachability,
    coset_representatives,
    orbit_by_matrices,
    random_sparse_matrix,
    stabilizer_by_matrices,
)

EDGE_PLUS_LOOP = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 5]])


def stabilizer(a):
    """The census's fixing vectors, listed at every size."""
    return orbit_size(a, cap=a.rows).stabilizer


class TestGraphComponents:
    def test_edge_plus_isolated_loop(self):
        labeling = graph_components(EDGE_PLUS_LOOP)
        assert labeling.labels == (1, 1, 2)
        assert labeling.count == 2

    def test_zero_matrix_all_isolated(self):
        assert graph_components(Matrix.zero(4)).count == 4

    def test_dense_matrix_connected(self):
        assert graph_components(Matrix([[1, 1, 1], [1, 1, 1], [1, 1, 1]])).count == 1

    def test_diagonal_ignored(self):
        assert graph_components(Matrix.diagonal((7, 8, 9))).count == 3

    def test_one_sided_nonzero_makes_edge(self):
        a = Matrix([[0, 5, 0], [0, 0, 0], [0, 0, 0]])
        labeling = graph_components(a)
        assert labeling.labels == (1, 1, 2)

    def test_insensitive_to_transpose_and_diagonal(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(1, 7)
            a = random_sparse_matrix(rng, n)
            assert graph_components(a).labels == graph_components(a.transpose()).labels
            shifted = a + Matrix.diagonal([rng.randint(1, 5) for _ in range(n)])
            assert graph_components(a).labels == graph_components(shifted).labels

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 9).flatmap(
            lambda n: st.tuples(
                st.just(n),
                # per pair i < j: no entry, a_ij only, a_ji only, or both
                st.lists(st.sampled_from("....ulb"), min_size=n * n, max_size=n * n),
                st.lists(st.sampled_from([0, 0, 4, "-1/2"]), min_size=n, max_size=n),
                st.sets(st.integers(0, n - 1)),
            )
        )
    )
    def test_matches_reachability_closure(self, drawn):
        n, kinds, diagonal, zero_rows = drawn
        rows = [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                kind = kinds[i * n + j]
                if kind in "ub":
                    rows[i][j] = 3
                if kind in "lb":
                    rows[j][i] = -2
        for i in zero_rows:
            rows[i] = [0] * n
        a = Matrix(rows)
        labeling = graph_components(a)
        assert (labeling.labels, labeling.count) == components_by_reachability(a)
        first_seen = list(dict.fromkeys(labeling.labels))
        assert first_seen == list(range(1, labeling.count + 1))

    def test_requires_square(self):
        with pytest.raises(NotSquareError):
            graph_components(Matrix([[1, 2, 3]]))


class TestOrbitSize:
    def test_edge_plus_loop_fixture(self):
        report = orbit_size(EDGE_PLUS_LOOP)
        assert (report.orbit_size, report.stabilizer_size) == (2, 2)
        assert len(report.enumerated) == 2

    def test_zero_matrix(self):
        report = orbit_size(Matrix.zero(3))
        assert report.orbit_size == 1
        assert report.stabilizer_size == 4
        assert report.enumerated == (Matrix.zero(3),)

    def test_all_ones(self):
        report = orbit_size(Matrix([[1, 1, 1]] * 3))
        assert report.orbit_size == 4
        assert report.stabilizer_size == 1

    def test_empty_matrix_rejected(self):
        # a sign vector needs n >= 1, so the 0 x 0 matrix has no census
        with pytest.raises(EmptySignVectorError):
            orbit_size(Matrix.zero(0))

    def test_enumeration_skipped_above_cap(self):
        report = orbit_size(Matrix.zero(5), cap=4)
        assert report.enumerated is None and report.stabilizer is None
        assert report.orbit_size == 1
        assert report.labels == (1, 2, 3, 4, 5)

    def test_orbit_members_share_invariants(self):
        rng = random.Random(33)
        for _ in range(10):
            n = rng.randint(1, 5)
            a = random_sparse_matrix(rng, n)
            report = orbit_size(a)
            for member in report.enumerated:
                assert trace(member) == trace(a)
                assert determinant(member) == determinant(a)
                assert permanent(member) == permanent(a)
                assert rank(member) == rank(a)
                assert char_poly(member) == char_poly(a)


class TestStabilizer:
    def test_edge_plus_loop_fixture(self):
        stab = set(stabilizer(EDGE_PLUS_LOOP))
        assert stab == {parse_sign_vector("1,1,1"), parse_sign_vector("1,1,-1")}

    def test_all_ones_matrix_trivial_stabilizer(self):
        assert stabilizer(Matrix([[1, 1, 1]] * 3)) == (parse_sign_vector("1,1,1"),)

    def test_zero_matrix_everything_stabilizes(self):
        stab = set(stabilizer(Matrix.zero(3)))
        assert stab == set(admissible_sign_vectors(3))

    def test_members_actually_fix(self):
        rng = random.Random(34)
        for _ in range(20):
            n = rng.randint(1, 7)
            a = random_sparse_matrix(rng, n)
            for c in stabilizer(a):
                assert sign_conjugate(a, c) == a


class TestCountingLaws:
    def test_orbit_stabilizer_product(self):
        rng = random.Random(35)
        for _ in range(40):
            n = rng.randint(1, 8)
            a = random_sparse_matrix(rng, n, density=rng.choice((0.15, 0.4, 0.9)))
            report = orbit_size(a)
            assert report.orbit_size * report.stabilizer_size == 2 ** (n - 1)

    def test_brute_force_matches_formulas(self):
        rng = random.Random(36)
        for _ in range(40):
            n = rng.randint(1, 8)
            a = random_sparse_matrix(rng, n, density=rng.choice((0.15, 0.4, 0.9)))
            t = graph_components(a).count
            distinct = {sign_conjugate(a, c) for c in admissible_sign_vectors(n)}
            fixing = {c for c in admissible_sign_vectors(n) if sign_conjugate(a, c) == a}
            assert len(distinct) == 2 ** (n - t)
            assert len(fixing) == 2 ** (t - 1)
            assert fixing == set(stabilizer(a))


class TestCosetRepresentatives:
    def test_times_stabilizer_cover_every_vector_once(self):
        rng = random.Random(38)
        for _ in range(40):
            n = rng.randint(1, 8)
            a = random_sparse_matrix(rng, n, density=rng.choice((0.0, 0.15, 0.4, 0.9)))
            fixing = stabilizer(a)
            products = Counter(compose(c, s) for c in coset_representatives(a) for s in fixing)
            assert products == Counter(admissible_sign_vectors(n))

    def test_census_lists_the_representatives_conjugates_in_order(self):
        rng = random.Random(39)
        for _ in range(40):
            n = rng.randint(1, 8)
            a = random_sparse_matrix(rng, n, density=rng.choice((0.0, 0.15, 0.4, 0.9)))
            expected = tuple(sign_conjugate(a, c) for c in coset_representatives(a))
            assert orbit_size(a).enumerated == expected


class TestAgainstMatrixHashing:
    """The coset-representative census against hashing every conjugate matrix."""

    CASES = [
        Matrix([[0, 0, 0], [5, 0, 0], [0, 0, 0]]),
        Matrix([[0, "-3/2", 0, 0], [0, 0, 0, 0], [0, 0, 4, 0], [0, "7/5", 0, 0]]),
        Matrix.zero(5),
        Matrix.diagonal((3, "-1/2", 0, 7)),
    ]

    def assert_agrees(self, a):
        report = orbit_size(a, cap=a.rows)
        assert report.enumerated == orbit_by_matrices(a)
        assert report.labels == components_by_reachability(a)[0]
        expected = sorted(stabilizer_by_matrices(a), key=lambda c: c.signs, reverse=True)
        assert report.stabilizer == tuple(expected)

    def test_seeded_sparse(self):
        rng = random.Random(37)
        for n in range(1, 10):
            for density in (0.15, 0.4, 0.9):
                self.assert_agrees(random_sparse_matrix(rng, n, density=density))

    @pytest.mark.parametrize("a", CASES, ids=["one_sided", "one_sided_rational", "zero", "diagonal"])
    def test_special_patterns(self, a):
        self.assert_agrees(a)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 9).flatmap(
            lambda n: st.lists(
                st.lists(st.sampled_from([0] * 6 + [-2, -1, "-3/2", 3]), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_property_sparse(self, rows):
        a = Matrix(rows)
        assert orbit_size(a).enumerated == orbit_by_matrices(a)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 9).flatmap(
            lambda n: st.tuples(
                # vertex v joins group groups[v]; groups interleave by index
                st.lists(st.integers(0, 3), min_size=n, max_size=n),
                st.permutations(range(n)),
                st.lists(st.sampled_from("ulb"), min_size=2 * n, max_size=2 * n),
                st.lists(
                    st.sampled_from([1, -2, "3/4", "-5/6", "7/3"]), min_size=2 * n, max_size=2 * n
                ),
                st.lists(st.sampled_from([0, 0, 2, "-1/2"]), min_size=n, max_size=n),
            )
        )
    )
    def test_property_interleaved_components(self, drawn):
        """Each group is joined by a path in a shuffled order, so the
        components are the groups: they interleave by index, singletons
        are isolated vertices, and entries carry denominators."""
        groups, order, kinds, values, diagonal = drawn
        n = len(groups)
        rows = [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)]
        members = {}
        for v in order:
            members.setdefault(groups[v], []).append(v)
        edges = [(p, q) for path in members.values() for p, q in zip(path, path[1:])]
        for k, (p, q) in enumerate(edges):
            if kinds[k] in "ub":
                rows[p][q] = values[2 * k]
            if kinds[k] in "lb":
                rows[q][p] = values[2 * k + 1]
        a = Matrix(rows)
        report = orbit_size(a)
        expected = orbit_by_matrices(a)
        assert report.component_count == len(members)
        assert report.enumerated == expected
        assert [m.den for m in report.enumerated] == [m.den for m in expected]
