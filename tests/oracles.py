"""Independent brute-force oracles and random-input generators.

Everything here is deliberately naive - permutation sums, cofactor
expansion, Lagrange interpolation, the Faddeev-LeVerrier recursion,
Ryser's inclusion-exclusion (`ryser_permanent`, and `ryser_perm_poly`
with polynomial-valued row products), walks over principal index
subsets - so the production algorithms are checked against routes that
share nothing with them.  The subset sums walk the principal index
subsets: each principal permanent is `ryser_permanent`, which shares no
code with the package's Glynn walk, and each principal minor is the
package's Bareiss determinant, which the package itself never sums over
subsets.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from typing import Sequence

from signconj import (
    InternalConsistencyError,
    Matrix,
    Polynomial,
    SignVector,
    admissible_sign_vectors,
    sign_conjugate,
)
from signconj.invariants import _bareiss_int


def naive_permanent(a: Matrix) -> Fraction:
    """Sum over all n! permutations; fine for n <= 7."""
    n = a.rows
    total = Fraction(0)
    for perm in permutations(range(n)):
        prod = Fraction(1)
        for i, j in enumerate(perm):
            prod *= a.entries[i][j]
        total += prod
    return total


def expansion_permanent(a: Matrix) -> Fraction:
    """Permanent by first-row expansion, memoized on the set of columns
    still free; 2^n states, so fine for n <= 12."""
    n = a.rows

    @cache
    def rest(free: int) -> Fraction:
        i = n - bin(free).count("1")
        if i == n:
            return Fraction(1)
        return sum(
            (
                a.entries[i][j] * rest(free & ~(1 << j))
                for j in range(n)
                if free >> j & 1 and a.entries[i][j]
            ),
            Fraction(0),
        )

    return rest((1 << n) - 1)


def ryser_permanent(rows: Sequence[Sequence[int]]) -> int:
    """Permanent by inclusion-exclusion over column subsets, walked in
    Gray-code order so each step updates the row sums in O(n)."""
    n = len(rows)
    if n == 0:
        return 1
    cols = [tuple(row[j] for row in rows) for j in range(n)]
    sums = [0] * n
    total = 0
    gray = 0
    sign = 1
    for k in range(1, 1 << n):
        # the bit flipped between consecutive Gray codes is the lowest set bit of k
        j = (k & -k).bit_length() - 1
        bit = 1 << j
        gray ^= bit
        col = cols[j]
        if gray & bit:
            for i in range(n):
                sums[i] += col[i]
        else:
            for i in range(n):
                sums[i] -= col[i]
        sign = -sign
        prod = 1
        for s in sums:
            if not s:
                prod = 0
                break
            prod *= s
        total += prod if sign > 0 else -prod
    return total if n % 2 == 0 else -total


def ryser_perm_poly(rows: Sequence[Sequence[int]]) -> list[int]:
    """Ascending coefficients of perm(N - y*I) for an integer matrix N.

    Ryser's formula applied to N - y*I: for a column subset T with row
    sums r_i, row i of N - y*I sums to r_i - y when i is in T and to r_i
    otherwise, so the term is prod_{i not in T} r_i * prod_{i in T} (r_i - y).
    One Gray-code walk over T gives the whole polynomial in O(2^n * n^2).
    """
    n = len(rows)
    if n == 0:
        return [1]
    cols = [tuple(row[j] for row in rows) for j in range(n)]
    sums = [0] * n
    total = [0] * (n + 1)
    gray = 0
    sign = 1
    for k in range(1, 1 << n):
        j = (k & -k).bit_length() - 1
        bit = 1 << j
        gray ^= bit
        col = cols[j]
        if gray & bit:
            for i in range(n):
                sums[i] += col[i]
        else:
            for i in range(n):
                sums[i] -= col[i]
        sign = -sign
        # a zero row sum outside T zeroes the term; rows in T contribute
        # r_i - y, which is never the zero polynomial
        outside = 1
        inside = []
        for i, s in enumerate(sums):
            if gray >> i & 1:
                inside.append(s)
            elif not s:
                outside = 0
                break
            else:
                outside *= s
        if not outside:
            continue
        poly = [1]
        for r in inside:
            poly.append(0)
            for p in range(len(poly) - 1, 0, -1):
                poly[p] = r * poly[p] - poly[p - 1]
            poly[0] *= r
        if sign < 0:
            outside = -outside
        for p, c in enumerate(poly):
            total[p] += outside * c
    return total if n % 2 == 0 else [-c for c in total]


def gaussian_rank(a: Matrix) -> int:
    """Rank by Fraction Gaussian elimination."""
    rows = [list(row) for row in a.entries]
    r = 0
    for col in range(a.cols):
        pivot = next((i for i in range(r, a.rows) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, a.rows):
            if rows[i][col]:
                factor = rows[i][col] / rows[r][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def cofactor_determinant(a: Matrix) -> Fraction:
    """Recursive first-row cofactor expansion; fine for n <= 6."""
    n = a.rows
    if n == 0:
        return Fraction(1)
    if n == 1:
        return a.entries[0][0]
    total = Fraction(0)
    for j in range(n):
        if a.entries[0][j] == 0:
            continue
        sub = Matrix(
            [[a.entries[i][k] for k in range(n) if k != j] for i in range(1, n)],
            cols=n - 1,
        )
        term = a.entries[0][j] * cofactor_determinant(sub)
        total += term if j % 2 == 0 else -term
    return total


def faddeev_char_poly(rows: list[list[int]]) -> list[int]:
    """Ascending coefficients of det(x*I - N) for an integer matrix N.

    Faddeev-LeVerrier recursion; the division by k is exact because the
    coefficients of an integer matrix's characteristic polynomial are
    integers and so is every intermediate matrix.
    """
    n = len(rows)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        nk = [
            [sum(rows[i][l] * m[l][j] for l in range(n)) for j in range(n)]
            for i in range(n)
        ]
        tr = sum(nk[i][i] for i in range(n))
        if tr % k:
            raise InternalConsistencyError("inexact division in characteristic recursion")
        c = -(tr // k)
        coeffs[n - k] = c
        if k < n:
            m = nk
            for i in range(n):
                m[i][i] += c
    return coeffs


def lagrange_interpolate(points: list[tuple[Fraction, Fraction]]) -> Polynomial:
    """Unique polynomial of degree < len(points) through the given points."""
    result = Polynomial([0])
    for i, (xi, yi) in enumerate(points):
        term = Polynomial([yi])
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            scale = Fraction(1, xi - xj)
            term = term * Polynomial([-xj * scale, scale])
        result = result + term
    return result


def fraction_poly(coefficients: Sequence) -> tuple[Fraction, ...]:
    """Ascending Fraction coefficients with trailing zeros stripped, (0,) for
    the zero polynomial."""
    coeffs = [Fraction(c) for c in coefficients]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs) or (Fraction(0),)


def fraction_poly_add(p: Sequence, q: Sequence) -> tuple[Fraction, ...]:
    """Sum of two ascending coefficient lists, one Fraction at a time."""
    padded = max(len(p), len(q))
    return fraction_poly(
        Fraction(p[k] if k < len(p) else 0) + Fraction(q[k] if k < len(q) else 0)
        for k in range(padded)
    )


def fraction_poly_mul(p: Sequence, q: Sequence) -> tuple[Fraction, ...]:
    """Product of two ascending coefficient lists by schoolbook convolution
    over Fractions."""
    out = [Fraction(0)] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += Fraction(a) * Fraction(b)
    return fraction_poly(out)


def perm_poly_by_interpolation(a: Matrix, permanent=naive_permanent) -> Polynomial:
    """Evaluate perm(A - x*I) at n+1 small integers, then interpolate.

    `permanent` evaluates each point; the n! permutation sum by default,
    `expansion_permanent` where n! is too slow.
    """
    n = a.rows
    points = []
    for x in range(n + 1):
        shifted = Matrix(
            [
                [a.entries[i][j] - (x if i == j else 0) for j in range(n)]
                for i in range(n)
            ],
            cols=n,
        )
        points.append((Fraction(x), permanent(shifted)))
    return lagrange_interpolate(points)


def principal_submatrix(a: Matrix, indices: Sequence[int]) -> Matrix:
    """The submatrix on the 1-based row-and-column set `indices`."""
    return Matrix(
        (tuple(a.entries[i - 1][j - 1] for j in indices) for i in indices), cols=len(indices)
    )


def sum_principal_minors(a: Matrix, k: int) -> Fraction:
    """Sum of all order-k principal minors (the empty minor at k=0 is 1)."""
    rows, den = a.nums, a.den
    total = 0
    for subset in combinations(range(a.rows), k):
        sub = [[rows[i][j] for j in subset] for i in subset]
        total += _bareiss_int(sub, k)[1]
    return Fraction(total, den**k)


def sum_principal_permanents(a: Matrix, k: int) -> Fraction:
    """Sum of all order-k principal permanents."""
    rows, den = a.nums, a.den
    total = 0
    for subset in combinations(range(a.rows), k):
        sub = [[rows[i][j] for j in subset] for i in subset]
        total += ryser_permanent(sub)
    return Fraction(total, den**k)


def perm_poly_by_principal_sums(a: Matrix) -> Polynomial:
    """perm(A - x*I) from the coefficient law: the x^(n-k) coefficient is
    (-1)^(n-k) times the sum of the order-k principal permanents (3^n)."""
    n = a.rows
    return Polynomial((-1) ** k * sum_principal_permanents(a, n - k) for k in range(n + 1))


def orbit_by_matrices(a: Matrix) -> tuple[Matrix, ...]:
    """Distinct conjugates by hashing the conjugate of every admissible
    vector, in first-occurrence order over the lexicographic vector order."""
    return tuple(dict.fromkeys(sign_conjugate(a, c) for c in admissible_sign_vectors(a.rows)))


def stabilizer_by_matrices(a: Matrix) -> set[SignVector]:
    """Every admissible vector whose conjugate equals the matrix itself."""
    return {c for c in admissible_sign_vectors(a.rows) if sign_conjugate(a, c) == a}


def coset_representatives(a: Matrix) -> list[SignVector]:
    """The 2^(n-t) admissible vectors that are +1 at the first vertex of
    every component, in lexicographic order: the first member of each coset
    of the stabilizer, picked from all 2^(n-1) vectors."""
    labels, _ = components_by_reachability(a)
    firsts = {labels.index(cid) for cid in set(labels)}
    return [c for c in admissible_sign_vectors(a.rows) if all(c.signs[v] == 1 for v in firsts)]


def components_by_reachability(a: Matrix) -> tuple[tuple[int, ...], int]:
    """(labels, count) of the connected components of the symmetric
    nonzero pattern (i != j), from the boolean transitive closure of the
    adjacency (Warshall); vertex v joins the component of the smallest
    vertex it reaches, and ids go 1..count in order of first occurrence."""
    n = a.rows
    reach = [
        [i == j or a.entries[i][j] != 0 or a.entries[j][i] != 0 for j in range(n)]
        for i in range(n)
    ]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[k][j]
    ids: dict[int, int] = {}
    labels = tuple(
        ids.setdefault(reach[v].index(True), len(ids) + 1) for v in range(n)
    )
    return labels, len(ids)


def permutation_matrix(images: Sequence[int]) -> Matrix:
    """0/1 matrix whose column j is the standard basis vector e_{images[j]},
    for 1-based images."""
    n = len(images)
    return Matrix(
        (tuple(1 if images[j] == i + 1 else 0 for j in range(n)) for i in range(n)),
        cols=n,
    )


def conjugate_by_permutation_matrix(a: Matrix, images: Sequence[int]) -> Matrix:
    """P^T * A * P with P = permutation_matrix(images); P is orthogonal, so
    this is P^-1 * A * P."""
    pm = permutation_matrix(images)
    return pm.transpose() @ a @ pm


def random_scalar(rng: random.Random, lo: int = -9, hi: int = 9, max_den: int = 9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_matrix(rng: random.Random, n: int, m: int | None = None, *, integer: bool = False) -> Matrix:
    m = n if m is None else m
    if integer:
        return Matrix([[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)], cols=m)
    return Matrix([[random_scalar(rng) for _ in range(m)] for _ in range(n)], cols=m)


def random_sparse_matrix(rng: random.Random, n: int, density: float = 0.3) -> Matrix:
    return Matrix(
        [
            [rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(n)
        ],
        cols=n,
    )


def random_sign_vector(rng: random.Random, n: int) -> SignVector:
    return SignVector([1] + [rng.choice((1, -1)) for _ in range(n - 1)])
