"""Splitting a matrix into the parts a sign conjugation fixes and negates.

The two parts are complementary masks decided by the sign pattern
c_i * c_j, they sum back to the input, and the order-two principal
minor/permanent sums are additive across the split.  The classic
transpose-based symmetric/antisymmetric split has the same additivity.
Those sums are the closed forms sum_{i<j} a_ii*a_jj -+ a_ij*a_ji,
O(n^2) at any n.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .core import Matrix, SignVector, _check_conformable, sign_conjugate
from .errors import RangeError

HALF = Fraction(1, 2)


class Symmetry(Enum):
    SYMMETRIC = "symmetric"
    ANTISYMMETRIC = "antisymmetric"
    NEITHER = "neither"


@dataclass(frozen=True)
class DecompositionPair:
    sym: Matrix
    antisym: Matrix


def _masked(a: Matrix, c: SignVector, keep: int) -> Matrix:
    """Entries where c_i * c_j = keep, zero elsewhere."""
    _check_conformable(a, c, "sign decomposition")
    return Matrix._reduced(
        tuple(
            tuple(e if ci * cj == keep else 0 for e, cj in zip(row, c.signs))
            for row, ci in zip(a.nums, c.signs)
        ),
        a.cols,
        a.den,
    )


def sym_part(a: Matrix, c: SignVector) -> Matrix:
    """Entries where c_i * c_j = +1, zero elsewhere.

    The mask comes from c alone (never from comparing A with its
    conjugate), so the operation is well defined for every A.  Equals
    (A + conjugate)/2.
    """
    return _masked(a, c, 1)


def antisym_part(a: Matrix, c: SignVector) -> Matrix:
    """Entries where c_i * c_j = -1, zero elsewhere; diagonal is always zero."""
    return _masked(a, c, -1)


def split(a: Matrix, c: SignVector) -> DecompositionPair:
    """Both mask parts; they reconstruct A exactly."""
    return DecompositionPair(sym_part(a, c), antisym_part(a, c))


def classify(a: Matrix, c: SignVector) -> Symmetry:
    """SYMMETRIC if the conjugation fixes A, ANTISYMMETRIC if it negates A.

    The zero matrix satisfies both definitions and reports SYMMETRIC.
    """
    conjugated = sign_conjugate(a, c)
    if conjugated == a:
        return Symmetry.SYMMETRIC
    if conjugated == -a:
        return Symmetry.ANTISYMMETRIC
    return Symmetry.NEITHER


def classic_split(a: Matrix) -> DecompositionPair:
    """Transpose-based split: ((A + A^T)/2, (A - A^T)/2)."""
    a.require_square("transpose split")
    t = a.transpose()
    return DecompositionPair((a + t) * HALF, (a - t) * HALF)


def subspace_dims(n: int, r: int) -> tuple[int, int]:
    """Dimensions (kept entries) of the two mask subspaces for a sign
    vector with r entries equal to +1: (r^2 + (n-r)^2, 2r(n-r))."""
    if not 1 <= r <= n:
        raise RangeError(f"need 1 <= r <= n, got r={r}, n={n}")
    return r * r + (n - r) * (n - r), 2 * r * (n - r)


def _order2_sum(m: Matrix, sign: int) -> Fraction:
    """sum_{i<j} m_ii*m_jj + sign*m_ij*m_ji on the cleared ints m.nums:
    the order-2 principal minor sum for sign = -1, the permanent sum for +1."""
    m.require_square("order-2 principal sum")
    rows = m.nums
    total = 0
    for i, row in enumerate(rows):
        d = row[i]
        for j in range(i + 1, len(rows)):
            total += d * rows[j][j] + sign * row[j] * rows[j][i]
    return Fraction(total, m.den * m.den)


def order2_minor_sum(m: Matrix) -> Fraction:
    """Sum of the order-2 principal minors, sum_{i<j} m_ii*m_jj - m_ij*m_ji,
    in O(n^2); 0 when n < 2."""
    return _order2_sum(m, -1)


def order2_permanent_sum(m: Matrix) -> Fraction:
    """Sum of the order-2 principal permanents, sum_{i<j} m_ii*m_jj + m_ij*m_ji,
    in O(n^2); 0 when n < 2."""
    return _order2_sum(m, 1)
