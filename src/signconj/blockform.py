"""Permutation-similarity canonical forms for sign-symmetric matrices.

A matrix fixed by a sign conjugation is permutation similar to a
block-diagonal matrix with one block per sign class; a matrix negated by
it is permutation similar to a block anti-diagonal matrix.  Both use the
same permutation, the form's `partition.permutation`: list the +1
positions in order, then the -1 positions.
Determinant, permanent and characteristic polynomial factor through the
blocks; the checks that report them compare both sides
(`verification._factor_sides`), not this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Matrix, SignVector, sign_conjugate
from .errors import DimensionMismatchError, NotSignAntisymmetricError, NotSignSymmetricError


@dataclass(frozen=True)
class IndexPartition:
    """1-based positions of the +1 signs and of the -1 signs."""

    plus_indices: tuple[int, ...]
    minus_indices: tuple[int, ...]

    @property
    def plus_count(self) -> int:
        return len(self.plus_indices)

    @property
    def permutation(self) -> tuple[int, ...]:
        """P as images: position k goes to the k-th entry of plus ++ minus."""
        return self.plus_indices + self.minus_indices


@dataclass(frozen=True)
class SymBlockForm:
    partition: IndexPartition
    plus_block: Matrix  # rows and columns with sign +1
    minus_block: Matrix  # rows and columns with sign -1
    conjugated: Matrix  # P^-1 * A * P, equal to diag(plus_block, minus_block)


@dataclass(frozen=True)
class AntisymBlockForm:
    partition: IndexPartition
    upper_block: Matrix  # +1 rows x -1 columns
    lower_block: Matrix  # -1 rows x +1 columns
    conjugated: Matrix  # P^-1 * A * P, equal to assemble_antidiag(upper_block, lower_block)


def index_partition(c: SignVector) -> IndexPartition:
    """Increasing lists of the +1 and -1 positions (1-based)."""
    plus = tuple(i + 1 for i, s in enumerate(c.signs) if s == 1)
    minus = tuple(i + 1 for i, s in enumerate(c.signs) if s == -1)
    return IndexPartition(plus, minus)


def _pick(a: Matrix, row_ids: tuple[int, ...], col_ids: tuple[int, ...]) -> Matrix:
    nums = a.nums
    return Matrix._reduced(
        tuple(tuple(nums[i - 1][j - 1] for j in col_ids) for i in row_ids),
        len(col_ids),
        a.den,
    )


def _over(m: Matrix, den: int) -> list[tuple[int, ...]]:
    """The rows of m as numerators over den, a multiple of m.den."""
    k = den // m.den
    return [tuple(k * e for e in row) for row in m.nums]


def assemble_diag(d: Matrix, e: Matrix) -> Matrix:
    """Block-diagonal matrix diag(d, e); either block may be empty."""
    den = math.lcm(d.den, e.den)
    rows = [row + (0,) * e.cols for row in _over(d, den)]
    rows += [(0,) * d.cols + row for row in _over(e, den)]
    return Matrix._reduced(tuple(rows), d.cols + e.cols, den)


def assemble_antidiag(f: Matrix, g: Matrix) -> Matrix:
    """Block matrix with zero diagonal blocks and f, g on the anti-diagonal;
    f is r x (n-r) and g is (n-r) x r."""
    r, s = f.rows, g.rows
    if (f.cols, g.cols) != (s, r):
        raise DimensionMismatchError(
            f"anti-diagonal blocks {f.rows}x{f.cols} and {g.rows}x{g.cols} do not fit"
        )
    den = math.lcm(f.den, g.den)
    rows = [(0,) * r + row for row in _over(f, den)]
    rows += [row + (0,) * s for row in _over(g, den)]
    return Matrix._reduced(tuple(rows), r + s, den)


def _gather(a: Matrix, c: SignVector) -> tuple[IndexPartition, Matrix]:
    """Partition and P^-1*A*P: the rows and columns of A in plus ++ minus order."""
    part = index_partition(c)
    return part, _pick(a, part.permutation, part.permutation)


def sym_block_form(a: Matrix, c: SignVector) -> SymBlockForm:
    """Block-diagonal form of a matrix the conjugation fixes.

    Raises unless the matrix actually is fixed: corrupted inputs fail
    loudly instead of silently dropping their off-block entries.
    """
    if sign_conjugate(a, c) != a:
        raise NotSignSymmetricError("matrix is not fixed by this sign conjugation")
    part, conjugated = _gather(a, c)
    plus_block = _pick(a, part.plus_indices, part.plus_indices)
    minus_block = _pick(a, part.minus_indices, part.minus_indices)
    return SymBlockForm(part, plus_block, minus_block, conjugated)


def antisym_block_form(a: Matrix, c: SignVector) -> AntisymBlockForm:
    """Block anti-diagonal form of a matrix the conjugation negates."""
    if sign_conjugate(a, c) != -a:
        raise NotSignAntisymmetricError("matrix is not negated by this sign conjugation")
    part, conjugated = _gather(a, c)
    upper = _pick(a, part.plus_indices, part.minus_indices)
    lower = _pick(a, part.minus_indices, part.plus_indices)
    return AntisymBlockForm(part, upper, lower, conjugated)
