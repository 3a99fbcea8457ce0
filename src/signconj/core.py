"""Exact matrix and sign-vector types and the sign-conjugation map.

Scalars are `fractions.Fraction` throughout: every identity the library
checks is an exact equality, so nothing here ever touches floating point.
Indices are 1-based in documentation and error messages; storage is the
usual 0-based Python layout.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

from .errors import (
    DimensionMismatchError,
    EmptySignVectorError,
    FirstCoordinateNotOneError,
    MalformedSignError,
    NotSquareError,
)

Scalar = Fraction
ScalarLike = Union[Fraction, int, str]


# ASCII digits only: Fraction() alone would also take "1_000" and
# full-width or other Unicode digits.
_SCALAR_TEXT = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*", re.ASCII)


def as_scalar(value: ScalarLike) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to an exact rational.

    Strings must be an ASCII integer or p/q, optionally signed and padded
    with whitespace.  Floats and decimals are rejected: accepting them would
    silently launder rounding error into a library whose whole point is
    exactness.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        match = _SCALAR_TEXT.fullmatch(value)
        if match is None:
            raise ValueError(f"scalar {value!r} must be an ASCII integer or 'p/q'")
        num, den = match.groups()
        return Fraction(int(num), int(den) if den is not None else 1)
    raise TypeError(f"cannot use {type(value).__name__} as an exact scalar")


class Matrix:
    """Immutable dense matrix of exact rationals; rectangular shapes allowed.

    Squareness is a per-operation precondition, not a type invariant, so
    the same type carries the rectangular blocks of the block-form module.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: Iterable[Iterable[ScalarLike]], *, cols: int | None = None):
        table = tuple(tuple(as_scalar(e) for e in row) for row in rows)
        if table:
            width = len(table[0])
            if any(len(row) != width for row in table):
                raise DimensionMismatchError("matrix rows have unequal lengths")
            if cols is not None and cols != width:
                raise DimensionMismatchError(f"declared {cols} columns, rows have {width}")
        else:
            width = cols if cols is not None else 0
        object.__setattr__(self, "rows", len(table))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", table)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Matrix is immutable")

    @classmethod
    def zero(cls, rows: int, cols: int | None = None) -> Matrix:
        cols = rows if cols is None else cols
        return cls(((0,) * cols for _ in range(rows)), cols=cols)

    @classmethod
    def identity(cls, n: int) -> Matrix:
        return cls((tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), cols=n)

    @classmethod
    def diagonal(cls, values: Sequence[ScalarLike]) -> Matrix:
        n = len(values)
        return cls(
            (tuple(values[i] if i == j else 0 for j in range(n)) for i in range(n)), cols=n
        )

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def require_square(self, operation: str) -> None:
        if not self.is_square:
            raise NotSquareError(f"{operation} needs a square matrix, got {self.rows}x{self.cols}")

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self.entries[i][j]

    def transpose(self) -> Matrix:
        return Matrix(zip(*self.entries), cols=self.rows) if self.rows else Matrix((), cols=0)

    def __add__(self, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError(
                f"cannot add {self.rows}x{self.cols} and {other.rows}x{other.cols}"
            )
        return Matrix(
            (tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)),
            cols=self.cols,
        )

    def __sub__(self, other: Matrix) -> Matrix:
        return self.__add__(-other)

    def __neg__(self) -> Matrix:
        return Matrix((tuple(-e for e in row) for row in self.entries), cols=self.cols)

    def __mul__(self, scalar: ScalarLike) -> Matrix:
        k = as_scalar(scalar)
        return Matrix((tuple(k * e for e in row) for row in self.entries), cols=self.cols)

    __rmul__ = __mul__

    def __matmul__(self, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        cols = other.transpose().entries
        return Matrix(
            (tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in self.entries),
            cols=other.cols,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = ", ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.entries)
        return f"Matrix([{body}])"


class SignVector:
    """Vector over {-1, +1} whose first coordinate is pinned to +1.

    The pinning makes the vector the canonical representative of the
    conjugation map it induces: distinct admissible vectors induce
    distinct maps.
    """

    __slots__ = ("signs",)

    def __init__(self, signs: Iterable[int]):
        values = tuple(int(s) for s in signs)
        if not values:
            raise EmptySignVectorError("sign vector must have length >= 1")
        if any(s not in (-1, 1) for s in values):
            bad = next(s for s in values if s not in (-1, 1))
            raise MalformedSignError(f"sign value {bad} is not +1 or -1")
        if values[0] != 1:
            raise FirstCoordinateNotOneError("coordinate 1 of a sign vector must be +1")
        object.__setattr__(self, "signs", values)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("SignVector is immutable")

    @classmethod
    def all_ones(cls, n: int) -> SignVector:
        return cls((1,) * n)

    def __len__(self) -> int:
        return len(self.signs)

    def __iter__(self) -> Iterator[int]:
        return iter(self.signs)

    def __getitem__(self, i: int) -> int:
        return self.signs[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignVector):
            return NotImplemented
        return self.signs == other.signs

    def __hash__(self) -> int:
        return hash(self.signs)

    def __repr__(self) -> str:
        return f"SignVector({self.signs})"

    def __str__(self) -> str:
        return ",".join(str(s) for s in self.signs)


_SIGN_TOKENS = {"+": 1, "-": -1, "1": 1, "+1": 1, "-1": -1}


def parse_sign_vector(text: str) -> SignVector:
    """Parse comma/space-separated sign tokens (+, -, 1, +1, -1)."""
    tokens = [t for t in re.split(r"[,\s]+", text.strip()) if t]
    if not tokens:
        raise EmptySignVectorError("no sign tokens found")
    signs = []
    for token in tokens:
        try:
            signs.append(_SIGN_TOKENS[token])
        except KeyError:
            raise MalformedSignError(f"unknown sign token {token!r}") from None
    return SignVector(signs)


def admissible_sign_vectors(n: int) -> Iterator[SignVector]:
    """All 2^(n-1) sign vectors of length n, in lexicographic order of the
    tail bits (-1 reads as bit 1)."""
    if n < 1:
        raise EmptySignVectorError("sign vectors need length >= 1")
    for mask in range(1 << (n - 1)):
        tail = tuple(-1 if (mask >> (n - 2 - k)) & 1 else 1 for k in range(n - 1))
        yield SignVector((1,) + tail)


@dataclass(frozen=True)
class Permutation:
    """Bijection on {1..n}; images[k] is the image of position k+1."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise DimensionMismatchError(f"{self.images} is not a permutation of 1..{n}")

    def __len__(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def inverse(self) -> Permutation:
        inv = [0] * len(self.images)
        for k, image in enumerate(self.images, start=1):
            inv[image - 1] = k
        return Permutation(tuple(inv))


def _check_conformable(a: Matrix, c: SignVector) -> None:
    a.require_square("sign conjugation")
    if a.rows != len(c):
        raise DimensionMismatchError(f"matrix is {a.rows}x{a.cols} but sign vector has length {len(c)}")


def sign_conjugate(a: Matrix, c: SignVector) -> Matrix:
    """Entrywise sign conjugation: result[i][j] = c_i * a[i][j] * c_j.

    Fixes the diagonal, is an involution, and equals conjugation by the
    signature matrix diag(c).  The product of two signs is +1 exactly when
    they agree, so each entry is kept or negated without multiplying.
    """
    _check_conformable(a, c)
    return Matrix(
        (
            tuple(e if ci == cj else -e for e, cj in zip(row, c.signs))
            for row, ci in zip(a.entries, c.signs)
        ),
        cols=a.cols,
    )


def signature_matrix(c: SignVector) -> Matrix:
    """diag(c_1, ..., c_n); a signature matrix is its own inverse."""
    return Matrix.diagonal(c.signs)


def conjugate_by_signature(a: Matrix, c: SignVector) -> Matrix:
    """Compute diag(c) * A * diag(c) by explicit matrix products.

    Kept as a second, independent route to the same map as
    `sign_conjugate`; the two are checked against each other in tests.
    """
    _check_conformable(a, c)
    p = signature_matrix(c)
    return p @ a @ p
