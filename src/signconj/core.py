"""Exact matrix and sign-vector types and the sign-conjugation map.

A `Matrix` stores its exact rational table in one cleared form, int
numerators over one common denominator, and every matrix operation is
int arithmetic on that form; scalars handed in or out are ints or
`fractions.Fraction`.  Every identity the library checks is an exact
equality, so nothing here ever touches floating point.
Indices are 1-based in documentation and error messages; storage is the
usual 0-based Python layout.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import chain, product
from operator import mul, neg
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


def _lowest_terms(
    nums: tuple[tuple[int, ...], ...], den: int
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The int table nums / den with the common factor of den and every
    numerator divided out (den 1 for a zero or empty table)."""
    if den != 1:
        g = math.gcd(den, *chain.from_iterable(nums))
        if g != 1:
            return tuple(tuple(e // g for e in row) for row in nums), den // g
    return nums, den


class Matrix:
    """Immutable dense matrix of exact rationals; rectangular shapes allowed.

    The table is stored cleared: `nums` holds int rows and `den` is one
    positive int, so entry (i, j) is nums[i][j] / den.  The pair is kept in
    lowest terms (gcd(den, every numerator) = 1, and den = 1 for the zero
    matrix), which makes it canonical: equal matrices have equal `nums`
    and `den`, and every operation below is int arithmetic.

    Squareness is a per-operation precondition, not a type invariant, so
    the same type carries the rectangular blocks of the block-form module.
    """

    __slots__ = ("rows", "cols", "nums", "den", "_entries")

    def __init__(
        self, rows: Iterable[Iterable[ScalarLike]], *, cols: int | None = None, den: int = 1
    ):
        """Entry (i, j) is rows[i][j] / den.  Int entries are taken as they
        are; any other entry goes through `as_scalar`."""
        table = tuple(map(tuple, rows))
        if table:
            width = len(table[0])
            if any(len(row) != width for row in table):
                raise DimensionMismatchError("matrix rows have unequal lengths")
            if cols is not None and cols != width:
                raise DimensionMismatchError(f"declared {cols} columns, rows have {width}")
        else:
            width = cols if cols is not None else 0
        if type(den) is not int or den < 1:
            raise ValueError(f"den must be a positive int, got {den!r}")
        if set(map(type, chain.from_iterable(table))) - {int}:
            table = tuple(
                tuple(e if type(e) is int else as_scalar(e) for e in row) for row in table
            )
            common = math.lcm(*(e.denominator for row in table for e in row))
            table = tuple(
                tuple(e.numerator * (common // e.denominator) for e in row) for row in table
            )
            den *= common
        table, den = _lowest_terms(table, den)
        object.__setattr__(self, "rows", len(table))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "nums", table)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_entries", None)

    @classmethod
    def _trusted(cls, nums: tuple[tuple[int, ...], ...], cols: int, den: int) -> Matrix:
        """A Matrix stored as given, with no check: only for a table already
        canonical, int row tuples of width `cols` over a `den` in lowest
        terms, such as a sign change or reordering of a Matrix's own table."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", len(nums))
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "nums", nums)
        object.__setattr__(m, "den", den)
        object.__setattr__(m, "_entries", None)
        return m

    @classmethod
    def _reduced(cls, nums: tuple[tuple[int, ...], ...], cols: int, den: int) -> Matrix:
        """A Matrix from int row tuples of width `cols` over a positive `den`,
        brought to lowest terms: only for tables built from Matrix tables
        (products, sums, picks), whose one possible defect is a common
        factor of `den` and every numerator."""
        nums, den = _lowest_terms(nums, den)
        return cls._trusted(nums, cols, den)

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
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The table as Fractions: a read-only view, built on first use."""
        if self._entries is None:
            den = self.den
            view = tuple(tuple(Fraction(e, den) for e in row) for row in self.nums)
            object.__setattr__(self, "_entries", view)
        return self._entries

    def text_rows(self) -> list[list[str]]:
        """Each entry as exact text: 'p/q' in lowest terms, or a bare
        integer when its denominator is 1 (the form of str(Fraction))."""
        den = self.den
        if den == 1:
            return [list(map(str, row)) for row in self.nums]
        out = []
        for row in self.nums:
            texts = []
            for e in row:
                g = math.gcd(e, den)
                texts.append(str(e // g) if g == den else f"{e // g}/{den // g}")
            out.append(texts)
        return out

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def require_square(self, operation: str) -> None:
        if not self.is_square:
            raise NotSquareError(f"{operation} needs a square matrix, got {self.rows}x{self.cols}")

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return Fraction(self.nums[i][j], self.den)

    def transpose(self) -> Matrix:
        # an empty zip would lose the column count of an r x 0 or 0 x c matrix
        return Matrix._trusted(tuple(zip(*self.nums)) or ((),) * self.cols, self.rows, self.den)

    def __add__(self, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError(
                f"cannot add {self.rows}x{self.cols} and {other.rows}x{other.cols}"
            )
        den = math.lcm(self.den, other.den)
        k1, k2 = den // self.den, den // other.den
        return Matrix._reduced(
            tuple(
                tuple(a * k1 + b * k2 for a, b in zip(r1, r2))
                for r1, r2 in zip(self.nums, other.nums)
            ),
            self.cols,
            den,
        )

    def __sub__(self, other: Matrix) -> Matrix:
        return self.__add__(-other)

    def __neg__(self) -> Matrix:
        return Matrix._trusted(
            tuple(tuple(map(neg, row)) for row in self.nums), self.cols, self.den
        )

    def __mul__(self, scalar: ScalarLike) -> Matrix:
        k = as_scalar(scalar)
        p = k.numerator
        return Matrix._reduced(
            tuple(tuple(p * e for e in row) for row in self.nums),
            self.cols,
            self.den * k.denominator,
        )

    __rmul__ = __mul__

    def __matmul__(self, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        cols = list(zip(*other.nums)) or [()] * other.cols
        return Matrix._reduced(
            tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in self.nums),
            other.cols,
            self.den * other.den,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.den, self.nums) == (
            other.rows, other.cols, other.den, other.nums
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.den, self.nums))

    def __repr__(self) -> str:
        body = ", ".join("[" + ", ".join(row) + "]" for row in self.text_rows())
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

    @classmethod
    def _trusted(cls, signs: tuple[int, ...]) -> SignVector:
        """A SignVector stored as given, with no check: only for a nonempty
        tuple of int +1/-1 entries whose first entry is +1."""
        v = object.__new__(cls)
        object.__setattr__(v, "signs", signs)
        return v

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("SignVector is immutable")

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


def _sign_vectors(n: int, groups: list[list[int]]) -> Iterator[SignVector]:
    """Every length-n vector that is -1 on a union of `groups` and +1
    elsewhere.  The groups are disjoint, avoid vertex 0 and are listed by
    increasing first vertex, so taking the groups' signs in product order
    (first group slowest, +1 before -1) gives the lexicographic order of
    the tail bits.  Each vector is +1 at vertex 0 and +1/-1 elsewhere by
    construction, so it is stored without re-validation."""
    owner = [0] * n  # 0 for a vertex in no group, k for one in group k
    for k, group in enumerate(groups, start=1):
        for v in group:
            owner[v] = k
    for choice in product((1, -1), repeat=len(groups)):
        yield SignVector._trusted(tuple(map(((1,) + choice).__getitem__, owner)))


def admissible_sign_vectors(n: int) -> Iterator[SignVector]:
    """All 2^(n-1) sign vectors of length n, in lexicographic order of the
    tail bits (-1 reads as bit 1)."""
    if n < 1:
        raise EmptySignVectorError("sign vectors need length >= 1")
    yield from _sign_vectors(n, [[v] for v in range(1, n)])


def _check_conformable(a: Matrix, c: SignVector, operation: str = "sign conjugation") -> None:
    a.require_square(operation)
    if a.rows != len(c):
        raise DimensionMismatchError(f"matrix is {a.rows}x{a.cols} but sign vector has length {len(c)}")


def sign_conjugate(a: Matrix, c: SignVector) -> Matrix:
    """Entrywise sign conjugation: result[i][j] = c_i * a[i][j] * c_j.

    Fixes the diagonal, is an involution, and equals conjugation by the
    signature matrix diag(c).  Row i is row i of A times the signs c_j,
    negated when c_i = -1.  Negating entries keeps A's den and the gcd of
    its numerators, so the result is canonical as built.
    """
    _check_conformable(a, c)
    signs = c.signs
    flipped = tuple(map(neg, signs))
    return Matrix._trusted(
        tuple(
            tuple(map(mul, row, signs if ci == 1 else flipped))
            for row, ci in zip(a.nums, signs)
        ),
        a.cols,
        a.den,
    )


def signature_matrix(c: SignVector) -> Matrix:
    """diag(c_1, ..., c_n); a signature matrix is its own inverse."""
    signs = c.signs
    n = len(signs)
    return Matrix._trusted(
        tuple(tuple(s if i == j else 0 for j in range(n)) for i, s in enumerate(signs)), n, 1
    )


def conjugate_by_signature(a: Matrix, c: SignVector) -> Matrix:
    """Compute diag(c) * A * diag(c) by explicit matrix products.

    Kept as a second, independent route to the same map as
    `sign_conjugate`; the two are checked against each other in tests.
    """
    _check_conformable(a, c)
    p = signature_matrix(c)
    return p @ a @ p
