"""The abelian group of sign-conjugation maps under composition.

Each map is represented by its admissible sign vector (first coordinate
+1); composition multiplies vectors coordinatewise, every non-identity
element has order two, and the tail bits give an isomorphism onto
bitstrings of length n-1 under XOR.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import SignVector, admissible_sign_vectors
from .errors import DimensionMismatchError, EmptySignVectorError, SizeCapExceededError

CAYLEY_TABLE_MAX_N = 6


def compose(c: SignVector, d: SignVector) -> SignVector:
    """Sign vector of the composed map: e_i = c_i * d_i."""
    if len(c) != len(d):
        raise DimensionMismatchError(f"cannot compose lengths {len(c)} and {len(d)}")
    return SignVector(ci * di for ci, di in zip(c, d))


def identity_element(n: int) -> SignVector:
    """The all-ones vector, whose map is the identity."""
    return SignVector((1,) * n)


def to_bits(c: SignVector) -> str:
    """Tail coordinates as a bitstring: bit k is 1 iff coordinate k+2 is -1.

    Satisfies to_bits(compose(c, d)) = to_bits(c) XOR to_bits(d).
    """
    return "".join("1" if s == -1 else "0" for s in c.signs[1:])


def from_bits(bits: str) -> SignVector:
    """Inverse of `to_bits`."""
    if any(b not in "01" for b in bits):
        raise ValueError(f"{bits!r} is not a bitstring")
    return SignVector((1,) + tuple(-1 if b == "1" else 1 for b in bits))


@dataclass(frozen=True)
class CayleyTable:
    """Row/column ordering plus the full composition table."""

    elements: tuple[SignVector, ...]
    products: tuple[tuple[SignVector, ...], ...]

    @property
    def n(self) -> int:
        return len(self.elements[0])


def cayley_table(n: int) -> CayleyTable:
    """Composition table of all 2^(n-1) maps on n coordinates.

    Ordering is lexicographic by tail bits, except n=3 which lists the
    three non-identity elements first and the identity last (the ordering
    of the golden 4x4 fixture the tests compare against byte-for-byte).
    """
    if n < 1:
        raise EmptySignVectorError("group needs n >= 1")
    if n > CAYLEY_TABLE_MAX_N:
        raise SizeCapExceededError(
            f"cayley table for n={n} has {4 ** (n - 1)} cells; cap is n <= {CAYLEY_TABLE_MAX_N}"
        )
    elements = list(admissible_sign_vectors(n))
    if n == 3:
        elements = elements[1:] + elements[:1]
    products = tuple(tuple(compose(g, h) for h in elements) for g in elements)
    return CayleyTable(tuple(elements), products)
