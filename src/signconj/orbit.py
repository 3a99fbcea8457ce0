"""Connected components of a matrix's nonzero pattern and the census of
its distinct sign conjugates.

Vertices i and j are adjacent when a_ij or a_ji is nonzero (i != j);
diagonal entries never create edges.  With t components there are
2^(n-t) distinct conjugates and 2^(t-1) sign vectors that fix the
matrix, and the two counts multiply to 2^(n-1).

A conjugate depends only on the products c_i*c_j over the edges: the
diagonal is fixed and zero entries stay zero.  So two vectors give the
same conjugate exactly when they differ by a stabilizer element, a
vector constant on every component, and each coset of the stabilizer
holds exactly one vector that is +1 at the first vertex of every
component.  That vector is the coset's lexicographically first, so the
census walks the 2^(n-t) signs of the other vertices in tail order and
builds one conjugate per coset, in first-occurrence order.  These are
the switching classes of signed graphs (Zaslavsky, Signed graphs, 1982).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .core import Matrix, SignVector, _sign_vectors, sign_conjugate
from .errors import SizeCapExceededError

DEFAULT_ENUMERATION_CAP = 12


@dataclass(frozen=True)
class ComponentLabeling:
    """labels[i] is the 1-based component id of vertex i+1; ids are
    contiguous 1..count in order of first occurrence."""

    labels: tuple[int, ...]
    count: int


@dataclass(frozen=True)
class OrbitReport:
    component_count: int
    orbit_size: int
    stabilizer_size: int
    enumerated: tuple[Matrix, ...] | None


def graph_components(a: Matrix) -> ComponentLabeling:
    """Depth-first search over the symmetric nonzero pattern of a square
    matrix, one search per unlabelled vertex in index order, so ids come
    out in order of first occurrence."""
    a.require_square("graph components")
    n = a.rows
    nums = a.nums
    labels = [0] * n
    count = 0
    for root in range(n):
        if labels[root]:
            continue
        count += 1
        labels[root] = count
        stack = [root]
        while stack:
            i = stack.pop()
            row = nums[i]
            for j in range(n):
                if not labels[j] and (row[j] or nums[j][i]):
                    labels[j] = count
                    stack.append(j)
    return ComponentLabeling(tuple(labels), count)


def _components(a: Matrix) -> list[list[int]]:
    """The vertices of each component, components in id order."""
    labeling = graph_components(a)
    members: list[list[int]] = [[] for _ in range(labeling.count)]
    for v, cid in enumerate(labeling.labels):
        members[cid - 1].append(v)
    return members


def _coset_representatives(a: Matrix) -> Iterator[SignVector]:
    """The 2^(n-t) vectors that are +1 at the first vertex of every
    component, in lexicographic order; each is the first member of its
    coset of the stabilizer."""
    free = sorted(v for members in _components(a) for v in members[1:])
    return _sign_vectors(a.rows, [[v] for v in free])


def _enumerate_distinct(a: Matrix) -> tuple[Matrix, ...]:
    """Distinct conjugates in first-occurrence order over the lexicographic
    vector order; one conjugate is built per coset representative."""
    return tuple(sign_conjugate(a, c) for c in _coset_representatives(a))


def orbit_size(a: Matrix, *, cap: int = DEFAULT_ENUMERATION_CAP) -> OrbitReport:
    """Orbit and stabilizer sizes from the component count; for n within
    `cap` the orbit is also enumerated."""
    a.require_square("orbit census")
    n = a.rows
    t = graph_components(a).count
    enumerated = _enumerate_distinct(a) if n <= cap else None
    return OrbitReport(t, 1 << (n - t), 1 << (t - 1), enumerated)


def stabilizer_elements(a: Matrix, *, cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[SignVector, ...]:
    """All sign vectors whose conjugation fixes the matrix, +1-first in
    lexicographic order.

    Built constructively: a fixing vector must be constant on every
    connected component, the component of vertex 1 is pinned to +1, and
    each remaining component flips freely.  `verify` compares the result
    with a brute-force search over all admissible vectors.
    """
    a.require_square("stabilizer")
    n = a.rows
    if n > cap:
        raise SizeCapExceededError(f"stabilizer enumeration for n={n} exceeds cap {cap}")
    return tuple(_sign_vectors(n, _components(a)[1:]))
