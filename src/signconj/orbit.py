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
gives one conjugate per coset, in first-occurrence order.  These are
the switching classes of signed graphs (Zaslavsky, Signed graphs, 1982).

Row i of a conjugate depends only on the signs over i's component K, so
the census conjugates A once for each of K's 2^(|K|-1) sign patterns,
keeps K's rows, and assembles every conjugate from those shared row
tuples: for components of sizes 6, 4 and 2 that is 42 conjugations
instead of 512.
A matrix needs n >= 1, as a sign vector does.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from .core import Matrix, SignVector, _sign_vectors, sign_conjugate
from .errors import EmptySignVectorError, SizeCapExceededError

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


def _coset_representatives(
    a: Matrix, components: list[list[int]] | None = None
) -> Iterator[SignVector]:
    """The 2^(n-t) vectors that are +1 at the first vertex of every
    component, in lexicographic order; each is the first member of its
    coset of the stabilizer.  `components` is `_components(a)` when the
    caller has it already."""
    if components is None:
        components = _components(a)
    free = sorted(v for members in components for v in members[1:])
    return _sign_vectors(a.rows, [[v] for v in free])


def _component_rows(a: Matrix, members: list[int]) -> tuple[Callable, dict]:
    """The rows of one component's vertices in every conjugate.

    Returns (pick, rows): pick takes a length-n sign tuple to its key, the
    signs on the members, and rows maps the key of each of the
    component's 2^(|K|-1) patterns (+1 at its first member, +1 off the
    component) to the members' rows of that pattern's conjugate, in
    vertex order.  Row i of phi_c(A) is zero off i's component, so it
    depends on c only through the signs on the members."""
    pick = itemgetter(*members)
    rows = {}
    for c in _sign_vectors(a.rows, [[v] for v in members[1:]]):
        nums = sign_conjugate(a, c).nums
        rows[pick(c.signs)] = tuple(nums[i] for i in members)
    return pick, rows


def _enumerate_distinct(a: Matrix) -> tuple[Matrix, ...]:
    """Distinct conjugates in first-occurrence order over the lexicographic
    vector order, one per coset representative, each assembled from its
    components' shared rows.  A conjugate only negates entries, so it
    keeps A's den."""
    components = _components(a)
    parts = [_component_rows(a, members) for members in components]
    # vertex v's row sits at place[v] of the rows listed component by component
    place = [0] * a.rows
    for k, v in enumerate(chain.from_iterable(components)):
        place[v] = k
    # rows already in vertex order (always so at n = 1) need no gather; any
    # other order moves two places or more, so itemgetter returns a tuple
    gather = tuple if place == sorted(place) else itemgetter(*place)
    conjugates = []
    for c in _coset_representatives(a, components):
        signs = c.signs
        listed: list[tuple[int, ...]] = []
        for pick, rows in parts:
            listed += rows[pick(signs)]
        conjugates.append(Matrix._trusted(gather(listed), a.cols, a.den))
    return tuple(conjugates)


def _require_vertices(a: Matrix, operation: str) -> None:
    a.require_square(operation)
    if not a.rows:
        raise EmptySignVectorError(f"{operation} needs n >= 1, as sign vectors do")


def orbit_size(a: Matrix, *, cap: int = DEFAULT_ENUMERATION_CAP) -> OrbitReport:
    """Orbit and stabilizer sizes from the component count; for n within
    `cap` the orbit is also enumerated."""
    _require_vertices(a, "orbit census")
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
    _require_vertices(a, "stabilizer")
    n = a.rows
    if n > cap:
        raise SizeCapExceededError(f"stabilizer enumeration for n={n} exceeds cap {cap}")
    return tuple(_sign_vectors(n, _components(a)[1:]))
