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

from collections.abc import Callable
from dataclasses import dataclass
from itertools import chain, product
from operator import itemgetter

from .core import Matrix, SignVector, _sign_vectors, sign_conjugate
from .errors import EmptySignVectorError

DEFAULT_ENUMERATION_CAP = 12


@dataclass(frozen=True)
class ComponentLabeling:
    """labels[i] is the 1-based component id of vertex i+1; ids are
    contiguous 1..count in order of first occurrence."""

    labels: tuple[int, ...]
    count: int


@dataclass(frozen=True)
class OrbitReport:
    """The census of one matrix.  `labels` are its component labels (see
    ComponentLabeling); `enumerated` lists the distinct conjugates in the
    order of `_enumerate_distinct`, and `stabilizer` the fixing vectors,
    +1-first in lexicographic order; both are None above the enumeration
    cap."""

    component_count: int
    orbit_size: int
    stabilizer_size: int
    enumerated: tuple[Matrix, ...] | None
    labels: tuple[int, ...]
    stabilizer: tuple[SignVector, ...] | None


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


def _members(labeling: ComponentLabeling) -> list[list[int]]:
    """The vertices of each component, components in id order."""
    members: list[list[int]] = [[] for _ in range(labeling.count)]
    for v, cid in enumerate(labeling.labels):
        members[cid - 1].append(v)
    return members


def _sign_key(places: list[int]) -> Callable:
    """Picks the signs at `places` from a sign tuple: a tuple of them, a
    bare sign for one place, or () when there are none."""
    return itemgetter(*places) if places else lambda signs: ()


def _component_rows(a: Matrix, members: list[int]) -> dict:
    """The rows of one component's vertices in every conjugate.

    Maps the signs on the component's free vertices, the members after its
    first, picked by `_sign_key`, for each of its 2^(|K|-1) patterns (+1 at
    its first member, +1 off the component) to the members' rows of that
    pattern's conjugate, in vertex order.  Row i of phi_c(A) is zero off
    i's component, so it depends on c only through the signs on the
    members."""
    key = _sign_key(members[1:])
    rows = {}
    for c in _sign_vectors(a.rows, [[v] for v in members[1:]]):
        nums = sign_conjugate(a, c).nums
        rows[key(c.signs)] = tuple(nums[i] for i in members)
    return rows


def _enumerate_distinct(a: Matrix, components: list[list[int]]) -> tuple[Matrix, ...]:
    """Distinct conjugates in first-occurrence order over the lexicographic
    vector order, one per coset representative, each assembled from its
    components' shared rows.  `components` is `_members` of A's labeling.
    The representatives' signs on the free vertices, in vertex order, run
    through product((1, -1), ...) in that order, and each component keys
    its rows by its own free vertices' signs in that tuple.  A conjugate
    only negates entries, so it keeps A's den."""
    free = sorted(v for members in components for v in members[1:])
    slot = {v: k for k, v in enumerate(free)}
    parts = [
        (_sign_key([slot[v] for v in members[1:]]), _component_rows(a, members))
        for members in components
    ]
    # vertex v's row sits at place[v] of the rows listed component by component
    place = [0] * a.rows
    for k, v in enumerate(chain.from_iterable(components)):
        place[v] = k
    # rows already in vertex order (always so at n = 1) need no gather; any
    # other order moves two places or more, so itemgetter returns a tuple
    gather = tuple if place == sorted(place) else itemgetter(*place)
    conjugates = []
    for choice in product((1, -1), repeat=len(free)):
        listed: list[tuple[int, ...]] = []
        for key, rows in parts:
            listed += rows[key(choice)]
        conjugates.append(Matrix._trusted(gather(listed), a.cols, a.den))
    return tuple(conjugates)


def orbit_size(a: Matrix, *, cap: int = DEFAULT_ENUMERATION_CAP) -> OrbitReport:
    """The census from one component search: orbit and stabilizer sizes
    from the component count and, for n within `cap`, both listed.  A
    fixing vector is constant on every component and +1 on vertex 1's,
    so each other component flips freely; `verify` compares the list with
    a brute-force search over all admissible vectors."""
    a.require_square("orbit census")
    if not a.rows:
        raise EmptySignVectorError("orbit census needs n >= 1, as sign vectors do")
    n = a.rows
    labeling = graph_components(a)
    t = labeling.count
    enumerated = stabilizer = None
    if n <= cap:
        components = _members(labeling)
        enumerated = _enumerate_distinct(a, components)
        stabilizer = tuple(_sign_vectors(n, components[1:]))
    return OrbitReport(t, 1 << (n - t), 1 << (t - 1), enumerated, labeling.labels, stabilizer)

