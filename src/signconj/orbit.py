"""Connected components of a matrix's nonzero pattern and the census of
its distinct sign conjugates.

Vertices i and j are adjacent when a_ij or a_ji is nonzero (i != j);
diagonal entries never create edges.  With t components there are
2^(n-t) distinct conjugates and 2^(t-1) sign vectors that fix the
matrix, and the two counts multiply to 2^(n-1).

A conjugate depends only on the products c_i*c_j over the edges: the
diagonal is fixed and zero entries stay zero.  Each sign vector is
therefore keyed by an int, the set of edges where c_i*c_j = -1, and two
vectors give the same conjugate exactly when their keys are equal.  The
census walks all 2^(n-1) keys and builds only the 2^(n-t) distinct
conjugates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Matrix, SignVector, admissible_sign_vectors, sign_conjugate
from .errors import InternalConsistencyError, SizeCapExceededError

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


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


def graph_components(a: Matrix) -> ComponentLabeling:
    """Union-find over the symmetric nonzero pattern of a square matrix."""
    a.require_square("graph components")
    n = a.rows
    nums = a.nums
    uf = _UnionFind(n)
    for i in range(n):
        for j in range(i + 1, n):
            if nums[i][j] or nums[j][i]:
                uf.union(i, j)
    ids: dict[int, int] = {}
    labels = []
    for v in range(n):
        root = uf.find(v)
        if root not in ids:
            ids[root] = len(ids) + 1
        labels.append(ids[root])
    return ComponentLabeling(tuple(labels), len(ids))


def _edge_masks(a: Matrix) -> list[int]:
    """masks[v] has bit e set when the e-th nonzero off-diagonal pair
    {i, j} (i < j, row-major) touches vertex v."""
    n = a.rows
    nums = a.nums
    masks = [0] * n
    bit = 1
    for i in range(n):
        for j in range(i + 1, n):
            if nums[i][j] or nums[j][i]:
                masks[i] |= bit
                masks[j] |= bit
                bit <<= 1
    return masks


def _edge_sign_key(masks: list[int], c: SignVector) -> int:
    """Bit e is set when c_i*c_j = -1 on edge e: XOR over the -1 vertices."""
    key = 0
    for mask, s in zip(masks, c.signs):
        if s < 0:
            key ^= mask
    return key


def _enumerate_distinct(a: Matrix) -> tuple[Matrix, ...]:
    """Distinct conjugates in first-occurrence order over the lexicographic
    vector order; one conjugate is built per new key."""
    masks = _edge_masks(a)
    seen: set[int] = set()
    distinct = []
    for c in admissible_sign_vectors(a.rows):
        key = _edge_sign_key(masks, c)
        if key not in seen:
            seen.add(key)
            distinct.append(sign_conjugate(a, c))
    return tuple(distinct)


def orbit_size(a: Matrix, *, cap: int = DEFAULT_ENUMERATION_CAP) -> OrbitReport:
    """Orbit and stabilizer sizes from the component count; for n within
    `cap` the orbit is also enumerated and the predicted size checked."""
    a.require_square("orbit census")
    n = a.rows
    t = graph_components(a).count
    predicted = 1 << (n - t)
    stabilizer = 1 << (t - 1)
    enumerated = None
    if n <= cap:
        enumerated = _enumerate_distinct(a)
        if len(enumerated) != predicted:
            raise InternalConsistencyError(
                f"enumerated {len(enumerated)} distinct conjugates, component count predicts {predicted}"
            )
    return OrbitReport(t, predicted, stabilizer, enumerated)


def stabilizer_elements(a: Matrix, *, cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[SignVector, ...]:
    """All sign vectors whose conjugation fixes the matrix.

    Built constructively: a fixing vector must be constant on every
    connected component, the component of vertex 1 is pinned to +1, and
    each remaining component flips freely.  `verify` compares the result
    with a brute-force search over all admissible vectors.
    """
    a.require_square("stabilizer")
    n = a.rows
    if n > cap:
        raise SizeCapExceededError(f"stabilizer enumeration for n={n} exceeds cap {cap}")
    labeling = graph_components(a)
    free_ids = sorted(set(labeling.labels) - {labeling.labels[0]})
    found = []
    for mask in range(1 << len(free_ids)):
        chosen = {
            cid: -1 if (mask >> k) & 1 else 1 for k, cid in enumerate(free_ids)
        }
        chosen[labeling.labels[0]] = 1
        found.append(SignVector(chosen[cid] for cid in labeling.labels))
    return tuple(sorted(found, key=lambda c: c.signs, reverse=True))
