"""The benchmark's workloads: seeded input generators and CLI job lines.

Standard library only, and independent of the package and its tests, so
that edits to either cannot shift the inputs.  Every job passes its size
caps explicitly and never passes --threads, so raising a default cap or
removing that flag cannot silently change the work being measured.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

PERM_CAP = 20
PERMPOLY_CAP = 12
ORBIT_CAP = 12

# Inputs generated per run; a run that finishes more jobs reuses them in order.
INPUTS_PER_RUN = 64

# Base matrices of the permanent-n20 pool; their permanents are stored in
# refs/permanent_n20.json (see make_refs.py).
PERMANENT_POOL_SIZE = 32


def rng_for(*key) -> random.Random:
    """A Random seeded from a stable digest of `key`."""
    digest = hashlib.sha256(repr(key).encode()).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


def matrix_digest(entries) -> str:
    """sha256 of the entries in canonical text form (str of each Fraction)."""
    text = ";".join(",".join(str(Fraction(e)) for e in row) for row in entries)
    return hashlib.sha256(text.encode()).hexdigest()


def dense_rational(rng: random.Random, n: int) -> list[list[Fraction]]:
    """Every entry p/q with p in -9..9 nonzero and q in 1..9.

    The denominators are a shuffled fixed multiset, each of 1..9 as often
    as n*n allows, so that every matrix costs about the same to work with
    and run-to-run spread comes from the program, not from the draw.
    """
    dens = [k % 9 + 1 for k in range(n * n)]
    rng.shuffle(dens)
    return [
        [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), dens[i * n + j]) for j in range(n)]
        for i in range(n)
    ]


def dense_integer(rng: random.Random, n: int) -> list[list[int]]:
    return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]


def permanent_pool_matrix(index: int, n: int = 20) -> list[list[int]]:
    return dense_integer(rng_for("permanent-n20-pool", index), n)


def relabel(base: list[list[int]], perm: list[int], signs: list[int]) -> list[list[int]]:
    """diag(signs) * P^T * base * P * diag(signs): a simultaneous row and
    column permutation followed by a sign conjugation.  Both preserve the
    permanent, determinant, rank and characteristic polynomial."""
    n = len(base)
    return [[signs[i] * base[perm[i]][perm[j]] * signs[j] for j in range(n)] for i in range(n)]


def block_sparse(rng: random.Random, sizes: tuple[int, ...]):
    """Sparse integer matrix whose nonzero pattern has one connected
    component per block size, with vertices shuffled.

    Each block gets a random spanning tree plus a few extra edges, so it
    is connected; no entry links two blocks.  Returns (entries, blocks)
    with blocks as tuples of 0-based vertex ids.
    """
    n = sum(sizes)
    order = list(range(n))
    rng.shuffle(order)
    blocks, start = [], 0
    for size in sizes:
        blocks.append(tuple(sorted(order[start : start + size])))
        start += size
    a = [[0] * n for _ in range(n)]

    def nonzero() -> int:
        return rng.choice((-1, 1)) * rng.randint(1, 9)

    def link(i: int, j: int) -> None:
        which = rng.randrange(3)  # a_ij, a_ji or both
        if which != 1:
            a[i][j] = nonzero()
        if which != 0:
            a[j][i] = nonzero()

    for block in blocks:
        members = list(block)
        rng.shuffle(members)
        for k in range(1, len(members)):
            link(members[k], members[rng.randrange(k)])
        for i in block:
            for j in block:
                if i < j and not (a[i][j] or a[j][i]) and rng.random() < 0.25:
                    link(i, j)
        for i in block:
            if rng.random() < 0.5:
                a[i][i] = nonzero()
    return a, tuple(blocks)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    inputs: str  # "rational", "pool" (relabelled pool matrices) or "blocks"
    size: int
    caps: tuple[str, ...]
    why: str
    blocks: tuple[int, ...] = ()  # component sizes for "blocks" inputs

    def argv(self, matrix_path: str) -> list[str]:
        return [self.command, "--matrix", matrix_path, *self.caps]

    def make_input(self, seed: int, job: int) -> dict:
        """The job's matrix document plus what the checker needs to know
        about how it was built."""
        rng = rng_for(self.name, seed, job)
        meta: dict = {}
        if self.inputs == "pool":
            index = rng.randrange(PERMANENT_POOL_SIZE)
            perm = list(range(self.size))
            rng.shuffle(perm)
            signs = [rng.choice((-1, 1)) for _ in range(self.size)]
            entries = relabel(permanent_pool_matrix(index, self.size), perm, signs)
            meta["pool_index"] = index
        elif self.inputs == "blocks":
            entries, blocks = block_sparse(rng, self.blocks)
            meta["blocks"] = [list(b) for b in blocks]
        else:
            entries = dense_rational(rng, self.size)
        doc = {"n": len(entries), "entries": [[_json_scalar(e) for e in row] for row in entries]}
        return {"document": doc, "meta": meta}


def _json_scalar(x):
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else str(x)


_VERIFY_CAPS = ("--perm-cap", str(PERM_CAP), "--permpoly-cap", str(PERMPOLY_CAP),
                "--orbit-cap", str(ORBIT_CAP))
_INVARIANT_CAPS = ("--perm-cap", str(PERM_CAP), "--permpoly-cap", str(PERMPOLY_CAP))

WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-exhaustive", "verify", "rational", 7, _VERIFY_CAPS,
                 "verify on dense rational 7x7: all 64 sign vectors and 30 checks; "
                 "block forms, Matrix products and principal sums dominate"),
        Workload("invariants-n12", "invariants", "rational", 12, _INVARIANT_CAPS,
                 "invariants on dense rational 12x12: the 3^n perm_poly path at its cap "
                 "dominates, the permanent is cheap"),
        Workload("permanent-n20", "invariants", "pool", 20, _INVARIANT_CAPS,
                 "invariants on dense integer 20x20: Ryser permanent at its cap, "
                 "perm_poly omitted, dense n=20 det/rank/char_poly"),
        Workload("orbit-n12", "orbit", "blocks", 12, ("--orbit-cap", str(ORBIT_CAP)),
                 "orbit on sparse 12x12 with 3 components: orbit enumeration, "
                 "stabilizer and a ~1.2 MB JSON report; invariant kernels idle",
                 blocks=(6, 4, 2)),
    )
}


def write_inputs(workload: Workload, seed: int, directory: Path, count: int = INPUTS_PER_RUN) -> None:
    """Write job inputs as <directory>/job-NNNN.json plus meta.json."""
    directory.mkdir(parents=True, exist_ok=True)
    metas = []
    for job in range(count):
        made = workload.make_input(seed, job)
        (directory / f"job-{job:04d}.json").write_text(json.dumps(made["document"]))
        metas.append(made["meta"])
    (directory / "meta.json").write_text(json.dumps(metas))


def input_paths(directory: Path) -> list[Path]:
    return sorted(directory.glob("job-*.json"))
