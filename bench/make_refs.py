"""Regenerate refs/permanent_n20.json, the stored answers for the
permanent-n20 pool, without using the package under test.

The permanent comes from Glynn's formula, determinant, rank and
characteristic polynomial from sympy.  Takes a few minutes:

    python3 bench/make_refs.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    pool = []
    for index in range(workloads.PERMANENT_POOL_SIZE):
        base = workloads.permanent_pool_matrix(index)
        inv = reference.sympy_invariants(base)
        pool.append({
            "index": index,
            "sha256": workloads.matrix_digest(base),
            "permanent": str(reference.glynn_permanent(base)),
            "determinant": str(inv["determinant"]),
            "rank": inv["rank"],
            "char_poly": [str(c) for c in inv["char_poly"]],
        })
        print(f"pool {index} done", file=sys.stderr)
    doc = {
        "about": "permanent-n20 base matrices: Glynn permanent, sympy det/rank/char_poly",
        "n": 20,
        "pool": pool,
    }
    (reference.REFS / "permanent_n20.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
