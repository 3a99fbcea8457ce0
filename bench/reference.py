"""Reference answers for the benchmark, computed without the package.

Determinant, rank and characteristic polynomial come from sympy.  The
permanent and permanental polynomial come from Glynn's formula, a
different route from the package's Ryser and principal-sum kernels; at
n=20 it is too slow to run per job, so the permanents of the
permanent-n20 pool are stored in refs/ (see make_refs.py).  Orbit
answers follow from the block structure the generator built.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import workloads

REFS = Path(__file__).resolve().parent / "refs"

VERIFY_CHECKS = (
    "entrywise_matches_signature_product", "signature_matrix_self_inverse",
    "diagonal_preserved", "involution", "trace_invariant", "determinant_invariant",
    "rank_invariant", "char_poly_invariant", "minor_sum_invariant", "permanent_invariant",
    "perm_poly_invariant", "permanent_sum_invariant", "composition_matches_pointwise_product",
    "multiplicative_over_product", "split_reconstructs", "split_parts_fixed_and_negated",
    "mask_matches_half_sum", "mask_dimensions", "minor2_additivity_sign_split",
    "permanent2_additivity_sign_split", "sym_part_block_similarity",
    "antisym_part_block_similarity", "sym_part_factorizations", "antisym_part_factorizations",
    "minor2_additivity_transpose_split", "permanent2_additivity_transpose_split",
    "distinct_maps_on_dense_witness", "orbit_matches_component_count",
    "stabilizer_matches_brute_force", "orbit_times_stabilizer",
)


def clear_denominators(entries) -> tuple[list[list[int]], int]:
    den = 1
    for row in entries:
        for e in row:
            den = math.lcm(den, Fraction(e).denominator)
    return [[int(Fraction(e) * den) for e in row] for row in entries], den


def glynn_permanent(rows: list[list[int]]) -> int:
    """perm(A) = 2^-(n-1) * sum over d in {+-1}^n, d_1 = 1, of
    prod(d) * prod_j (sum_i d_i a_ij), walked in Gray-code order."""
    n = len(rows)
    if n == 0:
        return 1
    sums = [sum(rows[i][j] for i in range(n)) for j in range(n)]
    total, sign, gray = 0, 1, 0
    for k in range(1 << (n - 1)):
        if k:
            bit = (k & -k).bit_length() - 1  # flip d_{bit+2}
            gray ^= 1 << bit
            row = rows[bit + 1]
            step = -2 if gray >> bit & 1 else 2
            sums = [s + step * x for s, x in zip(sums, row)]
            sign = -sign
        prod = sign
        for s in sums:
            prod *= s
        total += prod
    return total >> (n - 1) if total >= 0 else -((-total) >> (n - 1))


def glynn_perm_poly(rows: list[list[int]]) -> list[int]:
    """Ascending coefficients of perm(N - y*I) for an integer matrix N.

    Glynn's sum with polynomial column sums: column j of N - y*I sums to
    s_j - d_j*y under the row signs d.
    """
    n = len(rows)
    sums = [sum(rows[i][j] for i in range(n)) for j in range(n)]
    d = [1] * n
    total = [0] * (n + 1)
    sign, gray = 1, 0
    for k in range(1 << (n - 1)):
        if k:
            bit = (k & -k).bit_length() - 1
            gray ^= 1 << bit
            d[bit + 1] = -d[bit + 1]
            step = 2 * d[bit + 1]
            sums = [s + step * x for s, x in zip(sums, rows[bit + 1])]
            sign = -sign
        poly = [sign]
        for s, dj in zip(sums, d):
            nxt = [0] * (len(poly) + 1)
            for p, c in enumerate(poly):
                nxt[p] += c * s
                nxt[p + 1] -= c * dj
            poly = nxt
        for p, c in enumerate(poly):
            total[p] += c
    scale = 1 << (n - 1)
    if any(c % scale for c in total):
        raise ArithmeticError("Glynn sum not divisible by 2^(n-1)")
    return [c // scale for c in total]


def permanent_and_perm_poly(entries) -> tuple[Fraction, list[Fraction]]:
    """perm(A) and the ascending coefficients of perm(A - x*I)."""
    rows, den = clear_denominators(entries)
    n = len(rows)
    coeffs = [Fraction(c * den**k, den**n) for k, c in enumerate(glynn_perm_poly(rows))]
    return coeffs[0], coeffs


def sympy_invariants(entries) -> dict:
    """Determinant, rank and char_poly (of det(A - x*I), ascending) by sympy."""
    import sympy

    n = len(entries)
    m = sympy.Matrix([[sympy.Rational(Fraction(e).numerator, Fraction(e).denominator)
                       for e in row] for row in entries])
    x = sympy.Symbol("x")
    monic = m.charpoly(x).all_coeffs()  # det(x*I - A), descending
    sign = -1 if n % 2 else 1
    return {
        "determinant": _fraction(m.det(method="bareiss")),
        "rank": int(m.rank()),
        "char_poly": [sign * _fraction(c) for c in reversed(monic)],
    }


def _fraction(value) -> Fraction:
    return Fraction(int(value.p), int(value.q))


class PermanentPool:
    """Stored answers for the permanent-n20 base matrices, each with the
    digest of the matrix it belongs to.  A job's matrix relabels a base
    matrix, which leaves all of these answers unchanged."""

    def __init__(self, path: Path = REFS / "permanent_n20.json"):
        doc = json.loads(path.read_text())
        self.n = doc["n"]
        self.entries = doc["pool"]

    def answers(self, index: int, n: int) -> dict:
        """Stored answers at the stored size; other sizes (the tests' tiny
        runs) are computed here by the same independent routes."""
        base = workloads.permanent_pool_matrix(index, n)
        if n != self.n:
            perm, perm_poly = permanent_and_perm_poly(base)
            return {**sympy_invariants(base), "permanent": perm, "perm_poly": perm_poly}
        ref = self.entries[index]
        if ref["index"] != index or ref["sha256"] != workloads.matrix_digest(base):
            raise RuntimeError(f"stored reference {index} does not match the generator")
        return {
            "permanent": Fraction(ref["permanent"]),
            "determinant": Fraction(ref["determinant"]),
            "rank": ref["rank"],
            "char_poly": [Fraction(c) for c in ref["char_poly"]],
        }


def orbit_expected(entries, blocks) -> dict:
    """Orbit and stabilizer implied by the generator's blocks.

    The conjugates are diag(c) A diag(c) over sign vectors that are +1 on
    one fixed vertex of each block, one per orbit element; the stabilizer
    is the vectors constant on every block with the block of vertex 1
    positive.
    """
    n = len(entries)
    t = len(blocks)
    block_of = {v: b for b, members in enumerate(blocks) for v in members}
    anchors = {min(members) for members in blocks}
    free = [v for v in range(n) if v not in anchors]
    orbit = set()
    for mask in range(1 << len(free)):
        c = [1] * n
        for k, v in enumerate(free):
            if mask >> k & 1:
                c[v] = -1
        orbit.add(tuple(tuple(str(Fraction(c[i] * entries[i][j] * c[j])) for j in range(n))
                        for i in range(n)))
    stabilizer = set()
    for mask in range(1 << t):
        signs = [-1 if mask >> block_of[v] & 1 else 1 for v in range(n)]
        if signs[0] == 1:
            stabilizer.add(",".join(str(s) for s in signs))
    return {
        "component_count": t,
        "orbit_size": 1 << (n - t),
        "stabilizer_size": 1 << (t - 1),
        "orbit": orbit,
        "stabilizer": stabilizer,
    }


def answers_for(workload: workloads.Workload, document: dict, meta: dict, pool: PermanentPool):
    """Everything the checker compares a job's report against."""
    entries = [[Fraction(e) for e in row] for row in document["entries"]]
    n = len(entries)
    if workload.command == "verify":
        return None
    if workload.command == "orbit":
        return orbit_expected(entries, meta["blocks"])
    if "pool_index" in meta:
        ans = pool.answers(meta["pool_index"], n)
    else:
        ans = sympy_invariants(entries)
        ans["permanent"], ans["perm_poly"] = permanent_and_perm_poly(entries)
    ans["trace"] = sum((entries[i][i] for i in range(n)), Fraction(0))
    ans["n"] = n
    return ans


def check_report(workload: workloads.Workload, answers, code, text: str) -> str | None:
    """None if the job's exit code and report are exactly right, else why not."""
    if code != 0:
        return f"exit code {code!r}"
    try:
        report = json.loads(text)
    except ValueError:
        return "stdout is not a JSON document"
    if not isinstance(report, dict):
        return "stdout is not a JSON object"
    try:
        if report["command"] != workload.command:
            return f"report is for command {report['command']!r}"
        if workload.command == "verify":
            return _check_verify(report)
        if workload.command == "orbit":
            return _check_orbit(report["results"], answers)
        return _check_invariants(report, answers)
    except (KeyError, TypeError) as exc:
        return f"malformed report: {exc!r}"


def _check_verify(report: dict) -> str | None:
    names = [c["name"] for c in report["checks"]]
    missing = sorted(set(VERIFY_CHECKS) - set(names))
    if missing or len(names) != len(set(names)):
        return f"checks run were {names}, missing {missing}"
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    if failed or report["passed"] is not True:
        return f"checks failed: {failed}"
    if report["skipped"]:
        return f"checks skipped: {report['skipped']}"
    return None


def _check_invariants(report: dict, ans: dict) -> str | None:
    results = report["results"]
    expected = {
        "trace": str(ans["trace"]),
        "determinant": str(ans["determinant"]),
        "rank": ans["rank"],
        "char_poly": [str(c) for c in ans["char_poly"]],
    }
    if ans["n"] <= workloads.PERM_CAP:
        expected["permanent"] = str(ans["permanent"])
    if ans["n"] <= workloads.PERMPOLY_CAP:
        expected["perm_poly"] = [str(c) for c in ans["perm_poly"]]
    elif "perm_poly" not in report.get("omitted", {}):
        return "perm_poly above its cap is not listed as omitted"
    for key, value in expected.items():
        if results.get(key) != value:
            return f"{key} is {results.get(key)!r}, expected {value!r}"
    if "perm_poly" in results and "perm_poly" not in expected:
        return "perm_poly reported above its cap"
    return None


def _check_orbit(results: dict, ans: dict) -> str | None:
    for key in ("component_count", "orbit_size", "stabilizer_size"):
        if results.get(key) != ans[key]:
            return f"{key} is {results.get(key)!r}, expected {ans[key]!r}"
    enumerated = results.get("enumerated_orbit", [])
    distinct = {tuple(tuple(row) for row in m) for m in enumerated}
    if len(enumerated) != ans["orbit_size"] or distinct != ans["orbit"]:
        return f"enumerated {len(enumerated)} conjugates ({len(distinct)} distinct), not the orbit"
    stabilizer = results.get("stabilizer", [])
    if len(stabilizer) != ans["stabilizer_size"] or set(stabilizer) != ans["stabilizer"]:
        return f"stabilizer is {stabilizer}"
    return None
