"""Acceptance suite: every exit criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
each criterion also asserts, so a plain pytest run enforces them all.
All comparisons are exact (zero tolerance): the scalars are rationals and
every identity checked is an algebraic identity.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from signconj import (
    Matrix,
    SignVector,
    admissible_sign_vectors,
    antisym_block_form,
    antisym_part,
    assemble_antidiag,
    assemble_diag,
    cayley_table,
    char_poly,
    classify,
    compose,
    conjugate_by_signature,
    determinant,
    graph_components,
    identity_element,
    index_partition,
    order2_minor_sum,
    order2_permanent_sum,
    orbit_size,
    parse_sign_vector,
    perm_poly,
    permanent,
    rank,
    sign_conjugate,
    signature_matrix,
    split,
    subspace_dims,
    sym_block_form,
    sym_part,
    to_bits,
    trace,
)
from signconj.cli import main as cli_main
from signconj.decomposition import Symmetry
from signconj.verification import _factor_sides
from oracles import (
    cofactor_determinant,
    conjugate_by_permutation_matrix,
    naive_permanent,
    perm_poly_by_interpolation,
    random_matrix,
    random_sign_vector,
    random_sparse_matrix,
    sum_principal_minors,
    sum_principal_permanents,
)

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "signconj" / "fixtures"

CORPUS_SIZE = 200
CORPUS_SEED = 20240901


def _corpus() -> list[tuple[Matrix, SignVector]]:
    rng = random.Random(CORPUS_SEED)
    out = []
    for _ in range(CORPUS_SIZE):
        n = rng.randint(1, 8)
        out.append((random_matrix(rng, n), random_sign_vector(rng, n)))
    return out


CORPUS = _corpus()


def verdict(name: str, failures: list, elapsed: float | None = None) -> None:
    status = "PASS" if not failures else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"[{status}] {name}{timing}")
    assert not failures, f"{name}: first failures: {failures[:3]}"


def test_criterion_01_invariance_suite():
    start = time.monotonic()
    failures = []
    for a, c in CORPUS:
        n = a.rows
        b = sign_conjugate(a, c)
        if trace(b) != trace(a):
            failures.append(("trace", a, c))
        if determinant(b) != determinant(a):
            failures.append(("determinant", a, c))
        if permanent(b) != permanent(a):
            failures.append(("permanent", a, c))
        if rank(b) != rank(a):
            failures.append(("rank", a, c))
        for k in range(n + 1):
            if sum_principal_minors(b, k) != sum_principal_minors(a, k):
                failures.append(("minor sum", k, a, c))
            if sum_principal_permanents(b, k) != sum_principal_permanents(a, k):
                failures.append(("permanent sum", k, a, c))
        if char_poly(b) != char_poly(a):
            failures.append(("char poly", a, c))
        if perm_poly(b) != perm_poly(a):
            failures.append(("perm poly", a, c))
    elapsed = time.monotonic() - start
    if elapsed >= 60.0:
        failures.append(("runtime", elapsed))
    verdict("criterion 1: invariance suite on 200-matrix corpus", failures, elapsed)


def test_criterion_02_conjugation_identity():
    failures = []
    for a, c in CORPUS:
        if sign_conjugate(a, c) != conjugate_by_signature(a, c):
            failures.append(("entrywise vs product", a, c))
        p = signature_matrix(c)
        if p @ p != Matrix.identity(a.rows):
            failures.append(("signature not self-inverse", c))
    verdict("criterion 2: conjugation identity and self-inverse signature", failures)


def test_criterion_03_group_fixture():
    failures = []
    c1 = parse_sign_vector("1,1,-1")
    c2 = parse_sign_vector("1,-1,1")
    c3 = parse_sign_vector("1,-1,-1")
    e3 = identity_element(3)
    table = cayley_table(3)
    if table.elements != (c1, c2, c3, e3):
        failures.append(("element ordering", table.elements))
    expected = (
        (e3, c3, c2, c1),
        (c3, e3, c1, c2),
        (c2, c1, e3, c3),
        (c1, c2, c3, e3),
    )
    if table.products != expected:
        failures.append(("table contents", table.products))
    for n in range(1, 6):
        elements = list(admissible_sign_vectors(n))
        if len(elements) != 2 ** (n - 1):
            failures.append(("element count", n))
        dense = Matrix([[1] * n for _ in range(n)])
        if len({sign_conjugate(dense, c) for c in elements}) != 2 ** (n - 1):
            failures.append(("distinctness witness", n))
        for c in elements:
            if compose(c, c) != identity_element(n):
                failures.append(("involution", c))
            for d in elements:
                if compose(c, d) != compose(d, c):
                    failures.append(("commutativity", c, d))
                xored = "".join(
                    "1" if x != y else "0" for x, y in zip(to_bits(c), to_bits(d))
                )
                if to_bits(compose(c, d)) != xored:
                    failures.append(("xor isomorphism", c, d))
        if len({to_bits(c) for c in elements}) != 2 ** (n - 1):
            failures.append(("bits not bijective", n))
    verdict("criterion 3: group fixture and exhaustive laws (n <= 5)", failures)


def test_criterion_04_sign_pattern_fixtures():
    failures = []
    symbolic = Matrix([[10 * i + j for j in range(1, 4)] for i in range(1, 4)])

    def signed(pattern):
        return Matrix(
            [
                [s * e for s, e in zip(prow, mrow)]
                for prow, mrow in zip(pattern, symbolic.entries)
            ]
        )

    cases = {
        "1,1,-1": [[1, 1, -1], [1, 1, -1], [-1, -1, 1]],
        "1,-1,1": [[1, -1, 1], [-1, 1, -1], [1, -1, 1]],
        "1,-1,-1": [[1, -1, -1], [-1, 1, 1], [-1, 1, 1]],
        "1,1,1": [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
    }
    for signs, pattern in cases.items():
        got = sign_conjugate(symbolic, parse_sign_vector(signs))
        if got != signed(pattern):
            failures.append((signs, got))
    verdict("criterion 4: sign-pattern fixtures on the symbolic 3x3", failures)


def test_criterion_05_decomposition():
    failures = []
    rng = random.Random(CORPUS_SEED + 5)
    half = Fraction(1, 2)
    for n in range(1, 9):
        for c in admissible_sign_vectors(n):
            a = random_matrix(rng, n)
            pair = split(a, c)
            if pair.sym + pair.antisym != a:
                failures.append(("reconstruction", n, c))
            if sign_conjugate(pair.sym, c) != pair.sym:
                failures.append(("sym not fixed", n, c))
            if sign_conjugate(pair.antisym, c) != -pair.antisym:
                failures.append(("antisym not negated", n, c))
            conj = sign_conjugate(a, c)
            if pair.sym != (a + conj) * half or pair.antisym != (a - conj) * half:
                failures.append(("mask vs half-sum", n, c))
            r = sum(1 for s in c if s == 1)
            dim_sym, dim_anti = subspace_dims(n, r)
            kept = sum(1 for i in range(n) for j in range(n) if c[i] * c[j] == 1)
            if kept != dim_sym or n * n - kept != dim_anti:
                failures.append(("dimension count", n, c))
    if subspace_dims(3, 2) != (5, 4):
        failures.append(("3x3 dimension fixture",))
    verdict("criterion 5: decomposition, both routes, dimensions (n <= 8)", failures)


def test_criterion_06_subring_and_product_rules():
    failures = []
    rng = random.Random(CORPUS_SEED + 6)
    table = {
        (Symmetry.SYMMETRIC, Symmetry.SYMMETRIC): Symmetry.SYMMETRIC,
        (Symmetry.SYMMETRIC, Symmetry.ANTISYMMETRIC): Symmetry.ANTISYMMETRIC,
        (Symmetry.ANTISYMMETRIC, Symmetry.SYMMETRIC): Symmetry.ANTISYMMETRIC,
        (Symmetry.ANTISYMMETRIC, Symmetry.ANTISYMMETRIC): Symmetry.SYMMETRIC,
    }
    for (left, right), expected in table.items():
        for _ in range(100):
            n = rng.randint(2, 6)
            c = random_sign_vector(rng, n)

            def masked(kind):
                m = random_matrix(rng, n)
                return sym_part(m, c) if kind is Symmetry.SYMMETRIC else antisym_part(m, c)

            product = masked(left) @ masked(right)
            got = classify(product, c)
            if got is not expected and product != Matrix.zero(n):
                failures.append(("product rule", left, right, got))
    for a, c in CORPUS:
        b = random_matrix(rng, a.rows)
        if sign_conjugate(a @ b, c) != sign_conjugate(a, c) @ sign_conjugate(b, c):
            failures.append(("multiplicativity", a, b, c))
    for c in admissible_sign_vectors(4):
        if classify(Matrix.identity(4), c) is not Symmetry.SYMMETRIC:
            failures.append(("identity not fixed", c))
    verdict("criterion 6: product-rule table (100/cell) and multiplicativity", failures)


def test_criterion_07_minor_additivity():
    failures = []
    for a, c in CORPUS:
        n = a.rows
        if n < 2:
            continue
        from signconj import classic_split

        for split_tag, parts in (("sign", split(a, c)), ("classic", classic_split(a))):
            for tag, summer in (("minors", order2_minor_sum), ("permanents", order2_permanent_sum)):
                if summer(a) != summer(parts.sym) + summer(parts.antisym):
                    failures.append((f"{split_tag} {tag}", a, c))
            if char_poly(a).coefficient(n - 2) != (
                char_poly(parts.sym).coefficient(n - 2)
                + char_poly(parts.antisym).coefficient(n - 2)
            ):
                failures.append(("char coeff", a, c))
            if perm_poly(a).coefficient(n - 2) != (
                perm_poly(parts.sym).coefficient(n - 2)
                + perm_poly(parts.antisym).coefficient(n - 2)
            ):
                failures.append(("perm coeff", a, c))
    verdict("criterion 7: order-2 additivity, both splits, both routes", failures)


def test_criterion_08_block_forms():
    start = time.monotonic()
    failures = []
    rng = random.Random(CORPUS_SEED + 8)
    for n in range(1, 9):
        for _ in range(100):
            c = random_sign_vector(rng, n)
            a = sym_part(random_matrix(rng, n), c)
            form = sym_block_form(a, c)
            if form.conjugated != assemble_diag(form.plus_block, form.minus_block):
                failures.append(("sym similarity", n, c))
            images = index_partition(c).permutation
            if form.conjugated != conjugate_by_permutation_matrix(a, images):
                failures.append(("sym permutation-matrix similarity", n, c))
            (char_full, *det_perm_full), (char_product, *det_perm_product) = _factor_sides(a, form)
            if char_full != char_product:
                failures.append(("char factorization", n, c))
            if det_perm_full != det_perm_product:
                failures.append(("det/perm factorization", n, c))
        for _ in range(100):
            c = random_sign_vector(rng, n)
            a = antisym_part(random_matrix(rng, n), c)
            form = antisym_block_form(a, c)
            if form.conjugated != assemble_antidiag(form.upper_block, form.lower_block):
                failures.append(("antisym similarity", n, c))
            images = index_partition(c).permutation
            if form.conjugated != conjugate_by_permutation_matrix(a, images):
                failures.append(("antisym permutation-matrix similarity", n, c))
            (det_full, perm_full), (det_blocks, perm_blocks) = _factor_sides(a, form)
            if 2 * form.partition.plus_count != n:
                if (det_full, perm_full, det_blocks, perm_blocks) != (0, 0, 0, 0):
                    failures.append(("unbalanced nonzero", n, c))
            else:
                if det_full != det_blocks:
                    failures.append(("det sign", n, c))
                if perm_full != perm_blocks:
                    failures.append(("perm product", n, c))
    # balanced classes at n in {2, 4, 6}: determinant sign is (-1)^(n/2),
    # cross-checked against elimination on the full matrix
    for n in (2, 4, 6):
        for _ in range(25):
            tail = [1] * (n // 2 - 1) + [-1] * (n // 2)
            rng.shuffle(tail)
            c = SignVector([1] + tail)
            a = antisym_part(random_matrix(rng, n), c)
            _, (det_blocks, _) = _factor_sides(a, antisym_block_form(a, c))
            f_det = determinant(rep_block(a, c, upper=True))
            g_det = determinant(rep_block(a, c, upper=False))
            if not determinant(a) == det_blocks == (-1) ** (n // 2) * f_det * g_det:
                failures.append(("explicit sign check", n, c))
    # erratum witness: the sign (-1)^n fails at n=2
    witness = Matrix([[0, 2], [3, 0]])
    blocks = Fraction(2) * Fraction(3)
    if determinant(witness) == (-1) ** 2 * blocks:
        failures.append(("(-1)^n does not fail at n=2",))
    if determinant(witness) != (-1) ** (2 // 2) * blocks:
        failures.append(("(-1)^(n/2) wrong at n=2",))
    verdict("criterion 8: block forms and factorizations (100/class/n)", failures,
            time.monotonic() - start)


def rep_block(a: Matrix, c: SignVector, *, upper: bool) -> Matrix:
    plus = [i for i, s in enumerate(c) if s == 1]
    minus = [i for i, s in enumerate(c) if s == -1]
    rows, cols = (plus, minus) if upper else (minus, plus)
    return Matrix([[a.entries[i][j] for j in cols] for i in rows], cols=len(cols))


def test_criterion_09_orbit_counting():
    failures = []
    rng = random.Random(CORPUS_SEED + 9)
    for _ in range(100):
        n = rng.randint(1, 8)
        a = random_sparse_matrix(rng, n, density=rng.choice((0.15, 0.4, 0.9)))
        t = graph_components(a).count
        distinct = {sign_conjugate(a, c) for c in admissible_sign_vectors(n)}
        if len(distinct) != 2 ** (n - t):
            failures.append(("orbit count", a))
        brute = {c for c in admissible_sign_vectors(n) if sign_conjugate(a, c) == a}
        constructive = set(orbit_size(a, cap=n).stabilizer)
        if brute != constructive or len(brute) != 2 ** (t - 1):
            failures.append(("stabilizer", a))
        report = orbit_size(a)
        if report.orbit_size * report.stabilizer_size != 2 ** (n - 1):
            failures.append(("orbit-stabilizer product", a))
    fixtures = [
        (Matrix.zero(3), 1),
        (Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 5]]), 2),
        (Matrix([[1, 1, 1]] * 3), 4),
    ]
    for a, expected in fixtures:
        if orbit_size(a).orbit_size != expected:
            failures.append(("fixture orbit size", a, expected))
    verdict("criterion 9: orbit counting vs brute force (100 sparse)", failures)


def test_criterion_10_oracle_cross_checks():
    failures = []
    rng = random.Random(CORPUS_SEED + 10)
    for n in range(1, 8):
        a = random_matrix(rng, n, integer=(n > 5))
        if permanent(a) != naive_permanent(a):
            failures.append(("ryser vs naive", n))
    for n in range(1, 5):
        a = random_matrix(rng, n)
        if determinant(a) != cofactor_determinant(a):
            failures.append(("bareiss vs cofactor", n))
    for n in range(1, 11):
        a = random_matrix(rng, n, integer=(n > 6))
        p = char_poly(a)
        for k in range(n + 1):
            if p.coefficient(n - k) != (-1) ** (n - k) * sum_principal_minors(a, k):
                failures.append(("char poly vs subset sums", n, k))
    for n in range(1, 7):
        a = random_matrix(rng, n, integer=(n > 4))
        if perm_poly(a) != perm_poly_by_interpolation(a):
            failures.append(("perm poly vs interpolation", n))
    verdict("criterion 10: independent oracle cross-checks", failures)


def test_criterion_11_cli(capsys, tmp_path):
    failures = []
    verify_path = str(FIXTURES / "verify6.json")

    code = cli_main(["verify", "--matrix", verify_path])
    first = capsys.readouterr().out
    if code != 0:
        failures.append(("verify exit", code))
    report = json.loads(first)
    if not report["passed"] or not report["checks"]:
        failures.append(("verify content",))
    if any(not c["passed"] for c in report["checks"]):
        failures.append(("verify check failed",))

    code = cli_main(["verify", "--matrix", verify_path])
    second = capsys.readouterr().out
    if first != second:
        failures.append(("reports not byte-identical",))

    code = cli_main(
        ["blockform", "--matrix", str(FIXTURES / "corrupted_sym.json"), "--signs", "1,1,-1,-1"]
    )
    out = capsys.readouterr().out
    if code != 1:
        failures.append(("corrupted fixture exit", code))
    named = [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]
    if named != ["matrix_symmetry_class"]:
        failures.append(("failing check not named", named))
    verdict("criterion 11: CLI verify fixture, determinism, corrupted input", failures)
