"""One-shot verification: every exact identity the library promises,
checked against a concrete matrix.

Checks run over all admissible sign vectors when n <= 8, or over a
seeded random sample for larger matrices.  Every outcome carries both
sides of the asserted equality so a failure is diagnosable from the
report alone.

Each vector's checks stand alone, so `verify_matrix` splits the vectors
into contiguous parts, as many as the largest power of two at most the
CPUs the process may use that leaves each part at least
_SPLIT_MIN_VECTORS vectors, and checks every part but the first in a
forked child (`invariants._map_parts`).  The parts' outcomes merge in
order into the report one walk over all the vectors gives, byte for
byte; the checks on A alone run once, in the parent.

`_record_block_form` and `_factor_sides` state once how a block form is
checked; `verify_matrix` and the `blockform` command both call them.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

from .blockform import (
    AntisymBlockForm,
    SymBlockForm,
    antisym_block_form,
    assemble_antidiag,
    assemble_diag,
    sym_block_form,
)
from .core import (
    Matrix,
    SignVector,
    admissible_sign_vectors,
    conjugate_by_signature,
    sign_conjugate,
    signature_matrix,
)
from .decomposition import (
    antisym_part,
    classic_split,
    order2_minor_sum,
    order2_permanent_sum,
    subspace_dims,
    sym_part,
)
from .errors import NotSignAntisymmetricError, NotSignSymmetricError, RangeError
from .group import compose
from .invariants import (
    DEFAULT_PERM_POLY_CAP,
    DEFAULT_PERMANENT_CAP,
    Polynomial,
    _map_parts,
    _split_bits,
    char_poly,
    determinant,
    perm_poly,
    permanent,
    rank,
    trace,
)
from .orbit import DEFAULT_ENUMERATION_CAP, orbit_size

EXHAUSTIVE_MAX_N = 8
# verify_matrix splits its sign vectors into parts of at least this many.
# A child starts its part about 2 ms after the split begins; 2 parts
# of 8 vectors were faster than one walk at each n measured (5 to 9), 2 of
# 4 not at n = 10, where more of the job runs outside the vector loop
_SPLIT_MIN_VECTORS = 8
BlockForm = SymBlockForm | AntisymBlockForm

ANTIDIAG_SIGN_NOTE = (
    "anti-diagonal determinant sign is (-1)^(n/2); "
    "the (-1)^n form gives the wrong sign when n = 2 (mod 4)"
)


def format_value(value) -> str:
    """Canonical string for scalars, polynomials, matrices, and tuples."""
    if isinstance(value, (Fraction, int)):
        return str(value)
    if isinstance(value, Polynomial):
        return "[" + ", ".join(str(c) for c in value.coefficients) + "]"
    if isinstance(value, Matrix):
        return "[" + "; ".join(", ".join(row) for row in value.text_rows()) + "]"
    if isinstance(value, SignVector):
        return str(value)
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(format_value(v) for v in value) + ")"
    return str(value)


@dataclass
class CheckOutcome:
    name: str
    passed: bool = True
    lhs: str = ""
    rhs: str = ""
    note: str = ""

    def record(self, lhs, rhs, context: str = "") -> None:
        """Fold one compared pair into the outcome, keeping the first failure."""
        if not self.passed:
            return
        if lhs != rhs:
            self.passed = False
            self.lhs = format_value(lhs)
            self.rhs = format_value(rhs)
            if context:
                self.note = (self.note + "; " if self.note else "") + f"failed at {context}"
        elif not self.lhs:
            self.lhs = format_value(lhs)
            self.rhs = format_value(rhs)


class _Checks(dict):
    """Check outcomes by name, in the order of each name's first use.
    Called with a name, it returns that outcome, made with `note` on first
    use."""

    def __call__(self, name: str, note: str = "") -> CheckOutcome:
        out = self.get(name)
        if out is None:
            out = self[name] = CheckOutcome(name=name, note=note)
        return out


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckOutcome, ...]
    skipped: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckOutcome]:
        return [c for c in self.checks if not c.passed]


def _choose_vectors(n: int, samples: int | None, seed: int) -> list[SignVector]:
    """Every admissible vector, or `samples` distinct ones (16 by default)
    drawn from a seeded stream; a repeated draw is skipped, and the draw
    stops early once all 2^(n-1) vectors are in."""
    if samples is None and n <= EXHAUSTIVE_MAX_N:
        return list(admissible_sign_vectors(n))
    count = min(samples if samples is not None else 16, 1 << (n - 1))
    rng = random.Random(seed)
    chosen: dict[SignVector, None] = {}
    while len(chosen) < count:
        chosen[SignVector([1] + [rng.choice((1, -1)) for _ in range(n - 1)])] = None
    return list(chosen)


def _interpolate_shifts(a: Matrix, value: Callable[[Matrix], Fraction]) -> Polynomial:
    """value(A - x*I) as a polynomial in x, from its values at x = 0..n by
    Newton forward differences: n+1 evaluations of `value`, sharing no code
    with the char_poly or perm_poly kernels."""
    n, den = a.rows, a.den
    diffs = [
        value(Matrix(
            [
                [e - x * den if i == j else e for j, e in enumerate(row)]
                for i, row in enumerate(a.nums)
            ],
            cols=n,
            den=den,
        ))
        for x in range(n + 1)
    ]
    # diffs[k] becomes the k-th forward difference at 0, over k!
    for k in range(1, n + 1):
        for x in range(n, k - 1, -1):
            diffs[x] = (diffs[x] - diffs[x - 1]) / k
    # Horner in the Newton basis: p = d_0 + x*(d_1 + (x-1)*(d_2 + ...))
    coeffs = [diffs[n]]
    for k in range(n - 1, -1, -1):
        # coeffs <- coeffs * (x - k) + d_k
        coeffs = [Fraction(0)] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= k * coeffs[i + 1]
        coeffs[0] += diffs[k]
    return Polynomial(coeffs)


def _principal_sums(poly: Polynomial, n: int) -> list[Fraction]:
    """Order-k principal sums, k = 0..n, read off det(A - x*I) or perm(A - x*I):
    (-1)^(n-k) times the coefficient of x^(n-k)."""
    nums, den = poly.nums, poly.den
    nums += (0,) * (n + 1 - len(nums))
    return [Fraction((-1) ** (n - k) * nums[n - k], den) for k in range(n + 1)]


def _gather_by_permutation(a: Matrix, images: tuple[int, ...]) -> Matrix:
    """P^-1*A*P read through P's 1-based images p alone, entry (i, j) =
    a[p(i)][p(j)]: independent of both the index gather and the blocks
    blockform returns."""
    rows = [a.nums[i - 1] for i in images]
    return Matrix([[row[j - 1] for j in images] for row in rows], den=a.den)


def _record_block_form(out: CheckOutcome, a: Matrix, form: BlockForm, context: str = "") -> None:
    """Record P^-1*A*P, read through the form's permutation, against the
    form's conjugated matrix and then against the assembly of its blocks."""
    gathered = _gather_by_permutation(a, form.partition.permutation)
    out.record(form.conjugated, gathered, context)
    if isinstance(form, SymBlockForm):
        blocks = assemble_diag(form.plus_block, form.minus_block)
    else:
        blocks = assemble_antidiag(form.upper_block, form.lower_block)
    out.record(blocks, gathered, context)


def _factor_sides(a: Matrix, form: BlockForm) -> tuple[tuple, tuple]:
    """A's invariants next to the block products they factor into.

    A fixed form pairs (char, det, perm) of A with the products over its
    diagonal blocks D and E.  A negated form pairs (det, perm) of A with
    (0, 0) when its sign classes do not balance, and otherwise with
    ((-1)^(n/2) * det(F) * det(G), perm(F) * perm(G)) over its
    anti-diagonal blocks: the block anti-diagonal form needs (n/2)^2
    column transpositions to become block diagonal, and
    (-1)^((n/2)^2) = (-1)^(n/2).  The superficially plausible sign (-1)^n
    is wrong whenever n = 2 (mod 4); tests pin this down at n = 2."""
    if isinstance(form, SymBlockForm):
        d, e = form.plus_block, form.minus_block
        return (
            (char_poly(a), determinant(a), permanent(a)),
            (
                char_poly(d) * char_poly(e),
                determinant(d) * determinant(e),
                permanent(d) * permanent(e),
            ),
        )
    f, g = form.upper_block, form.lower_block
    full = determinant(a), permanent(a)
    if 2 * f.rows != a.rows:
        return full, (0, 0)
    sign = -1 if f.rows % 2 else 1
    return full, (sign * determinant(f) * determinant(g), permanent(f) * permanent(g))


def verify_matrix(
    a: Matrix,
    *,
    samples: int | None = None,
    seed: int = 0,
    perm_cap: int = DEFAULT_PERMANENT_CAP,
    permpoly_cap: int = DEFAULT_PERM_POLY_CAP,
    orbit_cap: int = DEFAULT_ENUMERATION_CAP,
) -> VerificationReport:
    """Run the full battery of identity checks against one square matrix."""
    a.require_square("verification")
    if samples is not None and samples < 1:
        raise RangeError(f"samples must be at least 1, got {samples}")
    n = a.rows
    vectors = _choose_vectors(n, samples, seed)
    skipped: list[tuple[str, str]] = []

    do_perm = n <= perm_cap
    do_permpoly = n <= permpoly_cap
    if not do_perm:
        skipped.append(("permanent_invariant", f"n={n} exceeds permanent cap {perm_cap}"))
    if not do_permpoly:
        for name in ("perm_poly_invariant", "permanent_sum_invariant",
                     "sym_part_factorizations", "antisym_part_factorizations"):
            skipped.append((name, f"n={n} exceeds permanental-polynomial cap {permpoly_cap}"))

    base = {
        "trace": trace(a),
        "det": determinant(a),
        "rank": rank(a),
        "char": char_poly(a),
    }
    if do_perm:
        base["perm"] = permanent(a)
    if do_permpoly:
        base["permpoly"] = perm_poly(a)
    minor_sums = _principal_sums(_interpolate_shifts(a, determinant), n)
    perm_sums = _principal_sums(_interpolate_shifts(a, permanent), n) if do_permpoly else None

    identity = Matrix.identity(n)
    transpose = a.transpose()
    product = a @ transpose
    # A's side of the sign-split additivity checks is the same for every c
    if n >= 2:
        minor2_own = order2_minor_sum(a)
        perm2_own = order2_permanent_sum(a)

    def check_span(span: tuple[int, int]) -> list[tuple]:
        """The outcomes of the per-vector checks on vectors[start:stop], in
        the order of each check's first use, as fields marshal can send."""
        check = _Checks()
        for idx in range(*span):
            c = vectors[idx]
            label = f"c={c}"
            conj = sign_conjugate(a, c)

            check("entrywise_matches_signature_product").record(
                conj, conjugate_by_signature(a, c), label
            )
            p = signature_matrix(c)
            check("signature_matrix_self_inverse").record(p @ p, identity, label)
            check("diagonal_preserved").record(
                tuple(conj[i, i] for i in range(n)),
                tuple(a[i, i] for i in range(n)),
                label,
            )
            check("involution").record(sign_conjugate(conj, c), a, label)

            check("trace_invariant").record(trace(conj), base["trace"], label)
            check("determinant_invariant").record(determinant(conj), base["det"], label)
            check("rank_invariant").record(rank(conj), base["rank"], label)
            char = char_poly(conj)
            check("char_poly_invariant").record(char, base["char"], label)
            check("minor_sum_invariant").record(_principal_sums(char, n), minor_sums, label)
            if do_perm:
                check("permanent_invariant").record(permanent(conj), base["perm"], label)
            if do_permpoly:
                ppoly = perm_poly(conj)
                check("perm_poly_invariant").record(ppoly, base["permpoly"], label)
                check("permanent_sum_invariant").record(_principal_sums(ppoly, n), perm_sums, label)

            other = vectors[(idx + 1) % len(vectors)]
            check("composition_matches_pointwise_product").record(
                sign_conjugate(conj, other), sign_conjugate(a, compose(c, other)), label
            )
            check("multiplicative_over_product").record(
                sign_conjugate(product, c), conj @ sign_conjugate(transpose, c), label
            )

            fixed = sym_part(a, c)
            negated = antisym_part(a, c)
            check("split_reconstructs").record(fixed + negated, a, label)
            check("split_parts_fixed_and_negated").record(
                (sign_conjugate(fixed, c), sign_conjugate(negated, c)), (fixed, -negated), label
            )
            half = Fraction(1, 2)
            check("mask_matches_half_sum").record(
                (fixed, negated), ((a + conj) * half, (a - conj) * half), label
            )
            r = sum(1 for s in c.signs if s == 1)
            kept_fixed = sum(1 for i in range(n) for j in range(n) if c[i] * c[j] == 1)
            kept_negated = n * n - kept_fixed
            check("mask_dimensions").record((kept_fixed, kept_negated), subspace_dims(n, r), label)

            if n >= 2:
                check("minor2_additivity_sign_split").record(
                    minor2_own, order2_minor_sum(fixed) + order2_minor_sum(negated), label
                )
                check("permanent2_additivity_sign_split").record(
                    perm2_own, order2_permanent_sum(fixed) + order2_permanent_sum(negated), label
                )

            built = []
            for name, part, sign, build, note in (
                ("sym_part", fixed, 1, sym_block_form, ""),
                ("antisym_part", negated, -1, antisym_block_form, ANTIDIAG_SIGN_NOTE),
            ):
                out = check(f"{name}_block_similarity")
                try:
                    form = build(part, c)
                except (NotSignSymmetricError, NotSignAntisymmetricError):
                    # the split itself is wrong at c: record what the form rejected
                    out.record(sign_conjugate(part, c), part * sign, label)
                    continue
                _record_block_form(out, part, form, label)
                built.append((name, part, form, note))
            if do_permpoly:
                for name, part, form, note in built:
                    check(f"{name}_factorizations", note=note).record(
                        *_factor_sides(part, form), label
                    )
        return [(out.name, out.passed, out.lhs, out.rhs, out.note) for out in check.values()]

    # each vector's checks stand alone, so contiguous spans of the vectors
    # run in forked parts; merged in span order, a check keeps its first
    # failure, or else its first span's sides, as the walk over all would
    parts = 1 << _split_bits((len(vectors) // _SPLIT_MIN_VECTORS).bit_length() - 1)
    spans = [(len(vectors) * p // parts, len(vectors) * (p + 1) // parts) for p in range(parts)]
    check = _Checks()
    for outcomes in _map_parts(check_span, spans):
        for fields in outcomes:
            seen = check.get(fields[0])
            if seen is None or (seen.passed and not fields[1]):
                check[fields[0]] = CheckOutcome(*fields)

    if n >= 2:
        classic = classic_split(a)
        check("minor2_additivity_transpose_split").record(
            minor2_own, order2_minor_sum(classic.sym) + order2_minor_sum(classic.antisym)
        )
        check("permanent2_additivity_transpose_split").record(
            perm2_own, order2_permanent_sum(classic.sym) + order2_permanent_sum(classic.antisym)
        )
    else:
        skipped.append(("minor2_additivity", "n=1 has no order-2 minors"))

    if n <= EXHAUSTIVE_MAX_N:
        dense = Matrix([[1] * n for _ in range(n)])
        distinct = {sign_conjugate(dense, c) for c in admissible_sign_vectors(n)}
        check("distinct_maps_on_dense_witness").record(len(distinct), 1 << (n - 1))
    else:
        skipped.append(("distinct_maps_on_dense_witness", f"n={n} exceeds exhaustive cap {EXHAUSTIVE_MAX_N}"))

    if n <= orbit_cap:
        report = orbit_size(a, cap=orbit_cap)
        t = report.component_count
        # one brute-force pass over every conjugate, in the orders the library
        # uses: fixing vectors +1-first, distinct conjugates by first occurrence.
        # A conjugate only negates entries, so it keeps A's den and its
        # signed numerators, read straight off a.nums, identify it.
        own_key = tuple(e for row in a.nums for e in row)
        fixing = []
        distinct: dict[tuple[int, ...], Matrix] = {}
        for c in admissible_sign_vectors(n):
            key = tuple(
                e if ci == cj else -e
                for ci, row in zip(c.signs, a.nums)
                for cj, e in zip(c.signs, row)
            )
            if key == own_key:
                fixing.append(c)
            if key not in distinct:
                distinct[key] = sign_conjugate(a, c)
        out = check("orbit_matches_component_count")
        out.record(len(report.enumerated), 1 << (n - t))
        out.record(report.enumerated, tuple(distinct.values()))
        out = check("stabilizer_matches_brute_force")
        out.record(len(report.stabilizer), 1 << (t - 1))
        out.record(report.stabilizer, tuple(fixing))
        check("orbit_times_stabilizer").record(len(distinct) * len(fixing), 1 << (n - 1))
    else:
        skipped.append(("orbit_enumeration", f"n={n} exceeds orbit cap {orbit_cap}"))

    return VerificationReport(tuple(check.values()), tuple(skipped))
