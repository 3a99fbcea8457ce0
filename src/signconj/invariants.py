"""Exact matrix invariants: trace, determinant, permanent, rank, and the
characteristic and permanental polynomials.

Every kernel runs on a matrix's stored cleared table, int numerators
`a.nums` over the common denominator `a.den`, with plain Python int
arithmetic, which is 20-50x faster than Fraction arithmetic and just as
exact; results are rescaled back to rationals at the end.  The
permanent is Glynn's formula, a signed sum over the 2^(n-1) admissible
sign vectors d with d_1 = +1: the column sums of the states of d_2..d_9
are packed as records of two ints, and each step of a Gray-code walk
over d_10..d_n decodes those 2^8 terms at once.  From n = 15 on, the
walk is cut into sub-walks that `parts.map_spans` may run in forked
children; the sum does not depend on how many run.  The permanental
polynomial is the permanent of N - 2^k*I, expanded row by row over
column subsets in a list of 2^n slots, with its coefficients read back
as base-2^k digits, so the two share no kernel.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from operator import lshift, mul
from typing import Iterable, Sequence

from .core import Matrix, ScalarLike, _lowest_terms, as_scalar
from .parts import map_spans

# the largest n at which the commands and verify_matrix compute these by
# default; the kernels themselves take any n
DEFAULT_PERMANENT_CAP = 20
DEFAULT_PERM_POLY_CAP = 12

# struct codes of the signed column-sum fields _perm_glynn_int decodes natively
_FIELD_CODES = {16: "h", 32: "i", 64: "q"}
# _perm_glynn_int builds the 2^_LOW_ROWS sign states of d_2.. once and decodes
# them all at every step of its Gray-code walk over the rows above them
_LOW_ROWS = 8
# _perm_glynn_int cuts its Gray walk into 2^m sub-walks, m the largest that leaves
# each at least 2^_SPLIT_MIN_STEPS steps per sub-walk.  The parent forks the
# children one after another, so the forks' share of the wall time grows
# with the parts while each part's walk shrinks; 2 parts of 2^5 steps (at
# n = 15) were measured faster than one walk, 2 parts of 2^4 (n = 14) not
# in every run
_SPLIT_MIN_STEPS = 4


class Polynomial:
    """Polynomial with exact rational coefficients, ascending by power.

    Stored cleared, as `Matrix` is: `nums` is a tuple of int numerators
    with trailing zeros stripped ((0,) for the zero polynomial) and `den`
    is one positive int, so coefficient k is nums[k] / den.  The pair is
    kept in lowest terms, so equal polynomials store equal ints and `+`,
    `*`, `==` and `hash` are int arithmetic.
    """

    __slots__ = ("nums", "den", "_coefficients")

    def __init__(self, coefficients: Iterable[ScalarLike], *, den: int = 1):
        """Coefficient k is coefficients[k] / den.  Int inputs are taken as
        they are; any other input goes through `as_scalar`."""
        if type(den) is not int or den < 1:
            raise ValueError(f"den must be a positive int, got {den!r}")
        nums = list(coefficients)
        if set(map(type, nums)) - {int}:
            values = [e if type(e) is int else as_scalar(e) for e in nums]
            common = math.lcm(*(v.denominator for v in values))
            nums = [v.numerator * (common // v.denominator) for v in values]
            den *= common
        while len(nums) > 1 and nums[-1] == 0:
            nums.pop()
        (nums,), den = _lowest_terms((tuple(nums or [0]),), den)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_coefficients", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Polynomial is immutable")

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions: a read-only view, built on first use."""
        if self._coefficients is None:
            den = self.den
            view = tuple(Fraction(e, den) for e in self.nums)
            object.__setattr__(self, "_coefficients", view)
        return self._coefficients

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self.nums):
            return Fraction(self.nums[power], self.den)
        return Fraction(0)

    def __call__(self, x: ScalarLike) -> Fraction:
        x = as_scalar(x)
        value = Fraction(0)
        for c in reversed(self.nums):
            value = value * x + c
        return value / self.den

    def __add__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        den = math.lcm(self.den, other.den)
        k1, k2 = den // self.den, den // other.den
        a = [k1 * e for e in self.nums]
        b = [k2 * e for e in other.nums]
        if len(a) < len(b):
            a, b = b, a
        for i, e in enumerate(b):
            a[i] += e
        return Polynomial(a, den=den)

    def __mul__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        theirs = other.nums
        out = [0] * (len(self.nums) + len(theirs) - 1)
        for i, a in enumerate(self.nums):
            if a:
                for j, b in enumerate(theirs, i):
                    out[j] += a * b
        return Polynomial(out, den=self.den * other.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.den, self.nums) == (other.den, other.nums)

    def __hash__(self) -> int:
        return hash((self.den, self.nums))

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coefficients)})"

    def __str__(self) -> str:
        terms = []
        for power in range(self.degree, -1, -1):
            c = self.coefficients[power]
            if c == 0 and self.degree > 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if power == 0:
                body = f"{mag}"
            elif power == 1:
                body = "x" if mag == 1 else f"{mag}*x"
            else:
                body = f"x^{power}" if mag == 1 else f"{mag}*x^{power}"
            terms.append((sign, body))
        head_sign, head = terms[0]
        text = ("-" if head_sign == "-" else "") + head
        for sign, body in terms[1:]:
            text += f" {sign} {body}"
        return text


def _perm_glynn_int(rows: Sequence[Sequence[int]]) -> int:
    """Permanent by Glynn's formula over the admissible sign vectors:

        perm(N) = 2^-(n-1) * sum over d in {+-1}^n with d_1 = +1 of
                  prod_k d_k * prod_j (sum_i d_i * N_ij).

    The n column sums of one d are fixed-width fields of one record, each
    biased by half its range so that no field borrows from its neighbour:
    flipping d_k is one add of a packed -+2*row_k, and XOR with the bias
    turns every field into two's complement for decoding.  Fields are the
    narrowest of 16, 32 or 64 bits whose signed range holds the largest
    absolute column sum, decoded by struct; above 64 bits they are whole
    bytes decoded by int.from_bytes and grouped n at a time.

    The 2^k states of the low rows d_2..d_(k+1), k = min(_LOW_ROWS, n-1),
    are built by doubling and kept as two block ints of consecutive
    records: the states with an even and with an odd number of -1s.  A
    Gray-code walk over the high rows d_(k+2)..d_n adds one replicated
    -+2*row_k to both blocks per step and decodes each block with one
    to_bytes and one unpack, 2^(k-1) terms at a time.  Each step flips one
    d, so the two blocks trade parities at every step.

    Fixing the d of the top m = (s - _SPLIT_MIN_STEPS) // 2 of the s high
    rows cuts the walk into 2^m sub-walks over the rows below them, each of
    2^(s-m) steps, at least 2^_SPLIT_MIN_STEPS per sub-walk.  A sub-walk
    starts from the blocks with its fixed flips applied, so an odd number
    of flips swaps the parities.  `parts.map_spans` runs spans of the
    sub-walks in forked children; the sum is the same at any split.
    """
    n = len(rows)
    if n < 2:
        return rows[0][0] if n else 1
    bound = max(sum(map(abs, col)) for col in zip(*rows))
    # 2^(width-1) > bound, so every column sum fits a signed field
    width = next(
        (w for w in (16, 32, 64) if bound >> (w - 1) == 0), 8 * (bound.bit_length() // 8 + 1)
    )
    size = width // 8
    if width in _FIELD_CODES:
        decode = struct.Struct(f"<{n}{_FIELD_CODES[width]}").iter_unpack
    else:

        def decode(data: bytes) -> Iterable[tuple[int, ...]]:
            fields = [
                int.from_bytes(data[i : i + size], "little", signed=True)
                for i in range(0, len(data), size)
            ]
            return zip(*[iter(fields)] * n)

    shifts = range(0, n * width, width)
    packed_rows = [sum(map(lshift, row, shifts)) for row in rows]
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * n, "little")
    k = min(_LOW_ROWS, n - 1)
    # doubling over d_2..d_(k+1): a flip of d_r moves each state to the other
    # parity, so even' = even ++ (odd - 2*row_r) and odd' = odd ++ (even -
    # 2*row_r), with `reps` holding a 1 at the start of every record
    even = bias + sum(packed_rows)
    odd = even - 2 * packed_rows[1]
    reps, span = 1, n * width
    for row in packed_rows[2 : k + 1]:
        flip = 2 * row * reps
        even, odd = even + ((odd - flip) << span), odd + ((even - flip) << span)
        reps += reps << span
        span *= 2
    block_bias = bias * reps
    nbytes = span // 8

    def terms(block: int) -> int:
        return sum(map(math.prod, decode((block ^ block_bias).to_bytes(nbytes, "little"))))

    def walk(even: int, odd: int, steps: list[int]) -> int:
        # Gray-code walk over the rows of `steps`: the first flip of each d
        # takes it from +1 to -1, later flips alternate
        pos = terms(even)
        neg = terms(odd)
        for t in range(1, 1 << len(steps)):
            b = (t & -t).bit_length() - 1
            step = steps[b]
            steps[b] = -step
            even, odd = odd + step, even + step
            pos += terms(even)
            neg += terms(odd)
        return pos - neg

    steps = [-2 * row * reps for row in packed_rows[k + 1 :]]
    m = max((len(steps) - _SPLIT_MIN_STEPS) // 2, 0)
    # sub-walk p fixes the d of the top m high rows, -1 where p has a 1 bit, and
    # walks the rest: its start applies those flips, each swapping parities
    free = len(steps) - m
    starts = []
    for p in range(1 << m):
        start_even, start_odd = even, odd
        for j, step in enumerate(steps[free:]):
            if p >> j & 1:
                start_even, start_odd = start_odd + step, start_even + step
        starts.append((start_even, start_odd))
    # the sum is a multiple of 2^(n-1), so the shift is exact at either sign
    walked = map_spans(lambda span: sum(walk(e, o, steps[:free]) for e, o in span), starts, 1)
    return sum(walked) >> (n - 1)


def _perm_poly_int(rows: Sequence[Sequence[int]]) -> list[int]:
    """Ascending coefficients of perm(N - y*I) for an integer matrix N.

    Kronecker substitution: the permanent of X = N - B*I evaluates the
    polynomial at y = B = 2^k, and its coefficients are the balanced
    base-B digits of the value, exact when every coefficient c has
    |c| < B/2.  |c| is at most the matching coefficient of
    perm(|N| + y*I), so at most perm(|N| + I), and the permanent of a
    nonnegative matrix is at most the product of its row sums:

        |c| <= M = prod_i (1 + sum_j |N_ij|) < 2^(bit_length(M)),

    so k = bit_length(M) + 1 suffices.  The bound is tight: for a diagonal
    N with entries of one sign the |c| sum to M.

    perm(X) expands row by row over column subsets: f(S), for a set S of
    |S| = r columns, is the permanent of X's first r rows on the columns S,
    so f({}) = 1, f(S + {j}) sums X_rj * f(S) over the j not in S, and
    perm(X) = f(all columns).  The subsets are walked in increasing integer
    order, so each f(S) is complete when it is read; it is then pushed into
    its supersets and reset, which holds the live values to at most half
    of the list's 2^n slots.  That is at most n*2^(n-1) multiply-adds, and
    per subset only the diagonal one, j = r, multiplies two wide ints; zero
    values and zero entries are skipped.
    """
    n = len(rows)
    if n == 0:
        return [1]
    bound = math.prod(1 + sum(map(abs, row)) for row in rows)
    shift = bound.bit_length() + 1
    base = 1 << shift
    # row r of X as (column bit, entry) pairs; the diagonal entry is never 0
    table = [
        [(1 << j, x - base if i == j else x) for j, x in enumerate(row) if x or i == j]
        for i, row in enumerate(rows)
    ]
    f = [0] * (1 << n)
    f[0] = 1
    for s in range(len(f) - 1):
        value = f[s]
        if value:
            f[s] = 0
            for bit, x in table[s.bit_count()]:
                if not s & bit:
                    f[s | bit] += x * value
    total = f[-1]
    half = base >> 1
    mask = base - 1
    coeffs = []
    for _ in range(n + 1):
        digit = ((total + half) & mask) - half
        coeffs.append(digit)
        total = (total - digit) >> shift
    return coeffs


def _bareiss_int(rows: Sequence[Sequence[int]], cols: int) -> tuple[int, int]:
    """Rank and determinant of an integer matrix by fraction-free elimination.

    Columns without a pivot are skipped; every update only reads the pivot
    columns and its own column, so each division is an exact Bareiss step.
    The determinant is the last pivot, signed by the row swaps, when the
    matrix is square of full rank, and 0 otherwise (1 for the 0x0 matrix).
    """
    m = [list(row) for row in rows]
    n = len(m)
    r = 0
    prev = 1
    sign = 1
    for col in range(cols):
        if r == n:
            break
        pivot = r if m[r][col] else next((i for i in range(r + 1, n) if m[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        row_r = m[r]
        pivot_val = row_r[col]
        for i in range(r + 1, n):
            row_i = m[i]
            lead = row_i[col]
            for j in range(col + 1, cols):
                row_i[j] = (row_i[j] * pivot_val - lead * row_r[j]) // prev
            row_i[col] = 0
        prev = pivot_val
        r += 1
    return r, (sign * prev if r == n == cols else 0)


def _char_poly_int(rows: Sequence[Sequence[int]]) -> list[int]:
    """Ascending coefficients of det(x*I - N) for an integer matrix N.

    Berkowitz's division-free algorithm.  Step r extends the descending
    characteristic polynomial p of the leading r x r block M by row r:
    with C the column above a_rr and R the row before it,
    t = [1, -a_rr, -R*C, -R*M*C, ..., -R*M^(r-1)*C] and p <- T(t)*p for the
    lower-triangular Toeplitz matrix T(t), a convolution cut at r+2 terms.
    """
    p = [1]
    for r, row in enumerate(rows):
        block = [above[:r] for above in rows[:r]]
        left = row[:r]
        col = [above[r] for above in rows[:r]]
        t = [1, -row[r]]
        # t reads M^i*C up to i = r-1, so M^r*C is never built
        for i in range(r):
            if i:
                col = [sum(map(mul, block_row, col)) for block_row in block]
            t.append(-sum(map(mul, left, col)))
        # t[i::-1] is t[i], ..., t[0]; map stops at the shorter of it and p
        p = [sum(map(mul, t[i::-1], p)) for i in range(r + 2)]
    return p[::-1]


def _over_den_powers(coeffs: Sequence[int], den: int, sign: int) -> Polynomial:
    """sign * q(den*x) / den^n for the kernel polynomial q with ascending
    int coefficients `coeffs`, n = deg q: coefficient k is
    sign * coeffs[k] * den^k over den^n."""
    nums = []
    power = sign
    for c in coeffs:
        nums.append(c * power)
        power *= den
    return Polynomial(nums, den=den ** (len(coeffs) - 1))


def trace(a: Matrix) -> Fraction:
    """Sum of the diagonal entries."""
    a.require_square("trace")
    return Fraction(sum(a.nums[i][i] for i in range(a.rows)), a.den)


def determinant(a: Matrix) -> Fraction:
    """Exact determinant via fraction-free elimination on the cleared matrix."""
    a.require_square("determinant")
    return Fraction(_bareiss_int(a.nums, a.rows)[1], a.den ** a.rows)


def permanent(a: Matrix) -> Fraction:
    """Exact permanent by Glynn's formula: a sum of 2^(n-1) terms.

    From n = 15 on, spans of the terms are summed in forked children
    (see `parts`), reaped before this returns or raises.  The result
    does not depend on the number of spans; the wall time divides by it,
    the CPU time does not.
    """
    a.require_square("permanent")
    return Fraction(_perm_glynn_int(a.nums), a.den ** a.rows)


def rank(a: Matrix) -> int:
    """Rank over the rationals by fraction-free elimination on the cleared matrix."""
    return _bareiss_int(a.nums, a.cols)[0]


def char_poly(a: Matrix) -> Polynomial:
    """Characteristic polynomial det(A - x*I), ascending coefficients.

    Computed by Berkowitz's division-free algorithm on the
    denominator-cleared matrix.  The x^(n-k) coefficient is (-1)^(n-k)
    times the sum of the order-k principal minors; Faddeev-LeVerrier and
    the subset sums are test oracles, and `verify` cross-checks the
    coefficients by interpolating det(A - x*I).
    """
    a.require_square("characteristic polynomial")
    n = a.rows
    return _over_den_powers(_char_poly_int(a.nums), a.den, -1 if n % 2 else 1)


def perm_poly(a: Matrix) -> Polynomial:
    """Permanental polynomial perm(A - x*I), ascending coefficients.

    The permanent of N - 2^k*I for the denominator-cleared matrix
    N = den*A, with the coefficients read back as base-2^k digits of the
    result.  It is expanded row by row over the column subsets: n*2^(n-1)
    multiply-adds at most in a list of 2^n slots.  One multiply-add per
    subset is wide times wide, on numbers of up to about n*k bits with k
    about n*log2(row sum); the traced peak is about 0.25 MiB at n = 12 and
    6 MiB at n = 16 for dense rational input.
    With y = den*x, perm(A - x*I) = perm(N - y*I) / den^n, so coefficient
    k is c_k * den^k / den^n.
    """
    a.require_square("permanental polynomial")
    return _over_den_powers(_perm_poly_int(a.nums), a.den, 1)
