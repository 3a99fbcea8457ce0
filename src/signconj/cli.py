"""Command-line front end.

Subcommands: apply, invariants, decompose, blockform, orbit, cayley,
verify.  Matrices come from CSV (one row per line, entries integer or
p/q) or a JSON document {"n": ..., "entries": [[...]]}; reports go to
stdout as deterministic JSON with every rational rendered exactly as
"p/q" (bare integer when the denominator is 1).  Exit codes: 0 success,
1 a check failed, 2 input or usage error, 3 an internal inconsistency
(a defect in the library; nothing raises it today).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from . import blockform, decomposition, group, invariants, orbit
from .core import Matrix, as_scalar, parse_sign_vector, sign_conjugate
from .errors import InternalConsistencyError, MatrixParseError, SignConjError
from .invariants import (
    DEFAULT_PERM_POLY_CAP,
    DEFAULT_PERMANENT_CAP,
    Polynomial,
)
from .orbit import DEFAULT_ENUMERATION_CAP
from .verification import CheckOutcome, _factor_sides, _record_block_form, verify_matrix


def _poly_json(p: Polynomial) -> list[str]:
    return [str(c) for c in p.coefficients]


def _matrix_digest(a: Matrix) -> str:
    canon = f"{a.rows};{a.cols};" + ";".join(",".join(row) for row in a.text_rows())
    return hashlib.sha256(canon.encode()).hexdigest()


# Python (3.10.7 and later) converts at most 4300 decimal digits to an int
# by default.  `main` lifts that limit for the results, whose integers may
# be many times as long as the entries', so the parser keeps it as its own:
# no run of more than 4300 digits, searched from the start of each run
_MAX_ENTRY_DIGITS = 4300
_TOO_MANY_DIGITS = f"(?<![0-9])[0-9]{{{_MAX_ENTRY_DIGITS + 1}}}"  # compiled on first use


def _parse_entry(token) -> int | Fraction:
    # a JSON int is already exact, and Matrix takes int entries as they are
    if type(token) is int:
        return token
    if isinstance(token, float):
        raise MatrixParseError(f"entry {token!r} is a float; use integers or 'p/q' strings")
    try:
        return as_scalar(token)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise MatrixParseError(f"bad matrix entry {token!r}: {exc}") from None


def _matrix_from_rows(raw_rows) -> Matrix:
    if not isinstance(raw_rows, list) or not raw_rows:
        raise MatrixParseError("matrix needs at least one row")
    rows = []
    for raw in raw_rows:
        if not isinstance(raw, list):
            raise MatrixParseError("entries must be a list of rows")
        rows.append([_parse_entry(tok) for tok in raw])
    if len({len(r) for r in rows}) != 1:
        raise MatrixParseError("matrix rows have unequal lengths")
    return Matrix(rows)


def parse_matrix_document(text: str, fmt: str) -> Matrix:
    """Parse CSV or JSON matrix text into an exact Matrix."""
    # text no longer than the cap holds no integer over it
    if len(text) > _MAX_ENTRY_DIGITS and re.search(_TOO_MANY_DIGITS, text):
        where = "bad matrix entry" if fmt == "csv" else "invalid JSON"
        raise MatrixParseError(f"{where}: an integer of more than {_MAX_ENTRY_DIGITS} digits")
    if fmt == "csv":
        # tokens keep their padding: as_scalar accepts ASCII whitespace only,
        # as it does for JSON string entries
        rows = [
            line.split(",")
            for line in text.splitlines()
            if line.strip() and not line.strip().startswith("#")
        ]
        return _matrix_from_rows(rows)
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # also deep nesting
        raise MatrixParseError(f"invalid JSON: {exc}") from None
    if isinstance(doc, list):
        return _matrix_from_rows(doc)
    if not isinstance(doc, dict) or "entries" not in doc:
        raise MatrixParseError('JSON matrix must be a nested array or {"n": ..., "entries": ...}')
    m = _matrix_from_rows(doc["entries"])
    if "n" in doc and doc["n"] != m.rows:
        raise MatrixParseError(f'document says n={doc["n"]} but there are {m.rows} rows')
    if "m" in doc and doc["m"] != m.cols:
        raise MatrixParseError(f'document says m={doc["m"]} but rows have {m.cols} entries')
    return m


def load_matrix(path: str, fmt: str | None) -> Matrix:
    file = Path(path)
    if fmt is None:
        suffix = file.suffix.lower()
        if suffix == ".csv":
            fmt = "csv"
        elif suffix == ".json":
            fmt = "json"
        else:
            raise MatrixParseError(
                f"cannot infer format from {file.name!r}; pass --format csv|json"
            )
    try:
        text = file.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MatrixParseError(f"cannot read {path}: {exc}") from None
    return parse_matrix_document(text, fmt)


def _check_json(c: CheckOutcome) -> dict:
    out = {"name": c.name, "passed": c.passed, "lhs": c.lhs, "rhs": c.rhs}
    if c.note:
        out["note"] = c.note
    return out


def _write(value, indent: str, out: list[str], rows: dict) -> None:
    """Append the text of json.dumps(value, indent=2) to `out`, piece by
    piece, for one join at the end: the standard encoder drops to pure
    Python when given an indent, and joining at every nesting level would
    copy the text of a deep value once per level.  A Matrix renders as its
    text_rows() would; `rows` keeps every matrix row rendered so far in the
    report (see _write_matrix)."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, Matrix):
        _write_matrix(value, indent, out, rows)
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        try:  # a list of strings, such as a polynomial's coefficients, in one join
            out.append(f"[\n{inner}" + sep.join(map(_quote, value)) + f"\n{indent}]")
        except TypeError:
            lead = "[\n" + inner
            for v in value:
                out.append(lead)
                lead = sep
                _write(v, inner, out, rows)
            out.append(f"\n{indent}]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        lead = "{\n" + inner
        for k, v in value.items():
            out.append(f"{lead}{_quote(k)}: ")
            lead = sep
            _write(v, inner, out, rows)
        out.append(f"\n{indent}}}")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"cannot render {type(value).__name__} in a report")


def _write_matrix(m: Matrix, indent: str, out: list[str], rows: dict) -> None:
    """Append the text of m.text_rows() at this indent.  A row's text
    depends only on the indent, m.den and its int entries, so `rows` maps
    those to the rendered row and each distinct row goes through text_rows
    once per report: the conjugates of one matrix share most of their rows."""
    if not m.rows:
        out.append("[]")
        return
    inner = indent + "  "
    known = rows.setdefault((indent, m.den), {})
    parts = list(map(known.get, m.nums))
    if None in parts:
        texts = m.text_rows()
        sep = ",\n  " + inner
        for i, row in enumerate(m.nums):
            if parts[i] is None:
                body = sep.join(map(_quote, texts[i]))
                parts[i] = known[row] = f"[\n  {inner}{body}\n{inner}]" if row else "[]"
    out.append(f"[\n{inner}")
    out.append(f",\n{inner}".join(parts))
    out.append(f"\n{indent}]")


def _emit(report: dict, failed: bool) -> int:
    """Print the report and its newline in one write, after rendering it
    whole, so a report that cannot be rendered prints nothing.  One write
    also lets an in-memory stdout keep the text without copying it."""
    out: list[str] = []
    _write(report, "", out, {})
    out.append("\n")
    sys.stdout.write("".join(out))
    return 1 if failed else 0


def _inputs_block(args, a: Matrix | None) -> dict:
    inputs: dict = {}
    if a is not None:
        inputs["matrix"] = {
            "path": args.matrix,
            "rows": a.rows,
            "cols": a.cols,
            "sha256": _matrix_digest(a),
        }
    for key in ("signs", "classic", "n", "samples", "seed", "perm_cap", "permpoly_cap",
                "orbit_cap"):
        if hasattr(args, key) and getattr(args, key) is not None:
            inputs[key.replace("_", "-")] = getattr(args, key)
    return inputs


def _cmd_apply(args) -> int:
    a = load_matrix(args.matrix, args.format)
    c = parse_sign_vector(args.signs)
    conjugated = sign_conjugate(a, c)
    report = {
        "command": "apply",
        "inputs": _inputs_block(args, a),
        "results": {"conjugated": conjugated},
    }
    return _emit(report, failed=False)


def _cmd_invariants(args) -> int:
    a = load_matrix(args.matrix, args.format)
    a.require_square("invariants")
    results: dict = {
        "trace": str(invariants.trace(a)),
        "determinant": str(invariants.determinant(a)),
        "rank": invariants.rank(a),
        "char_poly": _poly_json(invariants.char_poly(a)),
    }
    omitted = {}
    if a.rows <= args.perm_cap:
        results["permanent"] = str(invariants.permanent(a))
    else:
        omitted["permanent"] = f"n={a.rows} exceeds --perm-cap {args.perm_cap}"
    if a.rows <= args.permpoly_cap:
        results["perm_poly"] = _poly_json(invariants.perm_poly(a))
    else:
        omitted["perm_poly"] = f"n={a.rows} exceeds --permpoly-cap {args.permpoly_cap}"
    report = {"command": "invariants", "inputs": _inputs_block(args, a), "results": results}
    if omitted:
        report["omitted"] = omitted
    return _emit(report, failed=False)


def _cmd_decompose(args) -> int:
    a = load_matrix(args.matrix, args.format)
    if args.classic:
        pair = decomposition.classic_split(a)
        mode = "transpose"
    else:
        pair = decomposition.split(a, parse_sign_vector(args.signs))
        mode = "signs"
    reconstruct = CheckOutcome(name="parts_reconstruct_input")
    reconstruct.record(pair.sym + pair.antisym, a)
    checks = [reconstruct]
    if a.rows >= 2:
        for name, order2_sum in (
            ("order2_minor_sum_additive", decomposition.order2_minor_sum),
            ("order2_permanent_sum_additive", decomposition.order2_permanent_sum),
        ):
            out = CheckOutcome(name=name)
            out.record(order2_sum(a), order2_sum(pair.sym) + order2_sum(pair.antisym))
            checks.append(out)
    report = {
        "command": "decompose",
        "inputs": _inputs_block(args, a),
        "results": {
            "mode": mode,
            "sym_part": pair.sym,
            "antisym_part": pair.antisym,
        },
        "checks": [_check_json(ch) for ch in checks],
    }
    return _emit(report, failed=any(not ch.passed for ch in checks))


def _cmd_blockform(args) -> int:
    a = load_matrix(args.matrix, args.format)
    c = parse_sign_vector(args.signs)
    kind = decomposition.classify(a, c)
    neither = kind is decomposition.Symmetry.NEITHER
    checks = [CheckOutcome(name="matrix_symmetry_class")]
    checks[0].record(kind.value, "symmetric or antisymmetric" if neither else kind.value)
    results: dict = {"classification": kind.value}
    omitted = {}
    if not neither:
        fixed = kind is decomposition.Symmetry.SYMMETRIC
        if fixed:
            form = blockform.sym_block_form(a, c)
            blocks = {"plus_block": form.plus_block, "minus_block": form.minus_block}
            similarity = "conjugate_is_block_diagonal"
            factor_names = ("char_poly_factors", "determinant_factors", "permanent_factors")
        else:
            form = blockform.antisym_block_form(a, c)
            blocks = {"upper_block": form.upper_block, "lower_block": form.lower_block}
            similarity = "conjugate_is_block_antidiagonal"
            factor_names = ("determinant_and_permanent_factor",)
        results.update(
            plus_indices=list(form.partition.plus_indices),
            minus_indices=list(form.partition.minus_indices),
            permutation=list(form.partition.permutation),
            **blocks,
            conjugated=form.conjugated,
        )
        checks.append(CheckOutcome(name=similarity))
        _record_block_form(checks[-1], a, form)
        # the factor reports compute permanents; the block form is a gather at any n
        if a.rows > DEFAULT_PERMANENT_CAP:
            skip_reason = f"n={a.rows} exceeds permanent cap {DEFAULT_PERMANENT_CAP}"
            omitted = dict.fromkeys(factor_names, skip_reason)
        else:
            sides = _factor_sides(a, form)
            # a fixed form's sides pair three identities, a negated form's one
            for name, (lhs, rhs) in zip(factor_names, zip(*sides) if fixed else [sides]):
                checks.append(CheckOutcome(name=name))
                checks[-1].record(lhs, rhs)
            if not fixed and 2 * form.partition.plus_count == a.rows:
                checks[-1].note = "determinant sign is (-1)^(n/2)"
    report = {
        "command": "blockform",
        "inputs": _inputs_block(args, a),
        "results": results,
        "checks": [_check_json(ch) for ch in checks],
    }
    if omitted:
        report["omitted"] = omitted
    return _emit(report, failed=any(not ch.passed for ch in checks))


def _cmd_orbit(args) -> int:
    a = load_matrix(args.matrix, args.format)
    rep = orbit.orbit_size(a, cap=args.orbit_cap)
    results: dict = {
        "component_labels": list(rep.labels),
        "component_count": rep.component_count,
        "orbit_size": rep.orbit_size,
        "stabilizer_size": rep.stabilizer_size,
    }
    if rep.enumerated is not None:
        results["enumerated_orbit"] = rep.enumerated
        results["stabilizer"] = [str(c) for c in rep.stabilizer]
    else:
        results["enumeration"] = f"skipped: n={a.rows} exceeds --orbit-cap {args.orbit_cap}"
    report = {"command": "orbit", "inputs": _inputs_block(args, a), "results": results}
    return _emit(report, failed=False)


def _cmd_cayley(args) -> int:
    table = group.cayley_table(args.n)
    report = {
        "command": "cayley",
        "inputs": _inputs_block(args, None),
        "results": {
            "elements": [str(e) for e in table.elements],
            "table": [[str(e) for e in row] for row in table.products],
        },
    }
    return _emit(report, failed=False)


def _cmd_verify(args) -> int:
    a = load_matrix(args.matrix, args.format)
    a.require_square("verify")
    rep = verify_matrix(
        a,
        samples=args.samples,
        seed=args.seed,
        perm_cap=args.perm_cap,
        permpoly_cap=args.permpoly_cap,
        orbit_cap=args.orbit_cap,
    )
    report = {
        "command": "verify",
        "inputs": _inputs_block(args, a),
        "checks": [_check_json(c) for c in rep.checks],
        "skipped": [{"name": name, "reason": reason} for name, reason in rep.skipped],
        "passed": rep.passed,
    }
    return _emit(report, failed=not rep.passed)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    `main` call."""
    parser = argparse.ArgumentParser(
        prog="signconj",
        description="Exact sign-conjugation toolkit: invariants, decompositions, "
        "block forms, orbits, and a one-shot verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_matrix_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--matrix", required=True, help="matrix file (CSV or JSON)")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="override format inferred from the file extension")

    def add_cap_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--perm-cap", type=int, default=DEFAULT_PERMANENT_CAP,
                       help="largest n for permanent computation")
        p.add_argument("--permpoly-cap", type=int, default=DEFAULT_PERM_POLY_CAP,
                       help="largest n for the permanental polynomial")

    p = sub.add_parser("apply", help="print the sign conjugate of a matrix")
    add_matrix_options(p)
    p.add_argument("--signs", required=True, help="sign vector, e.g. '1,1,-1'")
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("invariants", help="trace, determinant, permanent, rank, polynomials")
    add_matrix_options(p)
    add_cap_options(p)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("decompose", help="split into fixed and negated parts")
    add_matrix_options(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--signs", help="sign vector for the mask split")
    mode.add_argument("--classic", action="store_true", help="transpose-based split")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("blockform", help="permutation-similar block canonical form")
    add_matrix_options(p)
    p.add_argument("--signs", required=True)
    p.set_defaults(func=_cmd_blockform)

    p = sub.add_parser("orbit", help="graph components and distinct-conjugate census")
    add_matrix_options(p)
    p.add_argument("--orbit-cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                   help="largest n for explicit orbit enumeration")
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("cayley", help="composition table of the sign-conjugation group")
    p.add_argument("--n", type=int, required=True, help="matrix dimension (n <= 6)")
    p.set_defaults(func=_cmd_cayley)

    p = sub.add_parser("verify", help="run every identity check against a matrix")
    add_matrix_options(p)
    add_cap_options(p)
    p.add_argument("--orbit-cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    p.add_argument("--samples", type=int, default=None,
                   help="number of random sign vectors (default: all of them when n <= 8)")
    p.add_argument("--seed", type=int, default=0, help="seed for sampled sign vectors")
    p.set_defaults(func=_cmd_verify)

    return parser


@contextlib.contextmanager
def _unlimited_int_text():
    """Lift Python's limit on int-to-decimal conversion, where it has one,
    while the body runs, and restore it after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _unlimited_int_text():
            return args.func(args)
    except InternalConsistencyError as exc:
        print(f"error: internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except (SignConjError, MatrixParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
