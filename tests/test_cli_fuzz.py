"""Fuzzing `main()` end to end: whatever the subcommand, input file, sign
string or cap value, the CLI exits 0, 1, 2 or 3 and never lets another
exception escape."""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from signconj.cli import main

good_scalar = st.one_of(
    st.integers(-3, 3).map(str),
    st.tuples(st.integers(-9, 9), st.integers(1, 9)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
)
bad_scalar = st.sampled_from(["", "x", "1.5", " 2 ", "1/0", "--1", "1/-2", "1e3"])
# over 2200 digits, so that a product of two has more than the 4300 that
# Python converts to text by default
long_scalar = st.tuples(st.sampled_from(["", "-"]), st.integers(1, 9), st.integers(2201, 2400)).map(
    lambda t: t[0] + str(t[1]) * t[2]
)


@st.composite
def grid(draw, n):
    """Mostly a square n x n grid of valid tokens; now and then one of long
    integers, one bad token, a ragged or rectangular grid, or no rows at all."""
    rows = [[draw(good_scalar) for _ in range(n)] for _ in range(n)]
    flaw = draw(st.sampled_from([None] * 8 + ["long", "bad", "rect", "ragged", "empty"]))
    if flaw == "long":
        rows = [[draw(long_scalar) for _ in range(n)] for _ in range(n)]
    elif flaw == "bad":
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(bad_scalar)
    elif flaw == "rect":
        rows = [row + ["1"] for row in rows]
    elif flaw == "ragged":
        rows[-1].append("1")
    elif flaw == "empty":
        rows = []
    return rows


def csv_text(rows):
    return "\n".join(",".join(row) for row in rows) + "\n"


def json_text(rows, n):
    # integer tokens become JSON numbers, the rest stay strings
    entries = [[int(e) if re.fullmatch(r"-?[0-9]+", e) else e for e in row] for row in rows]
    return json.dumps({"n": n, "entries": entries} if n is not None else entries)


def usually(p_false: int = 8):
    """True except about once in `p_false` draws."""
    return st.sampled_from([True] * (p_false - 1) + [False])


def matrix_file(n):
    csv = grid(n).map(lambda rows: ("m.csv", csv_text(rows)))
    return st.one_of(
        csv,
        csv,
        st.tuples(grid(n), st.sampled_from([None, n, n, n + 1])).map(
            lambda t: ("m.json", json_text(*t))
        ),
        st.tuples(grid(n), st.sampled_from(["m.txt", "m"])).map(lambda t: (t[1], csv_text(t[0]))),
        st.tuples(st.sampled_from(["m.csv", "m.json"]), st.text(max_size=30)),
        st.just(None),  # missing file
    )


def sign_string(n):
    exact = st.lists(st.sampled_from(["1", "-1"]), min_size=n - 1, max_size=n - 1).map(
        lambda rest: ",".join(["1"] + rest)
    )
    return st.one_of(
        exact,
        exact,
        st.lists(st.sampled_from(["1", "-1", "+", "-", "+1"]), min_size=1, max_size=5).map(
            ",".join
        ),
        st.sampled_from(["", ",", "1,,1", "2", "1,x", "0"]),
    )


small_int = st.integers(-3, 8).map(str)
CAPS = ("--perm-cap", "--permpoly-cap")
# (options the subcommand needs, options it accepts)
OPTIONS = {
    "apply": (("--matrix", "--signs"), ()),
    "invariants": (("--matrix",), CAPS),
    "decompose": (("--matrix",), ()),  # plus one of --signs / --classic
    "blockform": (("--matrix", "--signs"), ()),
    "orbit": (("--matrix",), ("--orbit-cap",)),
    "cayley": (("--n",), ()),
    "verify": (("--matrix",), CAPS + ("--orbit-cap", "--samples", "--seed")),
    "nope": (("--matrix",), ()),
}
EVERY_OPTION = sorted({f for need, accept in OPTIONS.values() for f in need + accept})


@st.composite
def invocation(draw):
    """A subcommand with its needed options (now and then one missing),
    some of its optional ones, and now and then a foreign or bad one."""
    n = draw(st.integers(1, 4))
    command = draw(st.sampled_from(sorted(OPTIONS)))
    need, accept = OPTIONS[command]
    flags = [f for f in need if draw(usually())]
    flags += [f for f in accept if draw(st.booleans())]
    if command == "decompose":
        modes = [["--signs"], ["--classic"]] * 3 + [[], ["--signs", "--classic"]]
        flags += draw(st.sampled_from(modes))
    if not draw(usually(6)):
        flags.append("--format")
    if not draw(usually(10)):
        flags.append(draw(st.sampled_from(EVERY_OPTION)))
    argv = [command]
    for flag in flags:
        if flag in ("--matrix", "--classic"):  # --matrix gets its path in run()
            argv.append(flag)
        elif flag == "--signs":  # "=" keeps a leading "-1" from reading as an option
            argv.append(f"--signs={draw(sign_string(n))}")
        elif flag == "--format":
            argv.append(f"--format={draw(st.sampled_from(['csv', 'json', 'xml']))}")
        else:
            argv.append(f"{flag}={draw(small_int)}")
    return argv, draw(matrix_file(n))


def run(argv: list[str], file) -> object:
    with tempfile.TemporaryDirectory() as tmp:
        if "--matrix" in argv:
            name, text = file if file is not None else ("absent.csv", None)
            path = Path(tmp) / name
            if text is not None:
                path.write_text(text, encoding="utf-8")
            i = argv.index("--matrix") + 1
            argv = argv[:i] + [str(path)] + argv[i:]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                return main(argv)
            except SystemExit as exc:  # argparse usage errors
                return exc.code


@settings(max_examples=300, deadline=None)
@given(invocation())
@example((["invariants", "--matrix"], ("m.csv", csv_text([["1" * 2201, "-7"], ["3", "2" * 2300]]))))
def test_main_exit_code_is_documented(case):
    assert run(*case) in (0, 1, 2, 3)
