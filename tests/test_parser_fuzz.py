"""Fuzzing the matrix parser: any text in either format parses to a
Matrix or raises MatrixParseError, never anything else."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from signconj import Matrix, MatrixParseError
from signconj.cli import parse_matrix_document

FORMATS = st.sampled_from(["csv", "json"])

# digit runs past the 4300-digit int-to-str limit, and digits outside ASCII
huge_digits = st.integers(min_value=4250, max_value=4400).map(lambda k: "9" * k)
unicode_digits = st.text(st.characters(categories=["Nd"]), min_size=1, max_size=4)
padding = st.sampled_from(["", " ", "\t", "\u00a0", "\u3000"])

scalar_text = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.tuples(st.integers(-99, 99), st.integers(-9, 99)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    huge_digits,
    unicode_digits,
    st.sampled_from(["1.5", "1e3", "nan", "inf", "", "-", "/", "1/", "1_000", "0x10"]),
    st.text(max_size=6),
)
token = st.tuples(padding, scalar_text, padding).map("".join)

json_leaf = st.one_of(
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    scalar_text,
    st.booleans(),
    st.none(),
)
json_value = st.recursive(
    json_leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["n", "m", "entries", "x"]), inner, max_size=3),
    ),
    max_leaves=16,
)


def assert_parses_or_rejects(text: str, fmt: str) -> None:
    try:
        result = parse_matrix_document(text, fmt)
    except MatrixParseError:
        return
    assert isinstance(result, Matrix)


@settings(max_examples=200, deadline=None)
@given(st.text(), FORMATS)
def test_arbitrary_text(text, fmt):
    assert_parses_or_rejects(text, fmt)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(token, min_size=1, max_size=4), max_size=4),
    st.sampled_from(["\n", "\r\n", "\r"]),
)
def test_csv_grids(rows, newline):
    assert_parses_or_rejects(newline.join(",".join(row) for row in rows), "csv")


@settings(max_examples=200, deadline=None)
@given(json_value)
def test_json_documents(doc):
    assert_parses_or_rejects(json.dumps(doc), "json")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.one_of(huge_digits, st.integers(-9, 9).map(str)), min_size=1, max_size=3),
                min_size=1, max_size=3))
def test_json_integer_literals(rows):
    # bare integer literals, so a huge run reaches json.loads itself
    text = "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"
    assert_parses_or_rejects(text, "json")


@given(st.integers(1, 200_000), FORMATS)
@settings(max_examples=20, deadline=None)
def test_deep_nesting(depth, fmt):
    assert_parses_or_rejects("[" * depth + "1" + "]" * depth, fmt)
