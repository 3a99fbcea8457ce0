"""Command-line interface: formats, reports, determinism, exit codes."""

import contextlib
import errno
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signconj import (
    InternalConsistencyError,
    Matrix,
    blockform,
    cli,
    core,
    decomposition,
    invariants,
    orbit,
    verification,
)
from signconj.cli import load_matrix, main, parse_matrix_document
from oracles import expansion_permanent, orbit_by_matrices
from splitting import assert_all_reaped, on_cpus, open_fds, split_test

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "signconj" / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_matrix(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def negate_block_picks(monkeypatch):
    """Corrupt the blocks blockform returns while its whole-matrix gather
    stays right; a pick spanning every row and column is left alone (it is
    the gather, or a +1 block equal to it)."""
    real = blockform._pick

    def pick(a, rows, cols):
        whole = len(rows) == len(cols) == a.rows
        return real(a, rows, cols) if whole else -real(a, rows, cols)

    monkeypatch.setattr(blockform, "_pick", pick)


def shift_determinant(monkeypatch):
    """Shift the determinant that the factor checks' `_factor_sides` reads."""
    real = verification.determinant
    monkeypatch.setattr(verification, "determinant", lambda m: real(m) + 1)


def failed_checks(out):
    return {c["name"]: c for c in json.loads(out)["checks"] if not c["passed"]}


GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_BLOCK_CASES = [
    ("sym4.json", "1,-1,1,-1", "conjugate_is_block_diagonal"),
    ("antisym4.json", "1,-1,-1,1", "conjugate_is_block_antidiagonal"),
]
# negated by (1, 1, -1): sign classes of sizes 2 and 1, so det = perm = 0
UNBALANCED_NEGATED = "0,0,1\n0,0,2\n3,4,0\n"


class TestMatrixParsing:
    def test_csv(self, tmp_path):
        path = write_matrix(tmp_path, "m.csv", "1, 2/3\n-4, 5\n")
        a = load_matrix(path, None)
        assert a == Matrix([[1, "2/3"], [-4, 5]])

    def test_json_document(self, tmp_path):
        path = write_matrix(tmp_path, "m.json", '{"n": 2, "entries": [[1, "2/3"], [-4, 5]]}')
        assert load_matrix(path, None) == Matrix([[1, "2/3"], [-4, 5]])

    def test_json_bare_array(self):
        assert parse_matrix_document("[[1, 2], [3, 4]]", "json") == Matrix([[1, 2], [3, 4]])

    def test_rectangular_document(self):
        a = parse_matrix_document('{"n": 2, "m": 3, "entries": [[1,2,3],[4,5,6]]}', "json")
        assert (a.rows, a.cols) == (2, 3)

    def test_rejects_floats(self):
        with pytest.raises(Exception):
            parse_matrix_document("[[1.5, 2], [3, 4]]", "json")

    def test_rejects_ragged(self):
        with pytest.raises(Exception):
            parse_matrix_document("1,2\n3\n", "csv")

    def test_rejects_wrong_declared_size(self):
        with pytest.raises(Exception):
            parse_matrix_document('{"n": 3, "entries": [[1,2],[3,4]]}', "json")

    def test_int_json_entries_skip_as_scalar(self, tmp_path, monkeypatch):
        seen = []

        def spy(real):
            def coerce(value):
                seen.append(value)
                return real(value)

            return coerce

        monkeypatch.setattr(cli, "as_scalar", spy(cli.as_scalar))
        monkeypatch.setattr(core, "as_scalar", spy(core.as_scalar))
        path = write_matrix(tmp_path, "m.json", '{"n": 2, "entries": [[1, -2], [0, 7]]}')
        a = load_matrix(path, None)
        assert (a.nums, a.den) == (((1, -2), (0, 7)), 1)
        assert seen == []

    def test_format_override(self, tmp_path):
        path = write_matrix(tmp_path, "m.txt", "1,2\n3,4\n")
        assert load_matrix(path, "csv") == Matrix([[1, 2], [3, 4]])
        with pytest.raises(Exception):
            load_matrix(path, None)


class TestApply:
    def test_pattern_output(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "m.csv", "1,2,3\n4,5,6\n7,8,9\n")
        code, out, _ = run_cli(capsys, "apply", "--matrix", path, "--signs", "1,1,-1")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["conjugated"] == [
            ["1", "2", "-3"],
            ["4", "5", "-6"],
            ["-7", "-8", "9"],
        ]

    def test_round_trip(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "m.csv", "1/3,2\n-5,7/2\n")
        code, out, _ = run_cli(capsys, "apply", "--matrix", path, "--signs", "1,-1")
        report = json.loads(out)
        reparsed = parse_matrix_document(json.dumps(report["results"]["conjugated"]), "json")
        assert reparsed == Matrix([["1/3", -2], [5, "7/2"]])

    def test_bad_signs_exit_2(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "m.csv", "1,2\n3,4\n")
        code, out, err = run_cli(capsys, "apply", "--matrix", path, "--signs=-1,1")
        assert code == 2
        assert "error" in err

    def test_dimension_mismatch_exit_2(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "m.csv", "1,2\n3,4\n")
        code, _, err = run_cli(capsys, "apply", "--matrix", path, "--signs", "1,1,-1")
        assert code == 2
        assert "error" in err


class TestInvariants:
    def test_results(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "m.csv", "1,2\n3,4\n")
        code, out, _ = run_cli(capsys, "invariants", "--matrix", path)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["trace"] == "5"
        assert results["determinant"] == "-2"
        assert results["permanent"] == "10"
        assert results["rank"] == 2
        assert results["char_poly"] == ["-2", "-5", "1"]
        assert results["perm_poly"] == ["10", "-5", "1"]

    def test_cap_omission_with_reason(self, capsys, tmp_path):
        rows = "\n".join(",".join("1" for _ in range(5)) for _ in range(5))
        path = write_matrix(tmp_path, "m.csv", rows + "\n")
        code, out, _ = run_cli(
            capsys, "invariants", "--matrix", path, "--perm-cap", "5", "--permpoly-cap", "5"
        )
        assert code == 0
        report = json.loads(out)
        # perm(J_5) = 5! and perm(J_5 - x*I) = sum_k C(5,k) * (5-k)! * (-x)^k
        assert report["results"]["permanent"] == "120"
        assert report["results"]["perm_poly"] == ["120", "-120", "60", "-20", "5", "-1"]
        assert "omitted" not in report
        code, out, _ = run_cli(
            capsys, "invariants", "--matrix", path, "--perm-cap", "4", "--permpoly-cap", "4"
        )
        assert code == 0
        report = json.loads(out)
        assert "permanent" not in report["results"]
        assert "perm_poly" not in report["results"]
        assert report["omitted"] == {
            "permanent": "n=5 exceeds --perm-cap 4",
            "perm_poly": "n=5 exceeds --permpoly-cap 4",
        }

    @pytest.mark.parametrize("permpoly_cap, walks", [("5", 0), ("4", 1)])
    def test_permanent_walk_runs_only_above_the_permpoly_cap(
        self, capsys, tmp_path, monkeypatch, permpoly_cap, walks
    ):
        # at or under the cap the permanent is perm_poly's constant coefficient
        calls = {"permanent": 0, "perm_poly": 0}
        for name in calls:
            real = getattr(invariants, name)

            def spy(a, name=name, real=real):
                calls[name] += 1
                return real(a)

            monkeypatch.setattr(invariants, name, spy)
        rows = "\n".join(",".join(str(i * j % 7 - 3) for j in range(5)) for i in range(5))
        path = write_matrix(tmp_path, "m.csv", rows + "\n")
        code, out, _ = run_cli(
            capsys, "invariants", "--matrix", path, "--permpoly-cap", permpoly_cap
        )
        assert code == 0
        a = load_matrix(path, None)
        assert json.loads(out)["results"]["permanent"] == str(expansion_permanent(a))
        assert calls == {"permanent": walks, "perm_poly": 1 - walks}


class TestDecompose:
    def test_signs_mode(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "m.csv", "1,2\n3,4\n")
        code, out, _ = run_cli(capsys, "decompose", "--matrix", path, "--signs", "1,-1")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["sym_part"] == [["1", "0"], ["0", "4"]]
        assert report["results"]["antisym_part"] == [["0", "2"], ["3", "0"]]
        assert all(c["passed"] for c in report["checks"])

    def test_classic_mode(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "m.csv", "1,2\n3,4\n")
        code, out, _ = run_cli(capsys, "decompose", "--matrix", path, "--classic")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["sym_part"] == [["1", "5/2"], ["5/2", "4"]]
        assert report["results"]["antisym_part"] == [["0", "-1/2"], ["1/2", "0"]]

    @pytest.mark.parametrize("mode", [["--classic"], ["--signs", ",".join(["1", "-1"] * 10)]])
    def test_twenty_by_twenty(self, capsys, tmp_path, mode):
        # order-2 sums are O(n^2): no subset-sum cap applies to them
        text = "\n".join(",".join(str((3 * i + j) % 7 - 3) for j in range(20)) for i in range(20))
        path = write_matrix(tmp_path, "m.csv", text + "\n")
        code, out, err = run_cli(capsys, "decompose", "--matrix", path, *mode)
        assert (code, err) == (0, "")
        assert all(c["passed"] for c in json.loads(out)["checks"])

    @pytest.mark.parametrize("mode, split", [
        (["--signs", "1,-1,-1"], "split"),
        (["--classic"], "classic_split"),
    ])
    def test_splits_once(self, capsys, tmp_path, monkeypatch, mode, split):
        real = getattr(decomposition, split)
        calls = []

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(decomposition, split, spy)
        path = write_matrix(tmp_path, "m.csv", "1,2,0\n3,4,5\n0,6,7\n")
        code, out, _ = run_cli(capsys, "decompose", "--matrix", path, *mode)
        assert code == 0
        assert [c["name"] for c in json.loads(out)["checks"]] == [
            "parts_reconstruct_input",
            "order2_minor_sum_additive",
            "order2_permanent_sum_additive",
        ]
        assert len(calls) == 1

    @pytest.mark.parametrize("text, signs, message", [
        ("1,2,3\n4,5,6\n", "1,-1", "sign decomposition needs a square matrix, got 2x3"),
        ("1,2\n3,4\n", "1,-1,1", "matrix is 2x2 but sign vector has length 3"),
    ])
    def test_signs_mode_input_errors(self, capsys, tmp_path, text, signs, message):
        path = write_matrix(tmp_path, "m.csv", text)
        code, out, err = run_cli(capsys, "decompose", "--matrix", path, "--signs", signs)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_requires_exactly_one_mode(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "m.csv", "1,2\n3,4\n")
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--matrix", path])
        assert exc.value.code == 2


class TestBlockform:
    def test_symmetric_input(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "m.csv", "1,0,5\n0,2,0\n7,0,3\n")
        code, out, _ = run_cli(capsys, "blockform", "--matrix", path, "--signs", "1,-1,1")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["classification"] == "symmetric"
        assert report["results"]["permutation"] == [1, 3, 2]
        assert report["results"]["plus_block"] == [["1", "5"], ["7", "3"]]
        assert report["results"]["minus_block"] == [["2"]]
        assert all(c["passed"] for c in report["checks"])

    def test_antisymmetric_input(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "m.csv", "0,2\n3,0\n")
        code, out, _ = run_cli(capsys, "blockform", "--matrix", path, "--signs", "1,-1")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["classification"] == "antisymmetric"
        assert report["results"]["upper_block"] == [["2"]]
        assert report["results"]["lower_block"] == [["3"]]

    def test_corrupted_fixture_exits_1_naming_check(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "blockform",
            "--matrix",
            str(FIXTURES / "corrupted_sym.json"),
            "--signs",
            "1,1,-1,-1",
        )
        assert code == 1
        report = json.loads(out)
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        assert failing == ["matrix_symmetry_class"]


    @pytest.mark.parametrize(
        "name, signs, check",
        [
            ("sym4.json", "1,-1,1,-1", "conjugate_is_block_diagonal"),
            ("antisym4.json", "1,-1,-1,1", "conjugate_is_block_antidiagonal"),
        ],
    )
    def test_similarity_fails_when_gather_negates(self, capsys, monkeypatch, name, signs, check):
        # blocks and gather stay consistent with each other; the check also
        # reads P^-1*A*P through the permutation itself
        real = blockform._pick
        monkeypatch.setattr(blockform, "_pick", lambda a, rows, cols: -real(a, rows, cols))
        path = str(Path(__file__).resolve().parent / "golden" / name)
        code, out, _ = run_cli(capsys, "blockform", "--matrix", path, "--signs", signs)
        assert code == 1
        failing = {c["name"] for c in json.loads(out)["checks"] if not c["passed"]}
        assert check in failing

    @pytest.mark.parametrize("name, signs, check", GOLDEN_BLOCK_CASES)
    def test_similarity_fails_when_block_picks_negate(
        self, capsys, monkeypatch, name, signs, check
    ):
        negate_block_picks(monkeypatch)
        code, out, _ = run_cli(capsys, "blockform", "--matrix", str(GOLDEN / name), "--signs", signs)
        assert code == 1
        failed = failed_checks(out)[check]
        assert failed["lhs"] and failed["rhs"] and failed["lhs"] != failed["rhs"]

    def test_unbalanced_nonzero_determinant_exits_1(self, capsys, tmp_path, monkeypatch):
        shift_determinant(monkeypatch)
        path = write_matrix(tmp_path, "m.csv", UNBALANCED_NEGATED)
        code, out, _ = run_cli(capsys, "blockform", "--matrix", path, "--signs", "1,1,-1")
        assert code == 1
        assert failed_checks(out) == {
            "determinant_and_permanent_factor": {
                "name": "determinant_and_permanent_factor",
                "passed": False,
                "lhs": "(1, 0)",
                "rhs": "(0, 0)",
            }
        }

    @pytest.mark.parametrize(
        "n, kind, similarity, omitted",
        [
            (21, "symmetric", "conjugate_is_block_diagonal",
             ["char_poly_factors", "determinant_factors", "permanent_factors"]),
            (22, "antisymmetric", "conjugate_is_block_antidiagonal",
             ["determinant_and_permanent_factor"]),
        ],
    )
    def test_above_permanent_cap_omits_factor_checks(
        self, capsys, tmp_path, n, kind, similarity, omitted
    ):
        # the factor reports need permanents; the form itself is a gather
        signs = [1 if i % 3 else -1 for i in range(n)]
        signs[0] = 1
        fixed = kind == "symmetric"
        rows = [
            [str((i + 2 * j) % 7 + 1) if (si == sj) == fixed else "0"
             for j, sj in enumerate(signs)]
            for i, si in enumerate(signs)
        ]
        path = write_matrix(tmp_path, "m.csv", "\n".join(",".join(r) for r in rows))
        code, out, _ = run_cli(
            capsys, "blockform", "--matrix", path, "--signs", ",".join(map(str, signs))
        )
        assert code == 0
        report = json.loads(out)
        assert report["results"]["classification"] == kind
        assert [c["name"] for c in report["checks"]] == ["matrix_symmetry_class", similarity]
        assert all(c["passed"] for c in report["checks"])
        assert report["omitted"] == {
            name: f"n={n} exceeds permanent cap 20" for name in omitted
        }


class TestOrbit:
    def test_fixture(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "m.csv", "0,1,0\n1,0,0\n0,0,5\n")
        code, out, _ = run_cli(capsys, "orbit", "--matrix", path)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["component_labels"] == [1, 1, 2]
        assert results["component_count"] == 2
        assert results["orbit_size"] == 2
        assert results["stabilizer_size"] == 2
        assert len(results["enumerated_orbit"]) == 2
        assert results["stabilizer"] == ["1,1,1", "1,1,-1"]

    def test_enumerated_order_matches_oracle(self, capsys, tmp_path):
        # two components, {1,3,5} and {2,4,6}; one-sided and negative rational entries
        rows = [
            ["1/2", "0", "-3", "0", "0", "0"],
            ["0", "0", "0", "2/5", "0", "-1"],
            ["0", "0", "-7/3", "0", "4", "0"],
            ["0", "0", "0", "0", "0", "0"],
            ["5/6", "0", "0", "0", "0", "0"],
            ["0", "-9/2", "0", "1", "0", "2"],
        ]
        path = write_matrix(tmp_path, "m.csv", "\n".join(",".join(r) for r in rows) + "\n")
        code, out, _ = run_cli(capsys, "orbit", "--matrix", path)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["component_count"] == 2
        expected = [
            [[str(e) for e in row] for row in m.entries]
            for m in orbit_by_matrices(Matrix(rows))
        ]
        assert len(expected) == 16
        assert results["enumerated_orbit"] == expected

    def test_above_cap_skips_enumeration(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "m.csv", "0,0\n0,0\n")
        code, out, _ = run_cli(capsys, "orbit", "--matrix", path, "--orbit-cap", "1")
        assert code == 0
        assert "skipped" in json.loads(out)["results"]["enumeration"]


class TestCayley:
    def test_golden_table_ordering(self, capsys):
        code, out, _ = run_cli(capsys, "cayley", "--n", "3")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["elements"] == ["1,1,-1", "1,-1,1", "1,-1,-1", "1,1,1"]
        assert results["table"] == [
            ["1,1,1", "1,-1,-1", "1,-1,1", "1,1,-1"],
            ["1,-1,-1", "1,1,1", "1,1,-1", "1,-1,1"],
            ["1,-1,1", "1,1,-1", "1,1,1", "1,-1,-1"],
            ["1,1,-1", "1,-1,1", "1,-1,-1", "1,1,1"],
        ]

    def test_oversize_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "cayley", "--n", "9")
        assert code == 2
        assert "error" in err


class TestVerify:
    def test_bundled_fixture_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--matrix", str(FIXTURES / "verify6.json"))
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert len(report["checks"]) >= 25
        assert all(c["passed"] for c in report["checks"])
        assert all(c["lhs"] == c["rhs"] for c in report["checks"])

    def test_byte_identical_reports(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--matrix", str(FIXTURES / "verify6.json"))
        _, second, _ = run_cli(capsys, "verify", "--matrix", str(FIXTURES / "verify6.json"))
        assert first == second

    def test_sampled_mode_deterministic(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "m.csv", "1,2\n3,4\n")
        _, first, _ = run_cli(capsys, "verify", "--matrix", path, "--samples", "3", "--seed", "7")
        _, second, _ = run_cli(capsys, "verify", "--matrix", path, "--samples", "3", "--seed", "7")
        assert first == second

    def test_not_square_exit_2(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "m.csv", "1,2,3\n4,5,6\n")
        code, _, err = run_cli(capsys, "verify", "--matrix", path)
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("samples", [[], ["--samples", "5"]])
    def test_block_picks_negated_exits_1(self, capsys, monkeypatch, samples):
        negate_block_picks(monkeypatch)
        code, out, _ = run_cli(
            capsys, "verify", "--matrix", str(FIXTURES / "verify6.json"), *samples
        )
        assert code == 1
        failed = failed_checks(out)
        for name in ("sym_part_block_similarity", "antisym_part_block_similarity"):
            assert failed[name]["lhs"] and failed[name]["lhs"] != failed[name]["rhs"]

    def test_unbalanced_nonzero_determinant_exits_1(self, capsys, tmp_path, monkeypatch):
        shift_determinant(monkeypatch)
        path = write_matrix(tmp_path, "m.csv", UNBALANCED_NEGATED)
        code, out, _ = run_cli(capsys, "verify", "--matrix", path)
        assert code == 1
        failed = failed_checks(out)["antisym_part_factorizations"]
        assert (failed["lhs"], failed["rhs"]) == ("(1, 0)", "(0, 0)")

    @pytest.mark.parametrize("part, product", [("sym_part", -1), ("antisym_part", 1)])
    def test_fault_in_own_split_exits_1(self, capsys, monkeypatch, part, product):
        # the part keeps one nonzero entry of A where c_i*c_j = product, an
        # entry its mask should zero, so its block form cannot be built
        real = getattr(verification, part)

        def leaky(a, c):
            m = real(a, c)
            ids = range(a.rows)
            kept = next(
                ((i, j) for i in ids for j in ids if c[i] * c[j] == product and a[i, j]), None
            )
            return Matrix([[a[i, j] if (i, j) == kept else m[i, j] for j in ids] for i in ids])

        monkeypatch.setattr(verification, part, leaky)
        code, out, err = run_cli(capsys, "verify", "--matrix", str(FIXTURES / "verify6.json"))
        assert (code, err) == (1, "")
        failed = failed_checks(out)
        assert "split_parts_fixed_and_negated" in failed
        assert "failed at c=" in failed[f"{part}_block_similarity"]["note"]

    def test_wrong_enumerated_conjugate_exits_1(self, capsys, monkeypatch):
        # the count is unchanged, so only the conjugate comparison can fail
        real = orbit._enumerate_distinct

        def negate_last(a, components):
            found = real(a, components)
            return found[:-1] + (-found[-1],)

        monkeypatch.setattr(orbit, "_enumerate_distinct", negate_last)
        code, out, _ = run_cli(capsys, "verify", "--matrix", str(FIXTURES / "verify6.json"))
        assert code == 1
        assert set(failed_checks(out)) == {"orbit_matches_component_count"}

    def test_component_reusing_its_first_rows_exits_1(self, capsys, tmp_path, monkeypatch):
        # components {1,3,5} and {2,4,6}; the second keeps the rows of its
        # first sign pattern for every pattern, so conjugates repeat
        real = orbit._component_rows
        seen = []

        def stale_second(a, members):
            rows = real(a, members)
            seen.append(members)
            if len(seen) == 2:
                rows = dict.fromkeys(rows, next(iter(rows.values())))
            return rows

        monkeypatch.setattr(orbit, "_component_rows", stale_second)
        text = "1,0,-3,0,0,0\n0,0,0,2,0,-1\n0,0,7,0,4,0\n0,0,0,0,0,0\n5,0,0,0,0,0\n0,-9,0,1,0,2\n"
        code, out, _ = run_cli(capsys, "verify", "--matrix", write_matrix(tmp_path, "m.csv", text))
        assert seen == [[0, 2, 4], [1, 3, 5]]
        assert code == 1
        assert "orbit_matches_component_count" in failed_checks(out)


report_text = st.one_of(
    st.text(),
    st.text(st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f a\u00e9\u2028\u20ac\U0001f600')),
)
report_matrix = st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
    lambda shape: st.lists(
        st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=6),
            min_size=shape[1],
            max_size=shape[1],
        ),
        min_size=shape[0],
        max_size=shape[0],
    ).map(lambda rows: Matrix(rows, cols=shape[1]))
)
report_leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**400), max_value=10**400),
    report_text,
    report_matrix,
)
report_value = st.recursive(
    report_leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(report_text, max_size=5),
        st.dictionaries(report_text, inner, max_size=5),
    ),
    max_leaves=40,
)


@split_test
@pytest.mark.parametrize("fault", ["child_exits_1", "fork_refused", "inconsistent_kernel"])
def test_split_verify_report_survives_a_failed_part(capsys, monkeypatch, fault):
    # a part whose child fails is checked in the parent; a kernel that
    # raises in the last part's child raises again there, and exits 3
    argv = ["verify", "--matrix", str(FIXTURES / "verify6.json")]

    def refused_fork():
        raise OSError(errno.EAGAIN, "fork refused")

    if fault == "inconsistent_kernel":
        last = list(core.admissible_sign_vectors(6))[-1]
        real = verification.sym_part

        def sym_part(a, c):
            if c == last:
                raise InternalConsistencyError("two routes disagree")
            return real(a, c)

        monkeypatch.setattr(verification, "sym_part", sym_part)
    with on_cpus(1):
        expected = run_cli(capsys, *argv)
    assert expected[0] == (3 if fault == "inconsistent_kernel" else 0)
    fds = open_fds()
    with on_cpus(4) as (mp, forks):
        mp.setattr(verification, "_SPLIT_MIN_VECTORS", 1)
        if fault == "child_exits_1":
            mp.setattr(os, "write", lambda fd, data: os._exit(1))
        elif fault == "fork_refused":
            mp.setattr(os, "fork", refused_fork)
        assert run_cli(capsys, *argv) == expected
    assert len(forks) == (0 if fault == "fork_refused" else 3)
    assert_all_reaped()
    assert open_fds() == fds


def with_text_rows(value):
    """The report with every Matrix replaced by its text_rows()."""
    if isinstance(value, Matrix):
        return value.text_rows()
    if isinstance(value, (list, tuple)):
        return [with_text_rows(v) for v in value]
    if isinstance(value, dict):
        return {k: with_text_rows(v) for k, v in value.items()}
    return value


def emitted(value):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli._emit(value, failed=False) == 0
    return out.getvalue()


class TestReportRenderer:
    @settings(max_examples=300, deadline=None)
    @given(report_value)
    def test_matches_indented_json_dumps(self, value):
        assert emitted(value) == json.dumps(with_text_rows(value), indent=2) + "\n"

    def test_shared_row_at_two_depths_and_two_denominators(self):
        # the int row (1, 2) over den 1, over den 3, and at a second depth
        whole = Matrix([[1, 2], [1, 2]])
        thirds = Matrix([[1, 2], [3, 0]], den=3)
        assert thirds.nums[0] == whole.nums[0] and thirds.den == 3
        report = {
            "a": whole,
            "b": [thirds, {"c": whole, "d": (thirds, whole)}],
            "e": [Matrix([], cols=0), Matrix([[], []], cols=0), Matrix([], cols=2)],
        }
        assert emitted(report) == json.dumps(with_text_rows(report), indent=2) + "\n"

    @pytest.mark.parametrize(
        "leaf, name", [(Fraction(1, 3), "Fraction"), (0.5, "float"), ({1}, "set")]
    )
    def test_unrenderable_leaf_raises_before_writing(self, capsys, leaf, name):
        # the leaf comes after a matrix and text, so a writer that printed
        # as it went would have written part of the report
        report = {"m": Matrix([[1, 2], [3, 4]]), "text": "x", "deep": [[1, "y"], {"leaf": leaf}]}
        with pytest.raises(TypeError, match=f"cannot render {name} in a report"):
            cli._emit(report, failed=False)
        assert capsys.readouterr().out == ""

    def test_quoted_non_ascii_path_round_trips(self, capsys, tmp_path):
        path = write_matrix(tmp_path, 'm"\u00e9.csv', "0,1\n1,0\n")
        code, out, _ = run_cli(capsys, "orbit", "--matrix", path)
        assert code == 0
        assert f'"path": {json.dumps(path)},' in out
        report = json.loads(out)
        assert report["inputs"]["matrix"]["path"] == path
        assert out == json.dumps(report, indent=2) + "\n"


class TestUsageErrors:
    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "invariants", "--matrix", "/nonexistent/m.csv")
        assert code == 2
        assert "error" in err

    def test_unknown_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("entry", ["1_000", "\uff11\uff12", "\u00a02"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_ascii_integer_entry_exit_2(self, capsys, tmp_path, entry, fmt):
        text = f"1,{entry}\n3,4\n" if fmt == "csv" else json.dumps([[1, entry], [3, 4]])
        path = write_matrix(tmp_path, f"m.{fmt}", text)
        code, out, err = run_cli(capsys, "invariants", "--matrix", path)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("entry", ["true", "false"])
    def test_json_bool_entry_exit_2(self, capsys, tmp_path, entry):
        path = write_matrix(tmp_path, "m.json", f"[[1, {entry}], [3, 4]]")
        code, out, err = run_cli(capsys, "invariants", "--matrix", path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad matrix entry")

    def test_json_integer_over_digit_limit_exit_2(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "m.json", "[[" + "7" * 5000 + ", 1], [2, 3]]")
        code, out, err = run_cli(capsys, "invariants", "--matrix", path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid JSON")
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("name", ["m.csv", "m.json"])
    def test_non_utf8_file_exit_2(self, capsys, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"1,2\n3,\xff\n")
        code, out, err = run_cli(capsys, "invariants", "--matrix", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read")

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_exit_2(self, capsys, tmp_path, samples):
        path = write_matrix(tmp_path, "m.csv", "1,2\n3,4\n")
        code, out, err = run_cli(capsys, "verify", "--matrix", path, "--samples", samples)
        assert code == 2
        assert out == ""
        assert err.startswith("error: samples must be at least 1")

    def test_internal_inconsistency_exit_3(self, capsys, tmp_path, monkeypatch):
        # nothing in the library raises it today, so a stub stands in for a defect
        def inconsistent(a, *, cap):
            raise InternalConsistencyError("two routes disagree")

        monkeypatch.setattr(orbit, "orbit_size", inconsistent)
        path = write_matrix(tmp_path, "m.csv", "0,1,0\n1,0,0\n0,0,5\n")
        code, out, err = run_cli(capsys, "orbit", "--matrix", path)
        assert code == 3
        assert out == ""
        assert err.startswith("error: internal inconsistency: ")
        assert "Traceback" not in err


class TestModuleEntryPoint:
    """`python -m signconj` in a fresh interpreter, run from the fixtures
    directory so that the report's path field is the bare file name the
    golden file stores."""

    @staticmethod
    def run_module(*argv: str) -> subprocess.CompletedProcess:
        env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent.parent)}
        return subprocess.run(
            [sys.executable, "-m", "signconj", *argv],
            cwd=FIXTURES, env=env, capture_output=True, timeout=60,
        )

    def test_verify_matches_golden(self):
        done = self.run_module("verify", "--matrix", "verify6.json")
        assert done.returncode == 0, done.stderr
        assert done.stdout == (GOLDEN / "verify_verify6.out.json").read_bytes()

    def test_missing_file_exit_2(self):
        done = self.run_module("verify", "--matrix", "missing.json")
        assert done.returncode == 2
        assert done.stdout == b""
        assert done.stderr.startswith(b"error: cannot read")
        assert b"Traceback" not in done.stderr


def unlimited_str(x: int) -> str:
    """str(x) whatever Python's limit on int-to-text conversion."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(x)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(limit)


class TestLongIntegers:
    """Entries of up to 4300 digits, the most Python converts from text by
    default, give results of many more; the reports print them whole."""

    DIGITS4000 = GOLDEN / "digits4000.json"

    @pytest.mark.parametrize(
        "argv", [["invariants"], ["verify"], ["blockform", "--signs", "1,1"]], ids=lambda v: v[0]
    )
    def test_results_over_the_digit_limit(self, capsys, argv):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run_cli(capsys, *argv, "--matrix", str(self.DIGITS4000))
        assert (code, err) == (0, "")
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        report = json.loads(out)
        if argv[0] == "invariants":
            (a, b), (c, d) = json.loads(self.DIGITS4000.read_text())["entries"]
            assert len(str(a)) == 4000
            assert report["results"]["determinant"] == unlimited_str(a * d - b * c)
        else:
            assert all(check["passed"] for check in report["checks"])

    @pytest.mark.parametrize(
        "name, template",
        [
            ("m.json", "[[{}, 1], [2, 3]]"),
            ("m.json", '[["-{}", 1], [2, 3]]'),
            ("m.json", '[["1/{}", 1], [2, 3]]'),
            ("m.csv", "1,2\n3,{}\n"),
            ("m.csv", "1,2\n3,{}/7\n"),
        ],
    )
    def test_entry_digit_cap(self, capsys, tmp_path, name, template):
        path = write_matrix(tmp_path, name, template.format("9" * 4300))
        code, _, err = run_cli(capsys, "invariants", "--matrix", path)
        assert (code, err) == (0, "")
        path = write_matrix(tmp_path, name, template.format("9" * 4301))
        code, out, err = run_cli(capsys, "invariants", "--matrix", path)
        assert (code, out) == (2, "")
        assert "an integer of more than 4300 digits" in err
        assert "set_int_max_str_digits" not in err
