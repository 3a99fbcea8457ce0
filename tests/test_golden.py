"""CLI reports compared byte for byte with committed golden files.

Each golden file is the stdout of `signconj.cli.main` with
`inputs.matrix.path` replaced by the input's file name, since the full
path depends on where the repository is checked out.  Reports are part
of the interface, so a change to how a result is computed must leave
these bytes as they are.
"""

import json
from pathlib import Path

import pytest

from signconj import verification
from signconj.cli import main
from splitting import assert_all_reaped, on_cpus, split_test

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
FIXTURES = ROOT / "src" / "signconj" / "fixtures"
CI = ROOT / ".github" / "workflows" / "ci.yml"
SIGNS12 = "1,-1,1,1,-1,-1,1,-1,1,-1,-1,1"
SIGNS21 = "1,1,1,-1,1,1,-1,1,1,-1,1,1,-1,1,1,-1,1,1,-1,1,1"

CASES = {
    "verify_verify6": (0, ["verify", "--matrix", FIXTURES / "verify6.json"]),
    "blockform_corrupted_sym": (
        1,
        ["blockform", "--matrix", FIXTURES / "corrupted_sym.json", "--signs", "1,1,-1,-1"],
    ),
    "blockform_sym4": (0, ["blockform", "--matrix", GOLDEN / "sym4.json", "--signs", "1,-1,1,-1"]),
    "blockform_antisym4": (
        0,
        ["blockform", "--matrix", GOLDEN / "antisym4.json", "--signs", "1,-1,-1,1"],
    ),
    # negated with sign classes of sizes 2 and 1: det = perm = 0, and no note
    "blockform_unbalanced3": (
        0,
        ["blockform", "--matrix", GOLDEN / "unbalanced3.json", "--signs", "1,1,-1"],
    ),
    # fixed at n = 21, above the permanent cap: the factor checks are omitted
    "blockform_sym21": (0, ["blockform", "--matrix", GOLDEN / "sym21.json", "--signs", SIGNS21]),
    "invariants_int20": (0, ["invariants", "--matrix", GOLDEN / "int20.json"]),
    # no 2^n step: the principal-sum cross-checks cost n+1 determinants
    "verify_int20_sampled": (
        0,
        [
            "verify", "--matrix", GOLDEN / "int20.json", "--samples", "1",
            "--perm-cap", "0", "--permpoly-cap", "0", "--orbit-cap", "0",
        ],
    ),
    "invariants_rational12": (
        0,
        [
            "invariants", "--matrix", GOLDEN / "rational12.json",
            "--perm-cap", "20", "--permpoly-cap", "12",
        ],
    ),
    # exhaustive verify on a dense rational matrix: conjugates, half-sums,
    # block forms and the orbit pass all carry denominators
    "verify_rational7": (0, ["verify", "--matrix", GOLDEN / "rational7.json"]),
    "apply_rational12": (
        0,
        ["apply", "--matrix", GOLDEN / "rational12.json", "--signs", SIGNS12],
    ),
    "decompose_signs_rational12": (
        0,
        ["decompose", "--matrix", GOLDEN / "rational12.json", "--signs", SIGNS12],
    ),
    # (A + A^T)/2 and (A - A^T)/2 have denominators that A does not
    "decompose_classic_rational12": (
        0,
        ["decompose", "--matrix", GOLDEN / "rational12.json", "--classic"],
    ),
    "orbit_sparse_rational8": (0, ["orbit", "--matrix", GOLDEN / "sparse_rational8.json"]),
}


def assert_matches_golden(capsys, name):
    expected_code, argv = CASES[name]
    code = main([str(arg) for arg in argv])
    out = capsys.readouterr().out
    assert code == expected_code
    assert json.loads(out)["inputs"]["matrix"]["path"] == str(argv[2])
    path_line = f'"path": {json.dumps(str(argv[2]))},'
    assert out.count(path_line) == 1
    fixed = out.replace(path_line, f'"path": {json.dumps(argv[2].name)},')
    assert fixed == (GOLDEN / f"{name}.out.json").read_text()


@pytest.mark.parametrize("name", CASES)
def test_report_matches_golden(capsys, name):
    assert_matches_golden(capsys, name)


@split_test
@pytest.mark.parametrize("cpus", [1, 2, 4])
@pytest.mark.parametrize("name", [name for name in CASES if name.startswith("verify_")])
def test_verify_report_matches_golden_in_any_number_of_parts(capsys, name, cpus):
    with on_cpus(cpus) as (mp, forks):
        mp.setattr(verification, "_SPLIT_MIN_VECTORS", 1)
        assert_matches_golden(capsys, name)
    # the sampled case checks one vector, so it has one part
    assert len(forks) == (0 if name == "verify_int20_sampled" else cpus - 1)
    assert_all_reaped()


def test_report_after_usage_error_matches_golden(capsys):
    # one parser serves every call in a process; a usage error leaves it as it was
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--matrix"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert_matches_golden(capsys, "verify_verify6")


def test_roster_matches_golden_files_and_ci():
    # a case without a file fails above, but a file without a case, or a
    # case that CI's installed-script step never compares, would go unchecked
    stems = {path.name.removesuffix(".out.json") for path in GOLDEN.glob("*.out.json")}
    assert set(CASES) == stems
    ci = CI.read_text()
    assert [name for name in CASES if f"{name}.out.json" not in ci] == []
