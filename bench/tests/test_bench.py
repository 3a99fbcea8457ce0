"""Tests of the benchmark itself: tiny workloads, reference routes, the
checker, the tracer's rebinding, and the BENCHMARK.json contract.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

import signconj  # noqa: E402
import signconj.cli  # noqa: E402

TINY = {
    "verify-exhaustive": {"size": 3},
    "invariants-n12": {"size": 4},
    "permanent-n20": {"size": 5},
    "orbit-n12": {"size": 5, "blocks": (2, 2, 1)},
}


def tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])


def tiny_run(tmp_path: Path, name: str, trace: bool = False, jobs: int = 3):
    """Set up and run a tiny workload in this process; returns (result, info)."""
    workload = tiny(name)
    work = tmp_path / name
    workloads.write_inputs(workload, 7, work / "inputs", count=jobs)
    passes = {"plain": worker.measure_pass(signconj.cli, workload, work / "inputs",
                                           work / "plain", 0.0, False)}
    if trace:
        passes["traced"] = worker.measure_pass(signconj.cli, workload, work / "inputs",
                                               work / "traced", 0.0, True)
    return run.evaluate(workload, work, passes, [{"setup_s": 0.1, "probe_s": 0.006}])


def naive_permanent(rows) -> int:
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        prod = 1
        for i, j in enumerate(perm):
            prod *= rows[i][j]
        total += prod
    return total


# -- inputs ------------------------------------------------------------


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    w = workloads.WORKLOADS["verify-exhaustive"]
    workloads.write_inputs(w, 3, tmp_path / "a", count=4)
    workloads.write_inputs(w, 3, tmp_path / "b", count=4)
    workloads.write_inputs(w, 4, tmp_path / "c", count=4)
    read = lambda d: [p.read_bytes() for p in workloads.input_paths(tmp_path / d)]  # noqa: E731
    assert read("a") == read("b")
    assert read("a") != read("c")


def test_block_generator_has_the_promised_components():
    for seed in range(20):
        entries, blocks = workloads.block_sparse(workloads.rng_for("t", seed), (6, 4, 2))
        n = len(entries)
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for i in range(n):
            for j in range(n):
                if i != j and entries[i][j]:
                    parent[find(i)] = find(j)
        groups = {}
        for v in range(n):
            groups.setdefault(find(v), set()).add(v)
        assert sorted(map(sorted, groups.values())) == sorted(map(sorted, blocks))


# -- reference routes ----------------------------------------------------


def test_glynn_matches_permutation_sum():
    rng = random.Random(1)
    for n in range(1, 7):
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert reference.glynn_permanent(rows) == naive_permanent(rows)


def test_glynn_perm_poly_matches_pointwise_permanents():
    rng = random.Random(2)
    n = 5
    rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    coeffs = reference.glynn_perm_poly(rows)
    for y in range(-3, 4):
        shifted = [[rows[i][j] - (y if i == j else 0) for j in range(n)] for i in range(n)]
        assert sum(c * y**k for k, c in enumerate(coeffs)) == naive_permanent(shifted)


def test_relabelling_keeps_the_stored_answers():
    base = workloads.permanent_pool_matrix(0, 5)
    rng = random.Random(3)
    perm = list(range(5))
    rng.shuffle(perm)
    moved = workloads.relabel(base, perm, [1, -1, -1, 1, -1])
    assert naive_permanent(moved) == naive_permanent(base)
    assert reference.sympy_invariants(moved) == reference.sympy_invariants(base)


def test_stored_pool_matches_the_generator():
    pool = reference.PermanentPool()
    assert len(pool.entries) == workloads.PERMANENT_POOL_SIZE
    for index in (0, workloads.PERMANENT_POOL_SIZE - 1):
        assert pool.answers(index, pool.n)["rank"] <= pool.n


# -- tiny workloads end to end --------------------------------------------


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_is_correct(tmp_path, name):
    result, info = tiny_run(tmp_path, name)
    assert result["correct"], info
    assert result["attempted"] == 1 and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == set(run.END_TO_END)
    assert metrics["correct_ratio"]["value"] == 1.0
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("name", ["invariants-n12", "permanent-n20", "orbit-n12"])
def test_wrong_reference_is_a_failed_job(tmp_path, name, monkeypatch):
    real = reference.answers_for

    def corrupted(*args, **kwargs):
        ans = real(*args, **kwargs)
        ans = dict(ans)
        if "determinant" in ans:
            ans["determinant"] += 1
        else:
            ans["orbit_size"] *= 2
        return ans

    monkeypatch.setattr(reference, "answers_for", corrupted)
    result, info = tiny_run(tmp_path, name)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert result["metrics"]["correct_ratio"]["value"] == 0.0
    assert result["metrics"]["jobs_per_s"]["value"] == 0.0
    assert info["plain"]["failed"][0]["error"]


def test_wrong_verify_names_are_a_failed_job(tmp_path, monkeypatch):
    monkeypatch.setattr(reference, "VERIFY_CHECKS", reference.VERIFY_CHECKS[1:] + ("extra",))
    result, _ = tiny_run(tmp_path, "verify-exhaustive")
    assert result["failed"] == 1


def test_nonzero_exit_is_a_failed_job():
    w = tiny("verify-exhaustive")
    assert reference.check_report(w, None, 1, "{}") == "exit code 1"
    assert reference.check_report(w, None, 0, "not json") is not None


# -- tracing ---------------------------------------------------------------


def _bindings():
    snap = {}
    for name, mod in sys.modules.items():
        if name == "signconj" or name.startswith("signconj."):
            for attr, value in vars(mod).items():
                snap[(name, attr)] = value
    matrix = signconj.core.Matrix
    for attr in ("__init__", "__matmul__"):
        snap[("Matrix", attr)] = vars(matrix)[attr]
    return snap


def test_tracer_rebinds_everywhere_and_restores_everything():
    before = _bindings()
    tracer = Tracer()
    with tracer:
        verification = sys.modules["signconj.verification"]
        blockform = sys.modules["signconj.blockform"]
        assert verification.sym_block_form is blockform.sym_block_form
        assert verification.sym_block_form is not before[("signconj.blockform", "sym_block_form")]
        assert signconj.cli.verify_matrix is not before[("signconj.verification", "verify_matrix")]
        assert vars(signconj.core.Matrix)["__init__"] is not before[("Matrix", "__init__")]
        assert {n.split(".", 1)[0] for n in tracer.names} == set(LAYERS)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_restores_bindings_when_a_job_raises():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            signconj.invariants.trace(signconj.Matrix([[1]])) / 0
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_per_layer_metric(tmp_path, name):
    result, info = tiny_run(tmp_path, name, trace=True)
    assert result["correct"], info
    assert result["attempted"] == 2
    assert [k for k in result["metrics"]] == [n for n, _ in run.PER_LAYER]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["cli.load_matrix.calls"] == 1
    assert values["cli.output_bytes"] > 0
    assert values["trace.job_s"] > 0 and values["trace.overhead_ratio"] > 0
    if name == "orbit-n12":
        assert values["orbit.conjugates_built"] >= 2 ** (5 - 3)
        assert 0 < values["orbit.distinct_per_built"] <= 1


def test_self_times_and_gap_account_for_the_job(tmp_path):
    workload = tiny("verify-exhaustive")
    workloads.write_inputs(workload, 1, tmp_path / "in", count=1)
    path = workloads.input_paths(tmp_path / "in")[0]
    tracer = Tracer()
    with tracer:
        code, _, _, seconds = worker.run_job(signconj.cli, workload.argv(str(path)))
        summary = tracer.summarize(seconds)
    assert code == 0
    layers = sum(summary[f"{layer}.self_s"] for layer in LAYERS)
    assert layers + summary["trace.gap_s"] == pytest.approx(seconds, rel=1e-9)
    assert summary["verification.verify_matrix.calls"] == 1
    assert summary["cli.main.calls"] == 1
    assert summary["core.matrix_init.calls"] > summary["core.matmul.calls"] > 0


# -- contract --------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_run_without_package_source_fails_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.rglob("*"):
        if path.is_file() and "__pycache__" not in path.parts:
            target = tmp_path / "bench" / path.relative_to(BENCH)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(path, target)
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-exhaustive", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
