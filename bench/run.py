"""signconj benchmark: four CLI workloads, exact output checks, traced layers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark builds its inputs from
the seed, then runs workers (worker.py), each a fresh process:

* set-up, seven times, each into a fresh directory: import the package
  from src/ and write the inputs; `setup_s` is the median;
* with --trace 0, one pass of S seconds with tracing off, giving
  `job_p50_s` (median over the pass's jobs), `jobs_per_s` (correct jobs
  per second spent in jobs), `peak_rss_mib` and `correct_ratio`;
* with --trace 1, an untraced pass and a traced pass of S/2 seconds
  each; the traced pass gives the per-layer numbers as per-job means and
  `trace.overhead_ratio` compares the two passes' median job times.

Times in the end-to-end metrics are wall times expressed at a reference
machine speed: each is multiplied by (REFERENCE_PROBE_S / p) ** 0.8,
where p is the time the worker's speed probe took around it (see
worker.probe).  On a machine running at the reference speed they are
plain wall seconds; the raw wall times and probe times are printed on
the "run" line.  Per-layer seconds are raw wall seconds.

Every job's report is checked, untimed, against answers the package did
not produce (reference.py).  Information lines go to stdout first; the
last line is the result object.  Scratch files go to .bench_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

SETUP_REPEATS = 7
# Time of worker.probe() at the reference machine speed (the fast state of
# a 2-vCPU Intel Xeon virtual machine under Python 3.11).
REFERENCE_PROBE_S = 0.0065
# The probe slows down more than the package's jobs when the machine is
# contended: regressing log job time on log probe time over ~400 jobs of
# the four workloads gave slopes of 0.5 to 0.8, and 0.8 gave the smallest
# run-to-run spread of the medians.
PROBE_EXPONENT = 0.8
DEADLINE_S = 170  # for the whole run, which must end within three minutes

END_TO_END = {
    "job_p50_s": "s",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "correct_ratio": "ratio",
}

# Per-layer metrics: (name, unit).  Per-job means from the traced pass.
_FUNCTIONS = (
    "core.matmul", "core.conjugate_by_signature", "core.sign_conjugate",
    "blockform.sym_block_form", "blockform.antisym_block_form",
    "invariants.perm_poly", "invariants.sum_principal_permanents",
    "invariants.sum_principal_minors", "invariants.permanent", "invariants.determinant",
    "invariants.rank", "invariants.char_poly",
    "orbit.orbit_size", "orbit.stabilizer_elements",
    "cli.load_matrix", "group.compose",
)
PER_LAYER = (
    [(f"{f}.calls", "count") for f in _FUNCTIONS]
    + [(f"{f}.s", "s") for f in _FUNCTIONS]
    + [("core.matrix_init.calls", "count"), ("core.as_scalar.calls", "count")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(f"{layer}.calls", "count") for layer in LAYERS]
    + [
        ("orbit.conjugates_built", "count"),
        ("orbit.distinct_per_built", "ratio"),
        ("cli.output_bytes", "B"),
        ("trace.job_s", "s"),
        ("trace.gap_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
    }


def run_worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} failed ({proc.returncode}):\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Checker:
    """Checks each job's report, with reference answers cached per input."""

    def __init__(self, workload: workloads.Workload, inputs: Path):
        self.workload = workload
        self.inputs = inputs
        self.metas = json.loads((inputs / "meta.json").read_text())
        self.pool = reference.PermanentPool() if workload.inputs == "pool" else None
        self.answers: dict[str, object] = {}

    def check(self, job: dict, output: Path) -> str | None:
        name = job["input"]
        if name not in self.answers:
            document = json.loads((self.inputs / name).read_text())
            meta = self.metas[int(name[len("job-"):-len(".json")])]
            self.answers[name] = reference.answers_for(self.workload, document, meta, self.pool)
        return reference.check_report(self.workload, self.answers[name], job["exit"],
                                      output.read_text())


def measure(workload_name: str, seed: int, seconds: float, trace: bool, work: Path,
            deadline: float) -> tuple[dict, dict]:
    """Run set-up and the passes in workers; return (result object, information)."""
    inputs = work / "inputs"
    setup_args = ["setup", "--workload", workload_name, "--seed", str(seed), "--inputs", str(inputs)]
    setups = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)  # files written afresh each time
        setups.append(run_worker(setup_args, deadline))

    def run_pass(name: str, pass_seconds: float, traced: bool) -> dict:
        args = ["measure", "--workload", workload_name, "--inputs", str(inputs),
                "--outputs", str(work / name), "--seconds", repr(pass_seconds)]
        return run_worker(args + (["--trace"] if traced else []), deadline)

    passes = {"plain": run_pass("plain", seconds / 2 if trace else seconds, False)}
    if trace:
        passes["traced"] = run_pass("traced", seconds / 2, True)
    return evaluate(workloads.WORKLOADS[workload_name], work, passes, setups)


def at_reference_speed(record: dict, key: str = "seconds") -> float:
    return record[key] * (REFERENCE_PROBE_S / record["probe_s"]) ** PROBE_EXPONENT


def evaluate(workload: workloads.Workload, work: Path, passes: dict, setups: list[dict]):
    """Check every job of every pass and compute the metrics: the
    end-to-end ones, or the per-layer ones when there is a traced pass."""
    checker = Checker(workload, work / "inputs")
    attempted = failed = 0
    info: dict = {"setup_s": [s["setup_s"] for s in setups],
                  "setup_probe_s": [s["probe_s"] for s in setups]}
    for name, result in passes.items():
        for index, job in enumerate(result["jobs"]):
            output = work / name / f"job-{index:04d}.out"
            job["error"] = checker.check(job, output)
            attempted += 1
            if job["error"] is None:
                output.unlink()  # keep only the reports that failed
            else:
                failed += 1
        info[name] = {
            "jobs": len(result["jobs"]),
            "failed": [job for job in result["jobs"] if job["error"]],
            "job_s": [job["seconds"] for job in result["jobs"]],
            "probe_s": [job["probe_s"] for job in result["jobs"]],
        }

    plain = [at_reference_speed(job) for job in passes["plain"]["jobs"]]
    if "traced" in passes:
        traced = [at_reference_speed(job) for job in passes["traced"]["jobs"]]
        metrics = per_layer(passes["traced"], statistics.median(traced) / statistics.median(plain))
        job_s = metrics["trace.job_s"]["value"]
        info["self_s_share"] = {
            layer: metrics[f"{layer}.self_s"]["value"] / job_s for layer in LAYERS
        }
    else:
        ok = sum(job["error"] is None for job in passes["plain"]["jobs"])
        values = {
            "job_p50_s": statistics.median(plain),
            "jobs_per_s": ok / sum(plain),
            "setup_s": statistics.median(at_reference_speed(s, "setup_s") for s in setups),
            "peak_rss_mib": passes["plain"]["peak_rss_mib"],
            "correct_ratio": ok / len(plain),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, info


def per_layer(traced: dict, overhead_ratio: float) -> dict:
    """Per-job means of the traced pass's numbers, plus the ratios."""
    summaries = traced["traces"]
    jobs = len(summaries)

    def mean(key: str) -> float:
        # a function the package no longer has counts as never called
        return sum(s.get(key, 0) for s in summaries) / jobs

    values = {name: mean(name) for name, _ in PER_LAYER}
    built = mean("orbit.conjugates_built")
    values["orbit.distinct_per_built"] = mean("orbit.distinct") / built if built else 0.0
    values["cli.output_bytes"] = sum(job["bytes"] for job in traced["jobs"]) / jobs
    values["trace.overhead_ratio"] = overhead_ratio
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="signconj benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "signconj" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    print(json.dumps({"environment": environment(args.seed)}))
    try:
        result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                               work, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"run": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
