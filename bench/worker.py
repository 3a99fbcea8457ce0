"""One benchmark process: set-up, or one measured pass over a workload.

    worker.py setup   --workload W --seed S --inputs DIR
    worker.py measure --workload W --inputs DIR --outputs DIR --seconds T [--trace]

Both import the package from the checkout's src/, never from an
installed copy.  `setup` times the import plus generating and writing the
inputs.  `measure` runs jobs through `signconj.cli.main(argv)` in this
process, one at a time, until T seconds have passed: a closed loop with
one client.  Each job's stdout goes to DIR/job-NNNN.out for the checker.
The last line on stdout is a JSON summary; in a plain pass it carries the
process's peak resident memory, which is why every pass is a fresh
process that imports nothing heavy.

Around every timed section the worker also times `probe()`, a fixed
loop of exact arithmetic that does not touch the package.  Shared
virtual machines swing between speeds that differ by up to 2x for
seconds to minutes at a time; the probe records the speed the machine
had, and run.py uses it to express times in seconds at one reference
speed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

PROBE_REPEATS = 3


def probe() -> float:
    """Best of three timings of a fixed ~6 ms loop of Fraction sums."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 3000):
            total += Fraction(i % 7 + 1, i % 9 + 1)
        best = min(best, time.perf_counter() - start)
    return best


def import_package():
    if not (SRC / "signconj" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'signconj'}")
    sys.path.insert(0, str(SRC))
    import signconj
    import signconj.cli

    if Path(signconj.__file__).resolve().parent != SRC / "signconj":
        raise SystemExit(f"error: imported signconj from {signconj.__file__}, not {SRC}")
    return signconj


def cmd_setup(args) -> dict:
    before = probe()
    start = time.perf_counter()
    import_package()
    workloads.write_inputs(workloads.WORKLOADS[args.workload], args.seed, Path(args.inputs))
    seconds = time.perf_counter() - start
    return {"setup_s": seconds, "probe_s": (before + probe()) / 2}


def run_job(cli, argv: list[str]) -> tuple[object, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a traceback is a failed job, not a crashed benchmark
        code = "exception"
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def cmd_measure(args) -> dict:
    signconj = import_package()
    return measure_pass(signconj.cli, workloads.WORKLOADS[args.workload], Path(args.inputs),
                        Path(args.outputs), args.seconds, args.trace)


def measure_pass(cli, workload: workloads.Workload, inputs: Path, outputs: Path,
                 seconds: float, trace: bool) -> dict:
    """Closed loop over the inputs, in order, until `seconds` have passed.

    Each job records its wall time and the mean of the probes taken just
    before and just after it."""
    paths = workloads.input_paths(inputs)
    outputs.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    jobs, traces = [], []
    with contextlib.ExitStack() as stack:
        if tracer:
            stack.enter_context(tracer)
            spans_file = stack.enter_context((outputs / "spans.jsonl").open("w"))
        start = time.perf_counter()
        before = probe()
        while True:
            index = len(jobs)
            path = paths[index % len(paths)]
            if tracer:
                tracer.reset()
            code, out, err, job_s = run_job(cli, workload.argv(_display_path(path)))
            after = probe()
            if tracer:
                traces.append(tracer.summarize(job_s))
                spans_file.write(json.dumps({"job": index, "names": tracer.names,
                                             "spans": tracer.spans}) + "\n")
            (outputs / f"job-{index:04d}.out").write_text(out)
            if err:
                (outputs / f"job-{index:04d}.err").write_text(err)
            jobs.append({"input": path.name, "seconds": job_s, "probe_s": (before + after) / 2,
                         "exit": code, "bytes": len(out.encode())})
            before = after
            if time.perf_counter() - start >= seconds:
                break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"jobs": jobs, "peak_rss_mib": peak_kib / 1024, "traces": traces}


def _display_path(path: Path) -> str:
    """The path as the job passes it: relative to the checkout when inside
    it, so reports do not depend on where the checkout lives."""
    try:
        return str(path.resolve().relative_to(ROOT))
    except ValueError:
        return str(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--inputs", required=True)
    p.set_defaults(func=cmd_setup)
    p = sub.add_parser("measure")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--inputs", required=True)
    p.add_argument("--outputs", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_measure)
    args = parser.parse_args(argv)
    print(json.dumps(args.func(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
