"""Benchmark of the bishift CLI: seeded workloads, checked outputs, traced layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kernel_rank1 --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the closed loop: one client runs one CLI job at a time as
a fresh child process (``python -m bishift.cli ...``) until the jobs have
taken ``--seconds`` of wall time, checks every output outside the timed
region, and reports the end-to-end metrics.  ``--trace 1`` runs one round of
the workload's job shapes three ways (child process, untraced in process,
traced in process) and reports per-layer span totals and counts.  The last
line of stdout is the result object; the lines before it are for people,
plus one ``record`` line with the environment, seed and input sizes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks
import inputs
import reference
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"  # git-ignored; job files live here while a run lasts
JOB_TIMEOUT_S = 60
MB = 1024  # ru_maxrss is in KiB on Linux

SUITE_NAMES = ("adjoint", "module_action", "extraction", "bilinearity", "support_bound")
SPAN_METRICS = (
    "operators.shift_finite", "operators.shift_periodic", "operators.scalar_product",
    "io.read_pgm", "io.write_pgm", "io.read_system", "io.write_kernel_report",
    "parsing.parse_poly", "sequences.build",
    "systems.build_matrix", "systems.eliminate", "systems.normalize", "systems.solve",
    "laurent.mul", *(f"selftest.{s}" for s in SUITE_NAMES),
)
COUNT_METRICS = (
    "operators.term_products", "io.bytes_in", "io.bytes_out", "sequences.terms",
    "systems.matrix_cells", "systems.matrix_nnz", "systems.pivots", "systems.dimension",
    "laurent.term_pairs", "trace.spans",
)
PER_LAYER_UNITS = {
    **{f"{name}.s": "s" for name in SPAN_METRICS},
    **{name: "B" if name.startswith("io.bytes") else "count" for name in COUNT_METRICS},
    "fields.add_ns": "ns", "fields.mul_ns": "ns", "cli.self.s": "s", "trace.overhead": "ratio",
}


# ------------------------------------------------------------ child jobs


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout


@dataclass
class Outcome:
    returncode: int
    wall_s: float
    cpu_s: float  # user + system time of the child and all its threads
    rss_mb: float
    stdout: str
    stderr: str


def spawn(argv, out_dir: Path) -> Outcome:
    """Run ``python -m bishift.cli argv`` and reap it with its own rusage.

    ``os.wait4`` on the child's pid gives that child's peak RSS; the
    ``RUSAGE_CHILDREN`` maximum would carry an earlier, larger job forward.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(out_dir / "stdout", "w+") as out, open(out_dir / "stderr", "w+") as err:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "bishift.cli", *argv],
            stdout=out, stderr=err, stdin=subprocess.DEVNULL, cwd=ROOT, env=env,
        )
        signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except JobTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # SIGTERM or Ctrl-C: leave no child behind
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        cpu = usage.ru_utime + usage.ru_stime
        return Outcome(proc.returncode, wall, cpu, usage.ru_maxrss / MB, out.read(), err.read())


def check(job: inputs.Job, returncode: int, stdout: str) -> str | None:
    """Why the job's output is wrong, or None."""
    if returncode != 0:
        return f"exit code {returncode}"
    if job.kind == "filter":
        return checks.check_pgm(job.output, job.expect["grays"], job.expect["kernel"])
    if job.kind == "kernel":
        problem = checks.check_kernel_report(job.output, job.expect)
        if problem:
            return problem
        dimension = json.loads(job.output.read_text())["dimension"]
        if stdout != f"dimension: {dimension}\n":
            return f"stdout {stdout!r} does not state dimension {dimension}"
        return None
    return checks.check_selftest(stdout, job.expect, inputs.SUITES)


# --------------------------------------------------------------- records


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "git": git_revision(),
    }


def emit(args, report_lines, record, metrics, attempted, failed):
    for line in report_lines:
        print(line)
    print("record " + json.dumps({"workload": args.workload, "seed": args.seed,
                                  "trace": args.trace, "env": environment(), **record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def metric(value, unit):
    return {"value": value, "unit": unit}


# ------------------------------------------------------------ closed loop


def measure(workload: inputs.Workload, seed: int, seconds: float, work_dir: Path, tiny=False):
    spawn(["--help"], work_dir)  # fills the bytecode cache, which users pay only once
    walls, cpus, setup, setup_walls, rss, sizes, problems = [], [], [], [], [], [], []
    work = 0
    index = 0
    round_start = 0.0
    shapes = len(workload.tiny if tiny else workload.shapes)
    # Whole rounds only, so every run holds each job shape equally often.  A
    # set-up sample and a reference sample follow every job, so all three
    # spread over the whole run.  The run's length is wall time; the job
    # times are the children's CPU time over the reference's (README.md).
    loop_start = time.perf_counter()
    refs = [reference.cpu_seconds()]
    while True:
        job = inputs.make_job(workload, seed, index, work_dir, tiny)
        outcome = spawn(job.argv, work_dir)
        walls.append(outcome.wall_s)
        cpus.append(outcome.cpu_s)
        rss.append(outcome.rss_mb)
        work += job.work
        sizes.append(job.sizes)
        problem = check(job, outcome.returncode, outcome.stdout)
        if problem:
            problems.append(f"job {index}: {problem} {outcome.stderr.strip()[-200:]}")
        start_only = spawn(["--help"], work_dir)
        setup.append(start_only.cpu_s)
        setup_walls.append(start_only.wall_s)
        if start_only.returncode != 0:
            problems.append(f"--help after job {index}: exit code {start_only.returncode}")
        refs.append(reference.cpu_seconds())
        elapsed = time.perf_counter() - loop_start
        index += 1
        if index % shapes == 0:
            round_s, round_start = elapsed - round_start, elapsed
            if elapsed + round_s / 2 >= seconds:  # the round end nearest to `seconds`
                break
    failed = len(problems)
    attempted = len(setup) + len(walls)
    scale = reference.NOMINAL_S / statistics.fmean(refs)
    metrics = {
        "job_cpu_s": metric(statistics.fmean(cpus) * scale, "s"),
        "work_per_cpu_s": metric(work / (sum(cpus) * scale), "units/s"),
        "peak_rss_mb": metric(max(rss), "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    lines = [f"workload {workload.name}  seed {seed}  jobs {len(walls)}  "
             f"(closed loop, 1 client, no threads)"]
    samples = {"job_cpu_s": len(cpus), "work_per_cpu_s": len(cpus), "peak_rss_mb": len(rss),
               "setup_s": len(setup)}
    for name, m in metrics.items():
        lines.append(f"  {name:<16} {m['value']:>14.6g} {m['unit']:<8} n={samples[name]}")
    lines.append("  not gated, for reference:")
    for name, value, n in (
        ("job cpu mean", statistics.fmean(cpus), len(cpus)),
        ("job wall mean", statistics.fmean(walls), len(walls)),
        ("job wall median", statistics.median(walls), len(walls)),
        ("setup wall", statistics.median(setup_walls), len(setup_walls)),
        ("reference cpu", statistics.fmean(refs), len(refs)),
    ):
        lines.append(f"  {name:<16} {value:>14.6g} {'s':<8} n={n}")
    lines.append(f"  {'fail_ratio':<16} {failed / attempted:>14.6g} {'ratio':<8} "
                 f"({failed} of {attempted})")
    lines.extend(f"  FAIL {p}" for p in problems)
    record = {"jobs": sizes, "job_cpu_s_all": cpus, "job_wall_s_all": walls,
              "setup_cpu_s_all": setup, "setup_wall_s_all": setup_walls,
              "reference_cpu_s_all": refs,
              "fail_ratio": failed / attempted, "problems": problems}
    return lines, record, metrics, attempted, failed


# ------------------------------------------------------------ traced run


def run_in_process(argv):
    import bishift.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bishift.cli.main(list(argv))
    return code, out.getvalue()


def field_op_ns(specs, reps=5, rounds=20):
    """Median time per boxed ``add`` and ``mul``, averaged over the fields."""
    from bishift.fields import parse_field_spec

    rng = random.Random(0)
    add_ns, mul_ns = [], []
    for spec in specs:
        f = parse_field_spec(spec)
        draw = (lambda: f.value(Fraction(rng.randint(1, 50), rng.randint(1, 9)))) \
            if spec == "rational" else (lambda: f.value(rng.randint(1, 50)))
        vals = [draw() for _ in range(1000)]
        pairs = list(zip(vals, vals[1:] + vals[:1]))
        for op, out in ((f.add, add_ns), (f.mul, mul_ns)):
            times = []
            for _ in range(reps):
                start = time.perf_counter()
                for _ in range(rounds):
                    for a, b in pairs:
                        op(a, b)
                times.append((time.perf_counter() - start) / (rounds * len(pairs)))
            out.append(statistics.median(times) * 1e9)
    return statistics.fmean(add_ns), statistics.fmean(mul_ns)


def kernel_sizes(job: inputs.Job) -> dict:
    """Matrix sizes from the generated system and the checked report."""
    matrix = checks.constraint_matrix(job.expect["entries"], job.expect["periods"])
    p = inputs.field_modulus(job.expect["field"])
    dimension = json.loads(job.output.read_text())["dimension"]
    width = len(matrix[0])
    return {
        "systems.matrix_cells": len(matrix) * width,
        "systems.matrix_nnz": sum(1 for row in matrix for v in row if (v % p if p else v)),
        "systems.pivots": width - dimension,
        "systems.dimension": dimension,
    }


def traced(workload: inputs.Workload, seed: int, work_dir: Path, tiny=False):
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bishift.cli  # noqa: F401  (import cost stays out of every timed call)

    shapes = workload.tiny if tiny else workload.shapes
    jobs = [inputs.make_job(workload, seed, i, work_dir, tiny) for i in range(len(shapes))]
    tracer = Tracer()
    counts = dict.fromkeys(COUNT_METRICS, 0)
    problems = []
    child_s, plain_s, traced_s = [], [], []
    for job in jobs:
        outcome = spawn(job.argv, work_dir)
        child_s.append(outcome.wall_s)
        results = [("child", check(job, outcome.returncode, outcome.stdout))]
        start = time.perf_counter()
        code, stdout = run_in_process(job.argv)
        plain_s.append(time.perf_counter() - start)
        results.append(("in process", check(job, code, stdout)))
        tracer.install()
        try:
            start = time.perf_counter()
            code, stdout = tracer.job(job.index, run_in_process, job.argv)
            traced_s.append(time.perf_counter() - start)
        finally:
            tracer.uninstall()
        results.append(("traced", check(job, code, stdout)))
        problems.extend(f"job {job.index} ({how}): {p}" for how, p in results if p)
        if any(p for _, p in results):
            continue
        if job.source:
            counts["io.bytes_in"] += job.source.stat().st_size
            counts["io.bytes_out"] += job.output.stat().st_size
        if job.kind == "kernel":
            for name, value in kernel_sizes(job).items():
                counts[name] += value
    totals, top = tracer.totals()
    counts.update({k: v for k, v in tracer.counts.items() if k in counts})
    counts["trace.spans"] = len(tracer.spans)
    add_ns, mul_ns = field_op_ns(sorted({job.sizes["field"] for job in jobs}))
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if unit == "s" and name[:-2] in SPAN_METRICS:
            metrics[name] = metric(totals.get(name[:-2], 0.0), unit)
        elif name in counts:
            metrics[name] = metric(counts[name], unit)
    metrics["fields.add_ns"] = metric(add_ns, "ns")
    metrics["fields.mul_ns"] = metric(mul_ns, "ns")
    # start-up outside main(), plus time inside main() that no layer span covers
    startup = sum(child_s) - sum(plain_s)
    metrics["cli.self.s"] = metric(startup + sum(traced_s) - top, "s")
    metrics["trace.overhead"] = metric(sum(traced_s) / sum(plain_s) - 1.0, "ratio")
    metrics = {name: metrics[name] for name in PER_LAYER_UNITS}

    SCRATCH.mkdir(exist_ok=True)
    tracer.write(SCRATCH / f"spans-{workload.name}.jsonl")
    lines = [f"workload {workload.name}  seed {seed}  traced jobs {len(jobs)} "
             f"(each run as a child, untraced in process, traced in process)"]
    for name, m in metrics.items():
        lines.append(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    lines.append(f"  tracing overhead: traced {sum(traced_s):.4f} s vs untraced "
                 f"{sum(plain_s):.4f} s in process")
    lines.extend(f"  FAIL {p}" for p in problems)
    attempted = 3 * len(jobs)
    record = {"jobs": [job.sizes for job in jobs], "child_s": child_s,
              "untraced_s": plain_s, "traced_s": traced_s,
              "spans_file": str((SCRATCH / f"spans-{workload.name}.jsonl").relative_to(ROOT)),
              "problems": problems}
    return lines, record, metrics, attempted, len(problems)


# ------------------------------------------------------------------ main


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args, tiny=False):
    """Measure one workload; returns the report lines, record, metrics and tallies."""
    workload = inputs.WORKLOADS[args.workload]
    SCRATCH.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        if args.trace:
            return traced(workload, args.seed, work_dir, tiny)
        return measure(workload, args.seed, args.seconds, work_dir, tiny)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _on_term(signum, frame):
    sys.exit(128 + signum)  # unwinds through spawn(), which kills its child


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _on_term)
    args = parse_args(argv)
    if not (SRC / "bishift" / "cli.py").is_file():
        print(f"error: no bishift sources under {SRC}", file=sys.stderr)
        return 2
    emit(args, *run(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
