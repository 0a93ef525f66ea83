"""Byte comparison of CLI job outputs between a parent commit and the working tree.

Run from anywhere inside a checkout:

    python3 tools/compare_outputs.py --parent HEAD --seeds 10

For each seed from 1 to ``--seeds``, every job shape of the workloads named
by ``--workload`` (by default all four: ``image_filter``, ``kernel_rank1``,
``kernel_rank2`` and ``selftest_laws``) is written once by
``perfbench/inputs.py``, which this script imports and does not change.
The job then runs as ``python -m bishift.cli ...`` against the ``src`` of
each side.  Exit code, stdout, stderr and the output file's bytes must be
equal on both sides; a job that writes no file (``selftest``) compares its
exit code, stdout and stderr, where it prints its first-failure lines and
its ``--trials 0`` warning.  Each ``kernel`` job runs a second time without
``--report``, which prints the dimension alone and reaches the paths that
compute only it: the rank-1 invariant factors, the GF(p) forward pass and
the certified rational basis.  The parent's tree is exported with ``git
archive`` under the git-ignored ``.perfbench/`` and removed at the end.

Prints one line per job and a summary line; exits 1 if any job differs.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tools"))

import inputs  # noqa: E402  (perfbench/inputs.py)
from bench_pairs import export_tree, git  # noqa: E402


def run_job(root: Path, job) -> tuple:
    """Exit code, stdout, stderr and output bytes of one CLI job on the sources under ``root``.

    The output bytes are None for a job that names no output file or did not
    write it.
    """
    output = job.output
    if output is not None and output.exists():
        output.unlink()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "bishift.cli", *job.argv], env=env, cwd=root,
        capture_output=True, timeout=600,
    )
    report = output.read_bytes() if output is not None and output.exists() else None
    return result.returncode, result.stdout, result.stderr, report


def runs(job):
    """The job, and for a ``kernel`` job the same run without ``--report``, with its label."""
    yield "", job
    if job.kind == "kernel":
        i = job.argv.index("--report")
        argv = job.argv[:i] + job.argv[i + 2:]
        yield " without --report", dataclasses.replace(job, argv=argv, output=None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare the working tree with")
    parser.add_argument("--seeds", type=int, default=10, help="run seeds 1..SEEDS")
    parser.add_argument("--workload", action="append", choices=sorted(inputs.WORKLOADS),
                        help="workload to compare (repeatable; default all)")
    args = parser.parse_args(argv)
    workloads = args.workload or sorted(inputs.WORKLOADS)

    parent = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    parent_root = ROOT / ".perfbench" / f"compare-{parent[:12]}"
    roots = {"parent": parent_root, "change": ROOT}
    export_tree(parent, parent_root)
    differing = jobs = 0
    try:
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as work:
            for name in workloads:
                workload = inputs.WORKLOADS[name]
                for seed in range(1, args.seeds + 1):
                    for index in range(len(workload.shapes)):
                        job = inputs.make_job(workload, seed, index, Path(work))
                        for label, run in runs(job):
                            outcomes = {side: run_job(root, run) for side, root in roots.items()}
                            same = outcomes["parent"] == outcomes["change"]
                            code, stdout, stderr, report = outcomes["change"]
                            jobs += 1
                            differing += not same
                            print(f"{name} seed {seed} job {index}{label}: "
                                  f"{'identical' if same else 'DIFFERENT'} (exit {code}, "
                                  f"stdout {len(stdout)} B, stderr {len(stderr)} B, output "
                                  f"{'none' if report is None else f'{len(report)} B'})",
                                  flush=True)
    finally:
        shutil.rmtree(parent_root, ignore_errors=True)
    print(f"{jobs - differing} of {jobs} jobs identical to {parent[:12]}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
