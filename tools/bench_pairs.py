"""Paired benchmark runs of a parent commit and the working tree, as a BENCH file.

Run from anywhere inside a checkout:

    python3 tools/bench_pairs.py --parent HEAD --out BENCH_7.json \\
        --workload kernel_rank2=10 --workload image_filter=4

``--workload W=N`` runs seeds 1 to N of workload W.  For each seed, both
sides run ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` back to back, with T the ``run_seconds`` of BENCHMARK.json:
the parent first on odd seeds and the working tree first on even ones.
The parent's tree is exported with ``git archive`` under the git-ignored
``.perfbench/`` and removed at the end; an export registers nothing in
``.git``, so an interrupted run leaves only ignored files behind.

The BENCH file has the keys ``command``, ``design``, ``parent`` (the full
commit hash), ``summary`` and ``runs``.  ``runs`` keeps the ``record``
and result lines of every run.  ``summary`` gives, per workload and
end-to-end metric, each side's median and inclusive quartiles, the
number of pairs in which the working tree was better, and the change of
the median in percent.  The file is rewritten after every pair.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
DESIGN = "alternating pairs on one host; odd seeds run the parent first, even seeds the change first"


def git(*args) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export_tree(commit: str, dest: Path) -> None:
    """Write the files of ``commit`` to ``dest``, a fresh directory."""
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", "--format=tar", commit], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {commit} failed")


def run_once(root: Path, workload: str, seed: int, seconds) -> dict:
    """One benchmark run in ``root``: its record line and its result line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    lines = subprocess.run(argv, cwd=root, check=True, capture_output=True,
                           text=True).stdout.splitlines()
    record = next(line for line in lines if line.startswith("record "))
    return {"record": json.loads(record[len("record "):]), "result": json.loads(lines[-1])}


def quartiles(values) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs, metrics) -> dict:
    """Per workload: pair count, failures per side, and each metric's comparison."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs = [run for run in runs if run["workload"] == workload]
        entry = {
            "pairs": len(pairs),
            "failed": {side: sum(run[side]["result"]["failed"] for run in pairs) for side in SIDES},
        }
        for name, better in metrics:
            values = {
                side: [run[side]["result"]["metrics"][name]["value"] for run in pairs]
                for side in SIDES
            }
            sign = 1 if better == "higher" else -1
            stats = {side: quartiles(values[side]) for side in SIDES}
            parent_median = stats["parent"]["median"]
            entry[name] = {
                "better": better,
                **stats,
                "change_better_in": sum(
                    sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])
                ),
                "median_change_pct": 100 * (stats["change"]["median"] - parent_median)
                / parent_median,
            }
        summary[workload] = entry
    return summary


def workload_seeds(text: str):
    name, _, count = text.partition("=")
    if not name or not count.isdigit() or int(count) < 1:
        raise argparse.ArgumentTypeError(f"expected NAME=SEEDS, got {text!r}")
    return name, int(count)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare the working tree with")
    parser.add_argument("--out", required=True, type=Path, help="BENCH file to write")
    parser.add_argument("--workload", required=True, action="append", type=workload_seeds,
                        metavar="NAME=SEEDS", help="run seeds 1..SEEDS of workload NAME")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    metrics = [(m["name"], m["better"]) for m in benchmark["end_to_end"]]
    parent = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    parent_root = ROOT / ".perfbench" / f"parent-{parent[:12]}"
    roots = {"parent": parent_root, "change": ROOT}
    doc = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0",
        "design": DESIGN,
        "parent": parent,
        "summary": {},
        "runs": [],
    }
    export_tree(parent, parent_root)
    try:
        for workload, count in args.workload:
            for seed in range(1, count + 1):
                order = SIDES if seed % 2 else SIDES[::-1]
                pair = {side: run_once(roots[side], workload, seed, seconds) for side in order}
                doc["runs"].append({"workload": workload, "seed": seed, "first": order[0],
                                    **{side: pair[side] for side in SIDES}})
                doc["summary"] = summarize(doc["runs"], metrics)
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
                name = metrics[0][0]
                parent_value, change_value = (
                    pair[side]["result"]["metrics"][name]["value"] for side in SIDES
                )
                print(f"{workload} seed {seed}: {name} parent {parent_value:.3f} "
                      f"change {change_value:.3f}", flush=True)
    finally:
        shutil.rmtree(parent_root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
