"""Run every workload on several seeds and write the baseline file.

    python3 perfbench/baseline.py --seeds 1,2,3,4,5,6,7,8,9,10

Each (workload, seed) pair runs ``run.py`` as its own process, with the
command line BENCHMARK.json describes and its ``run_seconds``; then one traced run per
workload (first seed).  For every end-to-end metric it records the values,
median, quartiles and spread ((q3 - q1) / median, quartiles as
``statistics.quantiles(values, n=4)`` gives them) and prints the spread next
to the metric's bound.  The result goes to ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{out.stderr}")
    record = next(json.loads(line[7:]) for line in lines if line.startswith("record "))
    return json.loads(lines[-1]), record


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    doc = {"run_seconds": SPEC["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        values = {name: [] for name in bounds}
        correct = True
        for seed in seeds:
            result, record = run_once(workload, seed, 0)
            correct &= result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()), flush=True)
        traced, traced_record = run_once(workload, seeds[0], 1)
        doc["env"] = record["env"]
        entry = {"correct": correct and traced["correct"],
                 "end_to_end": {name: summary(v) for name, v in values.items()},
                 "per_layer": {n: m["value"] for n, m in traced["metrics"].items()},
                 "inputs": traced_record["jobs"]}
        doc["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            flag = "ok" if s["spread"] < bounds[name] / 3 else (
                "within bound" if s["spread"] <= bounds[name] else "OVER BOUND")
            print(f"  {workload} {name}: median {s['median']:.5g}  spread {s['spread']:.3f}"
                  f"  bound {bounds[name]}  {flag}", flush=True)
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
