"""Quick self-check of the benchmark itself (about a minute).

    python3 perfbench/selfcheck.py

For every workload it runs the closed loop and the traced run once at a tiny
size and asserts that the result line has exactly the metric names and units
that BENCHMARK.json lists, and that every metric is also printed for people.
Then it corrupts each job's output as the child exits and asserts that the
loop counts every such job as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import run
from inputs import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_run(workload: str, trace: int):
    args = run.parse_args(
        ["--workload", workload, "--seed", "7", "--seconds", "0.01", "--trace", str(trace)]
    )
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.emit(args, *run.run(args, tiny=True))
    lines = out.getvalue().splitlines()
    return lines[:-1], json.loads(lines[-1])


def corrupt(argv, outcome):
    """Damage the output the way a wrong program would."""
    if "--output" in argv:  # PGM: move the last pixel by 64 gray levels
        path = Path(argv[argv.index("--output") + 1])
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x40
        path.write_bytes(bytes(data))
    elif "--report" in argv:  # drop a basis row but keep the report consistent
        path = Path(argv[argv.index("--report") + 1])
        doc = json.loads(path.read_text())
        doc["basis"].pop()
        doc["dimension"] -= 1
        path.write_text(json.dumps(doc))
    elif argv[0] == "selftest":
        outcome.stdout = outcome.stdout.replace("failures=0", "failures=1", 1)
    return outcome


def check_metrics(workload, trace, section):
    report, result = tiny_run(workload, trace)
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, report
    assert got == want, (workload, trace, got)
    text = "\n".join(report)
    missing = [name for name in want if name not in text]
    assert not missing, (workload, trace, missing)


def check_corruption(workload):
    real_spawn = run.spawn

    def spawn_and_corrupt(argv, out_dir):
        outcome = real_spawn(argv, out_dir)
        return outcome if argv == ["--help"] else corrupt(argv, outcome)

    run.spawn = spawn_and_corrupt
    try:
        _, result = tiny_run(workload, 0)
    finally:
        run.spawn = real_spawn
    jobs = result["attempted"] // 2  # every job is followed by one `--help` start
    assert not result["correct"] and result["failed"] == jobs >= 1, (workload, result)


def main() -> int:
    for workload in WORKLOADS:
        check_metrics(workload, 0, "end_to_end")
        check_metrics(workload, 1, "per_layer")
        check_corruption(workload)
        print(f"{workload}: metric names and units match, corrupted outputs fail")
    return 0


if __name__ == "__main__":
    sys.exit(main())
