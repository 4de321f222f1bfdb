"""Smoke test of the benchmark itself, in well under a minute.

    python3 bench/smoke.py

1. Every workload at ``--scale tiny``, untraced and traced: exit code 0,
   ``correct`` true, and every metric named in BENCHMARK.json printed in
   the result with its unit.
2. Verification fires: with a copy of the stored digests in which one
   planner digest and every path digest are wrong, both plaza workloads
   must report failed operations and ``correct`` false.
3. In a directory holding only BENCHMARK.json and bench/, the benchmark
   must exit non-zero without printing a result.

Writes only under bench/out/. Exits 0 when every check holds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("plaza_ingest", "plaza_queries", "multistory_churn")


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(workload, trace, "--scale", "tiny")
            tag = f"{workload} trace={trace}"
            if code != 0 or result is None:
                problems.append(f"{tag}: exit {code}, no result")
                continue
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: {result['failed']} failed operations")
            for m in spec[section]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{tag}: metric {m['name']} missing or not in {m['unit']}")
            print(f"ok  {tag}: {result['attempted']} operations verified")

    OUT.mkdir(exist_ok=True)
    wrong = json.loads((HERE / "digests.json").read_text())
    table = wrong["table1_fixture@0.2"]
    table["distances"] = "0" * 64
    table["paths"] = {k: "f" * 64 for k in table["paths"]}
    wrong_path = OUT / "wrong-digests.json"
    wrong_path.write_text(json.dumps(wrong))
    for workload in ("plaza_ingest", "plaza_queries"):
        code, result = run(workload, 0, "--scale", "tiny", "--digests", str(wrong_path))
        if code != 0 or result is None or result["correct"] or not result["failed"]:
            problems.append(f"{workload}: wrong digests were not reported as failures")
        else:
            print(f"ok  {workload}: wrong digests -> {result['failed']} failed operations")
    wrong_path.unlink()

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result = run("plaza_queries", 0, cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or result is not None:
        problems.append(f"bare directory: exit {code}, result {result}")
    else:
        print(f"ok  bare directory: exit {code}, no result")

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
