"""The benchmark runs against the library as it stands.

bench/ calls public functions and reads public fields only; removing or
renaming one of those breaks the benchmark, not any other test. This runs
every workload at the tiny scale, where it finishes in seconds, and
checks that it completes with every output verified.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_tiny_scale_is_correct():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--scale", "tiny",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
