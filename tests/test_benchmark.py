"""The benchmark runs end to end against the package: every workload, with
its untraced and traced rounds, reads correct and fails no operation.

``bench/test_checks.py`` tests the benchmark's checks; this runs its call
sites, so a signature change that breaks one fails here. The results go to
``bench/out/``.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_workload_runs_once_traced_and_untraced():
    argv = [sys.executable, str(ROOT / "bench" / "run.py"),
            "--workload", "all", "--seed", "1", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    verdicts = re.findall(r"^([\w-]+): correct=(\w+) attempted=(\d+) failed=(\d+)$",
                          proc.stdout, flags=re.MULTILINE)
    assert [(name, ok, failed) for name, ok, _, failed in verdicts] == [
        (name, "True", "0")
        for name in ("train-ref", "train-taxibj", "forecast-taxibj", "ingest-trips")
    ]
