"""The benchmark runs end to end against the package: every workload, with
its untraced and traced rounds, reads correct and fails no operation, and
every per-layer metric that measures work on its path reads non-zero.

``bench/test_checks.py`` tests the benchmark's checks; this runs its call
sites, so a signature change that breaks one fails here. The tracer finds
a function by the module names it is bound to, so a kernel moved to
another module can leave its metric reading 0 without an error; the
pinned non-zero metrics catch that. The results go to ``bench/out/``.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# per-layer metrics that read non-zero on every workload that runs the model
FORWARD = (
    "mixer.spatial_fwd_ms", "mixer.spatial_fwd_mults", "griddata.patchify_ms",
    "mixer.frames_embedded", "mixer.frames_distinct_ratio", "mixer.trend_fwd_ms",
    "mixer.period_fwd_ms", "mixer.closeness_fwd_ms", "mixer.temporal_fwd_mults",
    "tensor.matmul_ms", "tensor.matmul_mults", "tensor.layernorm_fwd_ms",
    "mixer.fusion_head_fwd_ms", "mixer.head_mults", "training.gather_ms",
)
TRAIN = FORWARD + (
    "mixer.spatial_bwd_ms", "mixer.spatial_bwd_mults", "mixer.trend_bwd_ms",
    "mixer.period_bwd_ms", "mixer.closeness_bwd_ms", "mixer.temporal_bwd_mults",
    "tensor.layernorm_bwd_ms", "tensor.gelu_grad_ms", "mixer.fusion_head_bwd_ms",
    "mixer.cache_bytes", "training.step_ms", "training.loss_ms", "training.adam_ms",
    "training.validation_ms", "checkpoint.save_ms", "checkpoint.bytes",
)
# a metric outside this set may read non-zero too, once the tracer sees its function
NON_ZERO = {
    "train-ref": TRAIN,
    "train-taxibj": TRAIN,
    "forecast-taxibj": FORWARD + (
        "checkpoint.load_ms", "griddata.apply_norm_ms", "mixer.model_forward_ms",
        "cli.predict_self_ms", "evaluation.forward_ms_per_window", "evaluation.report_ms",
        "ingestion.write_ms",
    ),
    "ingest-trips": (
        "ingestion.read_ms", "ingestion.parse_us_per_row", "ingestion.aggregate_us_per_row",
        "ingestion.write_ms",
    ),
}


def metric_values(stdout: str) -> dict[tuple[str, str], float]:
    """``(workload, metric) -> value`` from the lines each verdict line heads."""
    values, workload = {}, None
    for line in stdout.splitlines():
        if verdict := re.match(r"^([\w-]+): correct=", line):
            workload = verdict.group(1)
        elif (metric := re.match(r"^  (\S+) +(\S+) \S+$", line)) and workload:
            values[workload, metric.group(1)] = float(metric.group(2))
    return values


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
    values = metric_values(proc.stdout)
    zero = [(name, m) for name, metrics in NON_ZERO.items() for m in metrics
            if values.get((name, m), 0.0) == 0.0]
    assert zero == []
