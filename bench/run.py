"""Run one benchmark workload, or all four, and print its metrics.

    python3 bench/run.py --workload train-ref --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 1

One workload runs in this process. The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0`` and the per-layer metrics, from
spans recorded around the program's functions, with ``--trace 1``. A
results file (environment, metrics, tracing overhead) and, when traced,
the spans go to ``bench/out/``. ``--workload all`` runs each workload in a
child process of its own, one after another, and prints every metric.
The package is imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported, whatever the caller set.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 3


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def import_program() -> float:
    """Import the package from ``src/`` next to this directory; returns the seconds taken."""
    t0 = time.perf_counter()
    if not (ROOT / "src" / "mlpst" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {ROOT / 'src' / 'mlpst'}")
    sys.path.insert(0, str(ROOT / "src"))
    import mlpst.cli  # noqa: F401 - imports every module the workloads use

    seconds = time.perf_counter() - t0
    if Path(mlpst.__file__).resolve().parent != ROOT / "src" / "mlpst":
        raise SystemExit(f"error: mlpst imported from {mlpst.__file__}, not from {ROOT / 'src'}")
    sys.path.insert(0, str(BENCH))
    return seconds


def run_one(args) -> int:
    import_s = import_program()
    import workloads
    from tracer import LAYER_UNITS, Tracer

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)} or all")

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"work-{args.workload}-") as tmp:
        w = workloads.make(args.workload, args.seed, Path(tmp))
        w.generate()
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            w.setup()
            setups.append(time.perf_counter() - t0)

        attempted = failed = 0
        rounds: list[float] = []
        traced_rounds: list[float] = []
        untraced_rounds: list[float] = []
        tracer = Tracer() if args.trace else None
        t_start = time.perf_counter()
        # a traced run alternates untraced and traced rounds, so that the
        # tracing overhead compares rounds run under the same conditions
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1
            t0 = time.perf_counter()
            if traced:
                tracer.install()
                try:
                    with tracer.span("bench.round"):
                        a, f = w.run_round(tracer)
                finally:
                    tracer.remove()
            else:
                a, f = w.run_round(None)
            dt = time.perf_counter() - t0
            rounds.append(dt)
            (traced_rounds if traced else untraced_rounds).append(dt)
            attempted, failed = attempted + a, failed + f
            elapsed = time.perf_counter() - t_start
            if elapsed + statistics.median(rounds) > args.seconds and (tracer is None or traced_rounds):
                break
        # the high-water mark of set-up and the rounds, before the checks add theirs
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        w.check()

    for problem in w.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not w.problems and attempted > failed
    env = environment()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "rounds": len(rounds), "round_s": rounds,
        "setup_s_samples": setups, "import_s": import_s,
    }
    if tracer is None:
        metrics = {
            "setup_s": import_s + statistics.median(setups),
            "throughput_items_per_s": statistics.median(w.throughput) if w.throughput else 0.0,
            "call_ms_p50": statistics.median(w.latency_ms) if w.latency_ms else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
        units = workloads.END_TO_END
    else:
        metrics = tracer.per_layer()
        units = LAYER_UNITS
        traced_s, untraced_s = statistics.median(traced_rounds), statistics.median(untraced_rounds)
        overhead = traced_s / untraced_s - 1.0
        trace_path = OUT / f"trace-{args.workload}-s{args.seed}.jsonl"
        tracer.write(trace_path, t_start)
        record.update({"traced_round_s": traced_rounds, "untraced_round_s": untraced_rounds,
                       "tracing_overhead": overhead, "spans": len(tracer.spans),
                       "trace_file": str(trace_path.relative_to(ROOT))})
        print(f"tracing overhead: {overhead * 100:+.2f}% (median round {traced_s:.3f} s traced, "
              f"{untraced_s:.3f} s untraced); {len(tracer.spans)} spans in {trace_path.relative_to(ROOT)}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record["result"] = result
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(record, indent=1))
    print("environment: " + json.dumps(env))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints every metric by name with its unit."""
    import_program()
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}")
            status = 1
            continue
        for line in lines[:-1]:
            print(f"{name}: {line}")
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:36s} {m['value']:>16.6g} {m['unit']}")
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
