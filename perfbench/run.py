"""tridecomp benchmark: one closed-loop caller driving the library in-process.

    python3 perfbench/run.py --workload {pair,extract,campaigns} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the library is imported from ``src/`` of the checkout that
holds this file, and the run fails (exit 2, no result) when it is missing.
Each operation starts when the previous one returns.  Whole rotations of the
workload's operations run until ``--seconds`` have passed, so a run can end
up to one rotation late.  Every operation's output is checked; a failed
check or an exception counts toward ``error_rate`` and the run goes on.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rotations and prints the per-layer metrics of the traced
ones, the traced and untraced median operation times and their difference.
The last line of standard output is the result; the line before it holds
the environment record, the tail percentile and the per-class figures.
Spans of a traced run go to ``.perfbench_out/`` in the checkout.
"""

import time

_START = time.perf_counter()  # set-up time counts from here

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# One BLAS thread (nproc is 2 on the reference box): a second thread would
# compete with the caller's own core on a shared machine and add noise.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3  # set-ups per run: this process plus two fresh ones


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["pair", "extract", "campaigns"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)  # used for the repeated set-ups
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def run_op(op) -> list:
    """Run one operation; an exception is reported as a failed check."""
    try:
        return op.run()
    except Exception as exc:  # the loop must go on and count the failure
        return [f"{type(exc).__name__}: {exc}"]


def measure(rotation, seconds, outcomes, failures, tracer=None):
    """Closed loop over whole rotations.  Returns the samples as
    (label, seconds, traced) and the wall time of the window.  With a
    tracer, rotations alternate untraced and traced, at least one of each."""
    samples, traced_ops = [], []
    start = time.perf_counter()
    traced = False
    while (time.perf_counter() - start < seconds
           or (tracer is not None and not traced_ops)):
        if traced:
            tracer.install()
        try:
            for op in rotation:
                if traced:
                    tracer.op = len(traced_ops)
                t0 = time.perf_counter()
                failed = run_op(op)
                t1 = time.perf_counter()
                samples.append((op.label, t1 - t0, traced))
                if traced:
                    traced_ops.append((tracer.op, op.label, t0, t1))
                outcomes.record(failed)
                failures.extend(f"{op.label}: {f}" for f in failed)
        finally:
            if traced:
                tracer.uninstall()
        traced = tracer is not None and not traced
    return samples, traced_ops, time.perf_counter() - start


def child_setup(args) -> float:
    """Set-up time of a fresh process running the same workload and seed."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the library sources, so a result names its code even in
    a checkout without git metadata."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def cache_sizes() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        out[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    return out


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "caches": cache_sizes(),
        "seed": seed,
        "clients": "1, closed loop",
    }


def per_class(samples) -> dict:
    classes = {}
    for label, dt, _ in samples:
        classes.setdefault(label, []).append(dt)
    return {label: {"samples": len(v), "median_s": statistics.median(v)}
            for label, v in classes.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tridecomp" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import tridecomp

    if Path(tridecomp.__file__).resolve().parent != (SRC / "tridecomp").resolve():
        print(f"error: tridecomp imported from {tridecomp.__file__}",
              file=sys.stderr)
        return 2
    import stats
    import tracing
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        outcomes, failures = stats.Outcomes(), []
        warm = run_op(workload.warmup)  # untimed
        outcomes.record(warm)
        failures.extend(f"warm-up: {f}" for f in warm)
        setup = time.perf_counter() - _START
        if args.setup_only:
            print(json.dumps({"setup_s": setup}))
            return 0

        tracer = tracing.Tracer() if args.trace else None
        samples, traced_ops, wall = measure(workload.rotation, args.seconds,
                                            outcomes, failures, tracer)
        untraced = [dt for _, dt, t in samples if not t]
        detail = {
            "schema": "perfbench-result/1",
            "workload": args.workload,
            "trace": args.trace,
            "window_s": wall,
            "environment": environment(args.seed),
            "attempted": outcomes.attempted,
            "failed": outcomes.failed,
            "error_rate": {"value": outcomes.error_rate, "unit": "ratio"},
            "failures": failures[:20],
            "classes": per_class(samples),
        }
        if args.trace:
            traced = [dt for _, dt, t in samples if t]
            metrics = tracer.metrics(len(traced))
            metrics["traced.op_p50_s"] = statistics.median(traced)
            metrics["untraced.op_p50_s"] = statistics.median(untraced)
            metrics["traced.overhead_s"] = (metrics["traced.op_p50_s"]
                                            - metrics["untraced.op_p50_s"])
            units = tracing.metric_units()
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json.gz",
                         traced_ops, {"workload": args.workload,
                                      "seed": args.seed})
        else:
            setups = [setup] + [child_setup(args)
                                for _ in range(SETUP_REPEATS - 1)]
            tail = stats.tail(untraced)
            metrics = {
                "op_p50_s": statistics.median(untraced),
                "op_tail_s": tail.value,
                "ops_per_s": len(untraced) / wall,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "setup_s": statistics.median(setups),
            }
            units = {"op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s",
                     "peak_rss_mb": "MB", "setup_s": "s"}
            detail["op_tail"] = {"percentile": tail.percentile,
                                 "samples_beyond": tail.beyond,
                                 "samples": tail.samples}
            detail["setup_samples_s"] = setups
            steps = getattr(workload, "steps", None)
            if steps is not None:
                detail["step_median_s"] = {
                    label: statistics.median(v)
                    for label, v in steps.times.items()}
        result = {"correct": outcomes.failed == 0,
                  "attempted": outcomes.attempted,
                  "failed": outcomes.failed,
                  "metrics": {k: {"value": v, "unit": units[k]}
                              for k, v in metrics.items()}}
        print(json.dumps(detail))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
