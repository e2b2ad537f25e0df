"""koethe benchmark: cold-cache workloads driven through the public API.

    python3 perfbench/run.py --workload xval_grid --seed 1 --seconds 10 --trace 0

runs cold-cache passes of one workload for `--seconds` seconds, and at
least two passes (three for cli_batch), in this single process (one worker,
closed loop: each decision starts when the previous one returns), and
prints, as its last stdout line, one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  `--trace 0` reports the end-to-end
metrics, timed at a fixed reference host speed (see speed.py); `--trace 1`
runs one untraced and one traced pass on the same inputs and reports the
per-layer metrics.  The line before it carries the environment stamp and
per-pass detail.  See README.md in this
directory for what each workload and metric is for.
"""

from __future__ import annotations

import os

# pinned before numpy loads; set-up probes inherit them
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
#: set-up is timed in this many fresh interpreters before the first pass
SETUP_PROBES = 7
#: calibration probes a set-up child takes once its inputs are ready
CHILD_SPEED_PROBES = 5
WORKLOAD_NAMES = ("tameness_family", "xval_grid", "cli_batch")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print 'ready' and exit "
                             "(used to time set-up in fresh interpreters)")
    return parser.parse_args(argv)


def import_koethe():
    """Load koethe from this checkout's src/, never from an installed copy."""
    if not (SRC / "koethe" / "__init__.py").is_file():
        raise SystemExit(f"error: no koethe sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import koethe
    if Path(koethe.__file__).resolve().parent != SRC / "koethe":
        raise SystemExit(f"error: koethe was imported from {koethe.__file__}")


def environment(seed: int | None) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "koethe").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


def remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:  # another run still uses it
        pass


def time_setup(args) -> tuple[list[float], list[float]]:
    """Interpreter start to inputs ready, in SETUP_PROBES fresh processes:
    (wall times, the same at the reference host speed)."""
    walls, norms = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            rest = child.stdout.read().split()
            if child.wait(timeout=120) != 0 or line.strip() != "ready" or len(rest) != 1:
                raise RuntimeError(f"set-up probe failed: {line!r}")
        walls.append(ready - start)
        # the child's own probes, taken right after its set-up, give the speed
        # of the core it ran on
        norms.append(walls[-1] * speed.REF_S / float(rest[0]))
    return walls, norms


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a mean of all order
    statistics weighted by the Beta((n+1)q, (n+1)(1-q)) distribution.  The
    slowest few percent of xval_grid and cli_batch decisions are a heavy
    class of their own, so the 95th percentile sits on a jump in the sorted
    times; this estimate moves smoothly across it instead of switching
    sides."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    # Beta(a, b) cdf at i/n from its density on a grid of 64 points per step
    grid = np.linspace(0.0, 1.0, 64 * n + 1)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.concatenate([[0.0], np.exp(log_pdf - log_pdf.max()), [0.0]])
    cdf = np.concatenate([[0.0], np.cumsum(pdf[1:] + pdf[:-1])])
    weights = np.diff(cdf[::64]) / cdf[-1]
    return float(weights @ x)


def end_to_end(passes, setup_s: list[float], correct_ratio: float) -> dict:
    """Timings at the reference host speed.  Contention that the probes do
    not fully correct for only adds time, so each decision counts with its
    fastest pass and throughput is that of the fastest pass."""
    fastest: dict[str, float] = {}
    for p in passes:
        for key, seconds in p.decision_s.items():
            fastest[key] = min(seconds, fastest.get(key, seconds))
    decisions = list(fastest.values())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "decisions_per_s": (max(len(p.decision_s) / p.norm_s for p in passes), "1/s"),
        "decision_ms.p50": (1000 * quantile(decisions, 0.50), "ms"),
        "decision_ms.p95": (1000 * quantile(decisions, 0.95), "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "correct_ratio": (correct_ratio, "ratio"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_koethe()
    import layers
    import workloads

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_only:
            print("ready", flush=True)
            print(statistics.median(speed.probe() for _ in range(CHILD_SPEED_PROBES)))
            return 0
        expected = workloads.load_reference(args.workload)
        detail = {"workload": args.workload, "environment": environment(args.seed)}
        ledger = workloads.Ledger(expected)
        if args.trace:
            layers.clear_caches()
            untraced = ledger.add(workload.run_pass(0, calibrate=False))
            layers.clear_caches()
            before = layers.cache_snapshot()
            with layers.Tracer() as tracer:
                traced = ledger.add(workload.run_pass(0, calibrate=False))
            after = layers.cache_snapshot()
            metrics = tracer.metrics(before, after)
            metrics["cli.report_bytes"] = (traced.report_bytes, "bytes")
            metrics["trace.pass_s"] = (traced.wall_s, "s")
            metrics["trace.overhead_s"] = (traced.wall_s - untraced.wall_s, "s")
            problems = tracer.binding_errors(before, after)
        else:
            setup_wall, setup_norm = time_setup(args)
            detail["setup_s"] = {"wall": setup_wall, "reference_speed": setup_norm}
            while (len(ledger.passes) < workload.min_passes
                   or sum(p.wall_s for p in ledger.passes) < args.seconds):
                layers.clear_caches()
                ledger.add(workload.run_pass(len(ledger.passes)))
            metrics = end_to_end(ledger.passes, setup_norm,
                                 1 - ledger.failed / ledger.attempted)
            problems = []
        detail["passes"] = [{"wall_s": p.wall_s, "reference_speed_s": p.norm_s,
                             "decisions": len(p.decision_s)} for p in ledger.passes]
        detail["errors"] = (problems + [f"{key}: {reasons[:3]}"
                                        for key, reasons in ledger.failures])[:20]
        print(json.dumps(detail, sort_keys=True))
        print(json.dumps({
            "correct": ledger.failed == 0 and not problems,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }), flush=True)
        return 0
    finally:
        remove_workdir(workdir)


if __name__ == "__main__":
    sys.exit(main())
