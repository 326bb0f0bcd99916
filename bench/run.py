"""drlfolio benchmark: one workload, one run, one JSON result on the last line.

    python3 bench/run.py --workload train_default --seed 1 --seconds 40 --trace 0

``--trace 0`` times the workload and prints the end-to-end metrics.
``--trace 1`` runs two fixed rounds (one training run and one compare
pipeline each) untraced and two traced, and prints the per-layer metrics:
calls and self time per span, the time no span covers, the tracing overhead,
tracemalloc allocation per call for the network layers and Adam, and the
line count of each source module. See NOTES.md.

The package is imported from ``src/`` of the checkout this script sits in;
the script exits with status 2 when that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "drlfolio"

# One caller and one BLAS thread, the same on both sides of any comparison.
# On a two-core host a second BLAS thread stalls whenever anything else runs
# on the other core, which makes run-to-run spread far wider (see NOTES.md).
BLAS_THREADS = 1

# Modules with a src_lines.<module> metric; a module added later counts in
# src_lines.total and in the run record.
MODULES = ("__init__", "analytics", "baseline_factor", "cli", "ddpg", "errors", "market_data",
           "neural", "portfolio_math", "synthetic", "trading_env")

UNITS = {
    "train_steps_per_s": "steps/s",
    "backtest_days_per_s": "days/s",
    "factor_days_per_s": "days/s",
    "ingest_rows_per_s": "rows/s",
    "compare_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads_in_use():
    """Thread count OpenBLAS reports, or None when the library cannot be queried."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def src_lines() -> dict[str, int]:
    return {
        path.stem: len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted(PACKAGE_DIR.glob("*.py"))
    }


def peak_rss_mb(less_bytes: int) -> float:
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - less_bytes) / 2**20  # Linux reports KiB


def end_to_end(workloads, hostspeed, w, seed, seconds, work):
    """Median of each timed metric's samples in reference-host time, and peak memory.

    Peak memory leaves out the host-speed probe's own arrays (~37 MiB), which
    the process holds from start to end.
    """
    probes = hostspeed.Probes()
    session, samples, measured = workloads.run_timed(w, seed, seconds, work, probes)
    metrics = {key: median(values) if values else None for key, values in samples.items()}
    metrics["peak_rss_mb"] = peak_rss_mb(probes.nbytes)
    summary = {key: {"n": len(v), "measured_median": median(v) if v else None}
               for key, v in measured.items()}
    return session, {name: metrics[name] for name in UNITS}, summary


def per_layer(workloads, tracing, w, seed, work):
    """Fixed rounds in the order untraced, traced, traced, untraced, so drift cancels.

    A round is one training run and one compare pipeline, so that every span
    is measured on every workload. A training run's checks call the package
    (load_checkpoint), so they run after the round, outside the trace.
    """
    session = workloads.Session(w, seed, work / "setup")
    recorder = tracing.SpanRecorder()
    untraced, windows, absent = 0.0, [], []
    for traced_round in (False, True, True, False):
        with tracing.traced(recorder=recorder) if traced_round else nullcontext((None, [])) as (_, gone):
            lo = time.perf_counter()
            result = session.train(verify=False)
            session.compare()
            hi = time.perf_counter()
        if traced_round:
            windows.append((lo, hi))
            absent = gone
        else:
            untraced += hi - lo
        if result is not None:
            session.verify(result)
    with tracing.allocations() as (allocs, alloc_absent):
        workloads.alloc_round(session)

    metrics = {}
    times = tracing.self_times(recorder.spans)
    for span in tracing.SPANS:
        calls, seconds = times.get(span, (0, 0.0))
        metrics[f"{span}.calls"] = (calls, "count")
        metrics[f"{span}.self_ms"] = (seconds * 1e3, "ms")
    for span in tracing.ALLOC_SPANS:
        sizes = allocs.bytes.get(span)
        metrics[f"{span}.alloc_kb"] = (sum(sizes) / len(sizes) / 1024.0 if sizes else 0.0, "KiB")
    wall = sum(hi - lo for lo, hi in windows)
    unspanned = sum(tracing.unspanned(recorder.spans, lo, hi) for lo, hi in windows)
    metrics["trace.unspanned_ms"] = (unspanned * 1e3, "ms")
    metrics["trace.overhead_pct"] = (wall / untraced * 100.0 - 100.0, "%")
    lines = src_lines()
    for module in MODULES:
        metrics[f"src_lines.{module}"] = (lines.get(module, 0), "count")
    metrics["src_lines.total"] = (sum(lines.values()), "count")

    print(f"traced rounds: {wall:.3f} s (untraced {untraced:.3f} s)")
    for span, (_, seconds) in sorted(times.items(), key=lambda kv: -kv[1][1])[:12]:
        print(f"  share of traced wall time {span}: {seconds / wall * 100:.1f}%")
    return session, metrics, sorted(set(absent) | set(alloc_absent))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"error: no drlfolio sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # read once, when numpy loads below
    sys.path.insert(0, str(SRC))
    import numpy as np

    import hostspeed
    import tracing
    import workloads

    import drlfolio

    if Path(drlfolio.__file__).resolve().parent != PACKAGE_DIR:
        print(f"error: imported drlfolio from {drlfolio.__file__}, not {PACKAGE_DIR}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    w = workloads.WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            session, metrics, absent = per_layer(workloads, tracing, w, args.seed, work)
            samples = {}
        else:
            session, values, samples = end_to_end(workloads, hostspeed, w, args.seed, args.seconds, work)
            metrics = {name: (value, UNITS[name]) for name, value in values.items()}
            absent = []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ledger = session.ledger
    record = {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads_in_use(),
        "blas_threads_requested": BLAS_THREADS,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "train_outputs_sha256": sorted(session.output_hashes),
        "src_lines": src_lines(),
        "absent_spans": absent,
        "samples": samples,
    }
    fail_ratio = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"fail_ratio = {fail_ratio!r} ({ledger.failed} of {ledger.attempted} operations)")
    print("record " + json.dumps(record, sort_keys=True))
    missing = [name for name, (value, _) in metrics.items() if value is None]
    result = {
        "correct": ledger.failed == 0 and ledger.attempted > 0 and not missing,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed if ledger.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
