"""Serving benchmark for the sEMG gesture-recognition server.

Run from the repository root::

    python3 servebench/run.py --workload live_int8 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` measures the per-layer metrics from spans recorded around
the serving API's public seams (see ``servebench/README.md``).  Inputs are
generated from ``--seed`` alone.  The correctness oracle runs after the
timed phase.

Standard output carries a human-readable report line (``report: {...}``,
with the host record, every metric, sample counts and any oracle
problems) and, as its last line, the result object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

The benchmark builds nothing and sets no BLAS or OpenMP thread variable:
the thread policy is the program's behaviour, and the host record states
what it was.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

END_TO_END_UNITS = {
    "setup_s": "s",
    "decision_p50_ms": "ms",
    "windows_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "windowing.push_us": "us",
    "sessions.push_us": "us",
    "sessions.push_self_us": "us",
    "sessions.pushes": "count",
    "sessions.decisions_retained": "count",
    "server.predict_self_us": "us",
    "server.retries": "count",
    "server.degraded": "count",
    "batcher.wait_us": "us",
    "batcher.stream_batch_rows": "rows",
    "batcher.mean_batch": "rows",
    "batcher.fill_ratio": "share",
    "batcher.shed": "count",
    "batcher.expired": "count",
    "batcher.rejected": "count",
    "pool.busy_share": "share",
    "pool.balance": "share",
    "pool.restarts": "count",
    "pool.timeouts": "count",
    "backend.calls": "count",
    "backend.busy_share": "share",
    "backend.us_per_window": "us",
    "backend.stream_call_us": "us",
    "backend.mac_per_s": "MAC/s",
    "setup.build_s": "s",
    "setup.lower_s": "s",
    "setup.server_s": "s",
    "generator.lag_p99_ms": "ms",
    "generator.max_chunk_samples": "count",
    "trace.overhead_share": "share",
}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
)


def blas_threads():
    """Thread count the BLAS NumPy loaded will use, or ``None`` if unknown."""
    import numpy

    site = os.path.dirname(os.path.dirname(numpy.__file__))
    for path in glob.glob(os.path.join(site, "numpy.libs", "*blas*")):
        library = ctypes.CDLL(path)
        for symbol in _THREAD_SYMBOLS:
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def host_record() -> dict:
    """CPU count, interpreter, NumPy, BLAS and its thread settings."""
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "env": {name: os.environ.get(name) for name in BLAS_ENV},
    }


def _result(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> dict:
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }


def measure(workload, seed: int, seconds: float):
    """Untraced run: set-up trials, one timed phase, then the oracle."""
    from servebench import workloads as wl

    inputs = wl.make_inputs(workload, seed, seconds)
    rig, setups, _ = wl.set_up(workload, inputs)
    try:
        phase = wl.run_phase(workload, rig, inputs.streams, inputs.bulk, seconds)
    finally:
        rig.close()
    problems = wl.verify(workload, inputs, [phase])
    metrics = wl.end_to_end(workload, phase, setups)
    attempted, failed = wl.attempted_failed(phase)
    return metrics, problems, attempted, failed, _errors(phase)


def measure_traced(workload, seed: int, seconds: float):
    """Traced run: an untraced and a traced half, on fresh rigs.

    The untraced half is the baseline for ``trace.overhead_share``.
    """
    import numpy as np

    from servebench import workloads as wl
    from servebench.spans import Tracer

    half = seconds / 2.0
    inputs = wl.make_inputs(workload, seed, half, phases=2)
    streams = workload.sessions
    rig, setups, server_parts = wl.set_up(workload, inputs)
    try:
        base = wl.run_phase(workload, rig, inputs.streams[:streams], inputs.bulk, half)
    finally:
        rig.close()
    tracer = Tracer()
    rig = wl.build_rig(workload, inputs, tracer)
    try:
        traced = wl.run_phase(workload, rig, inputs.streams[streams:], inputs.bulk, half, tracer)
        build_s, lower_s = wl.build_and_lower_s(workload, inputs)
        setup = {
            "setup.build_s": build_s,
            "setup.lower_s": lower_s,
            "setup.server_s": float(np.median(server_parts)),
        }
        metrics = wl.per_layer(workload, rig, traced, tracer, setup)
    finally:
        rig.close()
    before = wl.end_to_end(workload, base, setups)
    after = wl.end_to_end(workload, traced, setups)
    if traced.feed is not None:
        overhead = after["decision_p50_ms"] / before["decision_p50_ms"] - 1.0
    else:
        overhead = 1.0 - after["windows_per_s"] / before["windows_per_s"]
    metrics["trace.overhead_share"] = overhead
    metrics["untraced"] = before
    problems = wl.verify(workload, inputs, [base, traced])
    counts = [wl.attempted_failed(p) for p in (base, traced)]
    attempted = sum(a for a, _ in counts)
    failed = sum(f for _, f in counts)
    return metrics, problems, attempted, failed, _errors(base) + _errors(traced)


def _errors(phase) -> list:
    return [e for log in (phase.feed, phase.bulk) if log is not None for e in log.errors]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, SRC]
    from servebench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run = measure_traced if args.trace else measure
    metrics, problems, attempted, failed, errors = run(workload, args.seed, args.seconds)
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_record(),
        "metrics": metrics,
        "problems": problems,
        "errors": errors,
    }
    print("report: " + json.dumps(report, sort_keys=True))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps(_result(not problems, attempted, failed, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
