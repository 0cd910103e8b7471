"""One benchmark process: set up one workload, then run timed passes.

Started by run.py in a fresh interpreter, so ``setup_s`` (from the moment
run.py started this process to the first timed operation) covers interpreter
start, imports and input generation, and the peak RSS is this workload's
alone. Writes its findings as JSON to ``--result``.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np
import scipy

from layertrace import (
    LAYER_METRICS,
    WAITING_NOTE,
    Tracer,
    untraced_entry_points,
)
from workloads import WORKLOADS


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _plain_timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _median_pass(traced):
    """The traced pass whose wall time is the (lower) median."""
    ranked = sorted(traced, key=lambda pair: pair[0].wall_s)
    return ranked[(len(ranked) - 1) // 2]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() when the parent started us")
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    args.workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.root, args.seed, args.workdir)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0

    passes, traced = [], []

    def run_pass(timed, fns):
        outdir = args.workdir / f"pass{len(passes) + len(traced)}"
        try:
            return wl.run_pass(outdir, timed, fns)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
            gc.collect()

    deadline = time.perf_counter() + args.seconds
    while True:
        passes.append(run_pass(_plain_timed, untraced_entry_points()))
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced.append((run_pass(tracer.root, tracer.entry_points()),
                               tracer))
            finally:
                tracer.uninstall()
        if time.perf_counter() >= deadline:
            break

    done = passes + [res for res, _ in traced]
    problems = [f"{op.name}: {op.error}" for p in done for op in p.ops
                if op.error]
    result.update({
        "wall_s": [p.wall_s for p in passes],
        "scenario_s": [s for p in passes for s in p.scenario_s],
        "attempted": sum(len(p.ops) for p in done),
        "failed": sum(p.failed for p in done),
        "problems": problems[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "environment": environment(),
    })
    if args.trace:
        res, tracer = _median_pass(traced)
        layers = tracer.layer_metrics(
            statistics.median(p.wall_s for p in passes))
        result["layers"] = {name: {"value": value,
                                   "unit": LAYER_METRICS[name][0]}
                            for name, value in layers.items()}
        result["traced_passes"] = len(traced)
        result["waiting"] = WAITING_NOTE
        if args.spans:
            tracer.dump(args.spans)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
