#!/usr/bin/env python3
"""cfsync benchmark.

    python3 perfbench/run.py --workload scripts_e2e --seed 0 --seconds 20 \\
        --trace 0

``perfbench`` must sit at the root of a cfsync source checkout; the package
is used from ``src`` (it need not be installed). Each run starts fresh
worker processes: ``SETUP_REPEATS - 1`` that only set up, then one that sets
up and measures for ``--seconds``. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced pass. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
Details (environment, problems found, tracing notes) go to the line before
it and to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("scripts_e2e", "n1_screen", "analyze_fine")
SETUP_REPEATS = 3
RUN_TIMEOUT_S = 170.0
# single-threaded BLAS: steadier timings on a shared host
THREAD_ENV = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS")}


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


def _spawn(root: Path, args, workdir: Path, result: Path, deadline: float,
           extra: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONHASHSEED="0", **THREAD_ENV)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", str(root), "--workdir", str(workdir),
           "--result", str(result), *extra]
    workdir.mkdir(parents=True, exist_ok=True)
    log = workdir.parent / (workdir.name + ".log")
    with log.open("w") as out:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(time.monotonic())], env=env,
            cwd=root, stdout=out, stderr=subprocess.STDOUT,
            timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not result.is_file():
        tail = log.read_text()[-2000:]
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{tail}")
    return json.loads(result.read_text())


def main() -> int:
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = HERE.parent
    for need in ("src/cfsync/__init__.py", "scripts/run_load_shed.py",
                 "scripts/run_hv_sweep.py"):
        if not (root / need).is_file():
            return _fail(f"{need} not found: perfbench must sit at the root "
                         "of a cfsync source checkout")

    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    deadline = start + RUN_TIMEOUT_S
    tag = f"{args.workload}-trace{args.trace}"
    try:
        setups = []
        for i in range(SETUP_REPEATS - 1):
            res = _spawn(root, args, work / f"setup{i}",
                         work / f"setup{i}.json", deadline, ["--setup-only"])
            setups.append(res["setup_s"])
            shutil.rmtree(work / f"setup{i}", ignore_errors=True)
        res = _spawn(root, args, work / "run", work / "run.json", deadline,
                     ["--spans", str(out_dir / f"spans-{tag}.jsonl")])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(res["setup_s"])

    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {
            "wall_s": {"value": statistics.median(res["wall_s"]),
                       "unit": "s"},
            # every scenario raising leaves no scenario times
            "scenario_s": {"value": statistics.median(res["scenario_s"]
                                                      or res["wall_s"]),
                           "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    details = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "passes_wall_s": res["wall_s"], "setup_s_all": setups,
        "fail_frac": res["failed"] / res["attempted"],
        "problems": res["problems"], "environment": res["environment"],
    }
    if args.trace:
        details.update(traced_passes=res["traced_passes"],
                       waiting=res["waiting"],
                       computed_not_measured=[
                           "fileio.write_trajectory.bytes",
                           "fileio.write_generator.bytes",
                           "sync_detector.window_samples",
                           "sync_detector.pairs_computed"])
    (out_dir / f"{tag}.json").write_text(json.dumps(details, indent=2))
    print(json.dumps(details))
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
