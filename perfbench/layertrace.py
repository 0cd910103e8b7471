"""Per-layer tracing from outside the cfsync package.

The package imports names directly (``from .dynamics import simulate``), so a
wrapper must replace a name where it is looked up at call time: in the
calling module, not in the module that defines it. ``Tracer._patches``
lists those call sites. Each wrapped call records a span
``(id, parent, name, t0, t1)`` in memory; ``Tracer.dump`` writes them out
once the run is over.

Self time is a span's duration minus the durations of its direct children.
Calls nest strictly (one thread), so children never overlap and the self
times of all spans add up to the duration of the root spans, which cover
the timed parts of a pass. Bookkeeping done
after a call (counting bytes, fingerprinting inputs) is recorded as its own
``bench.bookkeeping`` span so that it lands in no layer's self time.
"""
from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import cfsync.cf_estimator
import cfsync.cli
import cfsync.dynamics
import cfsync.metrics
import cfsync.sync_detector

ROOT_SPAN = "bench.pass"
BOOKKEEPING_SPAN = "bench.bookkeeping"

# Per-layer metrics reported by a traced run, with unit and direction. Counts
# marked "_computed" are derived by the harness from inputs or file sizes,
# not counted inside the program.
LAYER_METRICS = {
    "grid_model.power_flow.calls": ("count", "lower"),
    "grid_model.power_flow.self_s": ("s", "lower"),
    "grid_model.power_flow.iterations": ("count", "lower"),
    "grid_model.power_flow.unique_ratio": ("ratio", "higher"),
    "dynamics.simulate.calls": ("count", "lower"),
    "dynamics.simulate.self_s": ("s", "lower"),
    "dynamics.step.calls": ("count", "lower"),
    "dynamics.step.self_s": ("s", "lower"),
    "dynamics.step.mean_us": ("us", "lower"),
    "dynamics.initialize.self_s": ("s", "lower"),
    "dynamics.event.calls": ("count", "lower"),
    "dynamics.event.self_s": ("s", "lower"),
    "fileio.write_trajectory.self_s": ("s", "lower"),
    "fileio.write_trajectory.bytes": ("bytes_computed", "lower"),
    "fileio.write_generator.self_s": ("s", "lower"),
    "fileio.write_generator.bytes": ("bytes_computed", "lower"),
    "fileio.read_trajectory.calls": ("count", "lower"),
    "fileio.read_trajectory.self_s": ("s", "lower"),
    "fileio.read_trajectory.unique_ratio": ("ratio", "higher"),
    "fileio.read_generator.self_s": ("s", "lower"),
    "fileio.write_json.self_s": ("s", "lower"),
    "cf_estimator.estimate.calls": ("count", "lower"),
    "cf_estimator.estimate.self_s": ("s", "lower"),
    "cf_estimator.estimate.unique_ratio": ("ratio", "higher"),
    "cf_estimator.estimate.samples": ("count", "lower"),
    "sync_detector.evaluate.self_s": ("s", "lower"),
    "sync_detector.node_verdict.calls": ("count", "lower"),
    "sync_detector.node_verdict.self_s": ("s", "lower"),
    "sync_detector.find_convergence.calls": ("count", "lower"),
    "sync_detector.find_convergence.self_s": ("s", "lower"),
    "sync_detector.window_samples": ("count_computed", "lower"),
    "sync_detector.pairs_computed": ("count_computed", "lower"),
    "metrics.node_metrics.self_s": ("s", "lower"),
    "metrics.subnet_metrics.self_s": ("s", "lower"),
    "metrics.disturbance_region.self_s": ("s", "lower"),
    "inertia.capacitor_sweep.self_s": ("s", "lower"),
    "inertia.fit.calls": ("count", "lower"),
    "inertia.fit.self_s": ("s", "lower"),
    "cli.simulate.self_s": ("s", "lower"),
    "cli.analyze.self_s": ("s", "lower"),
    "cli.build_report.self_s": ("s", "lower"),
    "cli.plotdata.self_s": ("s", "lower"),
    "cli.inertia.self_s": ("s", "lower"),
    # the harness itself: traced pass wall time, its self time outside every
    # layer, post-call bookkeeping, and traced minus untraced wall time
    "bench.wall_s": ("s", "lower"),
    "bench.remainder_s": ("s", "lower"),
    "bench.bookkeeping_s": ("s", "lower"),
    "bench.overhead_s": ("s", "lower"),
}

WAITING_NOTE = ("no waiting time is recorded: no layer has a queue or waits "
                "on another process")


def _file_key(path) -> tuple:
    st = os.stat(path)
    return (os.path.realpath(path), st.st_size, st.st_mtime_ns)


def untraced_entry_points() -> SimpleNamespace:
    return SimpleNamespace(
        simulate=cfsync.dynamics.simulate,
        estimate=cfsync.cf_estimator.estimate_complex_frequency,
        evaluate=cfsync.sync_detector.evaluate,
        disturbance_region=cfsync.metrics.disturbance_region,
    )


class Tracer:
    """In-memory span recorder plus the counters the per-layer metrics need."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack = [-1]
        self._next_id = 1
        self.counts: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)
        self._saved: list[tuple[object, str, object]] = []

    def _new_id(self) -> int:
        sid = self._next_id
        self._next_id += 1
        return sid

    def wrap(self, name: str, fn, post=None):
        """``fn`` recording a span per call; ``post(args, result)`` runs
        after the span closes and is timed as bookkeeping."""
        def traced(*args, **kwargs):
            sid = self._new_id()
            parent = self._stack[-1]
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, name, t0, t1))
            if post is not None:
                post(args, out)
                self.spans.append((self._new_id(), parent, BOOKKEEPING_SPAN,
                                   t1, time.perf_counter()))
            return out
        return traced

    def root(self, fn):
        """Run ``fn()`` under a root span, which covers one timed part of a
        pass; returns (result, seconds)."""
        sid = self._new_id()
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, -1, ROOT_SPAN, t0, t1))
        return out, t1 - t0

    # -- patching call sites ------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, post in self._patches():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, post))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patches(self):
        cli, dyn, sd = cfsync.cli, cfsync.dynamics, cfsync.sync_detector
        return [
            (cli, "cmd_simulate", "cli.simulate", None),
            (cli, "cmd_analyze", "cli.analyze", None),
            (cli, "build_report", "cli.build_report", None),
            (cli, "cmd_plotdata", "cli.plotdata", None),
            (cli, "cmd_inertia", "cli.inertia", None),
            (cli, "simulate", "dynamics.simulate", self.post_simulate),
            (dyn, "solve_power_flow", "grid_model.power_flow",
             self.post_power_flow),
            (dyn, "initialize_dynamics", "dynamics.initialize", None),
            (dyn, "step", "dynamics.step", None),
            (dyn.DynamicNetwork, "apply_event", "dynamics.event", None),
            (cli, "write_trajectory_csv", "fileio.write_trajectory",
             self.post_write("fileio.write_trajectory.bytes")),
            (cli, "write_generator_csv", "fileio.write_generator",
             self.post_write("fileio.write_generator.bytes")),
            (cli, "read_trajectory_csv", "fileio.read_trajectory",
             self.post_read_trajectory),
            (cli, "read_generator_csv", "fileio.read_generator", None),
            (cli, "write_json", "fileio.write_json", None),
            (cli, "estimate_complex_frequency", "cf_estimator.estimate",
             self.post_estimate),
            (cli, "evaluate", "sync_detector.evaluate", None),
            (sd, "node_verdict", "sync_detector.node_verdict",
             self.post_node_verdict),
            (sd, "find_convergence_time", "sync_detector.find_convergence",
             None),
            (cli, "node_metrics", "metrics.node_metrics", None),
            (cli, "subnet_metrics", "metrics.subnet_metrics", None),
            (cli, "disturbance_region", "metrics.disturbance_region", None),
            (cli, "simulate_capacitor_bus", "inertia.capacitor_sweep", None),
            (cli, "estimate_frequency_inertia", "inertia.fit", None),
            (cli, "estimate_voltage_inertia", "inertia.fit", None),
        ]

    def entry_points(self) -> SimpleNamespace:
        """The public functions a workload calls itself, wrapped."""
        fns = untraced_entry_points()
        return SimpleNamespace(
            simulate=self.wrap("dynamics.simulate", fns.simulate,
                               self.post_simulate),
            estimate=self.wrap("cf_estimator.estimate", fns.estimate,
                               self.post_estimate),
            evaluate=self.wrap("sync_detector.evaluate", fns.evaluate),
            disturbance_region=self.wrap("metrics.disturbance_region",
                                         fns.disturbance_region),
        )

    # -- post-call bookkeeping ----------------------------------------------

    def post_simulate(self, args, traj) -> None:
        # tag the result so the estimator can tell distinct trajectories apart
        traj._perfbench_source = ("simulate", self._new_id())

    def post_power_flow(self, args, pf) -> None:
        case = args[0]
        self.keys["grid_model.power_flow"].add(
            (tuple(case.buses), tuple(case.lines), tuple(case.generators),
             tuple(case.loads)))
        self.counts["grid_model.power_flow.iterations"] += pf.iterations

    def post_write(self, metric: str):
        def post(args, _out) -> None:
            self.counts[metric] += os.path.getsize(args[1])
        return post

    def post_read_trajectory(self, args, traj) -> None:
        key = _file_key(args[0])
        self.keys["fileio.read_trajectory"].add(key)
        traj._perfbench_source = key

    def post_estimate(self, args, series) -> None:
        traj = args[0]
        self.keys["cf_estimator.estimate"].add(
            getattr(traj, "_perfbench_source", ("object", id(traj))))
        self.counts["cf_estimator.estimate.samples"] += series.eps.size

    def post_node_verdict(self, args, _verdict) -> None:
        times, config = args[1], args[4]
        w = int(((times >= config.t_end - config.window - 1e-9)
                 & (times <= config.t_end + 1e-9)).sum())
        self.counts["sync_detector.window_samples"] = max(
            self.counts["sync_detector.window_samples"], w)
        self.counts["sync_detector.pairs_computed"] += w * w

    # -- results --------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Summed self time and call count per span name."""
        child = defaultdict(float)
        for _sid, parent, _name, t0, t1 in self.spans:
            child[parent] += t1 - t0
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for sid, _parent, name, t0, t1 in self.spans:
            self_s[name] += (t1 - t0) - child[sid]
            calls[name] += 1
        return self_s, calls

    def layer_metrics(self, untraced_wall_s: float) -> dict[str, float]:
        """Every metric in LAYER_METRICS; a layer never called reports 0."""
        self_s, calls = self.self_times()
        out: dict[str, float] = {}
        for metric in LAYER_METRICS:
            span, _, kind = metric.rpartition(".")
            if span == "bench":
                continue
            if kind == "self_s":
                out[metric] = self_s.get(span, 0.0)
            elif kind == "calls":
                out[metric] = calls.get(span, 0)
            elif kind == "unique_ratio":
                n = calls.get(span, 0)
                out[metric] = len(self.keys[span]) / n if n else 0.0
            elif kind == "mean_us":
                n = calls.get(span, 0)
                out[metric] = 1e6 * self_s.get(span, 0.0) / n if n else 0.0
            else:
                out[metric] = self.counts.get(metric, 0)
        wall = sum(t1 - t0 for _s, _p, name, t0, t1 in self.spans
                   if name == ROOT_SPAN)
        out["bench.wall_s"] = wall
        out["bench.remainder_s"] = self_s[ROOT_SPAN]
        out["bench.bookkeeping_s"] = self_s.get(BOOKKEEPING_SPAN, 0.0)
        out["bench.overhead_s"] = wall - untraced_wall_s
        return out

    def dump(self, path: Path) -> None:
        with Path(path).open("w") as f:
            for sid, parent, name, t0, t1 in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent,
                                    "name": name, "t0": t0, "t1": t1})
                        + "\n")
