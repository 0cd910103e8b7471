"""Tests of the benchmark itself: generators, output checks and tracing.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from cfsync import (  # noqa: E402
    SimConfig,
    SyncConfig,
    bundled_case_path,
    estimate_complex_frequency,
)
from cfsync.fileio import load_case, read_trajectory_csv  # noqa: E402

import layertrace  # noqa: E402
import workloads  # noqa: E402
from synthetic_traj import write_synthetic_trajectory  # noqa: E402
from tiled_case import (  # noqa: E402
    non_bridge_lines,
    tiled_case,
    trip_scenarios,
)

ROOT = HERE.parent


def _plain(fn):
    return fn(), 0.0


# -- BENCHMARK.json --------------------------------------------------------

def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == layertrace.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] \
        == list(workloads.WORKLOADS)


# -- generators ------------------------------------------------------------

def test_tiled_case_keeps_one_slack_and_trips_only_non_bridges():
    case = tiled_case(4, seed=3)
    assert case.n_bus == 36 and len(case.generators) == 12
    assert [b.kind for b in case.buses].count("slack") == 1
    step_up = {frozenset((10 * k + a, 10 * k + b))
               for k in range(4) for a, b in ((1, 4), (2, 7), (3, 9))}
    keys = {frozenset(ln.key) for ln in non_bridge_lines(case)}
    assert keys and not keys & step_up
    trips = trip_scenarios(case, 3, seed=3)
    assert len({frozenset(s.events[0].params.values()) for s in trips}) == 3
    assert trips == trip_scenarios(case, 3, seed=3)


def test_synthetic_trajectory_matches_its_analytic_limits(tmp_path):
    case = load_case(bundled_case_path("wscc9_loadshed"))
    synth = write_synthetic_trajectory(
        tmp_path / "t.csv", [b.id for b in case.buses], case.omega_s, seed=5,
        t_end=12.0, dt=1e-3)
    traj = read_trajectory_csv(synth.path, omega_s=case.omega_s)
    assert len(traj.times) == synth.n_rows == 12001
    assert traj.event_times == [2.0]
    series = estimate_complex_frequency(traj, smoothing_window=1)
    # before the step the phasors are constant
    pre = series.times < 1.9
    assert np.abs(series.eps[pre]).max() < 1e-12
    assert np.abs(series.omega[pre] - case.omega_s).max() < 1e-9
    # at the end every bus sits at the analytic limit
    assert np.abs(series.eps[-50:] - synth.eps_limit).max() < 1e-4
    assert np.abs(series.omega[-50:] - synth.omega_limit).max() < 1e-3


# -- output checks count corrupted outputs as failures ---------------------

@pytest.fixture(scope="module")
def small_screen():
    case = tiled_case(2, seed=0)
    scen = trip_scenarios(case, 1, seed=0)[0]
    wl = workloads.N1Screen.__new__(workloads.N1Screen)
    wl.SIM = SimConfig(t_end=4.0, dt=2e-3)
    traj, sync, region = wl._screen(scen, layertrace.untraced_entry_points())
    return wl, scen, traj, sync, region


def test_n1_check_passes_then_flags_residual_nan_and_verdicts(small_screen):
    wl, case, traj, sync, region = small_screen
    ref = workloads.N1Screen.summary(case, sync)
    assert wl.check(case, traj, sync, region, ref) is None

    bad = dataclasses.replace(traj, max_residual=2e-10)
    assert "max_residual" in wl.check(case, bad, sync, region, ref)

    v = traj.v.copy()
    v[5, 3] = math.nan
    bad = dataclasses.replace(traj, v=v)
    assert "non-finite" in wl.check(case, bad, sync, region, ref)

    wrong = dict(ref, fluctuation=[f * 1.01 for f in ref["fluctuation"]])
    assert "fluctuation" in wl.check(case, traj, sync, region, wrong)
    other = "synchronized" if ref["global"] != "synchronized" \
        else "undetermined"
    wrong = dict(ref, **{"global": other})
    assert "verdict" in wl.check(case, traj, sync, region, wrong)


def _shift_global_limit(report_path: Path, d_omega: float) -> None:
    report = json.loads(report_path.read_text())
    report["global"]["limit"]["omega"] += d_omega
    report_path.write_text(json.dumps(report))


def test_analyze_fine_flags_a_wrong_global_limit(tmp_path):
    wl = workloads.AnalyzeFine(ROOT, 1, tmp_path)
    res = wl.run_pass(tmp_path / "out", _plain, None)
    assert [op.error for op in res.ops] == [None, None, None]

    _shift_global_limit(tmp_path / "out" / "report.json", 2 * wl.tol_eq)
    ops = [workloads.Op(op.name) for op in res.ops]
    wl.check(tmp_path / "out", ops)
    assert "global limit" in ops[0].error
    assert [op.error for op in ops[1:]] == [None, None]


def test_scripts_e2e_flags_wrong_outputs(tmp_path):
    wl = workloads.ScriptsE2E(ROOT, 0, tmp_path)
    res = wl.run_pass(tmp_path / "out", _plain, None)
    assert [op.name for op in res.ops] == workloads.ScriptsE2E.COMMANDS
    assert res.failed == 0, [op.error for op in res.ops]
    ref = workloads.load_references()["scripts_e2e"]

    def recheck():
        ops = [workloads.Op(op.name) for op in res.ops]
        wl.check(tmp_path / "out", ops, ref)
        return {op.name: op.error for op in ops if op.error}

    _shift_global_limit(tmp_path / "out" / "load_shed" / "report.json", 1e-5)
    assert set(recheck()) == {"analyze"}
    _shift_global_limit(tmp_path / "out" / "load_shed" / "report.json", -1e-5)
    assert recheck() == {}
    (tmp_path / "out" / "load_shed" / "eps.csv").unlink()
    assert set(recheck()) == {"plotdata:eps"}


def test_missing_command_counts_as_failed():
    ops = [workloads.Op("simulate")]
    workloads._complete(ops, ["simulate", "analyze"])
    assert [(op.name, op.error) for op in ops] \
        == [("simulate", None), ("analyze", "not run")]


# -- tracing ----------------------------------------------------------------

def test_self_times_add_up_to_the_traced_wall_time():
    tr = layertrace.Tracer()
    leaf = tr.wrap("dynamics.step", lambda: sum(range(20000)))
    mid = tr.wrap("dynamics.simulate", lambda: [leaf() for _ in range(3)],
                  post=lambda args, out: sum(range(5000)))
    tr.root(lambda: [mid() for _ in range(2)])
    tr.root(leaf)
    m = tr.layer_metrics(untraced_wall_s=0.0)
    assert m["dynamics.step.calls"] == 7
    assert m["dynamics.simulate.calls"] == 2
    parts = sum(v for k, v in m.items()
                if k.endswith(".self_s")) + m["bench.remainder_s"] \
        + m["bench.bookkeeping_s"]
    assert parts == pytest.approx(m["bench.wall_s"], rel=1e-9)
    assert m["bench.bookkeeping_s"] > 0
    assert set(m) == set(layertrace.LAYER_METRICS)


def test_install_wraps_call_sites_and_uninstall_restores_them():
    import cfsync.cli
    import cfsync.dynamics

    before = (cfsync.cli.simulate, cfsync.dynamics.step,
              cfsync.dynamics.DynamicNetwork.apply_event)
    tr = layertrace.Tracer()
    tr.install()
    try:
        assert cfsync.dynamics.step is not before[1]
    finally:
        tr.uninstall()
    assert (cfsync.cli.simulate, cfsync.dynamics.step,
            cfsync.dynamics.DynamicNetwork.apply_event) == before


def test_traced_screen_counts_layers(small_screen):
    wl, case, *_ = small_screen
    tr = layertrace.Tracer()
    tr.install()
    try:
        tr.root(lambda: [wl._screen(case, tr.entry_points())
                         for _ in range(2)])
    finally:
        tr.uninstall()
    m = tr.layer_metrics(untraced_wall_s=0.0)
    assert m["grid_model.power_flow.calls"] == 2
    assert m["grid_model.power_flow.unique_ratio"] == 0.5
    assert m["dynamics.step.calls"] == 2 * 2000
    assert m["dynamics.event.calls"] == 2
    assert m["cf_estimator.estimate.unique_ratio"] == 1.0
    assert m["sync_detector.node_verdict.calls"] == 2 * case.n_bus
    w = m["sync_detector.window_samples"]
    assert w == 501
    assert m["sync_detector.pairs_computed"] == 2 * case.n_bus * w * w
    assert m["fileio.read_trajectory.calls"] == 0
