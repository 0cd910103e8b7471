"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line so the whole gate can be read off a
plain `pytest -s tests/test_acceptance.py` run. Tolerances are pinned; do
not loosen them to make a change pass.
"""
import dataclasses
import json
import math
import time

import numpy as np
import pytest

from cfsync import SimConfig, bundled_case_path, simulate
from cfsync.cf_estimator import estimate_complex_frequency
from cfsync.cli import main
from cfsync.dynamics import step
from cfsync.fileio import load_case
from cfsync.grid_model import build_ybus, solve_power_flow
from cfsync.inertia import (
    CapacitorBusModel,
    estimate_frequency_inertia,
    estimate_voltage_inertia,
    simulate_capacitor_bus,
)
from cfsync.metrics import (
    disturbance_region,
    fit_damping,
    node_metrics,
    overshoot,
    subnet_metrics,
)
from cfsync.sync_detector import (
    NodeVerdict,
    SyncConfig,
    evaluate,
    find_convergence_time,
)
from cfsync.cf_estimator import ComplexFrequencySample


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_equilibrium_flatness(wscc9, flat_traj):
    t0 = time.perf_counter()
    traj = simulate(wscc9, SimConfig(t_end=10.0, dt=1e-3))
    runtime = time.perf_counter() - t0
    series = estimate_complex_frequency(traj)
    eps_max = float(np.abs(series.eps).max())
    om_max = float(np.abs(series.omega - traj.omega_s).max())
    ok = eps_max < 1e-6 and om_max < 1e-6 and runtime < 10.0
    report("criterion 1: undisturbed equilibrium stays flat", ok,
           f"max|eps|={eps_max:.2e}, max|omega-ws|={om_max:.2e}, "
           f"runtime={runtime:.1f}s")


def test_criterion_2_loadshed_synchronization(loadshed_traj):
    traj = loadshed_traj
    series = estimate_complex_frequency(traj)
    case = load_case(bundled_case_path("wscc9_loadshed"))
    rep = evaluate(series, case.subnets,
                   SyncConfig(t_end=20.0, t_event=2.0))
    g = rep.global_verdict
    all_conv = all(v.converged for v in rep.nodes.values())
    ok = (all_conv
          and g.status == "synchronized"
          and abs(g.limit.eps) < 1e-4
          and g.limit.omega > traj.omega_s
          and g.max_node_spread < 1e-3)
    report("criterion 2: load shed at bus 6 resynchronizes all 9 buses",
           ok, f"status={g.status}, eps_lim={g.limit.eps:.1e}, "
               f"omega_lim-ws={g.limit.omega - traj.omega_s:.3f}, "
               f"spread={g.max_node_spread:.1e}")


def test_criterion_3_rate_time_identity():
    t = np.arange(0, 20.001, 0.01)
    z = np.zeros_like(t)
    cfg = SyncConfig(t_end=20.0)
    lim = ComplexFrequencySample(0.0, 377.0)
    v = NodeVerdict(bus=1, converged=True, t_eps=10.2, t_omega=14.27,
                    t_end_k=14.27, limit=lim, fluctuation=0.0, coarse=lim)
    m = node_metrics(t, z, z + 377.0, v, cfg)
    ok = (abs(m.s_omega - 0.0701) < 5e-4 and abs(m.s_eps - 0.0980) < 5e-4)
    report("criterion 3: convergence-rate arithmetic matches the "
           "reference pairing", ok,
           f"1/14.27={m.s_omega:.4f}, 1/10.2={m.s_eps:.4f}")


def test_criterion_4_detector_oracle_equivalence():
    def oracle(times, x, target, tol, window, t_event):
        dt = times[1] - times[0]
        w = int(round(window / dt)) + 1
        for i in range(len(times)):
            if i + 1 < w or times[i] < t_event + window - 1e-9:
                continue
            if max(abs(x[j] - target)
                   for j in range(i - w + 1, i + 1)) < tol:
                return times[i]
        return None

    matches = 0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        t = np.arange(600) * 0.01
        target = rng.uniform(-1, 1)
        x = (target
             + rng.uniform(0.5, 5) * np.exp(-rng.uniform(0.1, 2) * t)
             * np.cos(rng.uniform(0.5, 20) * t)
             + rng.normal(0, rng.uniform(0, 0.02), len(t)))
        tol = rng.uniform(0.01, 0.3)
        window = float(rng.choice([0.5, 1.0, 2.0]))
        got = find_convergence_time(t, x, target, tol, window, 0.0)
        if got == oracle(t, x, target, tol, window, 0.0):
            matches += 1
    report("criterion 4: convergence detector matches the exhaustive "
           "window scan", matches == 100, f"{matches}/100")


def test_criterion_5_damping_fit_recovery():
    t = np.arange(0, 30, 1e-3)
    worst_osc, worst_exp = 0.0, 0.0
    for sigma in (0.05, 0.2, 0.5, 1.0):
        span = min(30.0, 15.0 / sigma)
        tt = t[t <= span]
        osc = fit_damping(tt, 0.3 + 2.0 * np.exp(-sigma * tt)
                          * np.cos(10 * tt), 0.3, 0.0)
        pure = fit_damping(tt, 0.3 + 2.0 * np.exp(-sigma * tt), 0.3, 0.0)
        worst_osc = max(worst_osc, abs(osc.sigma - sigma) / sigma)
        worst_exp = max(worst_exp, abs(pure.sigma - sigma))
    ok = worst_osc < 0.05 and worst_exp < 1e-6
    report("criterion 5: damping-rate fits recover known exponents", ok,
           f"oscillatory rel err={worst_osc:.3f}, "
           f"pure-exponential abs err={worst_exp:.1e}")


def test_criterion_6_voltage_inertia_inverse_proportionality():
    model = CapacitorBusModel(c_eq=2.0, s_base=100.0, v0=1.0, q_step=10.0,
                              t_step=0.5, q_load_coeff=50.0)
    out = simulate_capacitor_bus(model, [1.0, 2.0, 4.0], 5.0, 1e-3)
    i0 = int(np.searchsorted(out.times, model.t_step))
    e0 = out.eps[i0]
    ratios_ok = (abs(e0[1] / e0[0] - 0.5) < 1e-9
                 and abs(e0[2] / e0[0] - 0.25) < 1e-9)
    worst_fit = 0.0
    for j, h_v in enumerate(out.h_v_values):
        q_m = model.q_load_coeff * model.v0 ** 2 + np.where(
            out.times >= model.t_step - 1e-12, model.q_step, 0.0)
        dq = (q_m - model.q_load_coeff * out.v[:, j] ** 2) / (
            2 * model.s_base)
        fitted, _ = estimate_voltage_inertia(out.times, out.eps[:, j], dq)
        worst_fit = max(worst_fit, abs(fitted - h_v) / h_v)
    ok = ratios_ok and worst_fit < 0.01
    report("criterion 6: voltage response scales as 1/H_v and fits "
           "recover H_v", ok,
           f"ratios=({e0[1] / e0[0]:.10f}, {e0[2] / e0[0]:.10f}), "
           f"worst fit err={worst_fit:.4f}")


def test_criterion_7_frequency_inertia_recovery(wscc9_loadshed,
                                                loadshed_traj_nogov):
    traj = loadshed_traj_nogov
    ws = traj.omega_s
    worst = 0.0
    for k, gen in enumerate(wscc9_loadshed.generators):
        dp = traj.p_m[:, k] - traj.p_e[:, k]
        m, _ = estimate_frequency_inertia(traj.times, traj.omega[:, k],
                                          dp, window=(2.005, 2.3))
        worst = max(worst, abs(m - 2 * gen.h / ws) / (2 * gen.h / ws))
    report("criterion 7: swing-based inertia fits match the case file "
           "within 2%", worst < 0.02, f"worst rel err={worst:.4f}")


def test_criterion_8_numerical_hygiene(wscc9, wscc9_loadshed,
                                       loadshed_traj, each_path):
    pf = solve_power_flow(wscc9)
    y = build_ybus(wscc9)
    sym_exact = bool(np.array_equal(y, y.T))
    case_1s = dataclasses.replace(
        wscc9_loadshed,
        events=[dataclasses.replace(wscc9_loadshed.events[0], time=0.2)])
    gaps = {}
    for path in each_path():  # the rk4-vs-trapezoidal gap on each path
        a = simulate(case_1s, SimConfig(t_end=1.0, dt=1e-3,
                                        integrator="rk4"))
        b = simulate(case_1s, SimConfig(t_end=1.0, dt=1e-3,
                                        integrator="trapezoidal"))
        gaps[path] = float(np.abs(a.v - b.v).max())
    integ_gap = max(gaps.values())
    ok = (pf.max_mismatch < 1e-8 and loadshed_traj.max_residual < 1e-10
          and sym_exact and integ_gap < 1e-5)
    report("criterion 8: numerical hygiene", ok,
           f"pf mismatch={pf.max_mismatch:.1e}, "
           f"residual={loadshed_traj.max_residual:.1e}, "
           f"Y symmetric={sym_exact}, rk4-vs-trap="
           + ", ".join(f"{gap:.1e} ({path})" for path, gap in gaps.items()))


def test_criterion_9_metric_invariants():
    rng = np.random.default_rng(99)
    t = np.arange(0, 10.001, 0.01)
    cfg = SyncConfig(t_end=10.0)
    ok = True
    for _ in range(50):
        # rate = 1/time
        te, to = rng.uniform(0.1, 50, 2)
        lim = ComplexFrequencySample(0.0, 377.0)
        v = NodeVerdict(bus=1, converged=True, t_eps=float(te),
                        t_omega=float(to), t_end_k=float(max(te, to)),
                        limit=lim, fluctuation=0.0, coarse=lim)
        m = node_metrics(np.arange(0, 60.001, 0.1), np.zeros(601),
                         np.zeros(601), v, SyncConfig(t_end=60.0))
        ok &= abs(m.s_eps * te - 1.0) < 1e-12
        # overshoot translation invariance
        x = rng.standard_normal(len(t)).cumsum()
        c = rng.uniform(-10, 10)
        ok &= abs(overshoot(t, x + c, 0.0, 10.0)
                  - overshoot(t, x, 0.0, 10.0)) < 1e-9
        # disturbed-set monotonicity in tolerance
        n = 6
        eps = rng.normal(0, 2e-4, (len(t), n))
        om = 377.0 + rng.normal(0, 2e-3, (len(t), n))
        lo, hi = sorted(rng.uniform(1e-5, 1e-3, 2))
        regs = {}
        for tol in (lo, hi):
            c2 = SyncConfig(t_end=10.0, tol_eps=tol, tol_omega=10 * tol)
            regs[tol] = disturbance_region(
                t, eps, om, list(range(1, n + 1)), np.zeros(n),
                np.full(n, 377.0), c2)
        ok &= regs[hi].s_inf <= regs[lo].s_inf
        # limit_diff triangle inequality
        vs = []
        for i in range(4):
            li = ComplexFrequencySample(float(rng.uniform(-1, 1)),
                                        377 + float(rng.uniform(-1, 1)))
            vs.append(NodeVerdict(bus=i + 1, converged=True, t_eps=1.0,
                                  t_omega=1.0, t_end_k=1.0, limit=li,
                                  fluctuation=0.0, coarse=li))
        ms = [node_metrics(t, np.zeros(len(t)), np.full(len(t), 377.0),
                           vv, cfg) for vv in vs]
        d = subnet_metrics("S", ms, vs, 1e-3).limit_diff
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    ok &= d[i, j] <= d[i, k] + d[k, j] + 1e-12
        if not ok:
            break
    report("criterion 9: metric invariants hold on randomized inputs", ok)


def test_criterion_10_manifest_reproducibility(tmp_path):
    case = str(bundled_case_path("wscc9_loadshed"))
    d1 = tmp_path / "run1"
    rc = main(["simulate", "--case", case, "--t-end", "5.0",
               "--outdir", str(d1)])
    assert rc == 0
    rc = main(["analyze", "--traj", str(d1 / "trajectory.csv"),
               "--case", case, "--outdir", str(d1)])
    assert rc == 0
    d2 = tmp_path / "run2"
    rc = main(["simulate", "--from-manifest",
               str(d1 / "trajectory_manifest.json"), "--outdir", str(d2)])
    assert rc == 0
    rc = main(["analyze", "--traj", str(d2 / "trajectory.csv"),
               "--case", case, "--outdir", str(d2)])
    assert rc == 0
    traj_same = (d1 / "trajectory.csv").read_bytes() == \
        (d2 / "trajectory.csv").read_bytes()
    rep_same = (d1 / "report.json").read_bytes() == \
        (d2 / "report.json").read_bytes()
    report("criterion 10: manifest replay is byte-identical",
           traj_same and rep_same,
           f"trajectory={traj_same}, report={rep_same}")
