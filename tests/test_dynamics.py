import ast
import dataclasses
import functools
import math
import re
import warnings
from cmath import rect
from operator import add, mul, sub

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfsync import bundled_case_path, dynamics, grid_model
from cfsync.dynamics import (
    INTEGRATORS,
    SimConfig,
    SimulationError,
    initialize_dynamics,
    simulate,
    step,
)
from cfsync.fileio import load_case
from cfsync.grid_model import (
    BusSpec,
    CaseError,
    Event,
    ExciterSpec,
    GeneratorSpec,
    LineSpec,
    LoadSpec,
    NetworkCase,
    solve_power_flow,
)


def smib_case(x_line=0.5, h=3.0, d=0.0, xdp=0.3, p_set=0.0, h_inf=1e8,
              xdp_inf=0.01):
    """Single machine against a near-infinite bus (huge-inertia machine)."""
    return NetworkCase(
        s_base=100.0, f_nominal=60.0,
        buses=[
            BusSpec(1, "slack", 230.0, "A", v_set=1.0),
            BusSpec(2, "pv", 230.0, "A", v_set=1.0),
        ],
        lines=[LineSpec(1, 2, 0.0, x_line, 0.0)],
        generators=[
            GeneratorSpec(1, h=h_inf, d=0.0, xdp=xdp_inf, s_machine=100.0),
            GeneratorSpec(2, h=h, d=d, xdp=xdp, s_machine=100.0,
                          p_set=p_set),
        ],
        loads=[],
        subnets={"A": [1, 2]},
    )


def two_area_case(wscc9):
    """Two WSCC-9 copies (buses 1-9 and 11-19) joined by two tie lines: six
    machines on a meshed 18-bus network, the second copy's with exciters."""
    def shift(b):
        return b + 10
    buses = list(wscc9.buses) + [
        dataclasses.replace(b, id=shift(b.id),
                            kind="pv" if b.kind == "slack" else b.kind)
        for b in wscc9.buses]
    lines = list(wscc9.lines) + [
        dataclasses.replace(ln, from_bus=shift(ln.from_bus),
                            to_bus=shift(ln.to_bus)) for ln in wscc9.lines
    ] + [LineSpec(5, 19, 0.01, 0.1, 0.1), LineSpec(8, 14, 0.01, 0.1, 0.1)]
    gens = list(wscc9.generators) + [
        dataclasses.replace(g, bus=shift(g.bus),
                            exciter=ExciterSpec(k_ex=20.0, t_ex=0.2))
        for g in wscc9.generators]
    loads = list(wscc9.loads) + [
        LoadSpec(shift(ld.bus), 1.1 * ld.p, 1.1 * ld.q) for ld in wscc9.loads]
    return NetworkCase(
        s_base=wscc9.s_base, f_nominal=wscc9.f_nominal, buses=buses,
        lines=lines, generators=gens, loads=loads,
        subnets={"A": [b.id for b in wscc9.buses],
                 "B": [shift(b.id) for b in wscc9.buses]})


class TestConfigValidation:
    def test_dt_out_of_range(self, wscc9):
        with pytest.raises(ValueError, match="dt out of range"):
            simulate(wscc9, SimConfig(t_end=1.0, dt=0.05))

    def test_nan_event_time_is_a_case_error(self, wscc9):
        case = dataclasses.replace(wscc9, events=[
            Event(math.nan, "q_injection_step", {"bus": 5, "dq": 0.1})])
        with pytest.raises(CaseError, match="event time must be >= 0 and "
                                            "finite, not nan"):
            simulate(case, SimConfig(t_end=1.0))

    def test_bad_integrator(self):
        with pytest.raises(ValueError, match="integrator"):
            SimConfig(t_end=1.0, integrator="euler").validate()

    @pytest.mark.parametrize("record_every", [3, 7, 2001])
    def test_record_every_must_divide_the_steps(self, record_every):
        # 2 s at 1 ms: 2000 steps; a last recorded step would be short
        with pytest.raises(ValueError, match="record_every"):
            SimConfig(t_end=2.0, record_every=record_every).validate()

    @pytest.mark.parametrize("t_end", [0.0135, 0.0105])
    def test_t_end_must_be_whole_steps(self, t_end):
        # 6.75 and 5.25 steps of 2 ms: the run would end at 0.014 or 0.010
        with pytest.raises(ValueError, match=rf"t_end={t_end} .* dt=0.002"):
            SimConfig(t_end=t_end, dt=0.002).validate()

    @pytest.mark.parametrize("t_end, dt", [(20.0, 1e-3), (0.3, 3e-3),
                                           (2.005, 1e-3), (0.014, 0.002)])
    def test_float_noise_in_the_step_count_is_accepted(self, t_end, dt):
        SimConfig(t_end=t_end, dt=dt).validate()

    @pytest.mark.parametrize("t_end, dt", [
        (math.inf, 1e-3), (math.nan, 1e-3), (1.0, math.inf), (1.0, math.nan),
        (-math.inf, 1e-3)])
    def test_step_count_needs_finite_numbers(self, t_end, dt):
        # an infinite t_end raised OverflowError from round(), and an
        # infinite dt said t_end was not a whole number of its steps
        with pytest.raises(ValueError, match="need finite t_end > 0"):
            dynamics.step_count(t_end, dt)

    def test_strided_record_is_uniform(self, wscc9):
        traj = simulate(wscc9, SimConfig(t_end=0.2, dt=1e-3,
                                         record_every=8))
        np.testing.assert_allclose(np.diff(traj.times), 8e-3, rtol=1e-9)
        assert traj.times[-1] == pytest.approx(0.2)


class TestInitialization:
    def test_no_flow_equilibrium(self):
        case = smib_case(p_set=0.0)
        pf = solve_power_flow(case)
        state, _ = initialize_dynamics(case, pf)
        # zero transfer: internal angle equals the terminal angle, p_m = 0
        np.testing.assert_allclose(state[0], pf.theta, atol=1e-12)
        np.testing.assert_allclose(state[3], 0.0, atol=1e-12)

    def test_wscc_pm_matches_pf_injections(self, wscc9):
        pf = solve_power_flow(wscc9)
        state, net = initialize_dynamics(wscc9, pf)
        idx = wscc9.bus_index()
        gb = [idx[g.bus] for g in wscc9.generators]
        np.testing.assert_allclose(state[3], pf.p_inj[gb], atol=1e-8)

    def test_unconverged_pf_rejected(self, wscc9):
        pf = solve_power_flow(wscc9)
        bad = dataclasses.replace(pf, max_mismatch=0.1)
        with pytest.raises(SimulationError, match="unconverged"):
            initialize_dynamics(wscc9, bad)


class TestStateLayout:
    def test_rows_on_both_paths(self, wscc9_loadshed, each_path):
        # the machine state is the C-contiguous (4, n_gen) float64 rows
        # delta, omega, e_q, p_m, from initialization through every step,
        # not a transposed view or copy of (n_gen, 4) columns
        case = wscc9_loadshed
        pf = solve_power_flow(case)
        for path in each_path():
            state, net = initialize_dynamics(case, pf)
            assert net.n_gen == 3
            assert state.shape == (4, 3) and state.dtype == np.float64, path
            assert state.flags.c_contiguous, path
            assert (state[1] == case.omega_s).all(), path
            np.testing.assert_array_equal(state[3], net.pm0)
            net = net.apply_event(case.events[0])  # off the fixed point
            for integrator in INTEGRATORS:
                nxt = step(state, net, 1e-3, integrator)
                assert nxt.shape == (4, 3), (path, integrator)
                assert nxt.dtype == np.float64, (path, integrator)
                assert nxt.flags.c_contiguous, (path, integrator)
                assert nxt.tobytes() != state.tobytes(), (path, integrator)


class TestStep:
    def test_equilibrium_is_a_fixed_point(self, wscc9, each_path):
        pf = solve_power_flow(wscc9)
        for path in each_path():
            state, net = initialize_dynamics(wscc9, pf)
            nxt = step(state, net, 1e-3)
            assert nxt.tobytes() == state.tobytes(), path

    def test_smib_small_signal_frequency(self, each_path):
        case = smib_case(x_line=0.5, h=3.0, xdp=0.3)
        pf = solve_power_flow(case)
        ws = case.omega_s
        # closed-form linearized swing frequency around delta0 = 0
        x_total = 0.3 + 0.5 + 0.01
        p_max = 1.0 / x_total
        w_th = math.sqrt(ws * p_max / (2.0 * 3.0))
        for path in each_path():
            state, net = initialize_dynamics(case, pf)
            state[0, 1] += 0.01  # small rotor-angle perturbation
            dt = 1e-3
            n = 5000
            delta = np.empty(n + 1)
            for i in range(n + 1):
                delta[i] = state[0, 1]
                state = step(state, net, dt)
            sig = delta - delta.mean()
            crossings = np.nonzero(np.diff(np.signbit(sig)))[0]
            # refine by linear interpolation, use many periods
            t_cross = [i + sig[i] / (sig[i] - sig[i + 1]) for i in crossings]
            periods = 0.5 * (len(t_cross) - 1)
            w_meas = (2.0 * math.pi * periods
                      / ((t_cross[-1] - t_cross[0]) * dt))
            assert w_meas == pytest.approx(w_th, rel=0.01), path

    def test_unconverged_trapezoidal_step_raises(self, wscc9_loadshed,
                                                 each_path):
        # H scaled by 1/50: at dt = 20 ms the fixed-point iteration of the
        # trapezoidal rule diverges after the load shed
        case = dataclasses.replace(wscc9_loadshed, generators=[
            dataclasses.replace(g, h=0.02 * g.h)
            for g in wscc9_loadshed.generators])
        for _ in each_path():
            with pytest.raises(SimulationError, match="did not converge"):
                simulate(case, SimConfig(t_end=3.0, dt=0.02,
                                         integrator="trapezoidal"))

    @pytest.mark.parametrize("integrator", ["rk4", "trapezoidal"])
    def test_non_finite_state_raises(self, wscc9, each_path, integrator):
        # an infinite speed: numpy carries NaN on, Python's cos raises
        pf = solve_power_flow(wscc9)
        for path in each_path():
            state, net = initialize_dynamics(wscc9, pf)
            state[1, 0] = math.inf
            match = ("did not converge" if integrator == "trapezoidal"
                     else "non-finite machine state")
            with np.errstate(invalid="ignore"), \
                    pytest.raises(SimulationError, match=match):
                step(state, net, 1e-3, integrator)

    def test_unknown_integrator_raises(self, wscc9, each_path):
        pf = solve_power_flow(wscc9)
        for _ in each_path():
            state, net = initialize_dynamics(wscc9, pf)
            with pytest.raises(ValueError, match="unknown integrator"):
                step(state, net, 1e-3, "euler")

    def test_rk4_vs_trapezoidal(self, wscc9_loadshed, each_path):
        case = dataclasses.replace(
            wscc9_loadshed,
            events=[Event(0.2, "load_scale",
                          {"bus": 6, "p_factor": 0.5, "q_factor": 0.5})])
        for path in each_path():
            a = simulate(case, SimConfig(t_end=1.0, dt=1e-3,
                                         integrator="rk4"))
            b = simulate(case, SimConfig(t_end=1.0, dt=1e-3,
                                         integrator="trapezoidal"))
            assert np.max(np.abs(a.v - b.v)) < 1e-5, path


def oracle_derivs(x: list, net) -> list:
    """The float derivative in list comprehensions: the kernel's
    operations in its order, on the network's ``k_red`` and per-machine
    constants. Each row product is summed left to right from int 0, as
    ``sum`` does on CPython 3.11."""
    ng, ws = net.n_gen, net.ws
    delta, omega, e_q, p_m = (x[:ng], x[ng:2 * ng], x[2 * ng:3 * ng],
                              x[3 * ng:])
    e = list(map(rect, e_q, delta))
    out = [functools.reduce(add, map(mul, row, e), 0)
           for row in (net.k_red if net.any_exc else net.k_red[:ng]).tolist()]
    c_swing, d, c_vref, v_ref, c_eq, e0, c_gov, pm0, inv_r_gov = (
        a.tolist() for a in (net.c_swing, net.d, net.c_vref, net.v_ref,
                             net.c_eq, net.e0, net.c_gov, net.pm0,
                             net.inv_r_gov))
    d_delta = [w - ws for w in omega]
    slip = [w / ws for w in d_delta]
    d_omega = [c * (p - (u.real * v.real + u.imag * v.imag) - k * w)
               for c, p, u, v, k, w in zip(c_swing, p_m, e, out, d, slip)]
    if net.any_exc:
        d_eq = [a * (r - abs(v)) - b * (q - q0) for a, r, v, b, q, q0
                in zip(c_vref, v_ref, out[ng:], c_eq, e_q, e0)]
    else:
        d_eq = [0.0] * ng
    d_pm = [c * (p0 - w * r - p)
            for c, p0, w, r, p in zip(c_gov, pm0, slip, inv_r_gov, p_m)]
    return d_delta + d_omega + d_eq + d_pm


def oracle_step(state, net, dt, integrator):
    """``dynamics.step`` on the float path as list comprehensions over
    ``oracle_derivs``, with its error mapping."""
    x = state.ravel().tolist()
    try:
        if integrator == "rk4":
            h = 0.5 * dt
            k1 = oracle_derivs(x, net)
            k2 = oracle_derivs([a + h * b for a, b in zip(x, k1)], net)
            k3 = oracle_derivs([a + h * b for a, b in zip(x, k2)], net)
            k4 = oracle_derivs([a + dt * b for a, b in zip(x, k3)], net)
            h = dt / 6.0
            nxt = [a + h * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                   for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
        else:
            f0 = oracle_derivs(x, net)
            nxt = [a + dt * b for a, b in zip(x, f0)]
            h = 0.5 * dt
            for _ in range(dynamics._TRAP_MAX_ITER):
                f1 = oracle_derivs(nxt, net)
                cand = [a + h * (b0 + b1) for a, b0, b1 in zip(x, f0, f1)]
                change = max(map(abs, map(sub, cand, nxt)))
                tol = 1e-13 * (1.0 + max(map(abs, nxt)))
                nxt = cand
                if change < tol and all(map(math.isfinite, nxt)):
                    break
            else:
                raise dynamics._unconverged(change, dt)
    except (ValueError, OverflowError):
        if integrator == "trapezoidal":
            raise dynamics._unconverged(math.nan, dt) from None
        raise SimulationError("non-finite machine state") from None
    if not all(map(math.isfinite, nxt)):
        raise SimulationError("non-finite machine state")
    return np.array(nxt).reshape(4, net.n_gen)


def numpy_oracle_derivs(state, net):
    """The numpy derivative as whole-array expressions, each result a new
    array: the operations of the numpy kernel in its order."""
    delta, omega, e_q, p_m = state
    pe, v_abs = net.reduced(delta, e_q)
    d_delta = omega - net.ws
    slip = d_delta / net.ws
    d_eq = (net.c_vref * (net.v_ref - v_abs) - net.c_eq * (e_q - net.e0)
            if net.any_exc else np.zeros(net.n_gen))
    return np.array([d_delta, net.c_swing * (p_m - pe - net.d * slip), d_eq,
                     net.c_gov * (net.pm0 - slip * net.inv_r_gov - p_m)])


def numpy_oracle_step(state, net, dt, integrator):
    """One numpy-path step from ``numpy_oracle_derivs``, with its checks."""
    if integrator == "rk4":
        k1 = numpy_oracle_derivs(state, net)
        k2 = numpy_oracle_derivs(state + 0.5 * dt * k1, net)
        k3 = numpy_oracle_derivs(state + 0.5 * dt * k2, net)
        k4 = numpy_oracle_derivs(state + dt * k3, net)
        nxt = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    else:
        h = 0.5 * dt
        f0 = numpy_oracle_derivs(state, net)
        nxt = state + dt * f0
        for _ in range(dynamics._TRAP_MAX_ITER):
            f1 = numpy_oracle_derivs(nxt, net)
            cand = state + h * (f0 + f1)
            change = abs(cand - nxt).max()
            tol = 1e-13 * (1.0 + abs(nxt).max())
            nxt = cand
            if change < tol:
                break
        else:
            raise dynamics._unconverged(change, dt)
    if not np.isfinite(nxt).all():
        raise SimulationError("non-finite machine state")
    return nxt


@pytest.fixture
def kernel_steps(monkeypatch):
    """The steps the segment kernels of every network bound from now on
    take, by path: ``{"floats": n, "numpy": n}``."""
    steps = {"floats": 0, "numpy": 0}
    bind = dynamics.DynamicNetwork._bind_kernel

    def counted(net, pm0, e0, v_ref):
        bind(net, pm0, e0, v_ref)
        run = net.run

        def counted_run(*args):
            taken, last = run(*args)
            steps["floats" if net.floats else "numpy"] += taken
            return taken, last
        net.run = counted_run

    monkeypatch.setattr(dynamics.DynamicNetwork, "_bind_kernel", counted)
    return steps


FLOAT_CASES = ["smib", "wscc9", "wscc9_exciters", "two_area"]


def float_case(wscc9, which):
    """A case of at most six machines for the float-path tests, with a
    line trip and a reactive injection step to apply to it."""
    case = {
        "smib": lambda: smib_case(p_set=0.5),
        "wscc9": lambda: wscc9,
        "wscc9_exciters": lambda: dataclasses.replace(wscc9, generators=[
            dataclasses.replace(g, exciter=ExciterSpec(k_ex=20.0, t_ex=0.2))
            for g in wscc9.generators]),
        "two_area": lambda: two_area_case(wscc9),
    }[which]()
    trip = (Event(0.0, "line_trip", {"from": 1, "to": 2})
            if which == "smib" else Event(0.0, "line_trip", TRIP))
    inject = Event(0.0, "q_injection_step",
                   {"bus": 2 if which == "smib" else 8, "dq": 0.2})
    return case, trip, inject


@functools.cache
def float_networks(which):
    """The initial state and the float-path network of ``float_case``
    before any event, after the trip, and after the trip and the
    injection."""
    case, trip, inject = float_case(load_case(bundled_case_path("wscc9")),
                                    which)
    state, net = initialize_dynamics(case, solve_power_flow(case))
    assert net.floats and net.float_derivs is not None
    nets = [net]
    for event in (trip, inject):
        nets.append(nets[-1].apply_event(event))
    return state, nets


def outcome(stepper, *args):
    """The bytes a step returns, or the message of the SimulationError it
    raises."""
    try:
        return stepper(*args).tobytes()
    except SimulationError as exc:
        return str(exc)


T_FAULT = 0.5  # s
FAULT_DQ = 1e6  # p.u.: a shunt that holds the faulted bus at about 0 V


def fault_case(duration: float) -> NetworkCase:
    """One machine (H = 3 s, D = 0, x'd = 0.2, P_m = 0.8) against an
    infinite bus (H = 1e6 s, x'd = 1e-6) over a line of x = 0.3, with a
    bolted fault at the machine's bus from T_FAULT for ``duration`` s."""
    return dataclasses.replace(
        smib_case(x_line=0.3, h=3.0, xdp=0.2, p_set=0.8, h_inf=1e6,
                  xdp_inf=1e-6),
        events=[Event(T_FAULT, "q_injection_step",
                      {"bus": 2, "dq": -FAULT_DQ}),
                Event(T_FAULT + duration, "q_injection_step",
                      {"bus": 2, "dq": FAULT_DQ})])


class TestOneMachineInfiniteBus:
    """The simulated transient against the closed forms of one machine
    swinging against an infinite bus, M delta'' = P_m - P_max sin(delta):
    the swing frequency of small oscillations and the equal-area critical
    clearing time of a fault that takes P_e to 0. Both take P_max and
    delta0 from the case's power flow."""

    @pytest.fixture(scope="class")
    def closed_form(self):
        case = fault_case(0.0)
        pf = solve_power_flow(case)
        v = pf.v * np.exp(1j * pf.theta)
        xdp = np.array([g.xdp for g in case.generators])  # buses 1, 2
        e = v + 1j * xdp * np.conj((pf.p_inj + 1j * pf.q_inj) / v)
        p_max = abs(e[0]) * abs(e[1]) / (xdp.sum() + case.lines[0].x)
        delta0 = float(np.angle(e[1] / e[0]))
        p_m = case.generators[1].p_set
        m = 2.0 * case.generators[1].h / case.omega_s
        delta_cr = math.acos(p_m * (math.pi - 2 * delta0) / p_max
                             - math.cos(delta0))
        return {"delta0": delta0,
                "omega_n": math.sqrt(p_max * math.cos(delta0) / m),
                "t_cr": math.sqrt(2 * m * (delta_cr - delta0) / p_m)}

    # measured: omega_n 10.933532 rad/s against 10.933474 from rk4
    # (-5.3e-6 relative) and 10.933365 from trapezoidal (-1.5e-5, of which
    # its phase error (omega_n dt)^2 / 12 is 1.0e-5), on both paths
    @pytest.mark.parametrize("integrator, rel", [("rk4", 1e-5),
                                                 ("trapezoidal", 2e-5)])
    def test_swing_frequency(self, closed_form, each_path, integrator, rel):
        # a 2 ms fault rings down at 9.2e-3 rad, undamped: the upward
        # crossings of delta0 are whole periods apart
        for path in each_path():
            traj = simulate(fault_case(2e-3), SimConfig(
                t_end=4.0, dt=1e-3, integrator=integrator))
            after = traj.times > T_FAULT + 0.01
            t = traj.times[after]
            x = (traj.delta[after, 1] - traj.delta[after, 0]
                 - closed_form["delta0"])
            up = np.flatnonzero((x[:-1] < 0) & (x[1:] >= 0))
            frac = x[up] / (x[up] - x[up + 1])
            crossing = t[up] + frac * (t[up + 1] - t[up])
            periods = len(crossing) - 1
            assert periods >= 4, path
            omega = 2 * math.pi * periods / (crossing[-1] - crossing[0])
            assert omega == pytest.approx(closed_form["omega_n"],
                                          rel=rel), path

    @pytest.mark.parametrize("dt", [1e-3, 5e-4])
    def test_critical_clearing_time(self, closed_form, each_path, dt):
        # Events take effect on the step grid, so the simulated critical
        # clearing time is a bracket [a, a + dt): a fault cleared after a
        # seconds leaves the machine in step, one cleared a step later
        # makes it slip a pole. The machine holds for every shorter fault
        # and slips for every longer one, so t_cr lies within one dt of
        # the bracket exactly when it holds at k - 1 steps and slips at
        # k + 2, k = floor(t_cr / dt). Measured: t_cr = 0.217179 s against
        # [0.217, 0.218) at 1 ms and [0.217, 0.2175) at 0.5 ms.
        k = math.floor(closed_form["t_cr"] / dt)
        for path in each_path():
            for steps, slips in ((k - 1, False), (k + 2, True)):
                traj = simulate(fault_case(steps * dt),
                                SimConfig(t_end=1.5, dt=dt))
                angle = traj.delta[:, 1] - traj.delta[:, 0]
                assert (angle.max() > math.pi) == slips, (path, steps)


class TestFloatPath:
    """The generated float kernel against numpy's derivative and, bit for
    bit, against the list-comprehension oracle."""

    @pytest.mark.parametrize("which", FLOAT_CASES)
    def test_derivatives_agree(self, wscc9, monkeypatch, which):
        case, trip, inject = float_case(wscc9, which)
        pf = solve_power_flow(case)
        monkeypatch.setattr(dynamics, "_FLOAT_MAX_GEN", 0)
        state, net_np = initialize_dynamics(case, pf)
        monkeypatch.setattr(dynamics, "_FLOAT_MAX_GEN", 10**6)
        _, net_fl = initialize_dynamics(case, pf)
        assert not net_np.floats and net_np.float_derivs is None
        assert net_fl.floats and net_fl.float_derivs is not None
        # the same operating point on both paths, up to the last bits
        np.testing.assert_allclose(net_fl.pm0, net_np.pm0, rtol=0,
                                   atol=1e-13)
        np.testing.assert_allclose(net_fl.v_ref, net_np.v_ref, rtol=0,
                                   atol=1e-13)
        rng = np.random.default_rng(3)
        for event in (None, trip, inject):
            if event is not None:
                net_np = net_np.apply_event(event)
                net_fl = net_fl.apply_event(event)
            for _ in range(5):
                x = state.copy()
                x[0] += rng.normal(0.0, 0.3, net_np.n_gen)
                x[1] += rng.normal(0.0, 1.0, net_np.n_gen)
                x[2] *= rng.uniform(0.9, 1.1, net_np.n_gen)
                x[3] *= rng.uniform(0.9, 1.1, net_np.n_gen)
                want = numpy_oracle_derivs(x, net_np)
                got = net_fl.float_derivs(x.ravel().tolist())
                np.testing.assert_allclose(
                    np.reshape(got, (4, -1)), want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("which", FLOAT_CASES)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_step_matches_oracle(self, which, data):
        # states drawn near the operating point, half of them with one
        # entry of any value (overflowing, infinite or NaN): the kernel
        # returns the oracle's bytes, or raises its error
        state, nets = float_networks(which)
        net = data.draw(st.sampled_from(nets), label="network")
        ng = net.n_gen
        x = state.copy()
        for row, scale in enumerate((1.0, 10.0, 0.2, 0.5)):
            x[row] += data.draw(st.lists(
                st.floats(-scale, scale), min_size=ng, max_size=ng))
        if data.draw(st.booleans(), label="wild"):
            x[data.draw(st.integers(0, 3)),
              data.draw(st.integers(0, ng - 1))] = data.draw(st.floats())
        dt = data.draw(st.sampled_from([1e-3, 4e-3, 0.02]), label="dt")
        for integrator in INTEGRATORS:
            with np.errstate(all="ignore"):
                want = outcome(oracle_step, x, net, dt, integrator)
            assert outcome(step, x, net, dt, integrator) == want, integrator

    def test_fixed_points_match_oracle(self):
        # every network's own initial state, where the trapezoidal
        # iteration and the fixed-point skip are exact
        for which in FLOAT_CASES:
            state, nets = float_networks(which)
            for net in nets:
                for integrator in INTEGRATORS:
                    assert step(state, net, 1e-3, integrator).tobytes() \
                        == oracle_step(state, net, 1e-3,
                                       integrator).tobytes(), which

    def test_load_shed_matches_oracle(self, wscc9_loadshed, loadshed_traj):
        # the scripts' 20 s load shed, stepped row by row by the oracle
        # from the initial state, and put through the record pass
        case = wscc9_loadshed
        state, net = initialize_dynamics(case, solve_power_flow(case))
        nets = [(0, net)]
        states = [state]
        for i in range(1, 20001):
            if i == 2001:  # the shed at t = 2 s takes effect at step 2000
                net = net.apply_event(case.events[0])
                nets.append((2000, net))
            states.append(oracle_step(states[-1], net, 1e-3, "rk4"))
        assert dynamics.step_index(case.events[0].time, 1e-3) == 2000
        rec = np.ascontiguousarray(np.array(states).transpose(1, 0, 2))
        for k, name in enumerate(("delta", "omega", "e_q", "p_m")):
            assert getattr(loadshed_traj, name).tobytes() == \
                np.ascontiguousarray(rec[k]).tobytes(), name
        v, theta, p_e, q_e, res = record(
            nets, loadshed_traj.times, rec[0], rec[2])
        for name, want in (("v", v), ("theta", theta), ("p_e", p_e),
                           ("q_e", q_e)):
            assert getattr(loadshed_traj, name).tobytes() == want.tobytes(), \
                name
        assert loadshed_traj.max_residual == res

    def test_path_fixed_at_construction(self, wscc9, monkeypatch,
                                        kernel_steps):
        # a network keeps the path it was built on through its events,
        # whatever the machine-count threshold is by then: only a numpy
        # network steps on the numpy kernel, and a float network steps on
        # the kernel of its network after the events
        case, trip, inject = float_case(wscc9, "wscc9")
        pf = solve_power_flow(case)
        for built, later in ((0, 10**6), (10**6, 0)):
            monkeypatch.setattr(dynamics, "_FLOAT_MAX_GEN", built)
            state, net = initialize_dynamics(case, pf)
            monkeypatch.setattr(dynamics, "_FLOAT_MAX_GEN", later)
            for event in (trip, inject):
                net = net.apply_event(event)
            for integrator in INTEGRATORS:
                kernel_steps.update(floats=0, numpy=0)
                got = step(state, net, 1e-3, integrator)
                assert bool(kernel_steps["numpy"]) == (built == 0), \
                    (built, integrator)
                assert kernel_steps["floats"] + kernel_steps["numpy"] == 1
                oracle = oracle_step if built else numpy_oracle_step
                assert got.tobytes() == oracle(
                    state, net, 1e-3, integrator).tobytes(), integrator

    def test_kernel_compiles_once_per_shape(self, wscc9):
        # two networks of one shape and an event on one of them share the
        # compiled kernel, whose source holds no network's values
        other = dataclasses.replace(wscc9, loads=[
            dataclasses.replace(ld, p=1.1 * ld.p) for ld in wscc9.loads])
        dynamics._float_kernel.cache_clear()
        _, a = initialize_dynamics(wscc9, solve_power_flow(wscc9))
        _, b = initialize_dynamics(other, solve_power_flow(other))
        code = a.float_derivs.__code__
        a = a.apply_event(Event(0.0, "line_trip", TRIP))
        info = dynamics._float_kernel.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert a.float_derivs.__code__ is code is b.float_derivs.__code__
        assert b.pm0.tolist() != a.pm0.tolist()
        for any_exc in (False, True):
            tree = ast.parse(dynamics._kernel_source(3, any_exc))
            consts = {node.value for node in ast.walk(tree)
                      if isinstance(node, ast.Constant)}
            assert consts <= {0, 0.5, 2.0, 6.0}, consts


class TestSimulate:
    def test_undisturbed_equilibrium_stays_flat(self, flat_traj):
        assert np.max(np.abs(flat_traj.v - flat_traj.v[0])) < 1e-6
        dtheta = np.abs(np.diff(flat_traj.theta, axis=0)) / 1e-3
        assert dtheta.max() < 1e-6

    def test_determinism(self, wscc9_loadshed):
        cfg = SimConfig(t_end=3.0, dt=1e-3, record_every=10)
        a = simulate(wscc9_loadshed, cfg)
        b = simulate(wscc9_loadshed, cfg)
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.omega, b.omega)

    def test_algebraic_residual_small(self, loadshed_traj):
        assert loadshed_traj.max_residual < 1e-10

    def test_loadshed_excursion_and_final_speed(self, loadshed_traj):
        traj = loadshed_traj
        ws = traj.omega_s
        assert traj.event_times == [2.0]
        # pronounced eps excursion right at the event, at every bus
        eps = np.gradient(np.log(traj.v), traj.times, axis=0)
        i_ev = np.searchsorted(traj.times, 2.0)
        pre = np.abs(eps[: i_ev - 2]).max()
        at_event = np.abs(eps[i_ev - 2: i_ev + 2]).max(axis=0)
        assert pre < 1e-6
        assert np.all(at_event > 100 * max(pre, 1e-6))
        # generation excess after the shed: common final speed above nominal
        assert np.all(traj.omega[-1] > ws + 0.1)
        spread = traj.omega[-1001:].max(axis=1) - traj.omega[-1001:].min(axis=1)
        assert spread.max() < 1e-4

    def test_event_beyond_t_end_warns(self, wscc9):
        case = dataclasses.replace(
            wscc9, events=[Event(5.0, "load_scale",
                                 {"bus": 6, "p_factor": 0.5,
                                  "q_factor": 0.5})])
        with pytest.warns(UserWarning, match="beyond t_end"):
            traj = simulate(case, SimConfig(t_end=0.1, dt=1e-3))
        assert traj.event_times == []

    def test_theta_stays_wrapped(self, loadshed_traj):
        assert np.all(loadshed_traj.theta > -math.pi - 1e-12)
        assert np.all(loadshed_traj.theta <= math.pi + 1e-12)

    def test_exciter_holds_terminal_voltage_equilibrium(self, wscc9):
        case = dataclasses.replace(
            wscc9,
            generators=[
                dataclasses.replace(g, exciter=ExciterSpec(k_ex=20.0,
                                                           t_ex=0.2))
                for g in wscc9.generators
            ])
        traj = simulate(case, SimConfig(t_end=1.0, dt=1e-3))
        assert np.max(np.abs(traj.v - traj.v[0])) < 1e-9
        assert np.max(np.abs(traj.e_q - traj.e_q[0])) < 1e-9


class TestReducedNetwork:
    """The Kron-reduced machine quantities against the bus-level solve."""

    @pytest.mark.parametrize("which", ["wscc9", "two_area"])
    def test_reduced_matches_bus_level(self, wscc9, each_path, which):
        case = wscc9 if which == "wscc9" else two_area_case(wscc9)
        pf = solve_power_flow(case)
        for path in each_path():
            state, net = initialize_dynamics(case, pf)
            rng = np.random.default_rng(0)
            for trip in (None, Event(0.0, "line_trip", TRIP)):
                if trip is not None:
                    net = net.apply_event(trip)
                for _ in range(5):
                    delta = state[0] + rng.normal(0.0, 0.3, net.n_gen)
                    e_q = state[2] * rng.uniform(0.9, 1.1, net.n_gen)
                    pe, v_term = net.reduced(delta, e_q)
                    e = e_q * np.exp(1j * delta)
                    v = net.solve(e)
                    pe_bus, _ = net.machine_power(e, v)
                    np.testing.assert_allclose(pe, pe_bus, rtol=0,
                                               atol=1e-12, err_msg=path)
                    np.testing.assert_allclose(v_term, np.abs(v[net.gen_bus]),
                                               rtol=0, atol=1e-12,
                                               err_msg=path)

    def test_second_trip_of_a_line_is_refused(self, wscc9):
        _, net = initialize_dynamics(wscc9, solve_power_flow(wscc9))
        net = net.apply_event(Event(1.0, "line_trip", {"from": 5, "to": 7}))
        y_once = net.ybus.copy()
        with pytest.raises(CaseError, match="tripped twice"):
            net.apply_event(Event(2.0, "line_trip", {"from": 7, "to": 5}))
        np.testing.assert_array_equal(net.ybus, y_once)

    @pytest.mark.parametrize("event, message", [
        pytest.param(Event(1.0, "load_scale", {"bus": 5, "p_factor": math.nan,
                                               "q_factor": 1.0}),
                     "param 'p_factor' must be a finite number, not nan",
                     id="nan_p_factor"),
        pytest.param(Event(1.0, "load_scale", {"bus": 5, "p_factor": 0.5}),
                     "param 'q_factor' is missing", id="missing_q_factor"),
        pytest.param(Event(1.0, "q_injection_step",
                           {"bus": 5, "dq": math.inf}),
                     "param 'dq' must be a finite number, not inf",
                     id="inf_dq"),
        pytest.param(Event(-1.0, "q_injection_step", {"bus": 5, "dq": 0.1}),
                     "event time must be >= 0 and finite, not -1.0",
                     id="negative_time"),
        pytest.param(Event(1.0, "fault", {"bus": 5}),
                     "unknown event kind 'fault'", id="unknown_kind"),
    ])
    def test_bad_event_is_refused(self, wscc9, event, message):
        # refused as input, before any next state is built, and the
        # receiver keeps its arrays
        _, net = initialize_dynamics(wscc9, solve_power_flow(wscc9))
        bits = {name: getattr(net, name).tobytes()
                for name in ("ybus", "load_adm", "k_red")}
        with pytest.raises(CaseError, match=re.escape(message)):
            net.apply_event(event)
        for name, b in bits.items():
            assert getattr(net, name).tobytes() == b, name
        assert net.tripped == frozenset()

    def test_each_event_is_checked_once(self, wscc9_loadshed, monkeypatch):
        # the network state checks an event with its trip history and then
        # updates the matrices, with no second check against the case
        calls = []
        check = grid_model.check_event

        def counting(*args, **kwargs):
            calls.append(args[1])
            return check(*args, **kwargs)

        case = wscc9_loadshed
        _, net = initialize_dynamics(case, solve_power_flow(case))
        for owner in (grid_model, dynamics):
            monkeypatch.setattr(owner, "check_event", counting)
        events = [*case.events, Event(0.0, "line_trip", TRIP)]
        for event in events:
            net = net.apply_event(event)
        assert calls == events

    def test_event_leaves_its_receiver_as_it_was(self, wscc9_loadshed,
                                                 each_path):
        # apply_event returns the next network state; the one it is called
        # on keeps its arrays, lines and kernel, and steps as before
        case = wscc9_loadshed
        for path in each_path():
            state, net = initialize_dynamics(case, solve_power_flow(case))
            x = state.copy()
            x[0, 0] += 0.1  # off the fixed point
            before = step(x, net, 1e-3).tobytes()
            names = ("ybus", "k_red", "zg", "tripped", "run")
            kept = {name: getattr(net, name) for name in names}
            bits = {name: kept[name].tobytes() for name in names[:3]}
            for event in (case.events[0], Event(0.0, "line_trip", TRIP)):
                nxt = net.apply_event(event)
                assert isinstance(nxt, dynamics.DynamicNetwork), path
                assert nxt is not net, path
                for name in names:
                    assert getattr(net, name) is kept[name], (path, name)
                for name, b in bits.items():
                    assert getattr(net, name).tobytes() == b, (path, name)
                assert net.tripped == frozenset(), path
                assert step(x, net, 1e-3).tobytes() == before, path
                assert step(x, nxt, 1e-3).tobytes() != before, path
            assert nxt.tripped == {frozenset((5, 7))}, path


def per_row_oracle(case, config):
    """The recorded quantities computed row by row on the live network, as
    the integration reaches each recorded step."""
    state, net = initialize_dynamics(case, solve_power_flow(case))
    n_steps = int(round(config.t_end / config.dt))
    pending = sorted(case.events, key=lambda e: e.time)
    rows = []
    for i in range(n_steps + 1):
        for ev in pending:
            if int(math.ceil(ev.time / config.dt - 1e-9)) == i:
                net = net.apply_event(ev)
        if i % config.record_every == 0:
            e = state[2] * np.exp(1j * state[0])
            v = net.solve(e)
            pe, qe = net.machine_power(e, v)
            rows.append((state.copy(), np.abs(v), np.angle(v), pe, qe,
                         net.residual(e, v)))
        if i < n_steps:
            state = step(state, net, config.dt, config.integrator)
    states, v, theta, pe, qe, res = zip(*rows)
    return (np.array(states), np.array(v), np.array(theta), np.array(pe),
            np.array(qe), max(res))


def record(stretches, times, delta, e_q):
    """The record pass over the rows of ``stretches``, (first row, network)
    in row order, each holding up to the next one's first row: v, theta,
    p_e, q_e and the largest residual."""
    n_rec, ng = delta.shape
    nb = stretches[0][1].case.n_bus
    v, theta = np.empty((n_rec, nb)), np.empty((n_rec, nb))
    p_e, q_e = np.empty((n_rec, ng)), np.empty((n_rec, ng))
    res = 0.0
    stops = [first for first, _ in stretches[1:]] + [n_rec]
    for (first, net), stop in zip(stretches, stops):
        rows = slice(first, stop)
        res = max(res, dynamics._record_pass(
            net, delta[rows], e_q[rows], times[rows], v[rows], theta[rows],
            p_e[rows], q_e[rows]))
    return v, theta, p_e, q_e, res


SHED = {"bus": 6, "p_factor": 0.5, "q_factor": 0.5}
TRIP = {"from": 5, "to": 7}


class TestRecordPass:
    @pytest.mark.parametrize("events,record_every", [
        ([Event(0.0, "load_scale", SHED)], 1),                 # step 0
        ([Event(0.2, "load_scale", SHED)], 1),                 # last step
        ([Event(0.0495, "load_scale", SHED),
          Event(0.05, "line_trip", TRIP)], 1),                 # one step
        ([Event(0.102, "load_scale", SHED)], 4),               # between rows
        ([Event(0.1005, "load_scale", SHED),
          Event(0.1015, "line_trip", TRIP)], 4),               # no row
        ([Event(0.2, "load_scale", SHED)], 4),                 # last row
    ], ids=["first_step", "last_step", "two_on_one_step", "between_rows",
            "two_in_one_interval", "last_step_every_4"])
    def test_matches_per_row_oracle(self, wscc9, monkeypatch, events,
                                    record_every):
        # small record-pass blocks, so that each segment spans several
        # blocks and ends in a short one
        monkeypatch.setattr(dynamics, "_RECORD_BLOCK", 7)
        case = dataclasses.replace(wscc9, events=events)
        config = SimConfig(t_end=0.2, dt=1e-3, record_every=record_every)
        traj = simulate(case, config)
        states, v, theta, pe, qe, res = per_row_oracle(case, config)
        assert len(traj.times) == len(states)
        for k, got in enumerate((traj.delta, traj.omega, traj.e_q,
                                 traj.p_m)):
            np.testing.assert_array_equal(got, states[:, k])
        for got, want in ((traj.v, v), (traj.theta, theta),
                          (traj.p_e, pe), (traj.q_e, qe)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert traj.max_residual == pytest.approx(res, abs=1e-14)
        assert traj.max_residual < 1e-10

    def test_non_finite_voltage_names_the_first_bad_time(self, wscc9,
                                                         monkeypatch):
        monkeypatch.setattr(dynamics, "_RECORD_BLOCK", 7)
        state, net = initialize_dynamics(wscc9, solve_power_flow(wscc9))
        times = np.arange(40) * 1e-3
        delta = np.tile(state[0], (40, 1))
        e_q = np.tile(state[2], (40, 1))
        delta[[23, 31], 1] = np.nan
        with pytest.raises(SimulationError,
                           match=f"non-finite bus voltage at t={times[23]}$"):
            record([(0, net), (20, net)], times, delta, e_q)

    def test_peak_memory_does_not_grow_with_rows(self, wscc9, traced_peak):
        state, net = initialize_dynamics(wscc9, solve_power_flow(wscc9))
        rng = np.random.default_rng(1)
        excess = []
        for n_rows in (2048, 32768):
            times = np.arange(n_rows) * 1e-3
            delta = state[0] + rng.normal(0.0, 0.1, (n_rows, net.n_gen))
            e_q = np.broadcast_to(state[2], delta.shape).copy()
            out, peak = traced_peak(lambda: record(
                [(0, net)], times, delta, e_q))
            excess.append(peak - sum(a.nbytes for a in out[:4]))
        # 16x the rows: the temporaries beyond the outputs stay put
        assert excess[1] < 1.25 * excess[0] + 65536


class TestFixedPointSkip:
    """Steps from a bit-exact fixed point up to the next event are not
    taken; the trajectory is the one of a loop that calls step every
    time, bit for bit."""

    @pytest.mark.parametrize("integrator", ["rk4", "trapezoidal"])
    @pytest.mark.parametrize("record_every", [1, 3])
    @pytest.mark.parametrize("t_event", [0.099, 0.1],
                             ids=["on_record", "off_record"])  # for 3
    def test_matches_stepping_every_step(self, wscc9, each_path, kernel_steps,
                                         integrator, record_every, t_event):
        case = dataclasses.replace(
            wscc9, events=[Event(t_event, "load_scale", SHED)])
        config = SimConfig(t_end=0.3, dt=1e-3, integrator=integrator,
                           record_every=record_every)
        i_event = int(round(t_event / config.dt))  # 99 or 100
        for path in each_path():
            kernel_steps.update(floats=0, numpy=0)
            traj = simulate(case, config)
            # one step finds the fixed point, then the steps from the event
            assert kernel_steps[path] == 1 + 300 - i_event, path
            assert sum(kernel_steps.values()) == kernel_steps[path]
            states = per_row_oracle(case, config)[0]
            for k, got in enumerate((traj.delta, traj.omega, traj.e_q,
                                     traj.p_m)):
                assert got.tobytes() == np.ascontiguousarray(
                    states[:, k]).tobytes(), path

    def test_no_event_takes_one_step(self, wscc9, each_path, kernel_steps):
        for path in each_path():
            kernel_steps.update(floats=0, numpy=0)
            traj = simulate(wscc9, SimConfig(t_end=1.0, dt=1e-3,
                                             record_every=4))
            assert kernel_steps[path] == 1, path
            assert len(traj.times) == 251
            assert np.all(traj.delta == traj.delta[0])

    def test_default_load_shed_steps(self, wscc9_loadshed, kernel_steps):
        # the scripts' 20 s load shed on its own path: one step finds the
        # initial fixed point, then 18,000 from the shed at t = 2 s on
        simulate(wscc9_loadshed, SimConfig(t_end=20.0, dt=1e-3))
        assert kernel_steps == {"floats": 18001, "numpy": 0}


class TestSegmentKernel:
    """``simulate`` calls each network state's segment kernel once per
    stretch between events."""

    @pytest.mark.parametrize("integrator", INTEGRATORS)
    def test_numpy_trajectory_matches_per_step_oracle(self, wscc9,
                                                      monkeypatch,
                                                      kernel_steps,
                                                      integrator):
        # six machines, three with exciters, on the numpy path; two events,
        # one between recorded rows
        monkeypatch.setattr(dynamics, "_FLOAT_MAX_GEN", 0)
        case = dataclasses.replace(two_area_case(wscc9), events=[
            Event(0.05, "line_trip", TRIP),
            Event(0.1005, "load_scale", SHED)])
        config = SimConfig(t_end=0.3, dt=1e-3, integrator=integrator,
                           record_every=3)
        traj = simulate(case, config)
        assert traj.event_times == [0.05, 0.101]
        # one step finds the initial fixed point; 250 more after the trip
        assert kernel_steps == {"floats": 0, "numpy": 251}

        state, net = initialize_dynamics(case, solve_power_flow(case))
        rows = [state]
        for i in range(1, 301):
            if i - 1 in (50, 101):
                net = net.apply_event(case.events[(i - 1) // 100])
            state = numpy_oracle_step(state, net, 1e-3, integrator)
            if i % 3 == 0:
                rows.append(state)
        rec = np.array(rows)
        for k, name in enumerate(("delta", "omega", "e_q", "p_m")):
            assert getattr(traj, name).tobytes() == \
                np.ascontiguousarray(rec[:, k]).tobytes(), name

    @pytest.mark.parametrize("which", FLOAT_CASES)
    def test_numpy_step_matches_oracle(self, wscc9, monkeypatch, which):
        # states near the operating point, some with a -0.0 angle or one
        # entry overflowing, infinite or NaN, on each network state: the
        # numpy kernel returns the oracle's bytes, or raises its error
        monkeypatch.setattr(dynamics, "_FLOAT_MAX_GEN", 0)
        case, trip, inject = float_case(wscc9, which)
        state, net = initialize_dynamics(case, solve_power_flow(case))
        rng = np.random.default_rng(4)
        wild = [-0.0, 1e300, math.inf, -math.inf, math.nan]
        for event in (None, trip, inject):
            if event is not None:
                net = net.apply_event(event)
            for n in range(60):
                x = state.copy()
                for row, scale in enumerate((1.0, 10.0, 0.2, 0.5)):
                    x[row] += rng.uniform(-scale, scale, net.n_gen)
                if n % 3 == 0:
                    x[0 if n % 2 else rng.integers(4),
                      rng.integers(net.n_gen)] = wild[n // 3 % len(wild)]
                dt = (1e-3, 4e-3, 0.02)[n % 3]
                for integrator in INTEGRATORS:
                    with np.errstate(all="ignore"):
                        want = outcome(numpy_oracle_step, x, net, dt,
                                       integrator)
                    assert outcome(step, x, net, dt, integrator) == want, \
                        (event, n, integrator)

    def test_non_finite_state_inside_a_segment(self, wscc9_loadshed,
                                               each_path):
        # H scaled by 1/1000: at dt = 20 ms RK4 blows up 82 steps after
        # the shed at step 100, in the middle of the 200-step segment; no
        # numpy warning precedes the error
        case = dataclasses.replace(wscc9_loadshed, generators=[
            dataclasses.replace(g, h=1e-3 * g.h)
            for g in wscc9_loadshed.generators])
        for path in each_path():
            state, net = initialize_dynamics(case, solve_power_flow(case))
            net = net.apply_event(case.events[0])
            for _ in range(81):
                state = step(state, net, 0.02)
            with pytest.raises(SimulationError,
                               match="^non-finite machine state$"):
                step(state, net, 0.02)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SimulationError,
                                   match="^non-finite machine state$"):
                    simulate(case, SimConfig(t_end=6.0, dt=0.02))

    @pytest.mark.parametrize("integrator", INTEGRATORS)
    def test_run_rows_match_stepping_every_step(self, wscc9, each_path,
                                                integrator):
        # p_m of one machine off its fixed point by 1e-14: at dt = 10 ms
        # both paths' steps return their input bit for bit 21 steps on,
        # at step 26, off the record grid. From step 5, every 3rd step's
        # state goes into its row; the rows after the fixed point, to
        # step 95, repeat it, and the others stay NaN
        first, n, every, dt = 5, 90, 3, 1e-2
        for path in each_path():
            state, net = initialize_dynamics(wscc9, solve_power_flow(wscc9))
            state[3, 1] += 1e-14
            want = np.full((40, 4, net.n_gen), np.nan)
            x, fixed_at = state, None
            for j in range(1, n + 1):
                y = step(x, net, dt, integrator)
                if fixed_at is None and y.tobytes() == x.tobytes():
                    fixed_at = j
                x = y
                if (first + j) % every == 0:
                    want[(first + j) // every] = x
            assert 1 < fixed_at < n, path
            rec = np.full_like(want, np.nan)
            taken, last = net.run(state, dt, n, integrator, rec, first, every)
            assert taken == fixed_at, path
            assert last.tobytes() == x.tobytes(), path
            assert rec.tobytes() == want.tobytes(), path

    def test_simulate_memory_beyond_outputs(self, wscc9_loadshed, each_path,
                                            traced_peak):
        # the load shed at 5 s and 20 s: the traced peak beyond the
        # outputs measured 0.42-0.44 MiB on both paths and both lengths
        for path in each_path():
            excess = []
            for t_end in (5.0, 20.0):
                traj, peak = traced_peak(lambda: simulate(
                    wscc9_loadshed, SimConfig(t_end=t_end, dt=1e-3)))
                out = [traj.times, traj.v, traj.theta, traj.p_e, traj.q_e]
                excess.append(peak - sum(a.nbytes for a in out)
                              - 4 * traj.delta.nbytes)
                del traj
            assert max(excess) < 0.5 * 2**20, (path, excess)
            # 4x the rows: the memory beyond the outputs stays put
            assert excess[1] < excess[0] + 65536, (path, excess)

    def test_returned_state_is_a_new_array(self, wscc9_loadshed, each_path):
        case = wscc9_loadshed
        for path in each_path():
            state, net = initialize_dynamics(case, solve_power_flow(case))
            net = net.apply_event(case.events[0])
            before = state.copy()
            taken, first = net.run(state, 1e-3, 5)
            kept = first.copy()
            assert taken == 5
            net.run(first, 1e-3, 5)
            net.run(state, 1e-3, 3, "trapezoidal")
            assert first.tobytes() == kept.tobytes(), path
            assert state.tobytes() == before.tobytes(), path
            assert not np.shares_memory(first, state)


class TestNeighbourResidual:
    @pytest.mark.parametrize("chunk", [dynamics._RESIDUAL_CHUNK, 70])
    @pytest.mark.parametrize("which", ["wscc9", "two_area"])
    def test_matches_dense_product(self, wscc9, monkeypatch, which, chunk):
        # 70 values make chunks of 7 (wscc9) or 3 (two_area) rows, the
        # last one short
        monkeypatch.setattr(dynamics, "_RESIDUAL_CHUNK", chunk)
        case = wscc9 if which == "wscc9" else two_area_case(wscc9)
        state, net = initialize_dynamics(case, solve_power_flow(case))
        rng = np.random.default_rng(2)
        for event in (None, Event(0.0, "line_trip", {"from": 5, "to": 7}),
                      Event(0.0, "q_injection_step", {"bus": 8, "dq": 0.2})):
            if event is not None:
                net = net.apply_event(event)
            # the lists hold exactly the nonzeros of y_aug, zeros past them
            rebuilt = np.zeros_like(net.y_aug)
            for k, n in enumerate(net.nbr_len):
                rebuilt[net.nbr_bus[:n], net.nbr_idx[k, :n]] = \
                    net.nbr_w[k, :n]
                assert not net.nbr_w[k, n:].any()
            np.testing.assert_array_equal(rebuilt, net.y_aug)
            assert len(net.nbr_len) == np.count_nonzero(net.y_aug, 1).max()
            np.testing.assert_array_equal(net.nbr_bus[net.nbr_gen],
                                          net.gen_bus)

            delta = state[0] + rng.normal(0.0, 0.3, (64, net.n_gen))
            e = state[2] * np.exp(1j * delta)
            v = net.solve(e)
            i_inj = np.zeros_like(v)
            i_inj[:, net.gen_bus] = e * net.yd
            dense = np.abs(v @ net.y_aug.T - i_inj)
            # relative to the size of the summed terms: the products
            # cancel to ~1e-14 at buses without a machine
            scale = np.abs(v) @ np.abs(net.y_aug).T
            assert abs(net.residual(e, v) - dense.max()) \
                <= 1e-15 * scale.max()
            for r in (0, 37, 63):  # a single 1-D row, as per_row_oracle
                assert abs(net.residual(e[r], v[r]) - dense[r].max()) \
                    <= 1e-15 * scale[r].max()
            assert net.residual(e, v) < 1e-10
            # off the network solution the residual is of order one, so a
            # dropped or misplaced term shows
            w = v + rng.normal(size=v.shape) + 1j * rng.normal(size=v.shape)
            off = np.abs(w @ net.y_aug.T - i_inj)
            scale = np.abs(w) @ np.abs(net.y_aug).T
            assert abs(net.residual(e, w) - off.max()) <= 1e-15 * scale.max()
            assert abs(net.residual(e[5], w[5]) - off[5].max()) \
                <= 1e-15 * scale[5].max()
