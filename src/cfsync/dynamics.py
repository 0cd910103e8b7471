"""Fixed-step time-domain simulation of classical generator dynamics coupled to
the algebraic network.

Machines are classical (constant-magnitude EMF behind x'd) with an optional
first-order exciter and droop governor. Loads are constant admittances, so at
every integration stage the network reduces to a linear solve for bus voltages.
Recorded angles are in the synchronous reference frame (nominal rotation
removed), so an undisturbed equilibrium has constant theta.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grid_model import (
    AdmittanceMatrix,
    Event,
    NetworkCase,
    PowerFlowSolution,
    apply_event,
    build_ybus,
    load_admittances,
    solve_power_flow,
)

INTEGRATORS = ("rk4", "trapezoidal")

# state vector columns
_DELTA, _OMEGA, _EQ, _PM = 0, 1, 2, 3


class SimulationError(RuntimeError):
    """Initialization or integration failure."""


@dataclass
class SimConfig:
    t_end: float
    dt: float = 1e-3
    integrator: str = "rk4"
    record_every: int = 1

    def validate(self) -> None:
        if not (0.0 < self.dt <= 0.02):
            raise ValueError(f"dt out of range: {self.dt} (need 0 < dt <= 0.02)")
        if self.t_end <= 0:
            raise ValueError("t_end must be > 0")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        n_steps = int(round(self.t_end / self.dt))
        if n_steps % self.record_every:
            raise ValueError(
                f"record_every={self.record_every} does not divide the "
                f"{n_steps} steps to t_end: the recorded time grid would "
                "end in a short step")
        if self.integrator not in INTEGRATORS:
            raise ValueError(
                f"unknown integrator {self.integrator!r}; choose from {INTEGRATORS}"
            )


class DynamicNetwork:
    """Algebraic network plus machine parameters for the dynamic phase.

    The augmented admittance matrix folds in constant-admittance loads and the
    machine Norton shunts 1/(j x'd); internal EMFs inject currents at the
    generator buses only, so bus voltages come from a precomputed (n x n_gen)
    transfer matrix.
    """

    def __init__(self, case: NetworkCase, ybus: AdmittanceMatrix,
                 load_adm: np.ndarray):
        self.case = case
        self.ws = case.omega_s
        idx = case.bus_index()
        gens = case.generators
        self.n_gen = len(gens)
        self.gen_bus = np.array([idx[g.bus] for g in gens])
        self.xdp = np.array([g.xdp for g in gens])
        # H referred to the system base; M = 2 H_sys / omega_s
        self.h_sys = np.array([g.h * g.s_machine / case.s_base for g in gens])
        self.d = np.array([g.d for g in gens])
        self.has_gov = np.array([g.governor is not None for g in gens])
        self.r_gov = np.array(
            [g.governor.r_gov if g.governor else 1.0 for g in gens])
        self.t_gov = np.array(
            [g.governor.t_gov if g.governor else 1.0 for g in gens])
        self.has_exc = np.array([g.exciter is not None for g in gens])
        self.k_ex = np.array([g.exciter.k_ex if g.exciter else 0.0 for g in gens])
        self.t_ex = np.array([g.exciter.t_ex if g.exciter else 1.0 for g in gens])
        # filled by initialize_dynamics
        self.pm0 = np.zeros(self.n_gen)
        self.e0 = np.ones(self.n_gen)
        self.v_ref = np.ones(self.n_gen)
        self.ybus = ybus
        self.load_adm = load_adm
        self.y_aug: np.ndarray | None = None
        self.zg: np.ndarray | None = None
        self.rebuild()

    def rebuild(self) -> None:
        y = self.ybus.entries + np.diag(self.load_adm)
        y[self.gen_bus, self.gen_bus] += 1.0 / (1j * self.xdp)
        self.y_aug = y
        try:
            yinv = np.linalg.inv(y)
        except np.linalg.LinAlgError as exc:
            raise SimulationError("singular augmented network matrix") from exc
        self.zg = yinv[:, self.gen_bus]

    def apply_event(self, event: Event) -> None:
        self.ybus, self.load_adm = apply_event(
            self.ybus, self.load_adm, event, self.case)
        self.rebuild()

    def solve(self, e_cplx: np.ndarray) -> np.ndarray:
        """Bus voltage phasors given the machine internal EMF phasors."""
        return self.zg @ (e_cplx / (1j * self.xdp))

    def machine_power(self, e_cplx: np.ndarray, v: np.ndarray):
        i_out = (e_cplx - v[self.gen_bus]) / (1j * self.xdp)
        s = e_cplx * np.conj(i_out)
        return s.real, s.imag

    def residual(self, e_cplx: np.ndarray, v: np.ndarray) -> float:
        i_inj = np.zeros(self.case.n_bus, dtype=complex)
        i_inj[self.gen_bus] = e_cplx / (1j * self.xdp)
        return float(np.max(np.abs(self.y_aug @ v - i_inj)))


def initialize_dynamics(
    case: NetworkCase, pf: PowerFlowSolution
) -> tuple[np.ndarray, DynamicNetwork]:
    """Back-solve machine internal states from the power-flow operating point.

    Returns the (n_gen, 4) state array [delta, omega, e_q, p_m] and the
    dynamic network. p_m is set to the electrical power computed through the
    dynamic network itself so the returned state is an exact fixed point.
    """
    if pf.max_mismatch > 1e-6:
        raise SimulationError(
            f"unconverged initialization: power-flow mismatch "
            f"{pf.max_mismatch:.3e} p.u. exceeds 1e-6"
        )
    idx = case.bus_index()
    ybus = build_ybus(case)
    load_adm = load_admittances(case, pf)
    net = DynamicNetwork(case, ybus, load_adm)

    vbar = pf.v * np.exp(1j * pf.theta)
    load_p = np.zeros(case.n_bus)
    load_q = np.zeros(case.n_bus)
    for ld in case.loads:
        load_p[idx[ld.bus]] += ld.p
        load_q[idx[ld.bus]] += ld.q
    gb = net.gen_bus
    s_gen = (pf.p_inj[gb] + load_p[gb]) + 1j * (pf.q_inj[gb] + load_q[gb])
    i_gen = np.conj(s_gen / vbar[gb])
    e_bar = vbar[gb] + 1j * net.xdp * i_gen

    state = np.zeros((net.n_gen, 4))
    state[:, _DELTA] = np.angle(e_bar)
    state[:, _OMEGA] = case.omega_s
    state[:, _EQ] = np.abs(e_bar)

    e_cplx = state[:, _EQ] * np.exp(1j * state[:, _DELTA])
    v0 = net.solve(e_cplx)
    pe0, _ = net.machine_power(e_cplx, v0)
    if np.max(np.abs(pe0 - s_gen.real)) > 1e-6:
        raise SimulationError(
            "generator terminal power inconsistent with the power flow "
            f"(max deviation {np.max(np.abs(pe0 - s_gen.real)):.3e} p.u.)"
        )
    state[:, _PM] = pe0  # exact fixed point of the dynamic equations
    net.pm0 = pe0.copy()
    net.e0 = state[:, _EQ].copy()
    v_term = np.abs(v0[gb])
    net.v_ref = np.array([
        (g.exciter.v_ref if (g.exciter and g.exciter.v_ref is not None)
         else v_term[k])
        for k, g in enumerate(case.generators)
    ])
    return state, net


def _derivs(state: np.ndarray, net: DynamicNetwork) -> np.ndarray:
    e_cplx = state[:, _EQ] * np.exp(1j * state[:, _DELTA])
    v = net.solve(e_cplx)
    pe, _ = net.machine_power(e_cplx, v)
    slip = (state[:, _OMEGA] - net.ws) / net.ws
    dx = np.zeros_like(state)
    dx[:, _DELTA] = state[:, _OMEGA] - net.ws
    dx[:, _OMEGA] = net.ws / (2.0 * net.h_sys) * (
        state[:, _PM] - pe - net.d * slip)
    if net.has_exc.any():
        v_term = np.abs(v[net.gen_bus])
        dx[:, _EQ] = np.where(
            net.has_exc,
            (net.k_ex * (net.v_ref - v_term) - (state[:, _EQ] - net.e0))
            / net.t_ex,
            0.0,
        )
    if net.has_gov.any():
        pm_ref = net.pm0 - slip / net.r_gov
        dx[:, _PM] = np.where(
            net.has_gov, (pm_ref - state[:, _PM]) / net.t_gov, 0.0)
    return dx


def step(state: np.ndarray, net: DynamicNetwork, dt: float,
         integrator: str = "rk4") -> np.ndarray:
    """Advance the machine states one step of size dt."""
    if integrator == "rk4":
        k1 = _derivs(state, net)
        k2 = _derivs(state + 0.5 * dt * k1, net)
        k3 = _derivs(state + 0.5 * dt * k2, net)
        k4 = _derivs(state + dt * k3, net)
        nxt = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    elif integrator == "trapezoidal":
        f0 = _derivs(state, net)
        nxt = state + dt * f0
        for _ in range(100):
            f1 = _derivs(nxt, net)
            cand = state + 0.5 * dt * (f0 + f1)
            if np.max(np.abs(cand - nxt)) < 1e-13 * (1.0 + np.max(np.abs(nxt))):
                nxt = cand
                break
            nxt = cand
    else:
        raise ValueError(f"unknown integrator {integrator!r}")
    if not np.all(np.isfinite(nxt)):
        raise SimulationError("non-finite machine state")
    return nxt


@dataclass
class Trajectory:
    times: np.ndarray       # (n_samples,)
    bus_ids: list[int]
    v: np.ndarray           # (n_samples, n_bus) p.u.
    theta: np.ndarray       # (n_samples, n_bus) rad, wrapped to (-pi, pi]
    gen_buses: list[int]
    delta: np.ndarray | None    # (n_samples, n_gen)
    omega: np.ndarray | None
    e_q: np.ndarray | None
    p_m: np.ndarray | None
    p_e: np.ndarray | None
    q_e: np.ndarray | None
    event_times: list[float]
    omega_s: float
    frame: str = "synchronous"
    max_residual: float = 0.0


def simulate(case: NetworkCase, config: SimConfig) -> Trajectory:
    """Run power flow, initialize machines, and integrate to t_end with timed
    events snapped to the step grid."""
    config.validate()
    case.validate()
    pf = solve_power_flow(case)
    state, net = initialize_dynamics(case, pf)

    dt = config.dt
    n_steps = int(round(config.t_end / dt))
    events = sorted(case.events, key=lambda e: e.time)
    pending: list[tuple[int, Event]] = []
    for ev in events:
        i_ev = int(math.ceil(ev.time / dt - 1e-9))
        if i_ev > n_steps:
            warnings.warn(
                f"event at t={ev.time} s is beyond t_end={config.t_end} s; "
                "ignored")
            continue
        pending.append((i_ev, ev))

    rec_idx = range(0, n_steps + 1, config.record_every)
    n_rec = len(rec_idx)
    nb, ng = case.n_bus, net.n_gen
    times = np.empty(n_rec)
    v_rec = np.empty((n_rec, nb))
    th_rec = np.empty((n_rec, nb))
    delta = np.empty((n_rec, ng))
    omega = np.empty((n_rec, ng))
    e_q = np.empty((n_rec, ng))
    p_m = np.empty((n_rec, ng))
    p_e = np.empty((n_rec, ng))
    q_e = np.empty((n_rec, ng))
    event_times: list[float] = []
    max_res = 0.0

    rec_pos = 0
    ev_pos = 0
    for i in range(n_steps + 1):
        while ev_pos < len(pending) and pending[ev_pos][0] == i:
            net.apply_event(pending[ev_pos][1])
            event_times.append(i * dt)
            ev_pos += 1
        if rec_pos < n_rec and rec_idx[rec_pos] == i:
            e_cplx = state[:, _EQ] * np.exp(1j * state[:, _DELTA])
            vbus = net.solve(e_cplx)
            pe, qe = net.machine_power(e_cplx, vbus)
            if not np.all(np.isfinite(vbus)):
                raise SimulationError(f"non-finite bus voltage at t={i * dt}")
            times[rec_pos] = i * dt
            v_rec[rec_pos] = np.abs(vbus)
            th_rec[rec_pos] = np.angle(vbus)
            delta[rec_pos] = state[:, _DELTA]
            omega[rec_pos] = state[:, _OMEGA]
            e_q[rec_pos] = state[:, _EQ]
            p_m[rec_pos] = state[:, _PM]
            p_e[rec_pos] = pe
            q_e[rec_pos] = qe
            max_res = max(max_res, net.residual(e_cplx, vbus))
            rec_pos += 1
        if i < n_steps:
            state = step(state, net, dt, config.integrator)

    return Trajectory(
        times=times, bus_ids=[b.id for b in case.buses],
        v=v_rec, theta=th_rec,
        gen_buses=[g.bus for g in case.generators],
        delta=delta, omega=omega, e_q=e_q, p_m=p_m, p_e=p_e, q_e=q_e,
        event_times=event_times, omega_s=case.omega_s,
        frame="synchronous", max_residual=max_res,
    )
