"""Fixed-step time-domain simulation of classical generator dynamics coupled to
the algebraic network.

Machines are classical (constant-magnitude EMF behind x'd) with an optional
first-order exciter and droop governor. Loads are constant admittances, so
the network is linear in the machine EMFs. Each network state (the initial
one and each one after an event) is Kron-reduced once to the machines'
internal nodes: one (2 n_gen x n_gen) matrix maps the EMFs to the machine
currents and the terminal voltages, and each derivative evaluation is one
small matvec on it. The integration loop stores only machine states, and
skips the steps from a bit-exact fixed point (the initial state is one) up
to the next event. Bus voltages, electrical powers and the residual against
the full augmented admittance matrix are computed afterwards, for every
recorded row, by one record pass per network segment in blocks of
``_RECORD_BLOCK`` rows. The residual multiplies through padded neighbour
lists of that matrix (its nonzeros, bus by bus), in numpy alone.
Recorded angles are in the synchronous reference frame (nominal rotation
removed), so an undisturbed equilibrium has constant theta.
"""
from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grid_model import (
    CaseError,
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

_TRAP_MAX_ITER = 100  # fixed-point iterations per trapezoidal step
_RECORD_BLOCK = 512   # rows per record-pass block: bounds its temporaries
# Bus voltages per residual chunk (256 KiB): its temporaries then stay in
# cache. On the 270-bus ring (60 rows a chunk) a 512-row block took 3.3 ms,
# against 9.7 ms in one piece (2-vCPU VM, one BLAS thread).
_RESIDUAL_CHUNK = 1 << 14


class SimulationError(RuntimeError):
    """Initialization or integration failure."""


def step_count(t_end: float, dt: float) -> int:
    """The number of dt steps to t_end. Raises ValueError unless both are
    positive and t_end is a whole number of steps, to within float noise
    (1e-9 of t_end)."""
    if not (t_end > 0 and dt > 0):
        raise ValueError(f"need t_end > 0 and dt > 0 (t_end={t_end}, "
                         f"dt={dt})")
    n = round(t_end / dt)
    if not abs(n * dt - t_end) <= 1e-9 * t_end:
        raise ValueError(
            f"t_end={t_end} is not a whole number of dt={dt} steps "
            f"({t_end / dt:.6g} steps)")
    return n


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
        n_steps = step_count(self.t_end, self.dt)
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

    The augmented admittance matrix ``y_aug`` folds in constant-admittance
    loads and the machine Norton shunts yd = 1/(j x'd); internal EMFs inject
    currents yd * E at the generator buses only. Its nonzeros are also held
    as padded neighbour lists, for the residual of the record pass: list r
    belongs to bus ``nbr_bus[r]``, and its slot k holds the column
    ``nbr_idx[k, r]`` and value ``nbr_w[k, r]`` of that row's k-th nonzero,
    with zero weights past the last. Lists go in decreasing order of their
    length, so the buses with a k-th nonzero are the first ``nbr_len[k]``;
    ``nbr_gen`` gives the list of each generator bus. ``zg`` (n_bus x
    n_gen) maps those currents to bus voltages. ``k_red`` stacks the
    Kron-reduced internal-node admittance Y_int (machine currents from
    EMFs) over the terminal-voltage transfer Z[gen, gen] diag(yd).

    ``rebuild`` and ``apply_event`` replace these arrays rather than write
    into them, so a shallow copy keeps the network state it was taken in.
    """

    def __init__(self, case: NetworkCase, ybus: np.ndarray,
                 load_adm: np.ndarray):
        self.case = case
        self.ws = case.omega_s
        idx = case.bus_index()
        gens = case.generators
        self.n_gen = len(gens)
        self.gen_bus = np.array([idx[g.bus] for g in gens])
        self.xdp = np.array([g.xdp for g in gens])
        self.yd = 1.0 / (1j * self.xdp)
        self.d = np.array([g.d for g in gens])
        # derivative coefficients, zero where a machine lacks the controller:
        # omega_s / (2 H) with H referred to the system base (M = 2 H / ws),
        # k_ex / t_ex and 1 / t_ex of the exciter, 1 / t_gov and 1 / r_gov
        # of the governor
        self.c_swing = np.array([self.ws / (2.0 * g.h * g.s_machine
                                            / case.s_base) for g in gens])
        self.any_exc = any(g.exciter is not None for g in gens)
        self.c_vref = np.array([g.exciter.k_ex / g.exciter.t_ex
                                if g.exciter else 0.0 for g in gens])
        self.c_eq = np.array([1.0 / g.exciter.t_ex if g.exciter else 0.0
                              for g in gens])
        self.c_gov = np.array([1.0 / g.governor.t_gov if g.governor else 0.0
                               for g in gens])
        self.inv_r_gov = np.array([1.0 / g.governor.r_gov if g.governor
                                   else 0.0 for g in gens])
        # filled by initialize_dynamics
        self.pm0 = np.zeros(self.n_gen)
        self.e0 = np.ones(self.n_gen)
        self.v_ref = np.ones(self.n_gen)
        self.ybus = ybus
        self.load_adm = load_adm
        self.tripped: frozenset[frozenset[int]] = frozenset()
        self.y_aug: np.ndarray | None = None
        self.nbr_bus: np.ndarray | None = None
        self.nbr_idx: np.ndarray | None = None
        self.nbr_w: np.ndarray | None = None
        self.nbr_len: list[int] = []
        self.nbr_gen: np.ndarray | None = None
        self.zg: np.ndarray | None = None
        self.k_red: np.ndarray | None = None
        self.rebuild()

    def rebuild(self) -> None:
        n, ng = self.case.n_bus, self.n_gen
        y = self.ybus + np.diag(self.load_adm)
        y[self.gen_bus, self.gen_bus] += self.yd
        self.y_aug = y
        nonzero = y != 0
        count = nonzero.sum(axis=1)
        self.nbr_bus = np.argsort(-count, kind="stable")
        # per bus, the nonzero columns in increasing order, then the others
        cols = np.argsort(~nonzero[self.nbr_bus], axis=1, kind="stable")
        self.nbr_idx = cols[:, :count.max()].T.copy()
        self.nbr_w = y[self.nbr_bus, self.nbr_idx]
        self.nbr_len = [int(np.count_nonzero(count > k))
                        for k in range(count.max())]
        self.nbr_gen = np.argsort(self.nbr_bus)[self.gen_bus]
        unit = np.zeros((n, ng), dtype=complex)
        unit[self.gen_bus, np.arange(ng)] = 1.0
        try:
            self.zg = np.linalg.solve(y, unit)  # generator columns of y^-1
        except np.linalg.LinAlgError as exc:
            raise SimulationError("singular augmented network matrix") from exc
        z_term = self.zg[self.gen_bus] * self.yd  # Z[gen, gen] diag(yd)
        y_int = np.diag(self.yd) - self.yd[:, None] * z_term
        self.k_red = np.vstack([y_int, z_term])

    def apply_event(self, event: Event) -> None:
        line = None
        if event.kind == "line_trip":
            line = frozenset((event.params["from"], event.params["to"]))
            if line in self.tripped:
                raise CaseError(
                    f"line ({event.params['from']}, {event.params['to']}) "
                    "is already tripped")
        self.ybus, self.load_adm = apply_event(
            self.ybus, self.load_adm, event, self.case)
        if line is not None:
            self.tripped = self.tripped | {line}
        self.rebuild()

    def reduced(self, e_cplx: np.ndarray, terminal: bool = True):
        """Machine electrical power and terminal-voltage phasors from the
        Kron-reduced network; without ``terminal`` the second is empty."""
        ng = self.n_gen
        out = (self.k_red if terminal else self.k_red[:ng]) @ e_cplx
        return (e_cplx * np.conj(out[:ng])).real, out[ng:]

    def solve(self, e_cplx: np.ndarray) -> np.ndarray:
        """Bus voltage phasors given the machine internal EMF phasors; a
        leading row axis is kept."""
        return (e_cplx * self.yd) @ self.zg.T

    def machine_power(self, e_cplx: np.ndarray, v: np.ndarray):
        i_out = (e_cplx - v[..., self.gen_bus]) * self.yd
        s = e_cplx * np.conj(i_out)
        return s.real, s.imag

    def residual(self, e_cplx: np.ndarray, v: np.ndarray) -> float:
        """Largest |y_aug v - i_inj| over all buses (and rows).

        y_aug v is summed over the neighbour lists on the (n_bus, rows)
        transpose, about ``_RESIDUAL_CHUNK`` voltages at a time: slot k
        adds, for each bus that has a k-th nonzero, its weight times the
        gathered voltages of that neighbour."""
        v = np.atleast_2d(v)
        i_gen = np.atleast_2d(e_cplx * self.yd)
        rows = max(1, _RESIDUAL_CHUNK // v.shape[1])
        worst = np.zeros(())
        for lo in range(0, len(v), rows):
            vt = v[lo:lo + rows].T
            acc = self.nbr_w[0, :, None] * vt[self.nbr_idx[0]]
            for k in range(1, len(self.nbr_len)):
                n = self.nbr_len[k]
                acc[:n] += self.nbr_w[k, :n, None] * vt[self.nbr_idx[k, :n]]
            acc[self.nbr_gen] -= i_gen[lo:lo + rows].T
            worst = np.maximum(worst, np.max(np.abs(acc)))
        return float(worst)


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
    pe0, v_term = net.reduced(e_cplx)
    if np.max(np.abs(pe0 - s_gen.real)) > 1e-6:
        raise SimulationError(
            "generator terminal power inconsistent with the power flow "
            f"(max deviation {np.max(np.abs(pe0 - s_gen.real)):.3e} p.u.)"
        )
    state[:, _PM] = pe0  # exact fixed point of the dynamic equations
    net.pm0 = pe0.copy()
    net.e0 = state[:, _EQ].copy()
    v_term = np.abs(v_term)
    net.v_ref = np.array([
        (g.exciter.v_ref if (g.exciter and g.exciter.v_ref is not None)
         else v_term[k])
        for k, g in enumerate(case.generators)
    ])
    return state, net


def _derivs(state: np.ndarray, net: DynamicNetwork) -> np.ndarray:
    e_cplx = state[:, _EQ] * np.exp(1j * state[:, _DELTA])
    pe, v_term = net.reduced(e_cplx, net.any_exc)
    dx = np.empty_like(state)
    dx[:, _DELTA] = state[:, _OMEGA] - net.ws
    slip = dx[:, _DELTA] / net.ws
    dx[:, _OMEGA] = net.c_swing * (state[:, _PM] - pe - net.d * slip)
    if net.any_exc:
        dx[:, _EQ] = (net.c_vref * (net.v_ref - np.abs(v_term))
                      - net.c_eq * (state[:, _EQ] - net.e0))
    else:
        dx[:, _EQ] = 0.0
    dx[:, _PM] = net.c_gov * (net.pm0 - slip * net.inv_r_gov - state[:, _PM])
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
        for _ in range(_TRAP_MAX_ITER):
            f1 = _derivs(nxt, net)
            cand = state + 0.5 * dt * (f0 + f1)
            change = np.max(np.abs(cand - nxt))
            tol = 1e-13 * (1.0 + np.max(np.abs(nxt)))
            nxt = cand
            if change < tol:
                break
        else:
            raise SimulationError(
                f"trapezoidal step did not converge in {_TRAP_MAX_ITER} "
                f"iterations (last change {change:.3e}, dt={dt}); "
                "reduce dt")
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


def _record_pass(segments: list[tuple[int, DynamicNetwork]],
                 times: np.ndarray, delta: np.ndarray, e_q: np.ndarray):
    """Bus voltage magnitudes and angles, machine p_e and q_e, and the
    largest residual against the full augmented admittance matrix, for
    every recorded row.

    ``segments`` lists (first row, network) in row order; each network
    holds up to the next segment's first row. Rows are processed in blocks
    of ``_RECORD_BLOCK``, so temporaries do not grow with the row count.
    """
    n_rec, ng = delta.shape
    nb = segments[0][1].case.n_bus
    v = np.empty((n_rec, nb))
    theta = np.empty((n_rec, nb))
    p_e = np.empty((n_rec, ng))
    q_e = np.empty((n_rec, ng))
    max_res = 0.0
    stops = [first for first, _ in segments[1:]] + [n_rec]
    for (first, net), stop in zip(segments, stops):
        for lo in range(first, stop, _RECORD_BLOCK):
            rows = slice(lo, min(lo + _RECORD_BLOCK, stop))
            e_cplx = e_q[rows] * np.exp(1j * delta[rows])
            vbus = net.solve(e_cplx)
            finite = np.isfinite(vbus).all(axis=1)
            if not finite.all():
                t_bad = times[lo + int(np.argmin(finite))]
                raise SimulationError(f"non-finite bus voltage at t={t_bad}")
            v[rows] = np.abs(vbus)
            theta[rows] = np.angle(vbus)
            p_e[rows], q_e[rows] = net.machine_power(e_cplx, vbus)
            max_res = max(max_res, net.residual(e_cplx, vbus))
    return v, theta, p_e, q_e, max_res


def simulate(case: NetworkCase, config: SimConfig) -> Trajectory:
    """Run power flow, initialize machines, and integrate to t_end with timed
    events snapped to the step grid.

    A step that returns its input bit for bit has reached a fixed point of
    the current network; the steps up to the next event are not taken, and
    their recorded rows repeat that state."""
    config.validate()
    case.validate()
    pf = solve_power_flow(case)
    state, net = initialize_dynamics(case, pf)

    dt = config.dt
    n_steps = step_count(config.t_end, dt)
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

    every = config.record_every
    times = np.arange(0, n_steps + 1, every) * dt
    n_rec = len(times)
    # machine states per recorded row: delta, omega, e_q, p_m
    rec = np.empty((4, n_rec, net.n_gen))
    # (first recorded row, network in force from that row on)
    segments: list[tuple[int, DynamicNetwork]] = []
    event_times: list[float] = []

    ev_pos = 0
    i = 0
    while True:
        ev_start = ev_pos
        while ev_pos < len(pending) and pending[ev_pos][0] == i:
            net.apply_event(pending[ev_pos][1])
            event_times.append(i * dt)
            ev_pos += 1
        if i == 0 or ev_pos > ev_start:
            segments.append(((i + every - 1) // every, copy.copy(net)))
        if i % every == 0:
            rec[:, i // every] = state.T
        if i == n_steps:
            break
        nxt = step(state, net, dt, config.integrator)
        if nxt.tobytes() == state.tobytes():
            # a fixed point (the initial state is one): every step up to
            # the next event returns it again, so record it and jump there
            stop = pending[ev_pos][0] if ev_pos < len(pending) else n_steps
            rec[:, i // every + 1:(stop - 1) // every + 1] = state.T[:, None]
            i = stop
        else:
            state = nxt
            i += 1

    delta, omega, e_q, p_m = rec
    v_rec, th_rec, p_e, q_e, max_res = _record_pass(
        segments, times, delta, e_q)

    return Trajectory(
        times=times, bus_ids=[b.id for b in case.buses],
        v=v_rec, theta=th_rec,
        gen_buses=[g.bus for g in case.generators],
        delta=delta, omega=omega, e_q=e_q, p_m=p_m, p_e=p_e, q_e=q_e,
        event_times=event_times, omega_s=case.omega_s,
        frame="synchronous", max_residual=max_res,
    )
