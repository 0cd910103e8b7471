"""Fixed-step time-domain simulation of classical generator dynamics coupled to
the algebraic network.

Machines are classical (constant-magnitude EMF behind x'd) with an optional
first-order exciter and droop governor. Loads are constant admittances, so the
network is linear in the machine EMFs. The machine state is one C-contiguous
(4, n_gen) array, the rows delta, omega, e_q and p_m, from
``initialize_dynamics`` through both kernels to the recorder. Each network
state is a value, fixed once built: ``initialize_dynamics`` builds and binds
the one before any event, and ``DynamicNetwork.apply_event`` returns the one
after an event, leaving the state it is called on as it was. Each network
state is Kron-reduced once to the machines' internal nodes: one (2 n_gen x
n_gen) matrix maps the EMFs to the machine currents and the terminal
voltages, and each derivative evaluation is one small matvec on it. Each
network state binds one segment kernel, ``run``, on the path of the first
state; ``step`` is its one-step case. A network of at most
``_FLOAT_MAX_GEN`` (nine) machines steps in Python floats and complex,
because on a few machines numpy's per-call cost outweighs its arithmetic.
Its kernel is straight-line code with one local per state component (the
flattened state, row after row), generated and compiled once per shape
(machine count, exciters or not) and bound to each network state's matrix
entries and constants as closure variables. Larger networks step in numpy,
on buffers preallocated per network state (the crossover is measured at
``_FLOAT_MAX_GEN``). One step loop drives both paths and both integrators,
and both paths run one trapezoidal iteration, each over its own derivative.
The initial state is computed on the path that steps it, so it is an exact
fixed point of that path. The integration stores only machine states, each
recorded one straight into its row of a record array laid out one machine
state per row, (n_rec, 4, n_gen). It stops a segment at a bit-exact fixed
point (the initial state is one) and fills the rows up to the next event
with it. A non-finite state is reported as ``non-finite machine state``,
with no numpy warning, by the end of its segment at the latest.
``simulate`` is one walk over the run's stretches, which start at step 0
and at each event's step: each network state steps its stretch with one
``run`` call, then records its rows, the bus voltages, electrical powers and
the residual against the full augmented admittance matrix, by one record
pass in blocks of ``_RECORD_BLOCK`` rows. The residual multiplies through
padded neighbour lists of that matrix (its nonzeros, bus by bus), in numpy
alone.
Recorded angles are in the synchronous reference frame (nominal rotation
removed), so an undisturbed equilibrium has constant theta.
"""
from __future__ import annotations

import functools
import math
import warnings
from cmath import rect
from dataclasses import dataclass
from operator import add, mul

import numpy as np

from .grid_model import (
    Event,
    NetworkCase,
    PowerFlowSolution,
    _apply_checked,
    build_ybus,
    check_event,
    load_admittances,
    solve_power_flow,
)

INTEGRATORS = ("rk4", "trapezoidal")

_TRAP_MAX_ITER = 100  # fixed-point iterations per trapezoidal step
# Networks of at most this many machines step in Python floats, larger ones
# in numpy. Float over numpy time of an RK4 step after an event, through
# each path's segment kernel, without and with exciters (2-vCPU VM, one BLAS
# thread, medians of 21 interleaved rounds of 300 steps, three runs): WSCC-9
# after the load shed (3 machines, 8-13 us in floats) 0.17-0.19; tiled
# WSCC-9 rings after a trip, 6 machines 0.42-0.46 and 0.50-0.56, 9:
# 0.73-0.81 and 0.90-1.05, 12: 1.12-1.41 and 1.47-1.79. So the crossover
# lies in (9, 12] without exciters and close to 9 with them.
_FLOAT_MAX_GEN = 9
_RECORD_BLOCK = 512   # rows per record-pass block: bounds its temporaries
# Bus voltages per residual chunk (256 KiB): its temporaries then stay in
# cache. On the 270-bus ring (60 rows a chunk) a 512-row block took 3.3 ms,
# against 9.7 ms in one piece (2-vCPU VM, one BLAS thread).
_RESIDUAL_CHUNK = 1 << 14


class SimulationError(RuntimeError):
    """Initialization or integration failure."""


def step_count(t_end: float, dt: float) -> int:
    """The number of dt steps to t_end. Raises ValueError unless both are
    finite and positive and t_end is a whole number of steps, to within
    float noise (1e-9 of t_end)."""
    if not (0 < t_end < math.inf and 0 < dt < math.inf):
        raise ValueError(f"need finite t_end > 0 and dt > 0 (t_end={t_end}, "
                         f"dt={dt})")
    n = round(t_end / dt)
    if not abs(n * dt - t_end) <= 1e-9 * t_end:
        raise ValueError(
            f"t_end={t_end} is not a whole number of dt={dt} steps "
            f"({t_end / dt:.6g} steps)")
    return n


def step_index(t: float, dt: float) -> int:
    """The first step of the dt grid at or after t, to within float noise:
    where an event at t takes effect."""
    return int(math.ceil(t / dt - 1e-9))


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
    """One network state of the dynamic phase: the algebraic network plus
    machine parameters, bound to the operating point.

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
    ``tripped`` holds the lines tripped so far, each as the set of its
    two bus ids. ``floats`` is whether it steps in Python floats (at most
    ``_FLOAT_MAX_GEN`` machines when the first state is built) or in numpy.
    ``_bind_kernel`` sets the operating point ``pm0``, ``e0`` and ``v_ref``
    and this state's segment kernel ``run`` (see ``_segment_kernel``); on
    the float path ``float_derivs(x)`` is the generated kernel's derivative
    on the flattened machine state (all angles, then speeds, EMFs and
    mechanical powers), and on the numpy path it is None.

    A state is a value: ``initialize_dynamics`` binds the first, and
    ``apply_event`` returns each next one, bound. Nothing writes into a
    bound state.
    """

    def __init__(self, case: NetworkCase, ybus: np.ndarray,
                 load_adm: np.ndarray,
                 tripped: frozenset[frozenset[int]] = frozenset()):
        self.case = case
        self.ws = case.omega_s
        idx = case.bus_index()
        gens = case.generators
        self.n_gen = ng = len(gens)
        self.floats = ng <= _FLOAT_MAX_GEN
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
        self.ybus = ybus
        self.load_adm = load_adm
        self.tripped = tripped
        y = ybus + np.diag(load_adm)
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
        unit = np.zeros((case.n_bus, ng), dtype=complex)
        unit[self.gen_bus, np.arange(ng)] = 1.0
        try:
            self.zg = np.linalg.solve(y, unit)  # generator columns of y^-1
        except np.linalg.LinAlgError as exc:
            raise SimulationError("singular augmented network matrix") from exc
        z_term = self.zg[self.gen_bus] * self.yd  # Z[gen, gen] diag(yd)
        y_int = np.diag(self.yd) - self.yd[:, None] * z_term
        self.k_red = np.vstack([y_int, z_term])

    def _bind_kernel(self, pm0: np.ndarray, e0: np.ndarray,
                     v_ref: np.ndarray) -> None:
        """Set the operating point (mechanical powers, EMF magnitudes and
        exciter references) and bind this network state's segment kernel
        as ``run``: on the float path over the generated kernel of its
        shape (whose derivative is also bound, as ``float_derivs``), on the
        numpy path over ``_numpy_kernel``; both bound to its ``k_red`` and
        per-machine constants."""
        self.pm0, self.e0, self.v_ref = pm0, e0, v_ref
        ng = self.n_gen
        if self.floats:
            rows = self.k_red if self.any_exc else self.k_red[:ng]
            coefs = np.concatenate((
                self.c_swing, self.d, self.c_vref, self.v_ref, self.c_eq,
                self.e0, self.c_gov, self.pm0, self.inv_r_gov))
            float_derivs, rk4 = _float_kernel(ng, self.any_exc)(
                rect, self.ws, *rows.ravel().tolist(), *coefs.tolist())

            def derivs(x, f):
                f.reshape(-1)[:] = float_derivs(x.ravel().tolist())
            one_trapezoidal = _trapezoidal(derivs, ng)

            def trapezoidal(x, dt):
                # the shared iteration on an array of the state list
                return one_trapezoidal(np.reshape(x, (4, ng)),
                                       (0.5 * dt, dt)).ravel().tolist()
            self.float_derivs = float_derivs
        else:
            rk4, trapezoidal = _numpy_kernel(self)
            self.float_derivs = None
        self.run = _segment_kernel(ng, self.floats, rk4, trapezoidal)

    def apply_event(self, event: Event) -> DynamicNetwork:
        """The network state after ``event``: bound to this state's
        operating point and on its path. This state is left as it was;
        ``check_event`` refuses a bad event, or a line this path tripped."""
        tripped = check_event(self.case, event, self.tripped)
        ybus, load_adm = _apply_checked(self.ybus, self.load_adm, event,
                                        self.case)
        nxt = DynamicNetwork(self.case, ybus, load_adm, tripped)
        nxt.floats = self.floats
        nxt._bind_kernel(self.pm0, self.e0, self.v_ref)
        return nxt

    def reduced(self, delta: np.ndarray, e_q: np.ndarray):
        """Machine electrical power and terminal-voltage magnitudes from the
        Kron-reduced network, for rotor angles ``delta`` and EMF magnitudes
        ``e_q``, computed as a step of this network computes them."""
        ng = self.n_gen
        if self.floats:  # as the float kernel computes them
            e = list(map(rect, e_q.tolist(), delta.tolist()))
            out = [functools.reduce(add, map(mul, row, e), 0)
                   for row in self.k_red.tolist()]
            pe = [u.real * v.real + u.imag * v.imag for u, v in zip(e, out)]
            return np.array(pe), np.array([abs(v) for v in out[ng:]])
        e_cplx = e_q * np.exp(1j * delta)
        out = self.k_red @ e_cplx
        return (e_cplx * np.conj(out[:ng])).real, np.abs(out[ng:])

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

    Returns the machine state, the C-contiguous (4, n_gen) rows delta,
    omega, e_q and p_m, and the dynamic network. p_m, and the exciters'
    v_ref where the case leaves it unset, are computed through the dynamic
    network itself, on the path that steps it, so the returned state is an
    exact fixed point.
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

    delta, e_q = np.angle(e_bar), np.abs(e_bar)
    pe0, v_term = net.reduced(delta, e_q)
    if np.max(np.abs(pe0 - s_gen.real)) > 1e-6:
        raise SimulationError(
            "generator terminal power inconsistent with the power flow "
            f"(max deviation {np.max(np.abs(pe0 - s_gen.real)):.3e} p.u.)"
        )
    # p_m = p_e: an exact fixed point of the dynamic equations
    state = np.array([delta, np.full(net.n_gen, case.omega_s), e_q, pe0])
    net._bind_kernel(pe0, e_q, np.array([
        (g.exciter.v_ref if (g.exciter and g.exciter.v_ref is not None)
         else v_term[k])
        for k, g in enumerate(case.generators)
    ]))
    return state, net


# names of the kernel's per-machine constants, in _bind_kernel's order
_COEF_NAMES = ("c_swing", "damp", "c_vref", "v_ref", "c_eq", "e0", "c_gov",
               "pm0", "inv_r_gov")
_STATE_NAMES = ("delta", "omega", "eq", "pm")


def _derivs_source(ng: int, any_exc: bool, x: list[str],
                   f: list[str]) -> list[str]:
    """Lines that set the derivative locals ``f`` from the state locals
    ``x`` (both the flattened state rows): the numpy kernel's derivative
    in floats and complex, with ``rect`` EMFs, each row product summed
    left to right from int 0 as ``DynamicNetwork.reduced`` sums it,
    ``p - pe - k*w`` and ``p0 - w*r - p``."""
    lines = [f"e_{i} = rect({x[2 * ng + i]}, {x[i]})" for i in range(ng)]
    lines += [f"o_{r} = 0" + "".join(f" + k_{r}_{c} * e_{c}"
                                     for c in range(ng))
              for r in range(2 * ng if any_exc else ng)]
    for i in range(ng):
        fd, fw, fq, fp = f[i::ng]
        d, w, q, p = x[i::ng]
        lines += [
            f"{fd} = {w} - ws",
            f"s_{i} = {fd} / ws",
            f"{fw} = c_swing_{i} * ({p} - (e_{i}.real * o_{i}.real"
            f" + e_{i}.imag * o_{i}.imag) - damp_{i} * s_{i})",
            (f"{fq} = c_vref_{i} * (v_ref_{i} - abs(o_{ng + i}))"
             f" - c_eq_{i} * ({q} - e0_{i})") if any_exc else f"{fq} = 0.0",
            f"{fp} = c_gov_{i} * (pm0_{i} - s_{i} * inv_r_gov_{i} - {p})",
        ]
    return lines


def _kernel_source(ng: int, any_exc: bool) -> str:
    """Source of a factory that takes ``rect``, ``ws``, the used ``k_red``
    entries row by row and the per-machine constants, and returns the
    closures ``derivs(x)`` and ``rk4(x, dt)`` on the flattened machine
    state; each returns a new list. Apart from the method's own literals
    the source holds identifiers and operators only, never a network's
    values."""
    names = [f"{c}_{i}" for c in _STATE_NAMES for i in range(ng)]

    def tagged(tag):
        return [f"{n}_{tag}" for n in names]

    params = ["rect", "ws"]
    params += [f"k_{r}_{c}" for r in range(2 * ng if any_exc else ng)
               for c in range(ng)]
    params += [f"{c}_{i}" for c in _COEF_NAMES for i in range(ng)]
    unpack = f"{', '.join(names)} = x"
    derivs = [unpack, *_derivs_source(ng, any_exc, names, tagged("f")),
              f"return [{', '.join(tagged('f'))}]"]
    rk4 = [unpack, "h = 0.5 * dt"]
    x, ks = names, [tagged(f"k{j}") for j in range(1, 5)]
    for j, k in enumerate(ks):
        rk4 += _derivs_source(ng, any_exc, x, k)
        if j < 3:
            x = tagged(f"x{j + 2}")
            scale = "h" if j < 2 else "dt"
            rk4 += [f"{a} = {n} + {scale} * {b}"
                    for a, n, b in zip(x, names, k)]
    rk4 += ["h = dt / 6.0", "return [" + ", ".join(
        f"{n} + h * ({a} + 2.0 * {b} + 2.0 * {c} + {d})"
        for n, a, b, c, d in zip(names, *ks)) + "]"]
    return "\n".join([
        f"def factory({', '.join(params)}):",
        "    def derivs(x):", *(" " * 8 + ln for ln in derivs),
        "    def rk4(x, dt):", *(" " * 8 + ln for ln in rk4),
        "    return derivs, rk4", ""])


@functools.cache
def _float_kernel(ng: int, any_exc: bool):
    """The kernel factory for networks of ``ng`` machines, with or without
    exciters, compiled on the first network of that shape."""
    namespace: dict = {}
    exec(compile(_kernel_source(ng, any_exc),
                 f"<float kernel: {ng} machines, exciters {any_exc}>",
                 "exec"), namespace)
    return namespace["factory"]


def _unconverged(change: float, dt: float) -> SimulationError:
    return SimulationError(
        f"trapezoidal step did not converge in {_TRAP_MAX_ITER} "
        f"iterations (last change {change:.3e}, dt={dt}); reduce dt")


def _same_bits(a, b) -> bool:
    """Whether two machine states hold the same float64 bits: a state that
    is ``==`` but differs in the sign of a zero is not a fixed point."""
    return np.asarray(a, float).tobytes() == np.asarray(b, float).tobytes()


def _same_floats(a: list, b: list) -> bool:
    """``_same_bits`` on two state lists, after the cheaper ``==``, which
    most steps fail on their first value."""
    return a == b and _same_bits(a, b)


def _trapezoidal(derivs, ng: int):
    """One trapezoidal step ``trapezoidal(x, scalars)`` of a (4, ng) state,
    on both paths, over ``derivs(x, f)``, which writes the derivative at
    ``x`` into ``f``. ``scalars`` starts with dt/2 and dt (floats or 0-d
    arrays). It iterates into preallocated buffers and returns a new
    array."""
    f0, f1, cand, w = (np.zeros((4, ng)) for _ in range(4))

    def trapezoidal(x, scalars):
        h, dt = scalars[:2]
        derivs(x, f0)
        nxt = np.multiply(dt, f0)
        np.add(x, nxt, nxt)
        for _ in range(_TRAP_MAX_ITER):
            derivs(nxt, f1)
            np.add(f0, f1, cand)
            np.multiply(h, cand, cand)
            np.add(x, cand, cand)
            np.subtract(cand, nxt, w)
            change = np.abs(w, w).max()
            tol = 1e-13 * (1.0 + np.abs(nxt, w).max())
            np.copyto(nxt, cand)
            if change < tol:
                return nxt
        raise _unconverged(change, float(dt))
    return trapezoidal


def _numpy_kernel(net: DynamicNetwork):
    """One RK4 step and one trapezoidal step ``one(x, scalars)`` of the
    numpy path, bound to ``net``'s ``k_red`` and per-machine constants:
    each takes a (4, n_gen) state and dt/2, dt and dt/6 as 0-d arrays,
    and returns the next state as a new array.

    All other work goes into preallocated buffers with ``out=``, and
    scalars are 0-d arrays, which numpy takes faster than Python floats.
    The derivative does the operations of ``DynamicNetwork.reduced`` and
    of the float kernel's derivative, in their order; its EMFs are exp of
    a complex buffer whose real part stays zero, which gives
    ``exp(1j * delta)``'s bits (adding 0.0 turns a -0.0 angle into +0.0,
    as ``1j * delta`` does)."""
    ng, any_exc = net.n_gen, net.any_exc
    k_red = net.k_red if any_exc else net.k_red[:ng]
    c_swing, damp, c_vref, v_ref, c_eq, e0, c_gov, pm0, inv_r_gov = (
        net.c_swing, net.d, net.c_vref, net.v_ref, net.c_eq, net.e0,
        net.c_gov, net.pm0, net.inv_r_gov)
    ws, zero, two = np.array(net.ws), np.array(0.0), np.array(2.0)
    add, sub, mul = np.add, np.subtract, np.multiply
    angle = np.zeros(ng, complex)
    angle_imag = angle.imag
    e = np.empty(ng, complex)
    o = np.empty(len(k_red), complex)
    o_gen, o_bus = o[:ng], o[ng:]
    s = np.empty(ng, complex)
    pe = s.real
    v_abs, slip, t, u = (np.empty(ng) for _ in range(4))
    # k1..k4, the stage state and the weighted sum; row 2 of a derivative
    # stays zero without exciters
    k1, k2, k3, k4, xs, y = (np.zeros((4, ng)) for _ in range(6))

    def derivs(x, f):
        delta, omega, e_q, p_m = x
        add(delta, zero, angle_imag)
        np.exp(angle, e)
        mul(e_q, e, e)
        np.dot(k_red, e, o)
        np.conjugate(o_gen, s)
        mul(e, s, s)
        sub(omega, ws, f[0])
        np.divide(f[0], ws, slip)
        sub(p_m, pe, t)
        mul(damp, slip, u)
        sub(t, u, t)
        mul(c_swing, t, f[1])
        if any_exc:
            np.abs(o_bus, v_abs)
            sub(v_ref, v_abs, t)
            mul(c_vref, t, t)
            sub(e_q, e0, u)
            mul(c_eq, u, u)
            sub(t, u, f[2])
        mul(slip, inv_r_gov, t)
        sub(pm0, t, t)
        sub(t, p_m, t)
        mul(c_gov, t, f[3])

    def rk4(x, scalars):
        h, dt, sixth = scalars
        derivs(x, k1)
        for k, scale, nxt in ((k1, h, k2), (k2, h, k3), (k3, dt, k4)):
            mul(scale, k, xs)
            add(x, xs, xs)
            derivs(xs, nxt)
        mul(two, k2, y)
        add(k1, y, y)
        mul(two, k3, xs)
        add(y, xs, y)
        add(y, k4, y)
        mul(sixth, y, y)
        return add(x, y)

    return rk4, _trapezoidal(derivs, ng)


def _segment_kernel(ng: int, floats: bool, rk4, trapezoidal):
    """The segment kernel ``run`` over a path's one-step RK4 and
    trapezoidal functions: on the float path they take a flattened state
    list and dt, on the numpy path a (4, ng) array and dt/2, dt and dt/6
    as 0-d arrays.

    ``run(state, dt, n, integrator, rec, first, every)`` advances the
    (4, n_gen) state of step ``first`` by up to ``n`` steps, in one loop.
    The state of each step that is a multiple of ``every`` goes straight
    into row step/every of ``rec``, the (n_rec, 4, n_gen) record array,
    one machine state per row (none without ``rec``); the float path
    writes its state list into the (n_rec, 4 n_gen) view of it. After a
    step that returns its input bit for bit, a fixed point, every later
    step would return it again: ``run`` fills its remaining due rows with
    it and stops. Returns the steps taken (that last one included) and a
    new array of the last state. A non-finite value never becomes finite
    again in a step, so one check, on that last state, covers every row
    before it."""
    same = _same_floats if floats else _same_bits

    def run(state, dt, n, integrator="rk4", rec=None, first=0, every=1):
        one = rk4 if integrator == "rk4" else trapezoidal
        if floats:
            x, step_dt = state.ravel().tolist(), dt
            rows = None if rec is None else rec.reshape(len(rec), -1)
        else:
            x, step_dt = state, (np.array(0.5 * dt), np.array(dt),
                                 np.array(dt / 6.0))
            rows = rec
        # the step, counted from 1, whose state goes into the next row
        due = every - first % every if rows is not None else n + 1
        taken = n
        # a non-finite state raises below; numpy's overflow and invalid
        # warnings would only come before that error
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                for j in range(1, n + 1):
                    y = one(x, step_dt)
                    fixed = same(y, x)
                    x = y
                    if j == due:
                        rows[(first + j) // every] = x
                        due += every
                    if fixed:
                        if rows is not None:
                            rows[(first + j) // every + 1:
                                 (first + n) // every + 1] = x
                        taken = j
                        break
            except (ValueError, OverflowError):
                # the float kernel's cos or sin of an infinite angle, or
                # abs of an overflowing phasor: numpy carries these on as
                # NaN instead, which no trapezoidal iteration converges from
                if integrator == "trapezoidal":
                    raise _unconverged(math.nan, dt) from None
                raise SimulationError("non-finite machine state") from None
        last = np.array(x).reshape(4, ng)
        if not np.isfinite(last).all():
            raise SimulationError("non-finite machine state")
        return taken, last
    return run


def step(state: np.ndarray, net: DynamicNetwork, dt: float,
         integrator: str = "rk4") -> np.ndarray:
    """Advance the (4, n_gen) machine state one step of size dt, on the
    network's path: the one-step case of its segment kernel. Both paths
    do the same operations in the same order; only the derivative's
    complex products and sums may differ in the last bit."""
    if integrator not in INTEGRATORS:
        raise ValueError(f"unknown integrator {integrator!r}")
    return net.run(state, dt, 1, integrator)[1]


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
    max_residual: float = 0.0


def _record_pass(net: DynamicNetwork, delta: np.ndarray, e_q: np.ndarray,
                 times: np.ndarray, v: np.ndarray, theta: np.ndarray,
                 p_e: np.ndarray, q_e: np.ndarray) -> float:
    """Bus voltage magnitudes and angles and machine p_e and q_e of one
    stretch's recorded rows, all held by ``net``, written into the row
    views ``v``, ``theta``, ``p_e`` and ``q_e``; returns the stretch's
    largest residual against the full augmented admittance matrix.

    Rows are processed in blocks of ``_RECORD_BLOCK`` from the stretch's
    first row, so temporaries do not grow with the row count.
    """
    max_res = 0.0
    for lo in range(0, len(times), _RECORD_BLOCK):
        rows = slice(lo, lo + _RECORD_BLOCK)
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
    return max_res


def simulate(case: NetworkCase, config: SimConfig) -> Trajectory:
    """Run power flow, initialize machines, and integrate to t_end with timed
    events snapped to the step grid, one stretch at a time: each applies
    the events of its first step, steps its network state to the next
    event and records its rows (the row at an event belongs to the stretch
    after it). A step that returns its input bit for bit has reached a
    fixed point of the stretch's network; the steps up to the next event
    are not taken, and their recorded rows repeat that state."""
    config.validate()
    pf = solve_power_flow(case)
    state, net = initialize_dynamics(case, pf)

    dt = config.dt
    n_steps = step_count(config.t_end, dt)
    # the events of each stretch, by the step they take effect
    stretches: dict[int, list[Event]] = {0: []}
    for ev in sorted(case.events, key=lambda e: e.time):
        i_ev = step_index(ev.time, dt)
        if i_ev > n_steps:
            warnings.warn(
                f"event at t={ev.time} s is beyond t_end={config.t_end} s; "
                "ignored")
            continue
        stretches.setdefault(i_ev, []).append(ev)
    starts = sorted(stretches)

    every = config.record_every
    times = np.arange(0, n_steps + 1, every) * dt
    n_rec = len(times)
    ng, nb = net.n_gen, case.n_bus
    # one machine state (delta, omega, e_q, p_m) per recorded row
    rec = np.empty((n_rec, 4, ng))
    delta, omega, e_q, p_m = rec.transpose(1, 0, 2)
    v, theta = np.empty((n_rec, nb)), np.empty((n_rec, nb))
    p_e, q_e = np.empty((n_rec, ng)), np.empty((n_rec, ng))
    event_times: list[float] = []
    max_res = 0.0

    rec[0] = state
    # each stretch runs from its start to the next one; the last one's end,
    # n_steps + 1, puts the row of step n_steps into it
    for i, end in zip(starts, starts[1:] + [n_steps + 1]):
        stop = min(end, n_steps)
        for ev in stretches[i]:
            net = net.apply_event(ev)
            event_times.append(i * dt)
        if i < stop:
            state = net.run(state, dt, stop - i, config.integrator, rec, i,
                            every)[1]
        # this stretch's rows: up to the next stretch's first row
        rows = slice((i + every - 1) // every, (end + every - 1) // every)
        max_res = max(max_res, _record_pass(
            net, delta[rows], e_q[rows], times[rows], v[rows], theta[rows],
            p_e[rows], q_e[rows]))

    return Trajectory(
        times=times, bus_ids=[b.id for b in case.buses],
        v=v, theta=theta,
        gen_buses=[g.bus for g in case.generators],
        delta=delta, omega=omega, e_q=e_q, p_m=p_m, p_e=p_e, q_e=q_e,
        event_times=event_times, omega_s=case.omega_s,
        max_residual=max_res,
    )
