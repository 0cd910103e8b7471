"""Static per-unit network model: case data, Y-bus assembly, Newton power flow,
and event application.

All impedances are per-unit on the system base ``s_base``; generator inertia
constants are seconds on the machine base ``s_machine``.
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np


class CaseError(ValueError):
    """Structurally invalid or inconsistent network case data."""


class PowerFlowError(RuntimeError):
    """Newton power flow failed or the network is unsolvable."""


def is_finite_number(value) -> bool:
    """Whether ``value`` is a real number, not a bool, that is finite as a
    float: not NaN or ±inf, and no int beyond the float range."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


@dataclass(frozen=True)
class BusSpec:
    id: int
    kind: str  # "slack" | "pv" | "pq"
    base_kv: float
    subnet: str
    v_set: float | None = None


@dataclass(frozen=True)
class LineSpec:
    from_bus: int
    to_bus: int
    r: float
    x: float
    b_sh: float = 0.0  # total line charging susceptance
    tap: float = 1.0
    in_service: bool = True

    @property
    def key(self) -> tuple[int, int]:
        return (self.from_bus, self.to_bus)


@dataclass(frozen=True)
class GovernorSpec:
    r_gov: float  # droop, per-unit
    t_gov: float  # servo time constant, s


@dataclass(frozen=True)
class ExciterSpec:
    k_ex: float
    t_ex: float
    v_ref: float | None = None  # None: take the power-flow terminal voltage


@dataclass(frozen=True)
class GeneratorSpec:
    bus: int
    h: float          # inertia constant, s on machine base
    d: float          # damping torque coefficient, p.u.
    xdp: float        # transient reactance x'd, p.u. on system base
    s_machine: float  # machine MVA base
    p_set: float = 0.0  # scheduled active power, p.u. on system base
    governor: GovernorSpec | None = None
    exciter: ExciterSpec | None = None


@dataclass(frozen=True)
class LoadSpec:
    bus: int
    p: float
    q: float


# the params ``apply_event`` reads, by event kind
EVENT_PARAMS = {
    "load_scale": ("bus", "p_factor", "q_factor"),
    "line_trip": ("from", "to"),
    "q_injection_step": ("bus", "dq"),
}


@dataclass(frozen=True)
class Event:
    time: float
    kind: str
    params: dict
    description: str = ""


@dataclass
class NetworkCase:
    s_base: float
    f_nominal: float
    buses: list[BusSpec]
    lines: list[LineSpec]
    generators: list[GeneratorSpec]
    loads: list[LoadSpec]
    subnets: dict[str, list[int]]
    events: list[Event] = field(default_factory=list)

    @property
    def omega_s(self) -> float:
        return 2.0 * math.pi * self.f_nominal

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    def bus_index(self) -> dict[int, int]:
        return {b.id: i for i, b in enumerate(self.buses)}

    def validate(self) -> None:
        if self.s_base <= 0:
            raise CaseError("s_base must be > 0")
        if self.f_nominal <= 0:
            raise CaseError("f_nominal must be > 0")
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise CaseError("duplicate bus ids")
        known = set(ids)
        slacks = [b.id for b in self.buses if b.kind == "slack"]
        if len(slacks) == 0:
            raise CaseError("no slack bus")
        if len(slacks) > 1:
            raise CaseError(f"multiple slack buses: {slacks}")
        for b in self.buses:
            if b.kind not in ("slack", "pv", "pq"):
                raise CaseError(f"bus {b.id}: unknown kind {b.kind!r}")
            if b.kind in ("slack", "pv") and b.v_set is None:
                raise CaseError(f"bus {b.id}: {b.kind} bus requires v_set")
            if b.v_set is not None and b.v_set <= 0:
                raise CaseError(f"bus {b.id}: v_set must be > 0")
        for ln in self.lines:
            if ln.from_bus == ln.to_bus:
                raise CaseError(f"line {ln.key}: from == to")
            if ln.r == 0 and ln.x == 0:
                raise CaseError(f"line {ln.key}: r and x must not both be 0")
            if ln.tap <= 0:
                raise CaseError(f"line {ln.key}: tap must be > 0")
            for end in ln.key:
                if end not in known:
                    raise CaseError(f"line {ln.key}: unknown bus {end}")
        kinds = {b.id: b.kind for b in self.buses}
        gen_buses: set[int] = set()
        for g in self.generators:
            if g.bus not in known:
                raise CaseError(f"generator at unknown bus {g.bus}")
            if g.bus in gen_buses:
                raise CaseError(f"bus {g.bus}: more than one generator")
            if kinds[g.bus] == "pq":
                raise CaseError(
                    f"generator at pq bus {g.bus} is not supported")
            gen_buses.add(g.bus)
            if g.h <= 0:
                raise CaseError(f"generator at bus {g.bus}: H must be > 0")
            if g.d < 0:
                raise CaseError(f"generator at bus {g.bus}: D must be >= 0")
            if g.xdp <= 0:
                raise CaseError(f"generator at bus {g.bus}: xdp must be > 0")
            if g.s_machine <= 0:
                raise CaseError(
                    f"generator at bus {g.bus}: s_machine must be > 0")
            if g.governor is not None and g.governor.r_gov <= 0:
                raise CaseError(f"generator at bus {g.bus}: R_gov must be > 0")
            if g.governor is not None and g.governor.t_gov <= 0:
                raise CaseError(f"generator at bus {g.bus}: t_gov must be > 0")
            if g.exciter is not None and g.exciter.t_ex <= 0:
                raise CaseError(f"generator at bus {g.bus}: t_ex must be > 0")
        for b in self.buses:
            if b.kind != "pq" and b.id not in gen_buses:
                raise CaseError(f"bus {b.id}: {b.kind} bus has no generator")
        for ld in self.loads:
            if ld.bus not in known:
                raise CaseError(f"load at unknown bus {ld.bus}")
        covered: set[int] = set()
        for name, members in self.subnets.items():
            for m in members:
                if m not in known:
                    raise CaseError(f"subnet {name}: unknown bus {m}")
            covered.update(members)
        if covered != known:
            missing = sorted(known - covered)
            raise CaseError(f"subnets do not cover buses {missing}")
        tripped: frozenset[frozenset[int]] = frozenset()
        for ev in self.events:
            tripped = check_event(self, ev, tripped)


def check_event(case: NetworkCase, event: Event,
                tripped: frozenset[frozenset[int]] = frozenset()
                ) -> frozenset[frozenset[int]]:
    """The trip history ``tripped`` (each line as the set of its two bus
    ids) with ``event`` added; a CaseError unless the event has a finite
    time >= 0, a kind in ``EVENT_PARAMS`` and each of its params as a
    finite number, and names a known bus or a known in-service line that
    is not in ``tripped``."""
    if not (is_finite_number(event.time) and event.time >= 0):
        raise CaseError(
            f"event time must be >= 0 and finite, not {event.time!r}")
    if event.kind not in EVENT_PARAMS:
        raise CaseError(f"unknown event kind {event.kind!r}")
    params, names = event.params, EVENT_PARAMS[event.kind]
    for name in names:
        value = params.get(name)
        if not is_finite_number(value):
            raise CaseError(
                f"{event.kind} event at t={event.time}: param {name!r} "
                + ("is missing" if name not in params
                   else f"must be a finite number, not {value!r}"))
    if "bus" in names and params["bus"] not in case.bus_index():
        raise CaseError(f"event at unknown bus {params['bus']}")
    if event.kind != "line_trip":
        return tripped
    ends = (params["from"], params["to"])
    line = frozenset(ends)
    if all(frozenset(ln.key) != line for ln in case.lines):
        raise CaseError(f"event references unknown line {ends}")
    if all(frozenset(ln.key) != line for ln in case.lines if ln.in_service):
        raise CaseError(
            f"event trips line {ends}, which is out of service")
    if line in tripped:
        raise CaseError(f"line {ends} is tripped twice")
    return tripped | {line}


def _stamp_line(y: np.ndarray, ln: LineSpec, i: int, j: int,
                remove: bool = False) -> None:
    """Add (or remove) a single line's Y-bus contribution in place: four
    entries, at rows and columns ``i`` (from) and ``j`` (to)."""
    ys = 1.0 / complex(ln.r, ln.x)
    ysh = 0.5j * ln.b_sh
    t = ln.tap
    y_ii, y_jj, y_ij = ys / (t * t) + ysh, ys + ysh, ys / t
    if remove:
        y_ii, y_jj, y_ij = -y_ii, -y_jj, -y_ij
    y[i, i] += y_ii
    y[j, j] += y_jj
    y[i, j] -= y_ij
    y[j, i] -= y_ij


def build_ybus(case: NetworkCase) -> np.ndarray:
    """Assemble the bus admittance matrix, dense complex (n_bus, n_bus),
    from in-service lines."""
    ids = [b.id for b in case.buses]
    if len(set(ids)) != len(ids):
        raise CaseError("duplicate bus ids")
    idx = case.bus_index()
    n = case.n_bus
    y = np.zeros((n, n), dtype=complex)
    for ln in case.lines:
        if ln.from_bus not in idx or ln.to_bus not in idx:
            raise CaseError(f"line {ln.key}: endpoint not in bus list")
        if not ln.in_service:
            continue
        _stamp_line(y, ln, idx[ln.from_bus], idx[ln.to_bus])
    return y


@dataclass
class PowerFlowSolution:
    v: np.ndarray        # p.u. magnitude per bus
    theta: np.ndarray    # rad per bus
    p_inj: np.ndarray    # net active injection, p.u.
    q_inj: np.ndarray    # net reactive injection, p.u.
    iterations: int
    max_mismatch: float


def _check_connected(case: NetworkCase, y: np.ndarray) -> None:
    idx = case.bus_index()
    slack = next(b for b in case.buses if b.kind == "slack")
    n = case.n_bus
    seen = {idx[slack.id]}
    frontier = [idx[slack.id]]
    adj = np.abs(y) > 1e-12
    np.fill_diagonal(adj, False)
    while frontier:
        i = frontier.pop()
        for j in np.nonzero(adj[i])[0]:
            if j not in seen:
                seen.add(j)
                frontier.append(int(j))
    if len(seen) != n:
        unreached = min(b.id for b in case.buses if idx[b.id] not in seen)
        raise PowerFlowError(f"bus {unreached} is disconnected from the slack")


_PF_TOL = 1e-8  # largest bus mismatch, p.u., of a converged power flow
_PF_MAX_ITER = 20


def solve_power_flow(case: NetworkCase) -> PowerFlowSolution:
    """Newton-Raphson power flow on polar mismatch equations, flat start."""
    case.validate()
    y = build_ybus(case)
    _check_connected(case, y)
    idx = case.bus_index()
    n = case.n_bus

    kinds = np.array([b.kind for b in case.buses])
    pv = np.nonzero(kinds == "pv")[0]
    pq = np.nonzero(kinds == "pq")[0]
    pvpq = np.concatenate([pv, pq])

    p_spec = np.zeros(n)
    q_spec = np.zeros(n)
    for g in case.generators:
        p_spec[idx[g.bus]] += g.p_set
    for ld in case.loads:
        p_spec[idx[ld.bus]] -= ld.p
        q_spec[idx[ld.bus]] -= ld.q

    vm = np.array([b.v_set if b.v_set is not None else 1.0 for b in case.buses])
    va = np.zeros(n)

    npq = len(pq)
    npvpq = len(pvpq)
    diag = np.diag_indices(n)
    max_mis = math.inf
    for it in range(1, _PF_MAX_ITER + 1):
        vc = vm * np.exp(1j * va)
        ibus = y @ vc
        s = vc * np.conj(ibus)
        dp = s.real - p_spec
        dq = s.imag - q_spec
        f = np.concatenate([dp[pvpq], dq[pq]])
        max_mis = float(np.max(np.abs(f))) if f.size else 0.0
        if max_mis < _PF_TOL:
            return PowerFlowSolution(
                v=vm.copy(), theta=va.copy(),
                p_inj=s.real.copy(), q_inj=s.imag.copy(),
                iterations=it, max_mismatch=max_mis,
            )
        # complex power derivatives (standard polar forms); diag(a) @ M is
        # a row scaling and M @ diag(a) a column scaling, so no n x n
        # product is formed
        e_dir = vc / vm
        ds_dva = -1j * vc[:, None] * np.conj(y * vc)
        ds_dva[diag] += 1j * vc * np.conj(ibus)
        ds_dvm = vc[:, None] * np.conj(y * e_dir)
        ds_dvm[diag] += e_dir * np.conj(ibus)
        j11 = ds_dva[np.ix_(pvpq, pvpq)].real
        j12 = ds_dvm[np.ix_(pvpq, pq)].real
        j21 = ds_dva[np.ix_(pq, pvpq)].imag
        j22 = ds_dvm[np.ix_(pq, pq)].imag
        jac = np.block([[j11, j12], [j21, j22]])
        try:
            dx = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError as exc:
            raise PowerFlowError(f"singular Jacobian at iteration {it}") from exc
        va[pvpq] += dx[:npvpq]
        vm[pq] += dx[npvpq:npvpq + npq]

    raise PowerFlowError(
        f"power flow did not converge after {_PF_MAX_ITER} iterations "
        f"(max mismatch {max_mis:.3e} p.u.)"
    )


def load_admittances(case: NetworkCase, pf: PowerFlowSolution) -> np.ndarray:
    """Constant-admittance load conversion at the power-flow operating point:
    y_load = (p - jq) / v^2 per bus."""
    idx = case.bus_index()
    y = np.zeros(case.n_bus, dtype=complex)
    for ld in case.loads:
        i = idx[ld.bus]
        y[i] += complex(ld.p, -ld.q) / (pf.v[i] ** 2)
    return y


def apply_event(
    ybus: np.ndarray,
    load_adm: np.ndarray,
    event: Event,
    case: NetworkCase,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply a timed event, returning updated (Y-bus, per-bus load admittance).

    Inputs are not mutated. The event is checked by ``check_event`` against
    the case alone: the lines tripped before it are held by the network
    state (``DynamicNetwork.tripped``), which checks them itself and then
    calls ``_apply_checked``. q_injection_step adds a shunt reactive
    injection evaluated at 1 p.u. voltage.
    """
    check_event(case, event)
    return _apply_checked(ybus, load_adm, event, case)


def _apply_checked(
    ybus: np.ndarray,
    load_adm: np.ndarray,
    event: Event,
    case: NetworkCase,
) -> tuple[np.ndarray, np.ndarray]:
    """``apply_event`` for an event ``check_event`` has passed."""
    idx = case.bus_index()
    params = event.params
    y_new = ybus.copy()
    adm = load_adm.copy()
    if event.kind == "load_scale":
        i = idx[params["bus"]]
        adm[i] = (adm[i].real * params["p_factor"]
                  + 1j * adm[i].imag * params["q_factor"])
    elif event.kind == "line_trip":
        ends = {params["from"], params["to"]}
        ln = next(ln for ln in case.lines
                  if ln.in_service and {ln.from_bus, ln.to_bus} == ends)
        _stamp_line(y_new, ln, idx[ln.from_bus], idx[ln.to_bus], remove=True)
    else:  # q_injection_step
        # injecting dq lowers consumed reactive power: y -> y + j*dq at v = 1
        adm[idx[params["bus"]]] += 1j * params["dq"]
    return y_new, adm
