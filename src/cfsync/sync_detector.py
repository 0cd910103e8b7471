"""Complex-frequency synchronization verdicts at node, subnet, and global scope.

A node's quasi-limit is estimated from a coarse trailing-segment mean; per
component, the convergence time is the first instant whose trailing window
stays within tolerance of that limit. A node converges when its final-window
fluctuation is below tolerance; subnets and the whole network synchronize when
the converged limits agree pairwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .cf_estimator import (
    ComplexFrequencySample,
    ComplexFrequencySeries,
    uniform_step,
)

_T_SLACK = 1e-9
# Up to this many points the all-pairs matrix is the cheaper path: on a
# 2-vCPU Xeon VM it took 150 us at 192 points against 160-320 us for the
# hull path (gaussian and damped-spiral sets), and lost from 256 on.
_BRUTE_FORCE_MAX = 192
_THIN = 1e-6  # width / length below which a set is measured end to end
_PAIR_BLOCK = 1 << 16  # pairs per block in _cross_max


@dataclass
class SyncConfig:
    t_end: float
    window: float = 1.0        # trailing window width, s
    t_coarse: float | None = None  # default: t_end - 2 s
    tol_eps: float = 1e-4      # eps-component convergence tolerance, 1/s
    tol_omega: float = 1e-3    # omega-component convergence tolerance, rad/s
    tol_node: float = 1e-3     # node fluctuation tolerance (complex modulus)
    tol_eq: float = 1e-3       # synchronization tolerance (complex modulus)
    t_event: float = 0.0
    limit_mode: str = "endpoint"  # "endpoint" | "window_mean"

    def resolved_t_coarse(self) -> float:
        return self.t_coarse if self.t_coarse is not None else self.t_end - 2.0

    def validate(self) -> None:
        if not (0.0 < self.window < self.t_end):
            raise ValueError("need 0 < window < t_end")
        if self.resolved_t_coarse() > self.t_end - self.window + _T_SLACK:
            raise ValueError("t_coarse must be <= t_end - window")
        for name in ("tol_eps", "tol_omega", "tol_node", "tol_eq"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.limit_mode not in ("endpoint", "window_mean"):
            raise ValueError(f"unknown limit_mode {self.limit_mode!r}")


@dataclass
class NodeVerdict:
    bus: int
    converged: bool
    t_eps: float | None
    t_omega: float | None
    t_end_k: float | None
    limit: ComplexFrequencySample
    fluctuation: float
    coarse: ComplexFrequencySample


@dataclass
class SubnetVerdict:
    subnet: str
    internally_synced: bool
    spread: float
    limit: ComplexFrequencySample
    member_buses: list[int]
    synced_with_global: bool | None = None


@dataclass
class GlobalVerdict:
    status: str  # "synchronized" | "not_synchronized" | "undetermined"
    limit: ComplexFrequencySample | None
    max_node_spread: float | None


@dataclass
class SyncReport:
    config: SyncConfig
    nodes: dict[int, NodeVerdict]
    subnets: dict[str, SubnetVerdict]
    global_verdict: GlobalVerdict


def coarse_limit(
    times: np.ndarray, eps: np.ndarray, omega: np.ndarray, config: SyncConfig
) -> ComplexFrequencySample:
    """Component-wise sample mean over [t_coarse - window, t_end]."""
    t0 = config.resolved_t_coarse() - config.window
    mask = (times >= t0 - _T_SLACK) & (times <= config.t_end + _T_SLACK)
    if not mask.any():
        raise ValueError("empty coarse segment")
    return ComplexFrequencySample(
        eps=float(np.mean(eps[mask])), omega=float(np.mean(omega[mask]))
    )


def trailing_max(x: np.ndarray, w: int) -> np.ndarray:
    """max(x[i:i + w]) along axis 0 for i = 0 .. len(x) - w.

    Exact, O(n log w) time and O(n) memory: pairwise maxima double the span
    covered until it reaches the largest power of two <= w, then two
    overlapping spans cover each window."""
    m = np.asarray(x)
    if not 1 <= w <= len(m):
        raise ValueError(f"window of {w} samples does not fit {len(m)}")
    span = 1
    while 2 * span <= w:
        m = np.maximum(m[:-span], m[span:])
        span *= 2
    return np.maximum(m[:len(m) - w + span], m[w - span:])


def find_convergence_time(
    times: np.ndarray,
    x: np.ndarray,
    target: float,
    tol: float,
    window: float,
    t_event: float,
) -> float | None:
    """First sample instant t >= t_event + window whose trailing window
    [t - window, t] keeps |x - target| below tol; None if never."""
    times = np.asarray(times, dtype=float)
    x = np.asarray(x, dtype=float)
    dt = uniform_step(times)
    w = int(round(window / dt)) + 1
    if w > len(times):
        raise ValueError("window exceeds series span")
    wmax = trailing_max(np.abs(x - target), w)
    end_times = times[w - 1:]
    ok = (wmax < tol) & (end_times >= t_event + window - _T_SLACK)
    hits = np.nonzero(ok)[0]
    if hits.size == 0:
        return None
    return float(end_times[hits[0]])


def _brute_force_max(z: np.ndarray) -> float:
    if len(z) < 2:
        return 0.0
    return float(np.max(np.abs(z[:, None] - z[None, :])))


def _cross_max(a: np.ndarray, b: np.ndarray) -> float:
    """max |a_i - b_j| over all i, j, in the arithmetic of brute force.

    Exact duplicates are dropped first; the pairs are measured a block of
    rows at a time, so memory stays bounded however many pairs there are."""
    a, b = np.unique(a), np.unique(b)
    rows = max(1, _PAIR_BLOCK // len(b))
    return max(float(np.max(np.abs(a[k:k + rows, None] - b[None, :])))
               for k in range(0, len(a), rows))


def _antipodal_pairs(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs into the counter-clockwise convex polygon ``p`` (h x 2)
    that include every antipodal pair, hence the diameter's endpoints.

    Rotating calipers without the pointer walk: edge k's direction angle,
    turned by pi, falls between the angles of the two edges at the vertex
    farthest from edge k. Both endpoints of each edge are paired with that
    vertex and its two neighbours, which absorbs rounding in the angles."""
    h = len(p)
    edge = np.roll(p, -1, axis=0) - p
    ang = np.arctan2(edge[:, 1], edge[:, 0])
    ang = np.mod(ang - ang[0], 2 * np.pi)
    far = np.searchsorted(ang, np.mod(ang + np.pi, 2 * np.pi)) % h
    k = np.arange(h)
    i = np.concatenate([k, (k + 1) % h] * 3)
    j = np.concatenate([(far + d) % h for d in (-1, -1, 0, 0, 1, 1)])
    return i, j


def _end_bands_max(z: np.ndarray, s: np.ndarray, t: np.ndarray) -> float:
    """Diameter of ``z`` from the points near the two ends of its axis.

    ``s`` and ``t`` are the centred points in an orthonormal frame. With
    length L and width w the extents of s and t, both endpoints of the
    diameter lie within w^2 / L of the ends of s, since the diameter is at
    least L and at most sqrt(ds^2 + w^2). The bands are widened by a bound
    on the rounding of s, t and of the measured distances. Exact for any
    set; few points fall in the bands when the set is thin."""
    slack = 64 * np.finfo(float).eps * (np.abs(s).max() + np.abs(t).max())
    length, width = np.ptp(s), np.ptp(t)
    band = np.inf if length <= 2 * slack else \
        slack + (width + slack) ** 2 / (length - slack)
    hi = s >= s.max() - band
    lo = s <= s.min() + band
    if (hi & lo).any():  # the bands meet: measure all pairs among them
        return _cross_max(z[hi | lo], z[hi | lo])
    return _cross_max(z[hi], z[lo])


def _pairwise_max(z: np.ndarray) -> float:
    """Largest |z_i - z_j| (the diameter of the point set), bit-equal to the
    brute-force maximum over all pairs, in O(n) memory and O(n log n) time.
    Only a thin set with many distinct points at both ends of its axis
    costs more time, the product of the two counts.

    The points are centred and rotated onto their principal axes. A thin
    set (width below _THIN of its length, collinear and identical points
    included) is measured between the two ends of its long axis. Otherwise
    the diameter's endpoints are antipodal vertices of the convex hull, so
    only those pairs are measured, in the same numpy arithmetic as brute
    force. Hull and calipers work on the axes scaled to unit extent: hull
    vertices and antipodal pairs do not change under that map, and Qhull's
    tolerances then cannot merge away the ends of an elongated set."""
    z = np.asarray(z, dtype=complex)
    if len(z) <= _BRUTE_FORCE_MAX:
        return _brute_force_max(z)
    if not np.isfinite(z).all():
        return math.nan  # brute force gives nan: z_i - z_i is nan
    pts = np.column_stack([z.real - z.real.mean(), z.imag - z.imag.mean()])
    u = np.linalg.eigh(pts.T @ pts)[1][:, 1]
    s = pts @ u
    t = pts @ np.array([-u[1], u[0]])
    length, width = np.ptp(s), np.ptp(t)
    if not width > _THIN * length:
        return _end_bands_max(z, s, t)
    unit = np.column_stack([s / length, t / width])
    try:
        v = ConvexHull(unit).vertices
    except QhullError:
        return _end_bands_max(z, s, t)
    i, j = _antipodal_pairs(unit[v])
    return float(np.max(np.abs(z[v[i]] - z[v[j]])))


def node_verdict(
    bus: int,
    times: np.ndarray,
    eps: np.ndarray,
    omega: np.ndarray,
    config: SyncConfig,
) -> NodeVerdict:
    config.validate()
    coarse = coarse_limit(times, eps, omega, config)
    t_eps = find_convergence_time(
        times, eps, coarse.eps, config.tol_eps, config.window, config.t_event)
    t_omega = find_convergence_time(
        times, omega, coarse.omega, config.tol_omega, config.window,
        config.t_event)
    have = [t for t in (t_eps, t_omega) if t is not None]
    t_end_k = max(have) if len(have) == 2 else None

    final = (times >= config.t_end - config.window - _T_SLACK) \
        & (times <= config.t_end + _T_SLACK)
    z = eps[final] + 1j * omega[final]
    fluctuation = _pairwise_max(z)

    i_end = int(np.searchsorted(times, config.t_end + _T_SLACK) - 1)
    if config.limit_mode == "endpoint":
        limit = ComplexFrequencySample(float(eps[i_end]), float(omega[i_end]))
    else:
        limit = ComplexFrequencySample(
            float(np.mean(eps[final])), float(np.mean(omega[final])))
    return NodeVerdict(
        bus=bus, converged=bool(fluctuation < config.tol_node),
        t_eps=t_eps, t_omega=t_omega, t_end_k=t_end_k,
        limit=limit, fluctuation=fluctuation, coarse=coarse,
    )


def subnet_verdict(
    subnet: str, members: list[NodeVerdict], config: SyncConfig
) -> SubnetVerdict:
    if not members:
        raise ValueError(f"empty subnet {subnet!r}")
    converged = [m for m in members if m.converged]
    # non-converged members are excluded from the spread but veto sync
    pool = converged if converged else members
    limits = np.array([m.limit.as_complex for m in pool])
    spread = _pairwise_max(np.array([m.limit.as_complex for m in converged]))
    rep = ComplexFrequencySample(
        float(limits.real.mean()), float(limits.imag.mean()))
    synced = bool(len(converged) == len(members) and spread < config.tol_eq)
    return SubnetVerdict(
        subnet=subnet, internally_synced=synced, spread=spread,
        limit=rep, member_buses=[m.bus for m in members],
    )


def global_verdict(
    subnet_verdicts: dict[str, SubnetVerdict],
    node_verdicts: dict[int, NodeVerdict],
    config: SyncConfig,
) -> GlobalVerdict:
    """Network-wide verdict; also fills each subnet's synced_with_global flag.

    The global limit is the component-wise mean over converged node limits."""
    converged = [v for v in node_verdicts.values() if v.converged]
    if not converged:
        for sv in subnet_verdicts.values():
            sv.synced_with_global = None
        return GlobalVerdict(status="undetermined", limit=None,
                             max_node_spread=None)
    limits = np.array([v.limit.as_complex for v in converged])
    g = ComplexFrequencySample(float(limits.real.mean()),
                               float(limits.imag.mean()))
    for sv in subnet_verdicts.values():
        sv.synced_with_global = bool(
            abs(sv.limit.as_complex - g.as_complex) < config.tol_eq)
    all_limits = np.array([v.limit.as_complex for v in node_verdicts.values()])
    spread = _pairwise_max(all_limits)
    synced = (len(converged) == len(node_verdicts)) and spread < config.tol_eq
    return GlobalVerdict(
        status="synchronized" if synced else "not_synchronized",
        limit=g, max_node_spread=spread,
    )


def evaluate(
    series: ComplexFrequencySeries,
    subnets: dict[str, list[int]],
    config: SyncConfig,
) -> SyncReport:
    """Node, subnet, and global verdicts for a complex-frequency series."""
    config.validate()
    nodes: dict[int, NodeVerdict] = {}
    for bus in series.bus_ids:
        e, o = series.node(bus)
        nodes[bus] = node_verdict(bus, series.times, e, o, config)
    subs: dict[str, SubnetVerdict] = {}
    for name, members in subnets.items():
        present = [nodes[b] for b in members if b in nodes]
        if present:
            subs[name] = subnet_verdict(name, present, config)
    g = global_verdict(subs, nodes, config)
    return SyncReport(config=config, nodes=nodes, subnets=subs,
                      global_verdict=g)
