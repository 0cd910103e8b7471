"""Complex-frequency synchronization verdicts at node, subnet, and global scope.

A node's quasi-limit is estimated from a coarse trailing-segment mean; per
component, the convergence time is the first instant whose trailing window
stays within tolerance of that limit. A node converges when its final-window
fluctuation, the diameter of its (eps, omega) points, is below tolerance;
subnets and the whole network synchronize when the converged limits agree
pairwise.

``evaluate`` judges all buses in one pass over the (n_samples, n_bus)
series: one trailing-max sweep per component, and one batched diameter over
the (n_bus, w) final windows. That diameter splits each window into time
blocks of about sqrt(w) samples and measures only the block pairs whose
anchor-and-radius bound reaches the largest anchor-to-anchor distance; a
window that keeps too many block pairs, or holds a non-finite or huge
value, falls back to the per-node ``_pairwise_max``. Every fluctuation is
bit-equal to the all-pairs maximum.
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
_PAIR_BLOCK = 1 << 16  # pairs per block in _cross_max and _window_diameters
# A window keeping more than this many block pairs per bit of its length
# (an unstructured cloud) goes to _pairwise_max, so the pairs measured stay
# within about 4 w log2(w). The final windows of the load shed, of 270-bus
# line trips and of a 0.25 ms synthetic trajectory kept 2 to 16 block pairs
# (w = 501 to 4,001).
_PRUNE_LIMIT = 4
# Windows with a component beyond this magnitude go to _pairwise_max: below
# it no difference or sum of three distances can overflow.
_HUGE = 2.0 ** 1000


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


def _row_means(x: np.ndarray) -> np.ndarray:
    """np.mean of each column of ``x``, each taken over a contiguous 1-D
    copy as for a single node: a 2-D mean sums in another order."""
    return np.array([np.mean(col) for col in np.ascontiguousarray(x.T)])


def _coarse_limits(
    times: np.ndarray, eps: np.ndarray, omega: np.ndarray, config: SyncConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Per-column eps and omega means over [t_coarse - window, t_end] of
    (n_samples, n_bus) series."""
    t0 = config.resolved_t_coarse() - config.window
    mask = (times >= t0 - _T_SLACK) & (times <= config.t_end + _T_SLACK)
    if not mask.any():
        raise ValueError("empty coarse segment")
    return _row_means(eps[mask]), _row_means(omega[mask])


def coarse_limit(
    times: np.ndarray, eps: np.ndarray, omega: np.ndarray, config: SyncConfig
) -> ComplexFrequencySample:
    """Component-wise sample mean over [t_coarse - window, t_end]."""
    e, o = _coarse_limits(times, np.asarray(eps)[:, None],
                          np.asarray(omega)[:, None], config)
    return ComplexFrequencySample(eps=float(e[0]), omega=float(o[0]))


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
    target: float | np.ndarray,
    tol: float,
    window: float,
    t_event: float,
) -> float | None | list[float | None]:
    """First sample instant t >= t_event + window whose trailing window
    [t - window, t] keeps |x - target| below tol; None if never.

    ``x`` may carry a trailing bus axis, (n_samples, n_bus), with one
    target per bus; then the result is a list with one time (or None) per
    bus, from one trailing-max sweep over all of them."""
    times = np.asarray(times, dtype=float)
    x = np.asarray(x, dtype=float)
    dt = uniform_step(times)
    w = int(round(window / dt)) + 1
    if w > len(times):
        raise ValueError("window exceeds series span")
    cols = x if x.ndim > 1 else x[:, None]
    # windows ending before the first admissible instant are not swept
    lo = max(w - 1, int(np.searchsorted(times, t_event + window - _T_SLACK)))
    end_times = times[lo:]
    hits: list[float | None] = [None] * cols.shape[1]
    if len(end_times):
        dev = cols[lo - w + 1:] - target
        ok = trailing_max(np.abs(dev, out=dev), w) < tol
        for k, i in enumerate(np.argmax(ok, axis=0)):
            if ok[i, k]:
                hits[k] = float(end_times[i])
    return hits if x.ndim > 1 else hits[0]


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
    with np.errstate(over="ignore", invalid="ignore"):
        pts = np.column_stack([z.real - z.real.mean(),
                               z.imag - z.imag.mean()])
    if not np.isfinite(pts).all():  # the mean overflowed, near 1e308
        return _cross_max(z, z)
    # scaled by a power of two below 1, so that the squares cannot overflow
    unit_pts = np.ldexp(pts, -np.frexp(np.abs(pts).max())[1])
    u = np.linalg.eigh(unit_pts.T @ unit_pts)[1][:, 1]
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


def _window_diameters(z: np.ndarray) -> np.ndarray:
    """``_pairwise_max`` of every row of the (n_bus, w) array ``z``, bit
    for bit, by one batched bound-and-prune over all rows.

    Each row is split into m time blocks of b = ceil(sqrt(w)) consecutive
    samples; the last block is padded with copies of the row's last
    sample, which add no new distance. Block k has an anchor a_k, its
    middle sample, and a radius r_k = max |z_i - a_k| over the block. The
    largest anchor-to-anchor distance is one of the measured distances, so
    it bounds the diameter from below. No two points of blocks A and B are
    farther apart than |a_A - a_B| + r_A + r_B; widened by 64 ulp, which
    covers the rounding of the three distances, of their sum and of a
    measured distance (a few ulp each), and by 64 subnormals, a block pair
    whose bound falls short of the lower bound cannot hold the diameter.
    Only the surviving block pairs are measured, in the arithmetic of
    brute force (np.abs of a fresh complex difference), a chunk of block
    pairs at a time.

    Rows of at most _BRUTE_FORCE_MAX samples, rows with a non-finite value
    or a component beyond _HUGE, and rows keeping more than
    _PRUNE_LIMIT * ceil(log2 w) block pairs go to _pairwise_max. So time
    stays O(w log w) per row and memory O(n_bus * w)."""
    n, w = z.shape
    out = np.empty(n)
    if w <= _BRUTE_FORCE_MAX:
        out[:] = [_pairwise_max(row) for row in z]
        return out
    safe = ((np.abs(z.real) <= _HUGE) & (np.abs(z.imag) <= _HUGE)).all(axis=1)
    rows = np.flatnonzero(safe)
    zs = z if rows.size == n else z[rows]
    b = math.isqrt(w - 1) + 1
    m = -(-w // b)
    zb = np.concatenate([zs, np.repeat(zs[:, -1:], m * b - w, axis=1)],
                        axis=1).reshape(len(rows), m, b)
    anchor = zb[:, :, b // 2]
    radius = np.abs(zb - anchor[:, :, None]).max(axis=2)
    gap = np.abs(anchor[:, :, None] - anchor[:, None, :])
    low = gap.max(axis=(1, 2))
    gap += radius[:, :, None]
    gap += radius[:, None, :]
    ulp, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    keep = gap * (1.0 + 64 * ulp) + 64 * tiny >= low[:, None, None]
    keep &= np.triu(np.ones((m, m), dtype=bool))
    pruned = keep.sum(axis=(1, 2)) <= _PRUNE_LIMIT * math.ceil(math.log2(w))
    keep &= pruned[:, None, None]
    node, blk_a, blk_b = np.nonzero(keep)
    per_chunk = max(1, _PAIR_BLOCK // (b * b))
    for k in range(0, len(node), per_chunk):
        c = slice(k, k + per_chunk)
        d = np.abs(zb[node[c], blk_a[c]][:, :, None]
                   - zb[node[c], blk_b[c]][:, None, :]).max(axis=(1, 2))
        np.maximum.at(low, node[c], d)
    out[rows[pruned]] = low[pruned]
    for k in np.concatenate([np.flatnonzero(~safe), rows[~pruned]]):
        out[k] = _pairwise_max(z[k])
    return out


def _node_verdicts(
    bus_ids: list[int],
    times: np.ndarray,
    eps: np.ndarray,
    omega: np.ndarray,
    config: SyncConfig,
) -> list[NodeVerdict]:
    """Verdicts for the columns of (n_samples, n_bus) eps and omega series,
    one per bus id, in one pass over all of them."""
    config.validate()
    times = np.asarray(times, dtype=float)
    coarse_eps, coarse_omega = _coarse_limits(times, eps, omega, config)
    t_eps = find_convergence_time(times, eps, coarse_eps, config.tol_eps,
                                  config.window, config.t_event)
    t_omega = find_convergence_time(times, omega, coarse_omega,
                                    config.tol_omega, config.window,
                                    config.t_event)

    final = (times >= config.t_end - config.window - _T_SLACK) \
        & (times <= config.t_end + _T_SLACK)
    fluctuation = _window_diameters(
        np.ascontiguousarray((eps[final] + 1j * omega[final]).T))

    if config.limit_mode == "endpoint":
        i_end = int(np.searchsorted(times, config.t_end + _T_SLACK) - 1)
        lim_eps, lim_omega = eps[i_end], omega[i_end]
    else:
        lim_eps, lim_omega = _row_means(eps[final]), _row_means(omega[final])
    verdicts = []
    for k, bus in enumerate(bus_ids):
        t_e, t_o = t_eps[k], t_omega[k]
        verdicts.append(NodeVerdict(
            bus=bus, converged=bool(fluctuation[k] < config.tol_node),
            t_eps=t_e, t_omega=t_o,
            t_end_k=None if t_e is None or t_o is None else max(t_e, t_o),
            limit=ComplexFrequencySample(float(lim_eps[k]),
                                         float(lim_omega[k])),
            fluctuation=float(fluctuation[k]),
            coarse=ComplexFrequencySample(float(coarse_eps[k]),
                                          float(coarse_omega[k])),
        ))
    return verdicts


def node_verdict(
    bus: int,
    times: np.ndarray,
    eps: np.ndarray,
    omega: np.ndarray,
    config: SyncConfig,
) -> NodeVerdict:
    """The verdict of one node: the one-column case of ``evaluate``."""
    return _node_verdicts([bus], times, np.asarray(eps)[:, None],
                          np.asarray(omega)[:, None], config)[0]


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
    nodes = {v.bus: v for v in _node_verdicts(
        series.bus_ids, series.times, series.eps, series.omega, config)}
    subs: dict[str, SubnetVerdict] = {}
    for name, members in subnets.items():
        present = [nodes[b] for b in members if b in nodes]
        if present:
            subs[name] = subnet_verdict(name, present, config)
    g = global_verdict(subs, nodes, config)
    return SyncReport(config=config, nodes=nodes, subnets=subs,
                      global_verdict=g)
