"""Complex-frequency synchronization verdicts at node, subnet, and global scope.

A node's quasi-limit is estimated from a coarse trailing-segment mean; per
component, the convergence time is the first instant whose trailing window
stays within tolerance of that limit. A node converges when its final-window
fluctuation, the diameter of its (eps, omega) points, is below tolerance;
subnets and the whole network synchronize when the converged limits agree
pairwise.

``evaluate`` judges all buses in one pass over the (n_samples, n_bus)
series: one trailing-max sweep per component, and one batched diameter over
the (n_bus, w) final windows. The sweep takes blocks of bus columns of
about ``cf_estimator._BLOCK_VALUES`` deviations, and the coarse segment and
final windows are read as slices, so the pass holds a few copies of those
windows, never of the whole series. Every diameter, of a window or of a
set of limits, is bit-equal to the all-pairs maximum and comes from one
bound-and-prune on a power-of-two tree of blocks (``_tree_max``): a block
pair is split only while its anchor distance plus both radii can reach the
largest distance measured, and the leaf pairs left are measured. Windows
keep time order, where a settling trajectory prunes to a few pairs per
level; a row that keeps too many is rerun on a k-d layout of its distinct
points. numpy alone does the work.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cf_estimator import (
    ComplexFrequencySample,
    ComplexFrequencySeries,
    T_SLACK,
    block_len,
    uniform_step,
    window_slice,
)

# Up to this many points the all-pairs matrix is the cheaper path: on a
# 2-vCPU VM it took 320 us at 256 points, against 220 us for _tree_max on
# a damped spiral and 700 us on a gaussian cloud, which takes the k-d
# layout.
_BRUTE_FORCE_MAX = 192
_LEAF = 16  # most entries per leaf block of _tree_max
_PAIR_BLOCK = 1 << 16  # distances per chunk of measured leaf pairs
# A row keeping more than this many block pairs per bit of its length on a
# level of the time-order tree is rerun on its k-d layout, so it measures
# at most 4,096 ceil(log2 w) distances in time order. Settling final
# windows of the load shed, of 270-bus line trips and of a 0.25 ms
# synthetic trajectory kept at most 24 pairs on a level (w = 501 to 4,001);
# windows decayed to the estimator's rounding, a grid where many pairs tie,
# kept up to 1,163. A budget of 4 sent more rows to the relayout and took
# longer; 32 and no budget measured the same as 16.
_PRUNE_LIMIT = 16


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
        if not self.resolved_t_coarse() <= self.t_end - self.window + T_SLACK:
            raise ValueError("t_coarse must be <= t_end - window")
        for name in ("tol_eps", "tol_omega", "tol_node", "tol_eq"):
            if not getattr(self, name) > 0:
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
    spread: float | None  # None when no member converged
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
    """np.mean of each column of ``x``, as for a single node: one mean
    along the rows of the contiguous transpose, which sums each in the
    order of a contiguous 1-D copy (a mean down axis 0 sums in another)."""
    return np.ascontiguousarray(x.T).mean(axis=1)


def _coarse_limits(
    times: np.ndarray, eps: np.ndarray, omega: np.ndarray, config: SyncConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Per-column eps and omega means over [t_coarse - window, t_end] of
    (n_samples, n_bus) series."""
    t0 = config.resolved_t_coarse() - config.window
    rows = window_slice(times, t0, config.t_end)
    if rows.start == rows.stop:
        raise ValueError("empty coarse segment")
    return _row_means(eps[rows]), _row_means(omega[rows])


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
    bus, from one call that sweeps blocks of columns of about
    ``cf_estimator._BLOCK_VALUES`` deviations: columns are independent, so
    the block temporaries hold no more than that."""
    times = np.asarray(times, dtype=float)
    x = np.asarray(x, dtype=float)
    dt = uniform_step(times)
    w = int(round(window / dt)) + 1
    if w > len(times):
        raise ValueError("window exceeds series span")
    cols = x if x.ndim > 1 else x[:, None]
    # windows ending before the first admissible instant are not swept
    lo = max(w - 1, int(np.searchsorted(times, t_event + window - T_SLACK)))
    end_times = times[lo:]
    hits: list[float | None] = [None] * cols.shape[1]
    if len(end_times):
        rows = cols[lo - w + 1:]
        target = np.broadcast_to(target, cols.shape[1:])
        step = block_len(len(rows))
        for c0 in range(0, cols.shape[1], step):
            dev = rows[:, c0:c0 + step] - target[c0:c0 + step]
            ok = trailing_max(np.abs(dev, out=dev), w) < tol
            for k, i in enumerate(np.argmax(ok, axis=0)):
                if ok[i, k]:
                    hits[c0 + k] = float(end_times[i])
    return hits if x.ndim > 1 else hits[0]


def _brute_force_max(z: np.ndarray) -> float:
    """The all-pairs diameter of the points ``z``, one pair matrix: the
    reference every batched diameter here is bit-equal to."""
    if len(z) < 2:
        return 0.0
    return float(np.max(np.abs(z[:, None] - z[None, :])))


def _leaf_blocks(z: np.ndarray) -> np.ndarray:
    """The rows of the (n, w) array ``z`` as (n, 2**levels, leaf) blocks,
    leaf <= _LEAF, padded with copies of each row's last entry: a copy
    adds no new distance."""
    n, w = z.shape
    blocks = 1 << ((w - 1) // _LEAF).bit_length()
    leaf = -(-w // blocks)
    pad = np.repeat(z[:, -1:], blocks * leaf - w, axis=1)
    return np.concatenate([z, pad], axis=1).reshape(n, blocks, leaf)


def _kd_layout(u: np.ndarray) -> np.ndarray:
    """The distinct finite points ``u`` as the leaf blocks of one row,
    (1, 2**levels, leaf), ordered as a k-d tree: each block of the tree is
    split at its median along its wider axis."""
    p = _leaf_blocks(u[None, :])
    flat = p.ravel()
    for level in range(p.shape[1].bit_length() - 1):
        blk = flat.reshape(1 << level, -1)
        wide = np.ptp(blk.real, axis=1) >= np.ptp(blk.imag, axis=1)
        key = np.where(wide[:, None], blk.real, blk.imag)
        order = np.argpartition(key, blk.shape[1] // 2, axis=1)
        flat = np.take_along_axis(blk, order, axis=1).ravel()
    return flat.reshape(p.shape)


def _tree_max(zb: np.ndarray, budget: float) -> np.ndarray:
    """Diameter of each row of the finite (n, 2**levels, leaf) blocks
    ``zb``, bit-equal to ``_brute_force_max``; nan for a row that keeps
    more than ``budget`` block pairs on some level of the block tree.

    Level l splits each row into 2**l blocks of consecutive leaves. Block
    k has an anchor a_k, its middle entry, and a radius r_k = max |z_i -
    a_k| over the block. Every anchor-to-anchor distance measured is one
    of the row's distances, so the largest so far bounds the diameter from
    below. No two points of blocks A and B are farther apart than |a_A -
    a_B| + r_A + r_B; widened by 64 ulp, which covers the rounding of the
    three distances, of their sum and of a measured distance (a few ulp
    each), and by 64 subnormals, a block pair whose bound falls short of
    the lower bound cannot hold the diameter. An overflowing bound is inf
    and keeps its pair. A surviving pair is split into its child pairs on
    the next level; the leaf pairs left are measured in the arithmetic of
    brute force (np.abs of a fresh complex difference), a chunk at a
    time."""
    n, blocks, leaf = zb.shape
    ulp, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    low = np.zeros(n)
    over = np.zeros(n, dtype=bool)
    # the tree starts with all pairs of about sqrt(blocks) blocks: above
    # that level next to nothing prunes, and each level costs a full pass
    start = (blocks.bit_length() - 1) // 2
    i, j = np.triu_indices(1 << start)
    node = np.repeat(np.arange(n), len(i))
    i, j = np.tile(i, n), np.tile(j, n)
    for level in range(start, blocks.bit_length()):
        blk = zb.reshape(n, 1 << level, (blocks >> level) * leaf)
        anchor = blk[:, :, blk.shape[2] // 2]
        radius = np.abs(blk - anchor[:, :, None]).max(axis=2)
        if level > start:  # child pairs (2i + a, 2j + b) with 2i + a <= 2j + b
            i = (2 * i[:, None] + [0, 0, 1, 1]).ravel()
            j = (2 * j[:, None] + [0, 1, 0, 1]).ravel()
            node = np.repeat(node, 4)
            upper = i <= j
            node, i, j = node[upper], i[upper], j[upper]
        gap = np.abs(anchor[node, i] - anchor[node, j])
        np.maximum.at(low, node, gap)
        with np.errstate(over="ignore"):
            gap += radius[node, i]
            gap += radius[node, j]
            keep = gap * (1.0 + 64 * ulp) + 64 * tiny >= low[node]
        over |= np.bincount(node[keep], minlength=n) > budget
        keep &= ~over[node]
        node, i, j = node[keep], i[keep], j[keep]
    per_chunk = max(1, _PAIR_BLOCK // leaf ** 2)
    for k in range(0, len(node), per_chunk):
        c = slice(k, k + per_chunk)
        d = np.abs(zb[node[c], i[c]][:, :, None]
                   - zb[node[c], j[c]][:, None, :]).max(axis=(1, 2))
        np.maximum.at(low, node[c], d)
    low[over] = np.nan
    return low


def _pairwise_max(z: np.ndarray) -> float:
    """Largest |z_i - z_j| (the diameter of the point set), bit-equal to the
    brute-force maximum over all pairs: ``row_diameters`` of one row."""
    return float(row_diameters(np.asarray(z, dtype=complex)[None, :])[0])


def row_diameters(z: np.ndarray) -> np.ndarray:
    """The diameter of each row of the (n, w) complex array ``z``, the
    largest |z[i, j] - z[i, k]|: ``_brute_force_max`` of the row, bit for
    bit, in O(n * w) memory. A row of fewer than two points has diameter 0.

    Rows of up to _BRUTE_FORCE_MAX points are measured all-pairs, in
    blocks of rows of at most _PAIR_BLOCK differences. Longer rows go
    through ``_tree_max`` together in time order, where a settling
    window's blocks are short arcs and most block pairs prune. A
    row that keeps more than _PRUNE_LIMIT * ceil(log2 w) block pairs on a
    level (an unstructured cloud) is rerun alone on its ``_kd_layout``,
    with no budget. Time is about O(w log w) on settling windows and
    clouds; many distinct points within rounding (64 ulp) of the
    diameter's ends cost up to their pair count. A row with a non-finite
    value is nan, as brute force gives, since a nan radius would prune
    every pair."""
    n, w = z.shape
    if w < 2:
        return np.zeros(n)
    if w <= _BRUTE_FORCE_MAX:
        out = np.empty(n)
        rows = max(1, _PAIR_BLOCK // (w * w))
        for start in range(0, n, rows):
            zb = z[start:start + rows]
            out[start:start + rows] = np.abs(
                zb[:, :, None] - zb[:, None, :]).max(axis=(1, 2))
        return out
    out = np.full(n, np.nan)
    rows = np.flatnonzero(np.isfinite(z).all(axis=1))
    out[rows] = _tree_max(_leaf_blocks(z[rows]),
                          _PRUNE_LIMIT * math.ceil(math.log2(w)))
    for k in rows[np.isnan(out[rows])]:
        u = np.unique(z[k])
        out[k] = row_diameters(u[None, :])[0] if len(u) <= _BRUTE_FORCE_MAX \
            else _tree_max(_kd_layout(u), math.inf)[0]
    return out


def final_window(times: np.ndarray, config: SyncConfig) -> slice:
    """The rows of the final window, [t_end - window, t_end]; a ValueError
    if it holds fewer than the 2 samples a fluctuation needs."""
    final = window_slice(times, config.t_end - config.window, config.t_end)
    held = final.stop - final.start
    if held < 2:
        raise ValueError(
            f"the final window [{config.t_end - config.window!r}, "
            f"{config.t_end!r}] holds {held} sample(s); a fluctuation "
            "needs at least 2")
    return final


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

    final = final_window(times, config)
    fluctuation = row_diameters(
        np.ascontiguousarray((eps[final] + 1j * omega[final]).T))

    if config.limit_mode == "endpoint":
        i_end = int(np.searchsorted(times, config.t_end + T_SLACK) - 1)
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
    spread = _pairwise_max(np.array([m.limit.as_complex for m in converged])) \
        if converged else None
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
