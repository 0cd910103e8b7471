"""Disturbance-response indices: convergence rates, overshoot, damping rates,
subnet lag, limiting-value difference matrix, and the disturbed-bus region.

The disturbed-bus region reads each bus's extremes over the event window,
a slice of the series: it allocates a few values per bus, never a
deviation array the size of the series."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cf_estimator import window_slice
from .sync_detector import NodeVerdict, SyncConfig

_ZERO_DEV = 1e-12


@dataclass
class DampingFit:
    sigma: float       # 1/s; +inf means fully damped (zero residual)
    amplitude: float
    r_squared: float
    method: str        # "envelope" | "fallback" | "fully_damped"


@dataclass
class NodeMetrics:
    bus: int
    t_eps: float | None
    t_omega: float | None
    delta_tau: float | None   # |t_eps - t_omega|
    s_eps: float | None       # 1/t_eps
    s_omega: float | None
    overshoot_eps: float
    overshoot_omega: float
    fit_eps: DampingFit | None
    fit_omega: DampingFit | None


@dataclass
class SubnetMetrics:
    subnet: str
    member_buses: list[int]
    t_eps_max: float | None
    t_omega_max: float | None
    lag: float | None  # t_eps_max - t_omega_max; > 0: voltage loop slower
    limit_diff: np.ndarray  # symmetric |limit_i - limit_j| over members
    locally_synced: bool


@dataclass
class DisturbanceRegion:
    disturbed_eps: set[int]
    disturbed_omega: set[int]
    s_inf: set[int]
    r_inf: float
    d_inf: float
    n: int
    n_convention: str  # "paper_literal" | "total_buses"


def overshoot(times: np.ndarray, x: np.ndarray, t_start: float,
              t_stop: float) -> float:
    """Peak-to-valley span of x over the window [t_start, t_stop]."""
    seg = np.asarray(x, dtype=float)[window_slice(times, t_start, t_stop)]
    if not len(seg):
        raise ValueError("empty overshoot window")
    return float(seg.max() - seg.min())


def local_maxima(x: np.ndarray) -> np.ndarray:
    """Indices of the local maxima of a 1-D array.

    A maximum is a sample, or a run of equal samples, strictly above both
    neighbouring samples; a run counts once, at its midpoint rounded down.
    The first and last samples are never maxima. These are the rules of
    ``scipy.signal.find_peaks`` without conditions."""
    x = np.asarray(x)
    if len(x) < 3:
        return np.empty(0, dtype=np.intp)
    starts = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    ends = np.append(starts[1:], len(x)) - 1
    level = x[starts]
    peak = np.zeros(len(starts), dtype=bool)
    peak[1:-1] = (level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])
    return (starts[peak] + ends[peak]) // 2


def _log_linear_fit(t: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Fit ln y = ln A - sigma t; returns (sigma, A, R^2 of the line)."""
    ln_y = np.log(y)
    slope, intercept = np.polyfit(t, ln_y, 1)
    pred = slope * t + intercept
    ss_res = float(np.sum((ln_y - pred) ** 2))
    ss_tot = float(np.sum((ln_y - ln_y.mean()) ** 2))
    r2 = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    return -slope, math.exp(intercept), r2


def fit_damping(times: np.ndarray, x: np.ndarray, limit: float,
                t_event: float) -> DampingFit:
    """Exponential envelope fit of |x - limit| from t_event to the last
    sample, amplitude * exp(-sigma (t - t_event)): the amplitude is the
    envelope at t_event.

    Uses the peak envelope (log-linear least squares over local maxima) when
    at least 3 peaks exist, else falls back to all samples with a nonzero
    deviation. A signal already at its limit is reported as fully damped."""
    rows = window_slice(times, t_event)
    t = np.asarray(times, dtype=float)[rows] - t_event
    dev = np.abs(np.asarray(x, dtype=float)[rows] - limit)
    if dev.max(initial=0.0) <= _ZERO_DEV:
        return DampingFit(sigma=math.inf, amplitude=0.0, r_squared=1.0,
                          method="fully_damped")
    peaks = local_maxima(dev)
    peaks = peaks[dev[peaks] > _ZERO_DEV]
    if len(peaks) >= 3:
        sigma, amp, r2 = _log_linear_fit(t[peaks], dev[peaks])
        return DampingFit(sigma=sigma, amplitude=amp, r_squared=r2,
                          method="envelope")
    keep = dev > _ZERO_DEV
    if keep.sum() < 2:
        return DampingFit(sigma=math.inf, amplitude=0.0, r_squared=1.0,
                          method="fully_damped")
    sigma, amp, r2 = _log_linear_fit(t[keep], dev[keep])
    return DampingFit(sigma=sigma, amplitude=amp, r_squared=r2,
                      method="fallback")


def node_metrics(
    times: np.ndarray,
    eps: np.ndarray,
    omega: np.ndarray,
    verdict: NodeVerdict,
    config: SyncConfig,
) -> NodeMetrics:
    """One node's indices, each window a slice of its series cut at t_end."""
    cut = window_slice(times, t1=config.t_end)
    times, eps, omega = times[cut], eps[cut], omega[cut]
    t_eps, t_omega = verdict.t_eps, verdict.t_omega
    both = t_eps is not None and t_omega is not None
    # overshoot runs to the node's settling time T_end_k, else to t_end
    t_stop = verdict.t_end_k if both else config.t_end
    return NodeMetrics(
        bus=verdict.bus,
        t_eps=t_eps,
        t_omega=t_omega,
        delta_tau=abs(t_eps - t_omega) if both else None,
        s_eps=1.0 / t_eps if t_eps else None,
        s_omega=1.0 / t_omega if t_omega else None,
        overshoot_eps=overshoot(times, eps, config.t_event, t_stop),
        overshoot_omega=overshoot(times, omega, config.t_event, t_stop),
        fit_eps=fit_damping(times, eps, verdict.coarse.eps, config.t_event),
        fit_omega=fit_damping(times, omega, verdict.coarse.omega,
                              config.t_event),
    )


def subnet_metrics(
    subnet: str,
    member_metrics: list[NodeMetrics],
    member_verdicts: list[NodeVerdict],
    tol_s: float,
) -> SubnetMetrics:
    if not member_metrics:
        raise ValueError(f"empty subnet {subnet!r}")
    t_eps_all = [m.t_eps for m in member_metrics]
    t_om_all = [m.t_omega for m in member_metrics]
    t_eps_max = max(t_eps_all) if all(t is not None for t in t_eps_all) else None
    t_om_max = max(t_om_all) if all(t is not None for t in t_om_all) else None
    lag = (t_eps_max - t_om_max) \
        if (t_eps_max is not None and t_om_max is not None) else None
    limits = np.array([v.limit.as_complex for v in member_verdicts])
    diff = np.abs(limits[:, None] - limits[None, :])
    off_diag = diff[~np.eye(len(limits), dtype=bool)]
    synced = bool(off_diag.size == 0 or off_diag.max() < tol_s)
    return SubnetMetrics(
        subnet=subnet,
        member_buses=[m.bus for m in member_metrics],
        t_eps_max=t_eps_max, t_omega_max=t_om_max, lag=lag,
        limit_diff=diff, locally_synced=synced,
    )


def _leaves_band(x: np.ndarray, limits, tol: float) -> np.ndarray:
    """Per column of ``x``, whether max |x - limit| exceeds tol. Rounding
    x - limit is monotone in x, so max(max(x) - limit, limit - min(x)) is
    that maximum bit for bit, nan included, from the column extremes alone
    instead of a deviation array."""
    limits = np.asarray(limits, dtype=float)
    return np.maximum(x.max(axis=0) - limits, limits - x.min(axis=0)) > tol


def disturbance_region(
    times: np.ndarray,
    eps: np.ndarray,       # (n_samples, n_bus)
    omega: np.ndarray,     # (n_samples, n_bus)
    bus_ids: list[int],
    limits_eps: np.ndarray,    # per-bus limiting value of eps
    limits_omega: np.ndarray,  # per-bus limiting value of omega
    config: SyncConfig,
    n_convention: str = "total_buses",
) -> DisturbanceRegion:
    """Buses whose eps/omega leaves the tolerance band anywhere in
    [t_event, t_end], and the resulting impact ratios.

    "paper_literal" counts N as the disturbed-union size and the ratio over
    buses disturbed in both components; "total_buses" (default) normalizes by
    the measured bus count."""
    if n_convention not in ("paper_literal", "total_buses"):
        raise ValueError(f"unknown n_convention {n_convention!r}")
    rows = window_slice(times, config.t_event, config.t_end)
    if rows.start == rows.stop:
        raise ValueError(f"empty event window: no sample in [t_event, t_end]"
                         f" = [{config.t_event!r}, {config.t_end!r}]")
    hit_e = _leaves_band(eps[rows], limits_eps, config.tol_eps)
    hit_o = _leaves_band(omega[rows], limits_omega, config.tol_omega)
    ids = np.asarray(bus_ids)
    d_eps = set(int(b) for b in ids[hit_e])
    d_om = set(int(b) for b in ids[hit_o])
    s_inf = d_eps | d_om
    both = d_eps & d_om
    if n_convention == "paper_literal":
        n = len(s_inf)
        r_inf = len(both) / n if n else 0.0
        d_inf = r_inf / n if n else 0.0
    else:
        n = len(bus_ids)
        r_inf = len(s_inf) / n if n else 0.0
        d_inf = r_inf / len(s_inf) if s_inf else 0.0
    return DisturbanceRegion(
        disturbed_eps=d_eps, disturbed_omega=d_om, s_inf=s_inf,
        r_inf=r_inf, d_inf=d_inf, n=n, n_convention=n_convention,
    )
