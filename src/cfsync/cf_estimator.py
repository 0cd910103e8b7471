"""Per-bus complex frequency from sampled voltage trajectories.

The complex frequency at a bus is eps + j*omega with eps = d(ln v)/dt (the
normalized rate of change of the voltage magnitude) and omega = d(theta)/dt.
Differentiation is second-order central in the interior with one-sided stencils
at the ends, on the grid's one step ``uniform_step(times)``, optionally
followed by a centred moving average: each row is the left-to-right sum
from 0.0 of the derivative rows in its window (cut at the series ends),
divided by their count.

The estimator takes blocks of rows of about ``_BLOCK_VALUES`` values, each
with the halo rows its stencil and moving average need, through log or
angle, derivative and average in turn. Beyond its two (n_samples, n_bus)
outputs it holds a few block-sized temporaries (about 2 MiB at 270
buses), and every derivative bit is that of np.gradient over the whole
array. Only a series whose angle steps by pi or more is unwrapped: by
np.unwrap, a block of whole columns at a time (columns unwrap on their
own), into eps's output array, which holds the angles until omega is
taken from them and eps is written over them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_GRID_RTOL = 1e-6  # allowed deviation of a sample spacing, relative to dt
T_SLACK = 1e-9  # s: how far a time window's ends reach out over rounding
# values per block of an analysis pass (the estimator's rows, the
# convergence sweep's columns): bounds its temporaries
_BLOCK_VALUES = 1 << 16


@dataclass(frozen=True)
class ComplexFrequencySample:
    eps: float    # 1/s
    omega: float  # rad/s

    @property
    def as_complex(self) -> complex:
        return complex(self.eps, self.omega)


@dataclass
class ComplexFrequencySeries:
    times: np.ndarray      # (n_samples,)
    bus_ids: list[int]
    eps: np.ndarray        # (n_samples, n_bus), 1/s
    omega: np.ndarray      # (n_samples, n_bus), rad/s

    def node(self, bus_id: int) -> tuple[np.ndarray, np.ndarray]:
        try:
            k = self.bus_ids.index(bus_id)
        except ValueError:
            raise KeyError(f"unknown bus {bus_id}") from None
        return self.eps[:, k], self.omega[:, k]


def uniform_step(times: np.ndarray) -> float:
    """Sample spacing of a strictly increasing, uniform time grid.

    Raises ValueError when there are fewer than two samples or when any
    spacing differs from the first by more than _GRID_RTOL of it."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 2:
        raise ValueError("time grid needs at least two samples")
    steps = np.diff(times)
    dt = float(steps[0])
    if not dt > 0.0:
        raise ValueError("time grid is not strictly increasing")
    bad = np.flatnonzero(~(np.abs(steps - dt) <= _GRID_RTOL * dt))
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"non-uniform time grid: step {float(steps[i])!r} at t = "
            f"{float(times[i])!r} differs from dt = {dt!r}")
    return dt


def block_len(width: int) -> int:
    """How many rows (or columns) of ``width`` values each make one block
    of about _BLOCK_VALUES values, at least one."""
    return max(1, _BLOCK_VALUES // max(1, width))


def window_slice(times, t0: float = -np.inf, t1: float = np.inf) -> slice:
    """The analysis's one window rule: the rows of ``times`` that [t0, t1]
    holds, t0 - T_SLACK <= t <= t1 + T_SLACK, as a slice (so a view); empty
    if none, and a ValueError unless ``times`` is strictly increasing."""
    times = np.asarray(times, dtype=float)
    if not (np.diff(times) > 0.0).all():
        raise ValueError("times are not strictly increasing")
    lo, hi = t0 - T_SLACK, t1 + T_SLACK
    if not lo <= hi:
        return slice(0, 0)
    return slice(int(np.searchsorted(times, lo, side="left")),
                 int(np.searchsorted(times, hi, side="right")))


def _steps_below_pi(x: np.ndarray) -> bool:
    """Whether every |x[i + 1] - x[i]| along axis 0 is below pi (not so
    for a nan step), checked a block of rows at a time."""
    rows = block_len(x[0].size)
    for lo in range(0, len(x) - 1, rows):
        step = np.diff(x[lo:lo + rows + 1], axis=0)
        if not np.abs(step, out=step).max() < np.pi:
            return False
    return True


def _average_rows(out: np.ndarray, d: np.ndarray, d0: int, r0: int, n: int,
                  window: int) -> None:
    """Rows r0:r0 + len(out) of the centred moving average of an n-row 2-D
    D, written to ``out``, from its rows d = D[d0:d0 + len(d)], which hold
    every row those averages take. Row i averages D[i - window // 2 :
    i + (window - 1) // 2 + 1], cut to the series: a left-to-right sum
    from 0.0 of those rows, divided by their count."""
    r1 = r0 + len(out)
    before, after = window // 2, (window - 1) // 2
    out[...] = 0.0
    for shift in range(-before, after + 1):
        a, b = max(r0, -shift), min(r1, n - shift)
        if a < b:
            out[a - r0:b - r0] += d[a + shift - d0:b + shift - d0]
    i = np.arange(r0, r1)
    out /= (np.minimum(i + after, n - 1) - np.maximum(i - before, 0)
            + 1.0)[:, None]


def _smoothed_derivative(f: np.ndarray, dt: float, window: int,
                         log: bool = False, offset: float | None = None,
                         out: np.ndarray | None = None) -> np.ndarray:
    """The centred moving average over ``window`` rows of
    ``np.gradient(F, dt, axis=0, edge_order=2) [+ offset]``, F being the
    (n, width) array ``f``, or ``np.log(f)`` with ``log``. It is written
    to ``out``, a new array if None, which must not overlap ``f``.

    Works a block of rows at a time: each reads its rows plus the halo its
    moving average and stencil need, so no (n, width) temporary exists.
    With one scalar step, np.gradient of a block gives the whole array's
    bits on every row it differentiates centrally and on F's own first and
    last rows; its one-sided rows at a block's inner ends are not kept."""
    n, width = f.shape
    if out is None:
        out = np.empty((n, width))
    before, after = window // 2, (window - 1) // 2
    step = block_len(width)
    for r0 in range(0, n, step):
        r1 = min(r0 + step, n)
        d0, d1 = max(0, r0 - before), min(n, r1 + after)  # rows averaged
        # sample rows their stencils take: neighbours, or 3 at an end
        s0, s1 = max(0, min(d0 - 1, n - 3)), min(n, max(d1 + 1, 3))
        rows = np.log(f[s0:s1]) if log else f[s0:s1]
        d = np.gradient(rows, dt, axis=0, edge_order=2)[d0 - s0:d1 - s0]
        if offset is not None:
            d += offset
        if window == 1:
            out[r0:r1] = d
        else:
            _average_rows(out[r0:r1], d, d0, r0, n, window)
    return out


def estimate_complex_frequency(
    traj,
    smoothing_window: int = 5,
) -> ComplexFrequencySeries:
    """Differentiate a Trajectory into its per-bus complex-frequency series.

    Recorded angles are in the synchronous frame, so the nominal speed is
    added back: omega is in absolute rad/s. The grid must be uniform, and
    its step dt = ``uniform_step(times)`` is the spacing of every
    derivative; a non-uniform grid raises ValueError. eps smooths
    ``np.gradient(np.log(v), dt, axis=0, edge_order=2)`` and omega smooths
    ``np.gradient(theta, dt, axis=0, edge_order=2) + omega_s``, theta
    through ``np.unwrap(theta, axis=0)`` only where it steps by pi or
    more. Row i of either averages the derivative rows
    i - smoothing_window // 2 to i + (smoothing_window - 1) // 2 that
    exist: their left-to-right sum from 0.0, divided by their count.
    Window 1 keeps the derivative.
    """
    times = np.asarray(traj.times, dtype=float)
    v = np.asarray(traj.v, dtype=float)
    theta = np.asarray(traj.theta, dtype=float)
    if len(times) < 3:
        raise ValueError("need at least 3 samples to differentiate")
    if smoothing_window < 1:
        raise ValueError("smoothing_window must be >= 1")
    dt = uniform_step(times)
    n, width = v.shape
    rows = block_len(width)
    for lo in range(0, n, rows):
        bad = np.argwhere(v[lo:lo + rows] <= 0.0)
        if bad.size:
            i, k = bad[0]
            raise ValueError(f"non-positive voltage at bus "
                             f"{traj.bus_ids[k]}, t={times[lo + i]:.6g} s")

    eps = np.empty((n, width))
    angle = theta
    if not _steps_below_pi(theta):
        angle = eps  # holds the unwrapped angles until omega is taken
        cols = block_len(n)
        for c0 in range(0, width, cols):
            eps[:, c0:c0 + cols] = np.unwrap(theta[:, c0:c0 + cols], axis=0)
    omega = _smoothed_derivative(angle, dt, smoothing_window,
                                 offset=traj.omega_s)
    _smoothed_derivative(v, dt, smoothing_window, log=True, out=eps)
    return ComplexFrequencySeries(times=times, bus_ids=list(traj.bus_ids),
                                  eps=eps, omega=omega)
