"""Per-bus complex frequency from sampled voltage trajectories.

The complex frequency at a bus is eps + j*omega with eps = d(ln v)/dt (the
normalized rate of change of the voltage magnitude) and omega = d(theta)/dt.
Differentiation is second-order central in the interior with one-sided stencils
at the ends, optionally followed by a centered moving average.

The estimator takes blocks of rows of about ``_BLOCK_VALUES`` values, each
with the halo rows its stencil and moving average need, through log or
angle, derivative and average in turn. Beyond its two (n_samples, n_bus)
outputs it holds a few block-sized temporaries (about 2.7 MiB at 270
buses), and every output bit is that of the whole-array formulas. Only a
series whose angle steps by pi or more is unwrapped as one whole array,
since np.unwrap's corrections add up down the rows.
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
            f"non-uniform time grid: step {steps[i]!r} at t = {times[i]!r} "
            f"differs from dt = {dt!r}")
    return dt


def window_mask(times, t0: float = -np.inf, t1: float = np.inf) -> np.ndarray:
    """Samples of ``times`` in [t0, t1], ends widened by ``T_SLACK``."""
    times = np.asarray(times, dtype=float)
    return (times >= t0 - T_SLACK) & (times <= t1 + T_SLACK)


def block_len(width: int) -> int:
    """How many rows (or columns) of ``width`` values each make one block
    of about _BLOCK_VALUES values, at least one."""
    return max(1, _BLOCK_VALUES // max(1, width))


def window_slice(times, t0: float = -np.inf, t1: float = np.inf) -> slice:
    """The samples of ``window_mask(times, t0, t1)`` as one slice, a view
    where the mask would copy; a ValueError if they are not consecutive
    rows, as they are on an increasing time grid."""
    rows = np.flatnonzero(window_mask(times, t0, t1))
    if not len(rows):
        return slice(0, 0)
    if rows[-1] - rows[0] != len(rows) - 1:
        raise ValueError("time window is not one run of rows: times are not "
                         "increasing")
    return slice(int(rows[0]), int(rows[-1]) + 1)


def _steps_below_pi(x: np.ndarray) -> bool:
    """Whether every |x[i + 1] - x[i]| along axis 0 is below pi (not so
    for a nan step), checked a block of rows at a time."""
    rows = block_len(x[0].size)
    for lo in range(0, len(x) - 1, rows):
        step = np.diff(x[lo:lo + rows + 1], axis=0)
        if not np.abs(step, out=step).max() < np.pi:
            return False
    return True


def _plus_zero(rows: np.ndarray, lo: int) -> np.ndarray:
    """The rows lo.. of an angle series as np.unwrap gives them when no
    step reaches pi: plus 0.0 (turning -0.0 into +0.0), except row 0."""
    out = rows + 0.0
    if lo == 0:
        out[0] = rows[0]
    return out


def unwrap_angles(theta: np.ndarray) -> np.ndarray:
    """Remove 2*pi jumps so consecutive differences stay below pi in magnitude.

    Assumes successive samples genuinely differ by less than pi, which holds
    for grid trajectories sampled at dt <= 20 ms. Bit-equal to
    ``np.unwrap(theta, axis=0)``; when no step reaches pi that adds 0.0 to
    rows 1 onward (turning -0.0 into +0.0), which is all this does then."""
    theta = np.asarray(theta, dtype=float)
    if len(theta) < 2 or not _steps_below_pi(theta):
        return np.unwrap(theta, axis=0)
    return _plus_zero(theta, 0)


def _grid_steps(times: np.ndarray):
    """np.diff(times), or its first value when all are equal: the spacing
    np.gradient takes from a coordinate array."""
    dx = np.diff(times)
    return dx[0] if (dx == dx[0]).all() else dx


def _derivative(f: np.ndarray, lo: int, dx, n: int) -> np.ndarray:
    """``np.gradient(F, times, axis=0, edge_order=2)`` of an n-row F, from
    its rows f = F[lo:lo + len(f)], len(f) >= 3, with dx =
    ``_grid_steps(times)``.

    Bit-equal to the whole-array call on rows lo + 1 .. lo + len(f) - 2,
    and on F's first and last rows where f holds them; the rows at f's
    other ends are left unset. np.gradient given f's own times could take
    its uniform-step formula where the whole grid takes the other, so its
    arithmetic is spelled out here, on the whole grid's spacing."""
    k = len(f)
    out = np.empty_like(f)
    if np.ndim(dx) == 0:
        out[1:-1] = (f[2:] - f[:-2]) / (2. * dx)
        first = (-1.5 / dx, 2. / dx, -0.5 / dx)
        last = (0.5 / dx, -2. / dx, 1.5 / dx)
    else:
        dx1, dx2 = dx[lo:lo + k - 2, None], dx[lo + 1:lo + k - 1, None]
        a = -(dx2) / (dx1 * (dx1 + dx2))
        b = (dx2 - dx1) / (dx1 * dx2)
        c = dx1 / (dx2 * (dx1 + dx2))
        out[1:-1] = a * f[:-2] + b * f[1:-1] + c * f[2:]
        dx1, dx2 = dx[0], dx[1]
        first = (-(2. * dx1 + dx2) / (dx1 * (dx1 + dx2)),
                 (dx1 + dx2) / (dx1 * dx2), - dx1 / (dx2 * (dx1 + dx2)))
        dx1, dx2 = dx[-2], dx[-1]
        last = ((dx2) / (dx1 * (dx1 + dx2)), - (dx2 + dx1) / (dx1 * dx2),
                (2. * dx2 + dx1) / (dx2 * (dx1 + dx2)))
    if lo == 0:
        a, b, c = first
        out[0] = a * f[0] + b * f[1] + c * f[2]
    if lo + k == n:
        a, b, c = last
        out[-1] = a * f[-3] + b * f[-2] + c * f[-1]
    return out


# np.convolve's dot products sum fewer terms than this in index order from
# 0.0 (the BLAS ddot tail loop), which the shifted sums below reproduce.
_SHIFTED_SUM_MAX = 16


def _average_rows(out: np.ndarray, d: np.ndarray, d0: int, r0: int, n: int,
                  window: int) -> None:
    """Rows r0:r0 + len(out) of ``moving_average(D, window)`` of an n-row
    2-D D, written to ``out``, from its rows d = D[d0:d0 + len(d)]. These
    hold every row the average of each of those rows takes, and at least
    ``window`` rows when D has as many: np.convolve swaps a shorter
    operand with its kernel and sums in reverse."""
    r1 = r0 + len(out)
    before, after = window // 2, (window - 1) // 2
    if window < _SHIFTED_SUM_MAX and n >= window:
        out[...] = 0.0
        for shift in range(-before, after + 1):
            a, b = max(r0, -shift), min(r1, n - shift)
            if a < b:
                out[a - r0:b - r0] += d[a + shift - d0:b + shift - d0]
    else:
        kernel = np.ones(window)
        rows = slice(after + r0 - d0, after + r1 - d0)
        for j in range(d.shape[1]):
            out[:, j] = np.convolve(d[:, j], kernel)[rows]
    i = np.arange(r0, r1)
    # the samples each average takes: exact, as np.convolve of ones counts
    out /= (np.minimum(i + after, n - 1) - np.maximum(i - before, 0)
            + 1.0)[:, None]


def moving_average(x: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average with edge truncation; window 1 is the identity.

    Sample i averages x[i - window // 2 : i + (window - 1) // 2 + 1], cut to
    the series. Columns are summed together, one shifted in-place add per
    kernel offset, bit-equal to a per-column ``np.convolve`` with a kernel
    of ones. Windows of _SHIFTED_SUM_MAX or more, and series shorter than
    the window (where np.convolve sums in reverse), use np.convolve."""
    if window <= 1:
        return x
    x = np.asarray(x, dtype=float)
    cols = x[:, None] if x.ndim == 1 else x
    out = np.empty_like(cols)
    _average_rows(out, cols, 0, 0, len(cols), window)
    return out[:, 0] if x.ndim == 1 else out


def _smoothed_derivative(rows_of, n: int, width: int, dx, window: int,
                         offset: float | None = None) -> np.ndarray:
    """``moving_average(np.gradient(F, times, axis=0, edge_order=2)
    [+ offset], window)`` of the (n, width) series F whose rows s0:s1
    ``rows_of(s0, s1)`` gives, bit for bit, with dx =
    ``_grid_steps(times)``.

    Works a block of rows at a time: each reads its rows plus the halo its
    moving average and stencil need, so no (n, width) temporary exists."""
    out = np.empty((n, width))
    before, after = window // 2, (window - 1) // 2
    step = block_len(width)
    for r0 in range(0, n, step):
        r1 = min(r0 + step, n)
        # derivative rows the averages take, at least `window` of them
        d0 = max(0, min(r0 - before, n - window))
        d1 = min(n, max(r1 + after, window))
        # sample rows their stencils take: neighbours, or 3 at an end
        s0, s1 = max(0, min(d0 - 1, n - 3)), min(n, max(d1 + 1, 3))
        d = _derivative(rows_of(s0, s1), s0, dx, n)[d0 - s0:d1 - s0]
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
    added back: omega is in absolute rad/s. Bit-equal to the whole-array
    formulas ``moving_average(np.gradient(np.log(v), times, axis=0,
    edge_order=2), smoothing_window)`` and ``moving_average(np.gradient(
    unwrap_angles(theta), times, axis=0, edge_order=2) + omega_s,
    smoothing_window)``.
    """
    times = np.asarray(traj.times, dtype=float)
    v = np.asarray(traj.v, dtype=float)
    theta = np.asarray(traj.theta, dtype=float)
    if len(times) < 3:
        raise ValueError("need at least 3 samples to differentiate")
    if smoothing_window < 1:
        raise ValueError("smoothing_window must be >= 1")
    n, width = v.shape
    rows = block_len(width)
    for lo in range(0, n, rows):
        bad = np.argwhere(v[lo:lo + rows] <= 0.0)
        if bad.size:
            i, k = bad[0]
            raise ValueError(f"non-positive voltage at bus "
                             f"{traj.bus_ids[k]}, t={times[lo + i]:.6g} s")

    dx = _grid_steps(times)
    eps = _smoothed_derivative(lambda s0, s1: np.log(v[s0:s1]), n, width,
                               dx, smoothing_window)
    wraps = not _steps_below_pi(theta)
    # a wrap takes one whole-array unwrap: its corrections add up down rows
    angle = np.unwrap(theta, axis=0) if wraps else theta
    omega = _smoothed_derivative(
        lambda s0, s1: angle[s0:s1] if wraps else _plus_zero(angle[s0:s1], s0),
        n, width, dx, smoothing_window, offset=traj.omega_s)
    return ComplexFrequencySeries(times=times, bus_ids=list(traj.bus_ids),
                                  eps=eps, omega=omega)
