"""Per-bus complex frequency from sampled voltage trajectories.

The complex frequency at a bus is eps + j*omega with eps = d(ln v)/dt (the
normalized rate of change of the voltage magnitude) and omega = d(theta)/dt.
Differentiation is second-order central in the interior with one-sided stencils
at the ends, optionally followed by a centered moving average.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_GRID_RTOL = 1e-6  # allowed deviation of a sample spacing, relative to dt
T_SLACK = 1e-9  # s: how far a time window's ends reach out over rounding


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


def _largest_step(x: np.ndarray) -> float:
    """max |x[i + 1] - x[i]| along axis 0; nan if a step is nan."""
    step = np.diff(x, axis=0)
    return np.abs(step, out=step).max()


def unwrap_angles(theta: np.ndarray) -> np.ndarray:
    """Remove 2*pi jumps so consecutive differences stay below pi in magnitude.

    Assumes successive samples genuinely differ by less than pi, which holds
    for grid trajectories sampled at dt <= 20 ms. Bit-equal to
    ``np.unwrap(theta, axis=0)``; when no step reaches pi that adds 0.0 to
    rows 1 onward (turning -0.0 into +0.0), which is all this does then."""
    theta = np.asarray(theta, dtype=float)
    if len(theta) < 2 or not _largest_step(theta) < np.pi:  # or a nan step
        return np.unwrap(theta, axis=0)
    out = np.empty_like(theta)
    out[0] = theta[0]
    np.add(theta[1:], 0.0, out=out[1:])
    return out


# np.convolve's dot products sum fewer terms than this in index order from
# 0.0 (the BLAS ddot tail loop), which the shifted sums below reproduce.
_SHIFTED_SUM_MAX = 16


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
    flat = x.ndim == 1
    cols = x[:, None] if flat else x
    n = cols.shape[0]
    kernel = np.ones(window)
    first = (window - 1) // 2  # of the full convolution's centred n values
    norm = np.convolve(np.ones(n), kernel)[first:first + n]
    if window < _SHIFTED_SUM_MAX and n >= window:
        out = np.zeros_like(cols)
        for shift in range(-(window // 2), (window - 1) // 2 + 1):
            if shift < 0:
                out[-shift:] += cols[:n + shift]
            else:
                out[:n - shift] += cols[shift:]
    else:
        out = np.empty_like(cols)
        for j in range(cols.shape[1]):
            out[:, j] = np.convolve(cols[:, j], kernel)[first:first + n]
    out /= norm[:, None]
    return out[:, 0] if flat else out


def estimate_complex_frequency(
    traj,
    smoothing_window: int = 5,
) -> ComplexFrequencySeries:
    """Differentiate a Trajectory into its per-bus complex-frequency series.

    Recorded angles are in the synchronous frame, so the nominal speed is
    added back: omega is in absolute rad/s.
    """
    times = np.asarray(traj.times, dtype=float)
    v = np.asarray(traj.v, dtype=float)
    theta = np.asarray(traj.theta, dtype=float)
    if len(times) < 3:
        raise ValueError("need at least 3 samples to differentiate")
    if smoothing_window < 1:
        raise ValueError("smoothing_window must be >= 1")
    bad = np.argwhere(v <= 0.0)
    if bad.size:
        i, k = bad[0]
        raise ValueError(
            f"non-positive voltage at bus {traj.bus_ids[k]}, t={times[i]:.6g} s"
        )

    eps = np.gradient(np.log(v), times, axis=0, edge_order=2)
    omega = np.gradient(unwrap_angles(theta), times, axis=0,
                        edge_order=2) + traj.omega_s

    eps = moving_average(eps, smoothing_window)
    omega = moving_average(omega, smoothing_window)
    return ComplexFrequencySeries(times=times, bus_ids=list(traj.bus_ids),
                                  eps=eps, omega=omega)
