"""Frequency inertia M, voltage inertia H_v, and the generalized-inertia
signal zeta = H_v*eps + j*M*domega/dt.

M maps active-power imbalance to angular acceleration (M = 2H/omega_s for a
synchronous machine); H_v maps reactive-power imbalance to the normalized rate
of change of voltage magnitude, motivated by the stored energy of an
equivalent capacitance at the bus. A single-bus capacitor model, solved in
closed form, supports sweeping H_v and checking the inverse-proportionality of
the voltage response.
Every domega/dt is taken on the step of the series' uniform time grid
(``uniform_step``), so a non-uniform grid raises ValueError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cf_estimator import uniform_step, window_slice
from .dynamics import step_count, step_index


# A fit needs at least two windowed samples whose regressor (domega/dt or
# eps) exceeds this magnitude: one alone fits any gain with zero residual.
_EXCURSION = 1e-6


class EstimationError(ValueError):
    """Input series unsuitable for an inertia fit."""


@dataclass
class CapacitorBusModel:
    s_base: float
    v0: float            # pre-step equilibrium voltage, p.u.
    q_step: float        # reactive supply step magnitude, p.u.
    t_step: float        # step instant, s
    q_load_coeff: float  # B in Q_e = B * v^2

    def validate(self) -> None:
        if self.v0 <= 0 or self.s_base <= 0:
            raise ValueError("v0, s_base must be > 0")
        if self.q_load_coeff <= 0:
            raise ValueError("q_load_coeff must be > 0 for an equilibrium")


@dataclass
class CapacitorSweepResult:
    times: np.ndarray
    h_v_values: list[float]
    v: np.ndarray    # (n_samples, n_hv)
    eps: np.ndarray  # (n_samples, n_hv)


def _omega_dot(times, omega: np.ndarray, error: type[ValueError]):
    """domega/dt on the step of the uniform grid ``times``; ``error`` if
    there are fewer than the 3 samples its stencils take."""
    if len(omega) < 3:
        raise error(f"domega/dt needs at least 3 samples, got {len(omega)}")
    return np.gradient(omega, uniform_step(times), edge_order=2)


def _windowed_fit(times, y, x, window: tuple[float, float] | None,
                  excursion: str, regressor: str) -> tuple[float, float]:
    """Least-squares gain k for y = k*x over the ``window_slice`` of
    ``window`` (every sample if None), and the normalized residual; an
    EstimationError naming the ``excursion`` of x, the ``regressor``, if
    fewer than 2 windowed |x| exceed _EXCURSION. The windowed samples are
    made contiguous, since a strided dot product may round differently."""
    rows = window_slice(times, *(window or ()))
    x = np.ascontiguousarray(np.asarray(x, dtype=float)[rows])
    y = np.ascontiguousarray(np.asarray(y, dtype=float)[rows])
    if np.count_nonzero(np.abs(x) > _EXCURSION) < 2:
        raise EstimationError(
            f"no {excursion} excursion in window: fewer than 2 samples with "
            f"|{regressor}| > {_EXCURSION:g}")
    k = float(np.dot(y, x)) / float(np.dot(x, x))
    scale = float(np.linalg.norm(y))
    res = float(np.linalg.norm(y - k * x)) / scale if scale > 0 else 0.0
    return k, res


def estimate_frequency_inertia(
    times: np.ndarray,
    omega: np.ndarray,
    dp: np.ndarray,
    window: tuple[float, float] | None = None,
) -> tuple[float, float]:
    """Fit M in dp = M * domega/dt over the window; returns (M, residual).

    domega/dt is taken over the whole series, on the step of its uniform
    grid, before the window picks its samples."""
    omega_dot = _omega_dot(times, np.asarray(omega, dtype=float),
                           EstimationError)
    return _windowed_fit(times, dp, omega_dot, window, "frequency",
                         "domega/dt")


def estimate_voltage_inertia(
    times: np.ndarray,
    eps: np.ndarray,
    dq: np.ndarray,
    window: tuple[float, float] | None = None,
) -> tuple[float, float]:
    """Fit H_v in dq = H_v * eps over the window; returns (H_v, residual)."""
    return _windowed_fit(times, dq, eps, window, "voltage", "eps")


def generalized_inertia_series(
    h_v: float,
    m: float,
    times: np.ndarray,
    eps: np.ndarray,
    omega: np.ndarray,
) -> np.ndarray:
    """zeta(t) = h_v*eps(t) + j*m*domega/dt, with domega/dt on the step of
    the uniform grid ``times``; equals dQ + j*dP when the inertia pair
    matches the bus."""
    if not (math.isfinite(h_v) and math.isfinite(m)):
        raise ValueError("h_v and m must be finite")
    times = np.asarray(times, dtype=float)
    eps = np.asarray(eps, dtype=float)
    omega = np.asarray(omega, dtype=float)
    if eps.shape != omega.shape or eps.shape != times.shape:
        raise ValueError("series must share one sample grid")
    omega_dot = _omega_dot(times, omega, ValueError)
    return h_v * eps + 1j * m * omega_dot


def simulate_capacitor_bus(
    model: CapacitorBusModel,
    h_v_values: list[float],
    t_end: float,
    dt: float,
) -> CapacitorSweepResult:
    """The single-bus voltage response to a reactive step, for each
    voltage-inertia value, on the dt grid to t_end (whole steps).

    dv/dt = v (Q - B v^2) gain, gain = 1 / (2 s_base h_v), where Q steps by
    q_step from the equilibrium B v0^2 at t_step, snapped to the grid. With
    u = v^-2 the ODE is linear, u' = 2 gain (B - Q u), so s seconds after
    the step, with x = 2 gain Q s, u = u0 e^-x + 2 gain B s (1 - e^-x) / x,
    the last factor 1 at x = 0. v is v0 to the step row, and eps, the
    reactive imbalance times gain, is q_step / (2 s_base h_v) there. A
    ValueError reports a voltage collapse at the first row where v is not
    a finite number > 0."""
    model.validate()
    if any(not h > 0 for h in h_v_values):
        raise ValueError("h_v values must be > 0")
    b = model.q_load_coeff
    q0 = b * model.v0 ** 2
    n = step_count(t_end, dt)
    times = np.arange(n + 1) * dt
    i_step = step_index(model.t_step, dt)
    gain = 1.0 / (2.0 * model.s_base * np.asarray(h_v_values, dtype=float))

    # v0 to the step row (the last row, if the step is later)
    i0 = min(max(i_step, 0), n)
    v = np.full((n + 1, len(h_v_values)), float(model.v0))
    s = times[1:n + 1 - i0, None]
    x = 2.0 * gain * (q0 + model.q_step) * s
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        rise = np.where(x == 0.0, 1.0, -np.expm1(-x) / x)
        v[i0 + 1:] = 1.0 / np.sqrt(
            np.exp(-x) / model.v0 ** 2 + 2.0 * gain * b * s * rise)
    bad = np.flatnonzero(~(np.isfinite(v) & (v > 0.0)).all(axis=1))
    if len(bad):
        raise ValueError(f"voltage collapse at t={times[bad[0]]:.6g} s")
    q = q0 + np.where(np.arange(n + 1) >= i_step, model.q_step, 0.0)
    return CapacitorSweepResult(
        times=times, h_v_values=list(h_v_values), v=v,
        eps=(q[:, None] - b * v * v) * gain)
