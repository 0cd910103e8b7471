"""Frequency inertia M, voltage inertia H_v, and the generalized-inertia
signal zeta = H_v*eps + j*M*domega/dt.

M maps active-power imbalance to angular acceleration (M = 2H/omega_s for a
synchronous machine); H_v maps reactive-power imbalance to the normalized rate
of change of voltage magnitude, motivated by the stored energy of an
equivalent capacitance at the bus. A single-bus capacitor model supports
sweeping H_v and checking the inverse-proportionality of the voltage response.
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


def capacitor_voltage_inertia(v: float, c_eq: float, s_base: float) -> float:
    """Voltage inertia of an equivalent capacitance: v^2 * c_eq / (2 s_base)."""
    if v <= 0 or c_eq <= 0 or s_base <= 0:
        raise ValueError("v, c_eq, s_base must be > 0")
    return v * v * c_eq / (2.0 * s_base)


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
    """Integrate the single-bus voltage ODE for each voltage-inertia value.

    dv/dt = v * (Q_m(t) - B v^2) / (2 s_base h_v), with Q_m stepping by
    q_step at t_step from the pre-step equilibrium B v0^2. The returned eps
    equals the instantaneous reactive imbalance over h_v, so eps right after
    the step is q_step / (2 s_base h_v). t_end must be a whole number of
    dt steps."""
    model.validate()
    if any(h <= 0 for h in h_v_values):
        raise ValueError("h_v values must be > 0")
    b = model.q_load_coeff
    q0 = b * model.v0 ** 2
    n = step_count(t_end, dt)
    times = np.arange(n + 1) * dt
    # snap the step to the grid; a whole RK4 step sees one q_m value so the
    # pre-step equilibrium is preserved exactly up to the step instant
    i_step = step_index(model.t_step, dt)

    v_out = np.empty((n + 1, len(h_v_values)))
    eps_out = np.empty_like(v_out)
    for j, h_v in enumerate(h_v_values):
        gain = 1.0 / (2.0 * model.s_base * h_v)

        def f(v: float, q: float) -> float:
            return v * (q - b * v * v) * gain

        v = model.v0
        for i in range(n + 1):
            q = q0 + (model.q_step if i >= i_step else 0.0)
            if not v > 0.0:  # also catches NaN from a blown-up step
                raise ValueError(f"voltage collapse at t={times[i]:.6g} s")
            v_out[i, j] = v
            eps_out[i, j] = (q - b * v * v) * gain
            if i < n:
                k1 = f(v, q)
                k2 = f(v + 0.5 * dt * k1, q)
                k3 = f(v + 0.5 * dt * k2, q)
                k4 = f(v + dt * k3, q)
                v = v + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return CapacitorSweepResult(
        times=times, h_v_values=list(h_v_values), v=v_out, eps=eps_out)
