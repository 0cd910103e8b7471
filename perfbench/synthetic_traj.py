"""Synthetic trajectory CSV with analytically known complex-frequency limits.

Before ``t_step`` every bus sits at a seeded constant voltage phasor. After
it, bus k follows

    eps_k(t)   = a_k exp(-sigma_k s) sin(w_k s + phi_k)
    omega_k(t) = omega_s + d_omega (1 - exp(-beta s))
                 + b_k exp(-sigma_k s) sin(w_k s + psi_k),    s = t - t_step,

and ln v and theta are the closed-form integrals of these. So every bus
converges to the common limit eps = 0, omega = omega_s + d_omega, up to
terms of order exp(-sigma_min (t_end - t_step)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class SyntheticTrajectory:
    path: Path
    n_rows: int
    eps_limit: float
    omega_limit: float  # absolute, rad/s


def _damped_sine_integral(s, sigma, w, phase):
    """Integral over [0, s] of exp(-sigma u) sin(w u + phase) du."""
    def primitive(u):
        return np.exp(-sigma * u) * (-sigma * np.sin(w * u + phase)
                                     - w * np.cos(w * u + phase)) \
            / (sigma ** 2 + w ** 2)
    return primitive(s) - primitive(0.0)


def write_synthetic_trajectory(path: Path, bus_ids: list[int],
                               omega_s: float, seed: int,
                               t_end: float = 20.0, dt: float = 2.5e-4,
                               t_step: float = 2.0) -> SyntheticTrajectory:
    """Write a trajectory CSV in the cfsync format and return its limits."""
    rng = np.random.default_rng(seed)
    n = len(bus_ids)
    d_omega = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.02, 0.2))
    beta = float(rng.uniform(1.0, 2.0))
    sigma = rng.uniform(0.8, 1.5, n)
    w = 2.0 * math.pi * rng.uniform(0.8, 1.8, n)
    a = rng.uniform(0.005, 0.02, n)
    b = rng.uniform(0.05, 0.3, n)
    phi, psi = rng.uniform(0.0, 2.0 * math.pi, (2, n))
    v0 = rng.uniform(0.98, 1.04, n)
    theta0 = rng.uniform(-0.3, 0.3, n)

    times = np.arange(int(round(t_end / dt)) + 1) * dt
    s = np.clip(times - t_step, 0.0, None)[:, None]
    ln_v = np.log(v0) + a * _damped_sine_integral(s, sigma, w, phi)
    theta = (theta0 + d_omega * (s - (1.0 - np.exp(-beta * s)) / beta)
             + b * _damped_sine_integral(s, sigma, w, psi))

    data = np.empty((len(times), 1 + 2 * n))
    data[:, 0] = times
    data[:, 1::2] = np.exp(ln_v)
    data[:, 2::2] = np.angle(np.exp(1j * theta))
    path = Path(path)
    with path.open("w") as f:
        f.write(f"# events: {t_step:.17g}\n")
        f.write("t," + ",".join(f"v_{k},theta_{k}" for k in bus_ids) + "\n")
        np.savetxt(f, data, fmt="%.17g", delimiter=",")
    return SyntheticTrajectory(path=path, n_rows=len(times), eps_limit=0.0,
                               omega_limit=omega_s + d_omega)
