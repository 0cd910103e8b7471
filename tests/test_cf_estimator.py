import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfsync.cf_estimator import (
    estimate_complex_frequency,
    moving_average,
    uniform_step,
    unwrap_angles,
)
from cfsync.dynamics import Trajectory

WS = 2 * math.pi * 60


def make_traj(times, v, theta, frame="synchronous", omega_s=WS):
    v = np.asarray(v, float)
    theta = np.asarray(theta, float)
    if v.ndim == 1:
        v = v[:, None]
        theta = theta[:, None]
    return Trajectory(
        times=np.asarray(times, float), bus_ids=list(range(1, v.shape[1] + 1)),
        v=v, theta=theta, gen_buses=[], delta=None, omega=None, e_q=None,
        p_m=None, p_e=None, q_e=None, event_times=[], omega_s=omega_s,
        frame=frame,
    )


class TestUnwrap:
    def test_no_wrap_unchanged(self):
        x = np.array([0.1, 0.2, 0.3])
        np.testing.assert_array_equal(unwrap_angles(x), x)

    def test_single_wrap(self):
        out = unwrap_angles(np.array([3.1, -3.1]))
        np.testing.assert_allclose(out, [3.1, 2 * math.pi - 3.1])

    def test_random_walk_round_trip(self):
        rng = np.random.default_rng(42)
        steps = rng.uniform(-2.0, 2.0, size=500)
        orig = np.cumsum(steps)
        wrapped = np.angle(np.exp(1j * orig))
        # round trip holds when increments stay below pi
        ok = np.abs(np.diff(orig)) < math.pi
        assert ok.all()
        rec = unwrap_angles(wrapped)
        np.testing.assert_allclose(rec - rec[0], orig - orig[0], atol=1e-12)


class TestEstimate:
    def test_constant_phasor(self):
        t = np.arange(0, 1, 1e-3)
        cf = estimate_complex_frequency(
            make_traj(t, np.ones_like(t), np.zeros_like(t)),
            smoothing_window=1)
        np.testing.assert_allclose(cf.eps, 0.0, atol=1e-12)
        np.testing.assert_allclose(cf.omega, WS, atol=1e-12)

    def test_exponential_and_linear(self):
        t = np.arange(0, 1, 1e-3)
        cf = estimate_complex_frequency(
            make_traj(t, np.exp(0.3 * t), 0.5 * t), smoothing_window=1)
        interior = slice(1, -1)
        assert np.max(np.abs(cf.eps[interior] - 0.3)) < 1e-6
        assert np.max(np.abs(cf.omega[interior] - (WS + 0.5))) < 1e-6

    def test_sinusoidal_magnitude_analytic_oracle(self):
        t = np.arange(0, 2, 1e-3)
        v = 1 + 0.1 * np.sin(2 * math.pi * t)
        cf = estimate_complex_frequency(make_traj(t, v, np.zeros_like(t)),
                                        smoothing_window=1)
        analytic = 0.2 * math.pi * np.cos(2 * math.pi * t) / v
        assert np.max(np.abs(cf.eps[1:-1, 0] - analytic[1:-1])) < 1e-4

    def test_nonpositive_voltage_named(self):
        t = np.arange(0, 0.01, 1e-3)
        v = np.ones_like(t)
        v[4] = -0.1
        with pytest.raises(ValueError, match=r"bus 1.*t=0.004"):
            estimate_complex_frequency(make_traj(t, v, np.zeros_like(t)))

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="3 samples"):
            estimate_complex_frequency(
                make_traj([0.0, 1e-3], [1.0, 1.0], [0.0, 0.0]))


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.integers(0, 2**32 - 1))
    def test_eps_scale_invariance(self, c, seed):
        rng = np.random.default_rng(seed)
        t = np.arange(0, 0.5, 1e-3)
        v = 1.0 + 0.1 * rng.standard_normal(len(t)).cumsum() * 1e-2
        v = np.abs(v) + 0.5
        base = estimate_complex_frequency(
            make_traj(t, v, np.zeros_like(t)), smoothing_window=1)
        scaled = estimate_complex_frequency(
            make_traj(t, c * v, np.zeros_like(t)), smoothing_window=1)
        np.testing.assert_allclose(scaled.eps, base.eps, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=-10, max_value=10),
           st.integers(0, 2**32 - 1))
    def test_omega_offset_invariance(self, c, seed):
        rng = np.random.default_rng(seed)
        t = np.arange(0, 0.5, 1e-3)
        th = rng.uniform(-0.1, 0.1, len(t)).cumsum()
        base = estimate_complex_frequency(
            make_traj(t, np.ones_like(t), th), smoothing_window=1)
        off = estimate_complex_frequency(
            make_traj(t, np.ones_like(t), th + c), smoothing_window=1)
        # exact in real arithmetic; rounding of theta + c costs a few ulps
        np.testing.assert_allclose(off.omega, base.omega, atol=1e-8)

    def test_smoothing_window_one_is_identity(self):
        x = np.arange(10, dtype=float)
        np.testing.assert_array_equal(moving_average(x, 1), x)

    def test_second_order_convergence(self):
        def interior_err(dt):
            t = np.arange(0, 1 + dt / 2, dt)
            v = np.exp(0.2 * np.sin(3 * t))
            cf = estimate_complex_frequency(
                make_traj(t, v, np.zeros_like(t)), smoothing_window=1)
            exact = 0.6 * np.cos(3 * t)
            return np.max(np.abs(cf.eps[2:-2, 0] - exact[2:-2]))

        e1 = interior_err(2e-3)
        e2 = interior_err(1e-3)
        assert e1 / e2 > 3.5  # ~4x for a second-order scheme


class TestUniformStep:
    def test_accumulated_rounding_accepted(self):
        t = np.cumsum(np.full(20001, 1e-3)) - 1e-3
        assert uniform_step(t) == t[1] - t[0]

    @pytest.mark.parametrize("times", [
        [0.0], [0.0, 0.0, 0.0], [1.0, 0.5, 0.0], [0.0, 0.1, 0.2, 0.4],
    ])
    def test_rejected(self, times):
        with pytest.raises(ValueError, match="time grid"):
            uniform_step(np.array(times))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() \
        == np.ascontiguousarray(b).tobytes()


def signed_zero_cloud(rng, shape):
    """Values over many magnitudes, with -0.0 and +0.0 sprinkled in."""
    x = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, shape)
    x[rng.random(shape) < 0.2] = -0.0
    x[rng.random(shape) < 0.1] = 0.0
    return x


def convolve_oracle(x, window):
    """The former per-column loop: np.convolve with a kernel of ones over
    each column, divided by the same convolution of ones. Mode "full" cut
    to the centred len(x) values equals mode "same" and also covers series
    shorter than the window."""
    cols = x[:, None] if x.ndim == 1 else x
    n = len(cols)
    kernel = np.ones(window)
    first = (window - 1) // 2
    norm = np.convolve(np.ones(n), kernel)[first:first + n]
    out = np.empty_like(cols)
    for j in range(cols.shape[1]):
        out[:, j] = np.convolve(cols[:, j], kernel)[first:first + n] / norm
        if n >= window:
            assert same_bits(np.convolve(cols[:, j], kernel, mode="same")
                             / norm, out[:, j])
    return out[:, 0] if x.ndim == 1 else out


class TestBitEqualOracles:
    """unwrap_angles and moving_average reproduce np.unwrap and the
    per-column np.convolve loop bit for bit, signed zeros included."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 60),
           st.integers(1, 20), st.booleans())
    def test_moving_average(self, seed, n, window, flat):
        rng = np.random.default_rng(seed)
        x = signed_zero_cloud(rng, (n,) if flat else (n, 4))
        if not flat:
            x[:, 3] = -0.0
        want = x if window == 1 else convolve_oracle(x, window)
        assert same_bits(moving_average(x, window), want)

    def test_moving_average_long_series(self):
        x = signed_zero_cloud(np.random.default_rng(5), (5001, 7))
        for window in (2, 5, 15, 16, 31):
            assert same_bits(moving_average(x, window),
                             convolve_oracle(x, window))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 60),
           st.sampled_from(["small_steps", "wraps", "nan", "flat"]))
    def test_unwrap(self, seed, n, kind):
        rng = np.random.default_rng(seed)
        theta = signed_zero_cloud(rng, (n, 3)) * 0.01
        if kind == "wraps":
            theta = np.angle(np.exp(1j * rng.uniform(-2.5, 2.5,
                                                      (n, 3)).cumsum(0)))
        elif kind == "nan":
            theta[rng.random((n, 3)) < 0.2] = np.nan
        if kind == "flat":
            theta = theta[:, 0]
        assert same_bits(unwrap_angles(theta), np.unwrap(theta, axis=0))

    def test_unwrap_turns_negative_zero_positive_after_row_0(self):
        theta = np.array([[-0.0, 0.5], [-0.0, -0.0], [0.1, -0.0]])
        out = unwrap_angles(theta)
        assert same_bits(out, np.unwrap(theta, axis=0))
        assert np.signbit(out[0, 0]) and not np.signbit(out[1:]).any()

    def test_unwrap_step_of_exactly_pi_is_unwrapped(self):
        theta = np.array([0.0, math.pi, 0.0])
        assert same_bits(unwrap_angles(theta), np.unwrap(theta))
