import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfsync import cf_estimator
from cfsync.cf_estimator import (
    T_SLACK,
    estimate_complex_frequency,
    uniform_step,
    window_slice,
)
from cfsync.dynamics import Trajectory

WS = 2 * math.pi * 60


def make_traj(times, v, theta, omega_s=WS):
    v = np.asarray(v, float)
    theta = np.asarray(theta, float)
    if v.ndim == 1:
        v = v[:, None]
        theta = theta[:, None]
    return Trajectory(
        times=np.asarray(times, float), bus_ids=list(range(1, v.shape[1] + 1)),
        v=v, theta=theta, gen_buses=[], delta=None, omega=None, e_q=None,
        p_m=None, p_e=None, q_e=None, event_times=[], omega_s=omega_s,
    )


def window_one_omega(theta, dt=1e-3):
    """The unsmoothed omega the estimator gives for one bus's angles."""
    t = np.arange(len(theta)) * dt
    return estimate_complex_frequency(
        make_traj(t, np.ones_like(t), theta), smoothing_window=1).omega[:, 0]


class TestUnwrap:
    """omega differentiates the angle unwrapped wherever it steps by pi or
    more, and the angle as recorded otherwise."""

    def test_no_wrap_unchanged(self):
        x = np.array([0.1, 0.2, 0.3])
        assert same_bits(window_one_omega(x),
                         np.gradient(x, 1e-3, edge_order=2) + WS)

    def test_single_wrap(self):
        out = window_one_omega(np.array([3.1, -3.1, -3.0]))
        np.testing.assert_allclose(out - WS, np.gradient(
            [3.1, 2 * math.pi - 3.1, 2 * math.pi - 3.0], 1e-3,
            edge_order=2))

    def test_random_walk_round_trip(self):
        rng = np.random.default_rng(42)
        steps = rng.uniform(-2.0, 2.0, size=500)
        orig = np.cumsum(steps)
        wrapped = np.angle(np.exp(1j * orig))
        # round trip holds when increments stay below pi
        ok = np.abs(np.diff(orig)) < math.pi
        assert ok.all()
        # wrapping rounds the angle by up to 1e-12 of its size: after the
        # 1 ms derivative, a few 1e-9 rad/s
        np.testing.assert_allclose(
            window_one_omega(wrapped),
            np.gradient(orig, 1e-3, edge_order=2) + WS, rtol=0, atol=1e-8)


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

    def test_non_uniform_grid_names_the_step(self):
        # one 2 ms step on a 1 ms grid: np.gradient given the times would
        # take it in its stride
        t = np.arange(10) * 1e-3
        t[6:] += 1e-3
        with pytest.raises(ValueError, match=r"non-uniform time grid: step "
                           r"0\.002\d* at t = 0\.005 "):
            estimate_complex_frequency(make_traj(t, np.ones_like(t),
                                                 np.zeros_like(t)))


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
        # window 1 keeps the derivative rows as they are
        t = np.arange(10) * 1e-3
        v = np.exp(np.arange(10.0) ** 2 * 1e-3)
        theta = np.sin(np.arange(10.0))
        cf = estimate_complex_frequency(make_traj(t, v, theta),
                                        smoothing_window=1)
        dt = uniform_step(t)
        assert same_bits(cf.eps[:, 0],
                         np.gradient(np.log(v), dt, edge_order=2))
        assert same_bits(cf.omega[:, 0],
                         np.gradient(theta, dt, edge_order=2) + WS)

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


def window_end(data, times, dt, label):
    """A window end drawn on a sample, between two, within a few T_SLACK
    of one, exactly T_SLACK off one, infinite or nan."""
    kind = data.draw(st.sampled_from(
        ["on", "between", "near", "slack", "inf", "nan"]), label=label)
    if kind == "inf":
        return data.draw(st.sampled_from([-np.inf, np.inf]), label=label)
    if kind == "nan":
        return np.nan
    base = times[data.draw(st.integers(0, len(times) - 1), label=label)] \
        if len(times) else 0.0
    if kind == "between":
        return base + data.draw(st.floats(-1.0, 1.0), label=label) * dt
    if kind == "near":
        return base + data.draw(st.floats(-3.0, 3.0), label=label) * T_SLACK
    if kind == "slack":
        return base + data.draw(st.sampled_from([-T_SLACK, T_SLACK]),
                                label=label)
    return base


class TestWindowSlice:
    """window_slice is the one rule that turns a time window into rows."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_selects_the_samples_within_slack_of_the_window(self, data):
        n = data.draw(st.integers(0, 50), label="n")
        dt = data.draw(st.sampled_from([1e-4, 2.5e-4, 1e-3, 0.01, 0.1, 1.0]),
                       label="dt")
        t_first = data.draw(st.floats(-50.0, 50.0), label="t_first")
        times = t_first + np.arange(n) * dt
        t0 = window_end(data, times, dt, "t0")
        t1 = window_end(data, times, dt, "t1")
        reference = (times >= t0 - T_SLACK) & (times <= t1 + T_SLACK)
        rows = window_slice(times, t0, t1)
        assert rows.step is None
        assert np.array_equal(np.arange(n)[rows], np.flatnonzero(reference))

    @pytest.mark.parametrize("t0, t1", [(0.5, 0.3), (2.0, 3.0),
                                        (-2.0, -1.0), (0.41, 0.49)])
    def test_empty_window_is_an_empty_slice(self, t0, t1):
        times = np.arange(11) * 0.1
        rows = window_slice(times, t0, t1)
        assert rows.stop - rows.start == 0
        assert len(times[rows]) == 0

    def test_default_ends_take_every_row(self):
        times = np.arange(5) * 0.25
        assert window_slice(times) == slice(0, 5)
        assert window_slice(times, t1=0.5) == slice(0, 3)
        assert window_slice(times, 0.5) == slice(2, 5)

    @pytest.mark.parametrize("times", [
        [0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0], [2.0, 1.0, 0.0],
        [0.0, np.nan, 2.0],
    ], ids=["repeat", "step_back", "decreasing", "nan"])
    def test_non_increasing_times_raise(self, times):
        with pytest.raises(ValueError, match="not strictly increasing"):
            window_slice(np.array(times), 0.0, 1.0)


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


def row_oracle(x, window):
    """The estimator's smoothing rule, one row at a time: row i is the
    left-to-right sum from 0.0 of the rows x[i - window // 2] to
    x[i + (window - 1) // 2] that exist, divided by their count. Python's
    sum() is not used: from 3.12 it compensates float sums."""
    n = len(x)
    out = np.empty_like(x)
    for i in range(n):
        rows = x[max(0, i - window // 2):min(n, i + (window - 1) // 2 + 1)]
        out[i] = functools.reduce(operator.add, rows, 0.0) / len(rows)
    return out


def whole_array_estimate(traj, window):
    """The estimator's whole-array formulas: np.gradient on the grid's
    step over all rows, np.unwrap, then the per-row average. np.unwrap
    turns -0.0 angles into +0.0, which no omega shows once omega_s is
    added."""
    dt = uniform_step(traj.times)

    def smooth(x):
        return x if window == 1 else row_oracle(x, window)

    eps = np.gradient(np.log(traj.v), dt, axis=0, edge_order=2)
    omega = np.gradient(np.unwrap(traj.theta, axis=0), dt, axis=0,
                        edge_order=2) + traj.omega_s
    return smooth(eps), smooth(omega)


# the grids of grid() whose spacing uniform_step accepts
UNIFORM_GRIDS = ("arange", "exact")


def grid(kind, n, rng):
    """Time grids: float multiples of 2 ms (uniform up to the last bits),
    exact multiples of 0.25 s, and two the estimator rejects: random
    spacing, and exact 3 s steps but for a longer last one, so that every
    short stretch of rows is uniform while the grid is not."""
    if kind == "arange":
        return np.arange(n) * 2e-3
    if kind == "exact":
        return np.arange(n) * 0.25
    if kind == "jitter":
        return np.cumsum(rng.uniform(0.5e-3, 1.5e-3, n))
    t = np.arange(n) * 3.0
    t[-1] += 1.0
    return t


def random_traj(rng, n, width, kind, omega_s=WS, wraps=False):
    t = grid(kind, n, rng)
    v = np.exp(0.05 * rng.standard_normal((n, width)).cumsum(0))
    if wraps:
        theta = np.angle(np.exp(1j * rng.uniform(-2.5, 2.5,
                                                  (n, width)).cumsum(0)))
    else:  # small steps, signed zeros
        theta = signed_zero_cloud(rng, (n, width)) * 1e-3
    return make_traj(t, v, theta, omega_s=omega_s)


# smoothing windows the oracle tests cover: none, the default 5, even and
# odd, and either side of 16, the length at which BLAS dot products (and so
# a convolution-based average) change their summation order
WINDOWS = [1, 2, 5, 15, 16, 17, 31]


def assert_matches_oracle(traj, window):
    cf = estimate_complex_frequency(traj, smoothing_window=window)
    eps, omega = whole_array_estimate(traj, window)
    assert same_bits(cf.eps, eps)
    assert same_bits(cf.omega, omega)


class TestBitEqualOracles:
    """The estimator's average is bit-equal to the per-row oracle, and its
    omega to that of np.unwrap's angles, over whole series."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 60),
           st.one_of(st.sampled_from(WINDOWS), st.integers(1, 40)),
           st.booleans())
    def test_moving_average(self, seed, n, window, flat):
        rng = np.random.default_rng(seed)
        assert_matches_oracle(random_traj(rng, n, 1 if flat else 4, "arange"),
                              window)

    def test_moving_average_long_series(self):
        traj = random_traj(np.random.default_rng(5), 5001, 7, "arange")
        for window in WINDOWS[1:]:
            assert_matches_oracle(traj, window)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 60),
           st.sampled_from(["small_steps", "wraps", "nan", "flat"]),
           st.sampled_from(WINDOWS))
    def test_unwrap(self, seed, n, kind, window):
        rng = np.random.default_rng(seed)
        traj = random_traj(rng, n, 1 if kind == "flat" else 3, "exact",
                           wraps=kind == "wraps")
        if kind == "nan":
            traj.theta[rng.random(traj.theta.shape) < 0.2] = np.nan
        with np.errstate(invalid="ignore"):
            assert_matches_oracle(traj, window)

    def test_unwrap_step_of_exactly_pi_is_unwrapped(self):
        # a step of exactly pi sends the series through np.unwrap
        theta = np.array([0.0, math.pi, 0.0, 3.2, 0.0])
        t = np.arange(5) * 1e-3
        for window in (1, 5):
            assert_matches_oracle(make_traj(t, np.ones(5), theta), window)


class TestBlockwise:
    """estimate_complex_frequency works a block of rows at a time; with the
    block shrunk to a few rows, every output bit is still that of the
    whole-array formulas. A non-uniform grid raises, also where each
    block's rows are uniformly spaced."""

    def check(self, monkeypatch, traj, window, rows, uniform=True):
        width = traj.v.shape[1]
        monkeypatch.setattr(cf_estimator, "_BLOCK_VALUES", rows * width)
        if not uniform:
            with pytest.raises(ValueError, match="non-uniform time grid"):
                estimate_complex_frequency(traj, smoothing_window=window)
            return
        assert_matches_oracle(traj, window)

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("kind", ["arange", "exact", "jitter",
                                      "uniform_stretches"])
    def test_block_rows_and_grids(self, monkeypatch, window, rows, kind):
        rng = np.random.default_rng(rows * 100 + window)
        self.check(monkeypatch, random_traj(rng, 60, 3, kind), window, rows,
                   uniform=kind in UNIFORM_GRIDS)

    @pytest.mark.parametrize("window", WINDOWS)
    def test_wrapped_angles(self, monkeypatch, window):
        # the np.unwrap fallback: corrections accumulate down the rows
        rng = np.random.default_rng(window)
        traj = random_traj(rng, 50, 2, "arange", wraps=True)
        assert np.abs(np.diff(traj.theta, axis=0)).max() >= math.pi
        self.check(monkeypatch, traj, window, 3)

    @pytest.mark.parametrize("n, window", [(3, 1), (3, 2), (3, 5), (4, 5),
                                           (6, 17), (15, 16), (16, 17),
                                           (17, 17), (18, 17), (3, 31),
                                           (30, 31), (31, 31)])
    @pytest.mark.parametrize("rows", [1, 2, 10**6])
    def test_shorter_than_a_block_or_the_window(self, monkeypatch, n, window,
                                                rows):
        rng = np.random.default_rng(n)
        self.check(monkeypatch, random_traj(rng, n, 2, "arange"), window,
                   rows)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 60),
           st.integers(1, 4), st.sampled_from(WINDOWS), st.integers(1, 7),
           st.floats(-1e3, 1e3).filter(lambda x: x != 0.0))
    def test_signed_zero_angles_give_the_same_omega(self, seed, n, width,
                                                    window, rows, omega_s):
        # a zero derivative is -0.0 or +0.0 with the zeros it is taken
        # from; adding a nonzero omega_s makes both the same
        rng = np.random.default_rng(seed)
        traj = random_traj(rng, n, width, "arange", omega_s=omega_s)
        traj.theta[rng.random(traj.theta.shape) < 0.6] = -0.0
        plus = make_traj(traj.times, traj.v, np.where(
            traj.theta == 0.0, 0.0, traj.theta), omega_s=omega_s)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cf_estimator, "_BLOCK_VALUES", rows * width)
            assert same_bits(
                estimate_complex_frequency(traj, window).omega,
                estimate_complex_frequency(plus, window).omega)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 70),
           st.integers(1, 4), st.integers(1, 40), st.integers(1, 12),
           st.sampled_from(["arange", "exact", "jitter",
                            "uniform_stretches"]),
           st.booleans())
    def test_any_block(self, seed, n, width, window, rows, kind, wraps):
        rng = np.random.default_rng(seed)
        traj = random_traj(rng, n, width, kind, wraps=wraps)
        with pytest.MonkeyPatch.context() as mp:
            self.check(mp, traj, window, rows, uniform=kind in UNIFORM_GRIDS)

    def test_non_positive_voltage_names_the_first_in_row_order(
            self, monkeypatch):
        # row 9 holds the first bad value in row order, on bus 3; bus 1's
        # comes first in column order, and the blocks are 2 rows
        monkeypatch.setattr(cf_estimator, "_BLOCK_VALUES", 2 * 3)
        t = np.arange(20) * 1e-3
        v = np.ones((20, 3))
        v[12, 0] = -1.0
        v[9, 2] = 0.0
        with pytest.raises(ValueError,
                           match=r"non-positive voltage at bus 3, t=0\.009 s"):
            estimate_complex_frequency(make_traj(t, v, np.zeros_like(v)))

    def test_wrapped_trip_unwraps_a_block_at_a_time(self, traced_peak):
        # 5,001 x 270 angles wrapped into (-pi, pi], each bus turning at its
        # own speed, so that wraps fall in every block of columns the
        # unwrap takes and in every block of rows the derivative takes.
        # Whole-array np.unwrap, with its temporaries, held 41 MiB beyond
        # the two 10.3 MiB outputs here
        rng = np.random.default_rng(0)
        t = np.arange(5001) * 2e-3
        phase = rng.uniform(0, 2 * math.pi, 270)
        v = 1.0 + 0.01 * np.sin(3 * t[:, None] + phase)
        theta = np.angle(np.exp(1j * (rng.uniform(-40, 40, 270) * t[:, None]
                                      + phase)))
        wraps = np.abs(np.diff(theta, axis=0)) >= math.pi
        blocks = np.flatnonzero(wraps.any(axis=1)) // cf_estimator.block_len(
            270)
        assert set(blocks) == set(range(5000 // cf_estimator.block_len(270)
                                        + 1))
        cols = np.flatnonzero(wraps.any(axis=0)) // cf_estimator.block_len(
            5001)
        assert set(cols) == set(range(269 // cf_estimator.block_len(5001)
                                      + 1))
        traj = make_traj(t, v, theta)
        cf, peak = traced_peak(lambda: estimate_complex_frequency(traj))
        outputs = cf.eps.nbytes + cf.omega.nbytes
        assert peak - outputs < 6 * 2**20, f"{(peak - outputs) / 2**20:.1f}"
        assert same_bits(cf.omega, whole_array_estimate(traj, 5)[1])

    def test_memory_beyond_the_outputs_is_bounded(self, traced_peak):
        # 5,001 x 270, one 270-bus line trip's shape: the whole-array
        # formulas held about 31 MiB beyond the two 10.3 MiB outputs
        rng = np.random.default_rng(0)
        t = np.arange(5001) * 2e-3
        phase = rng.uniform(0, 2 * math.pi, 270)
        v = 1.0 + 0.01 * np.sin(3 * t[:, None] + phase)
        theta = 0.3 * np.cos(2 * t[:, None] + phase)
        cf, peak = traced_peak(
            lambda: estimate_complex_frequency(make_traj(t, v, theta)))
        outputs = cf.eps.nbytes + cf.omega.nbytes
        assert peak - outputs < 6 * 2**20, f"{(peak - outputs) / 2**20:.1f}"
