import json
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from cfsync import cf_estimator, sync_detector
from cfsync.cf_estimator import (
    ComplexFrequencySample,
    ComplexFrequencySeries,
    estimate_complex_frequency,
    window_slice,
)
from cfsync.dynamics import SimConfig, Trajectory, simulate
from cfsync.fileio import write_json
from cfsync.grid_model import Event
from cfsync.sync_detector import (
    _BRUTE_FORCE_MAX,
    NodeVerdict,
    SyncConfig,
    _brute_force_max,
    _coarse_limits,
    _pairwise_max,
    _row_means,
    evaluate,
    final_window,
    find_convergence_time,
    global_verdict,
    node_verdict,
    row_diameters,
    subnet_verdict,
    trailing_max,
)

WS = 2 * math.pi * 60


def oracle_convergence_time(times, x, target, tol, window, t_event):
    """Exhaustive scan over every trailing window (independent of the
    sliding-max implementation)."""
    dt = times[1] - times[0]
    w = int(round(window / dt)) + 1
    for i in range(len(times)):
        if i + 1 < w or times[i] < t_event + window - 1e-9:
            continue
        if max(abs(x[j] - target) for j in range(i - w + 1, i + 1)) < tol:
            return times[i]
    return None


def settle_signal(rng, n=2000, dt=0.01):
    """Randomized transient that settles (usually) toward a plateau."""
    t = np.arange(n) * dt
    target = rng.uniform(-1, 1)
    amp = rng.uniform(0.5, 5)
    sigma = rng.uniform(0.1, 2.0)
    freq = rng.uniform(0.5, 20)
    noise = rng.normal(0, rng.uniform(0, 0.02), n)
    x = target + amp * np.exp(-sigma * t) * np.cos(freq * t) + noise
    return t, x, target


def brute_force_diameter(z, rows=256):
    """max |z_i - z_j| over all pairs, in the arithmetic of the former
    all-pairs matrix; built a block of rows at a time to bound memory."""
    z = np.asarray(z, dtype=complex)
    if len(z) < 2:
        return 0.0
    return float(max(np.max(np.abs(z[i:i + rows, None] - z[None, :]))
                     for i in range(0, len(z), rows)))


def point_cloud(rng, kind, n):
    """Point sets for the diameter tests, each stressing the pruning."""
    if kind == "gaussian":
        return rng.normal(size=n) + 1j * rng.normal(size=n)
    if kind == "anisotropic":  # rotated, scaled, far from the origin
        z = rng.normal(size=n) + 1j * rng.normal(size=n) * 10 ** rng.uniform(
            -12, 0)
        return z * np.exp(1j * rng.uniform(0, 2 * np.pi)) \
            * 10 ** rng.uniform(-6, 6) + (rng.normal() + 377j)
    if kind == "axis_needle":  # width 1e-14 of the length, along an axis
        return (1e3 + rng.normal(size=n) * 1e-9) + 1j * rng.normal(size=n) * 1e5
    if kind == "spiral":  # a damped mode in the (eps, omega) plane
        t = rng.uniform(0, 5) + np.arange(n) * 1e-3
        decay = np.exp(-rng.uniform(0.1, 2) * t)
        return decay * 1e-3 * np.sin(30 * t) \
            + 1j * (377 + 0.1 * decay * np.cos(30 * t + 1))
    if kind == "polygon_ties":  # repeated vertices of a regular polygon
        m = int(rng.integers(3, 40))
        return np.exp(2j * np.pi * rng.integers(0, m, n) / m) \
            * rng.uniform(0.1, 1e3) + (1 + 2j)
    if kind == "ulp_noise":  # a constant disturbed in its last bits
        base = rng.normal() + 377j
        return base + (rng.integers(-3, 4, n)
                       + 1j * rng.integers(-3, 4, n)) * np.spacing(377.0)
    if kind == "dense_end_needle":  # turned, width 1e-10 of the length
        m = n // 3
        s = np.concatenate([1 - rng.uniform(0, 1e-3, m),
                            -1 + rng.uniform(0, 1e-3, m),
                            rng.uniform(-1, 1, n - 2 * m)])
        return (s + 1j * rng.uniform(-1e-10, 1e-10, n)) \
            * np.exp(1j * rng.uniform(0, 2 * np.pi)) \
            * 10 ** rng.uniform(-6, 6) + (rng.normal() + 377j)
    if kind == "two_level":  # a square wave along a line, noisy in last bits
        s = np.where(rng.random(n) < 0.5, 1.0, -1.0) + rng.normal(0, 1e-15, n)
        return (s + 1j * rng.normal(0, 1e-15, n)) \
            * np.exp(1j * rng.uniform(0, 2 * np.pi)) + (rng.normal() + 377j)
    if kind == "circle":  # an undamped orbit: every point a hull vertex
        phase = rng.uniform(0, 2 * np.pi) \
            + np.arange(n) * rng.uniform(1e-3, 1.0)
        return rng.uniform(1e-3, 1e3) * np.exp(1j * phase) \
            + (rng.normal() + 377j)
    if kind == "hull_runs":  # collinear runs and exact repeats on the hull
        if rng.random() < 0.5:  # a rectangle on an integer grid
            a, b = rng.integers(1, 9, 2)
            corners = np.array([0, a, a + 1j * b, 1j * b])
        else:
            m = int(rng.integers(3, 8))
            corners = np.exp(2j * np.pi * (np.arange(m) + rng.random()) / m)
        k = rng.integers(0, len(corners), n)
        u = rng.integers(0, 9, n) / 8
        z = corners[k] + u * (corners[(k + 1) % len(corners)] - corners[k])
        return z * 2.0 ** int(rng.integers(-20, 20)) + (0.5 + 377j)
    if kind == "just_thick":  # width about 1e-6 to 1.5e-6 of the length
        s = rng.uniform(-1, 1, n)
        t = rng.uniform(-1, 1, n) * 1e-6 * rng.uniform(1.0, 1.5)
        return (s + 1j * t) * np.exp(1j * rng.uniform(0, 2 * np.pi)) \
            * 10 ** rng.uniform(-3, 3) + (rng.normal() + 377j)
    if kind == "few_distinct":  # two or three points, repeated
        pts = rng.normal(size=3) + 1j * rng.normal(size=3)
        return pts[rng.integers(0, int(rng.integers(2, 4)), n)]
    raise ValueError(kind)


def needle_with_offset_ends(n, delta):
    """A needle turned by 45 degrees whose ends are not the x or y extremes.

    In the needle's own frame (s along, t across) each end holds a point at
    s = +-1, t = 0 and two at s = +-(1 - delta/2), t = -+delta; the latter
    win the x and y extremes. The body fills |s| < 1, |t| <= delta."""
    rng = np.random.default_rng(3)
    s = np.concatenate([[1.0, 1 - delta / 2, 1 - delta / 2,
                         -1.0, -1 + delta / 2, -1 + delta / 2],
                        rng.uniform(-1, 1, n - 6)])
    t = np.concatenate([[0.0, -delta, delta, 0.0, -delta, delta],
                        rng.uniform(-delta, delta, n - 6)])
    return (s + 1j * t) * np.exp(1j * np.pi / 4) + (0.5 + 377j)


class TestPairwiseMax:
    """The node fluctuation is bit-equal to the all-pairs maximum."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.sampled_from(["gaussian", "anisotropic", "axis_needle",
                            "spiral", "polygon_ties", "ulp_noise",
                            "dense_end_needle", "two_level", "circle",
                            "hull_runs", "just_thick", "few_distinct"]),
           st.integers(_BRUTE_FORCE_MAX + 1, 4 * _BRUTE_FORCE_MAX))
    def test_random_clouds(self, seed, kind, n):
        z = point_cloud(np.random.default_rng(seed), kind, n)
        assert _pairwise_max(z) == brute_force_diameter(z) \
            == _brute_force_max(z)

    @pytest.mark.parametrize("seed", [39, 252, 268, 884, 885])
    def test_points_within_rounding_of_a_hull_vertex(self, seed):
        # a corner met from two edges comes out twice, a few ulp apart; a
        # hull keeps one of the two, on these sets not the one that ends
        # the largest computed distance
        z = point_cloud(np.random.default_rng(seed), "hull_runs", 400)
        assert _pairwise_max(z) == _brute_force_max(z)

    def test_circle_every_point_on_hull(self):
        z = 3.0 * np.exp(2j * np.pi * np.arange(4001) / 4001) + (1 - 2j)
        assert _pairwise_max(z) == brute_force_diameter(z)

    @pytest.mark.parametrize("direction", [1.0, 1j, 3 + 7j, -1e-8 + 1e3j])
    def test_collinear(self, direction):
        t = np.linspace(-1.0, 2.0, 3 * _BRUTE_FORCE_MAX)
        z = direction * t + (0.3 + 377j)
        np.random.default_rng(0).shuffle(z)
        assert _pairwise_max(z) == brute_force_diameter(z)

    @pytest.mark.parametrize("delta", [1e-12, 1e-9, 1e-7, 1e-5])
    def test_needle_ends_off_the_axis_extremes(self, delta):
        z = needle_with_offset_ends(4 * _BRUTE_FORCE_MAX, delta)
        assert _pairwise_max(z) == brute_force_diameter(z)

    def test_identical(self):
        z = np.full(2 * _BRUTE_FORCE_MAX, 0.25 + 377j)
        assert _pairwise_max(z) == brute_force_diameter(z) == 0.0

    def test_integer_grid_with_ties(self):
        rng = np.random.default_rng(1)
        n = 3 * _BRUTE_FORCE_MAX
        z = rng.integers(-3, 4, n) + 1j * rng.integers(-3, 4, n)
        assert _pairwise_max(z) == brute_force_diameter(z)

    @pytest.mark.parametrize("z", [[], [1 + 1j], [1 + 1j, -2 + 0.5j],
                                   [0j, 0j]])
    def test_fewer_than_three_points(self, z):
        assert _pairwise_max(np.array(z, dtype=complex)) == \
            brute_force_diameter(z)

    @pytest.mark.parametrize("scale", [1e160, 1e305])
    def test_huge_magnitudes(self, scale):
        # near 1e308 differences and bound sums overflow to inf
        z = point_cloud(np.random.default_rng(6), "spiral",
                        3 * _BRUTE_FORCE_MAX) * scale
        assert _pairwise_max(z) == brute_force_diameter(z)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_is_nan(self, bad):
        z = point_cloud(np.random.default_rng(2), "gaussian",
                        2 * _BRUTE_FORCE_MAX)
        z[7] = bad
        with np.errstate(invalid="ignore"):
            assert math.isnan(_pairwise_max(z))
            assert math.isnan(brute_force_diameter(z))

    @pytest.mark.parametrize("n", [4001, 16001])
    @pytest.mark.parametrize("kind", ["two_level", "polygon_ties",
                                      "gaussian"])
    def test_large_sets(self, kind, n):
        # a repeat adds no distance, so the oracle measures each distinct
        # point once; two_level and polygon_ties have few of them
        z = point_cloud(np.random.default_rng(n), kind, n)
        assert _pairwise_max(z) == brute_force_diameter(np.unique(z))

    def test_kd_layout_memory_is_linear(self, monkeypatch, traced_peak):
        # all pairs of 16,001 points would take 4 GB; the layout holds a
        # few copies of the points and one chunk of leaf pairs
        calls = record_calls(monkeypatch, "_kd_layout")
        z = point_cloud(np.random.default_rng(7), "gaussian", 16001)
        _, peak = traced_peak(lambda: _pairwise_max(z))
        assert len(calls) == 1
        assert peak < 8 * z.nbytes + 2**21

    def test_node_verdict_memory_is_linear_in_window(self, traced_peak):
        # 1 s final window at 0.25 ms: 4,001 samples, 16M pairs. An
        # all-pairs matrix needs about 384 MB here; the block tree O(w).
        t = np.arange(12001) * 2.5e-4
        eps = 1e-3 * np.exp(-t) * np.sin(30 * t)
        omega = WS + 0.1 * np.exp(-t) * np.cos(30 * t)
        cfg = SyncConfig(t_end=float(t[-1]))
        v, peak = traced_peak(lambda: node_verdict(1, t, eps, omega, cfg))
        assert peak < 32 * 2**20
        final = t >= cfg.t_end - cfg.window - 1e-9
        assert v.fluctuation == brute_force_diameter(
            eps[final] + 1j * omega[final])


class TestTrailingMax:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 300),
           st.floats(min_value=0.0, max_value=1.0))
    def test_matches_sliding_window_1d(self, seed, n, frac):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 5, n).astype(float)  # ties are common
        x[rng.random(n) < 0.02] = np.nan
        w = 1 + int(frac * (n - 1))
        np.testing.assert_array_equal(
            trailing_max(x, w), sliding_window_view(x, w).max(axis=-1))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 200),
           st.floats(min_value=0.0, max_value=1.0))
    def test_matches_sliding_window_axis0(self, seed, n, frac):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 4))
        w = 1 + int(frac * (n - 1))
        np.testing.assert_array_equal(
            trailing_max(x, w),
            sliding_window_view(x, w, axis=0).max(axis=-1))

    @pytest.mark.parametrize("w", [0, 11])
    def test_window_must_fit(self, w):
        with pytest.raises(ValueError, match="window"):
            trailing_max(np.zeros(10), w)


class TestCoarseLimit:
    def cfg(self, t_end=10.0, **kw):
        return SyncConfig(t_end=t_end, **kw)

    def test_constant(self):
        t = np.arange(0, 10.001, 0.01)[:, None]
        (eps,), (omega,) = _coarse_limits(
            t[:, 0], np.zeros_like(t), np.full_like(t, 377.0), self.cfg())
        assert eps == 0.0
        assert omega == 377.0

    def test_alternating_mean_matches_direct_sum(self):
        t = np.arange(0, 10.001, 0.01)
        eps = 0.3 + 0.05 * np.where(np.arange(len(t)) % 2 == 0, 1.0, -1.0)
        cfg = self.cfg()
        seg = (t >= cfg.resolved_t_coarse() - cfg.window - 1e-9)
        expected = sum(eps[seg]) / seg.sum()  # direct summation oracle
        (out,), _ = _coarse_limits(t, eps[:, None], np.zeros((len(t), 1)),
                                   cfg)
        assert out == pytest.approx(expected, abs=1e-15)


class TestRowMeans:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.sampled_from([*range(1, 10), 127, 128, 129, 8191, 8192, 8193]),
           st.integers(1, 5),
           st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=3))
    def test_matches_per_column_mean(self, seed, n, m, specials):
        # one mean along the rows of the transpose sums each column in the
        # pairwise order of np.mean over a contiguous copy of it
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, m)) * 10.0 ** rng.uniform(-3, 3, (n, m))
        for value in specials:
            x[rng.integers(n), rng.integers(m)] = value
        with np.errstate(invalid="ignore"):
            got = _row_means(x)
            want = np.array([np.mean(np.ascontiguousarray(x[:, k]))
                             for k in range(m)])
        assert got.tobytes() == want.tobytes()


class TestFindConvergenceTime:
    def test_exponential_decay_analytic(self):
        dt = 1e-3
        t = np.arange(0, 10, dt)
        x = 1 + 5 * np.exp(-t)
        got = find_convergence_time(t, x, 1.0, 0.01, 1.0, 0.0)
        # window start must satisfy 5 e^{-(t-1)} < 0.01 -> t ~ 1 + ln 500
        assert got == pytest.approx(1 + math.log(500), abs=2 * dt)
        assert got == oracle_convergence_time(t, x, 1.0, 0.01, 1.0, 0.0)

    def test_constant_converges_at_first_admissible_instant(self):
        t = np.arange(0, 5, 0.01)
        got = find_convergence_time(t, np.ones_like(t), 1.0, 0.1, 1.0, 2.0)
        assert got == pytest.approx(3.0)

    def test_never_within_tol(self):
        t = np.arange(0, 5, 0.01)
        assert find_convergence_time(t, np.sin(10 * t), 0.0, 0.1, 1.0,
                                     0.0) is None

    def test_window_too_long(self):
        t = np.arange(0, 1, 0.01)
        with pytest.raises(ValueError, match="window"):
            find_convergence_time(t, np.zeros_like(t), 0.0, 0.1, 5.0, 0.0)

    def test_non_uniform_grid_rejected(self):
        # one late sample shifts every later instant; the window would be
        # counted in samples of the first step and the time come out wrong
        t = np.arange(0, 10, 0.01)
        t[500:] += 0.004
        with pytest.raises(ValueError, match="non-uniform time grid"):
            find_convergence_time(t, np.exp(-t), 0.0, 0.01, 1.0, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        t, x, target = settle_signal(rng, n=800)
        tol = rng.uniform(0.01, 0.3)
        window = rng.choice([0.5, 1.0, 2.0])
        got = find_convergence_time(t, x, target, tol, window, 0.0)
        assert got == oracle_convergence_time(t, x, target, tol, window, 0.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_monotone_in_tolerance(self, seed):
        rng = np.random.default_rng(seed)
        t, x, target = settle_signal(rng, n=800)
        t_tight = find_convergence_time(t, x, target, 0.05, 1.0, 0.0)
        t_loose = find_convergence_time(t, x, target, 0.2, 1.0, 0.0)
        if t_tight is not None:
            assert t_loose is not None and t_loose <= t_tight

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.floats(min_value=0.0, max_value=7.3))
    def test_translation_invariance(self, seed, shift):
        rng = np.random.default_rng(seed)
        t, x, target = settle_signal(rng, n=800)
        a = find_convergence_time(t, x, target, 0.1, 1.0, 0.5)
        b = find_convergence_time(t + shift, x, target, 0.1, 1.0,
                                  0.5 + shift)
        if a is None:
            assert b is None
        else:
            assert b == pytest.approx(a + shift, abs=1e-9)


class TestConvergenceWindowRows:
    """Each trailing convergence window holds the rows the window rule
    gives the final window, however the window falls between samples."""

    @pytest.mark.parametrize("window, expected", [(1.0006, 3.000),
                                                  (0.9996, 2.999)])
    def test_window_between_samples(self, window, expected):
        t = np.arange(4001) * 1e-3
        x = (np.arange(len(t)) < 2000).astype(float)  # 1 before t = 2 s
        got = find_convergence_time(t, x, 0.0, 0.5, window, 0.0)
        assert got == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_trailing_and_final_windows_hold_the_same_rows(self, data):
        dt = data.draw(st.floats(1e-4, 0.1), label="dt")
        n = data.draw(st.integers(10, 400), label="n")
        t = data.draw(st.floats(-10.0, 10.0), label="t_first") \
            + np.arange(n) * dt
        window = data.draw(st.floats(1.0, n - 2.0), label="steps") * dt
        config = SyncConfig(t_end=float(t[-1]), window=window)
        final = final_window(t, config)
        w = final.stop - final.start
        m = data.draw(st.integers(1, n - w), label="ones")  # rows of 1
        x = (np.arange(n) < m).astype(float)
        got = find_convergence_time(t, x, 0.0, 0.5, window, float(t[0]))
        # the first window of zeros is rows m .. m + w - 1
        assert got == t[m + w - 1]


def two_stage_signal(dt=1e-3, t_end=12.0):
    """eps settles around t=5, omega around t=9 (two-exponential fixture)."""
    t = np.arange(0, t_end + dt / 2, dt)
    eps = 0.5 * np.exp(-1.5 * (t - 0.0))
    omega = WS + 1.0 + 2.0 * np.exp(-0.7 * t)
    return t, eps, omega


class TestNodeVerdict:
    def test_constant_node(self):
        t = np.arange(0, 10.001, 0.01)
        cfg = SyncConfig(t_end=10.0)
        v = node_verdict(1, t, np.full_like(t, 0.2), np.full_like(t, WS),
                         cfg)
        assert v.converged
        assert v.fluctuation == 0.0
        assert v.limit.eps == pytest.approx(0.2)
        assert v.limit.omega == pytest.approx(WS)

    def test_eps_settles_before_omega(self):
        t, eps, omega = two_stage_signal()
        cfg = SyncConfig(t_end=12.0, tol_eps=1e-3, tol_omega=1e-3)
        v = node_verdict(1, t, eps, omega, cfg)
        assert v.t_eps is not None and v.t_omega is not None
        assert v.t_eps < v.t_omega
        assert v.t_end_k == v.t_omega
        # cross-check both against the exhaustive oracle
        (c_eps,), (c_omega,) = _coarse_limits(t, eps[:, None],
                                              omega[:, None], cfg)
        assert v.t_eps == oracle_convergence_time(
            t, eps, c_eps, cfg.tol_eps, cfg.window, cfg.t_event)
        assert v.t_omega == oracle_convergence_time(
            t, omega, c_omega, cfg.tol_omega, cfg.window, cfg.t_event)

    def test_oscillation_above_tolerance_not_converged(self):
        t = np.arange(0, 10.001, 0.01)
        cfg = SyncConfig(t_end=10.0, tol_node=1e-3)
        eps = 2 * cfg.tol_node * np.where(np.arange(len(t)) % 2 == 0, 1, -1.0)
        v = node_verdict(1, t, eps, np.full_like(t, WS), cfg)
        assert not v.converged

    @pytest.mark.parametrize("window", [0.005, 1e-9])
    def test_window_under_two_samples_raises(self, window):
        # one sample always has fluctuation 0.0: every node converged
        t = np.arange(0, 10.001, 0.01)
        eps = np.where(np.arange(len(t)) % 2 == 0, 1.0, -1.0)
        cfg = SyncConfig(t_end=10.0, window=window)
        with pytest.raises(ValueError, match=r"holds 1 sample\(s\)"):
            node_verdict(1, t, eps, np.full_like(t, WS), cfg)

    @pytest.mark.parametrize("field", ["tol_eps", "tol_omega", "tol_node",
                                       "tol_eq", "t_coarse", "window",
                                       "t_end", "t_event"])
    def test_nan_fails_validation(self, field):
        config = SyncConfig(**{"t_end": 10.0, field: math.nan})
        with pytest.raises(ValueError, match=field):
            config.validate(np.arange(0, 10.001, 0.01))

    def test_window_mean_limit_mode(self):
        t = np.arange(0, 10.001, 0.01)
        cfg = SyncConfig(t_end=10.0, limit_mode="window_mean")
        eps = 0.1 + 0.01 * np.sin(40 * t)
        v = node_verdict(1, t, eps, np.full_like(t, WS), cfg)
        final = t >= 9.0 - 1e-9
        assert v.limit.eps == pytest.approx(eps[final].mean())


def make_verdict(bus, eps, omega, converged=True):
    lim = ComplexFrequencySample(eps, omega)
    return NodeVerdict(bus=bus, converged=converged, t_eps=2.0, t_omega=3.0,
                       t_end_k=3.0, limit=lim, fluctuation=0.0, coarse=lim)


class TestSubnetAndGlobal:
    cfg = SyncConfig(t_end=10.0, tol_eq=1e-3)

    def test_shared_limit_synced(self):
        sv = subnet_verdict("S", [make_verdict(1, 0.0, WS),
                                  make_verdict(2, 0.0, WS)], self.cfg)
        assert sv.internally_synced
        assert sv.spread == 0.0

    def test_offset_by_twice_tol_not_synced(self):
        sv = subnet_verdict(
            "S", [make_verdict(1, 0.0, WS),
                  make_verdict(2, 2 * self.cfg.tol_eq, WS)], self.cfg)
        assert not sv.internally_synced

    def test_three_member_spread_matches_all_pairs(self):
        vs = [make_verdict(1, 0.0, WS), make_verdict(2, 0.01, WS + 0.02),
              make_verdict(3, -0.005, WS - 0.01)]
        sv = subnet_verdict("S", vs, self.cfg)
        brute = max(abs(a.limit.as_complex - b.limit.as_complex)
                    for a in vs for b in vs)
        assert sv.spread == pytest.approx(brute)

    def test_nonconverged_member_vetoes(self):
        vs = [make_verdict(1, 0.0, WS),
              make_verdict(2, 0.0, WS, converged=False)]
        sv = subnet_verdict("S", vs, self.cfg)
        assert not sv.internally_synced
        assert sv.spread == 0.0  # non-converged excluded from the spread

    def test_no_converged_member_has_no_spread(self, tmp_path):
        # a spread of 0.0 would read as a perfectly synchronized subnet
        vs = [make_verdict(1, 0.0, WS, converged=False),
              make_verdict(2, 0.5, WS + 1.0, converged=False)]
        sv = subnet_verdict("S", vs, self.cfg)
        assert sv.spread is None
        assert not sv.internally_synced
        write_json(sv, tmp_path / "sv.json")
        assert json.loads((tmp_path / "sv.json").read_text())["spread"] \
            is None

    def test_empty_subnet(self):
        with pytest.raises(ValueError, match="empty subnet"):
            subnet_verdict("S", [], self.cfg)

    def test_global_all_identical(self):
        nodes = {i: make_verdict(i, 0.0, WS) for i in (1, 2, 3)}
        subs = {"S": subnet_verdict("S", list(nodes.values()), self.cfg)}
        g = global_verdict(subs, nodes, self.cfg)
        assert g.status == "synchronized"
        assert subs["S"].synced_with_global

    def test_offset_subnet_flagged(self):
        nodes = {1: make_verdict(1, 0.0, WS),
                 2: make_verdict(2, 0.0, WS),
                 3: make_verdict(3, 0.0, WS + 10 * self.cfg.tol_eq)}
        subs = {"A": subnet_verdict("A", [nodes[1], nodes[2]], self.cfg),
                "B": subnet_verdict("B", [nodes[3]], self.cfg)}
        g = global_verdict(subs, nodes, self.cfg)
        assert g.status == "not_synchronized"
        assert not subs["B"].synced_with_global

    def test_no_converged_nodes_undetermined(self):
        nodes = {1: make_verdict(1, 0.0, WS, converged=False)}
        subs = {"S": subnet_verdict("S", [nodes[1]], self.cfg)}
        g = global_verdict(subs, nodes, self.cfg)
        assert g.status == "undetermined"
        assert g.limit is None
        assert subs["S"].synced_with_global is None

    def test_modulus_bounded_by_component_spreads(self):
        vs = [make_verdict(1, 0.0, WS), make_verdict(2, 0.01, WS + 0.02),
              make_verdict(3, -0.004, WS - 0.03)]
        sv = subnet_verdict("S", vs, self.cfg)
        eps_spread = max(a.limit.eps for a in vs) - min(a.limit.eps
                                                        for a in vs)
        om_spread = max(a.limit.omega for a in vs) - min(a.limit.omega
                                                         for a in vs)
        assert sv.spread <= eps_spread + om_spread + 1e-15


class TestEvaluate:
    def test_verdict_consistency_on_series(self):
        t = np.arange(0, 10.001, 0.01)
        n = len(t)
        eps = np.zeros((n, 3))
        omega = np.full((n, 3), WS)
        eps[:, 2] = 0.01 * np.sin(30 * t)  # bus 3 keeps oscillating
        series = ComplexFrequencySeries(
            times=t, bus_ids=[1, 2, 3], eps=eps, omega=omega)
        report = evaluate(series, {"A": [1, 2], "B": [3]},
                          SyncConfig(t_end=10.0))
        assert report.nodes[1].converged and report.nodes[2].converged
        assert not report.nodes[3].converged
        assert report.subnets["A"].internally_synced
        assert not report.subnets["B"].internally_synced
        assert report.global_verdict.status == "not_synchronized"

    @pytest.mark.parametrize("start, config, message", [
        (0.0, SyncConfig(t_end=9.0, window=4.0, t_coarse=5.0, t_event=2.0),
         "t_end 9.0 must be <= the series' last sample, t = 6.0"),
        (0.0, SyncConfig(t_end=6.0, t_event=7.0),
         "t_event 7.0 leaves no sample in [t_event, t_end = 6.0]"),
        (5.0, SyncConfig(t_end=8.0, window=4.0, t_coarse=4.0, t_event=6.0),
         "window 4.0 must be < the series' span to t_end, t = 5.0 .. 8.0"),
    ], ids=["t_end_after_the_series", "t_event_after_t_end",
            "window_longer_than_a_late_series"])
    def test_config_outside_the_series_raises(self, start, config, message):
        # a 6 s series: the first two configs returned verdicts, the first
        # a fluctuation of [5, 6] s alone, and the third raised from inside
        # the pass, not from validation
        t = start + np.linspace(0.0, 6.0, 601)
        series = ComplexFrequencySeries(
            times=t, bus_ids=[1, 2], eps=np.zeros((len(t), 2)),
            omega=np.full((len(t), 2), WS))
        with pytest.raises(ValueError, match=re.escape(message)):
            evaluate(series, {"A": [1, 2]}, config)


def record_calls(monkeypatch, name):
    """Wrap sync_detector.<name> for the test; returns the list of the
    argument tuples it is called with."""
    calls = []
    fn = getattr(sync_detector, name)

    def recorded(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(sync_detector, name, recorded)
    return calls


def window_row(rng, kind, w):
    """One node's final window for the batched diameter tests."""
    if kind == "constant":
        return np.full(w, rng.normal() + 377j)
    if kind == "nan":
        z = point_cloud(rng, "spiral", w)
        z[rng.integers(w)] = complex(np.nan, 377.0)
        return z
    return point_cloud(rng, kind, w)


def settling_window(rng, w, dt=1e-3):
    """The final window of a node settling after a disturbance: a damped
    electromechanical swing of 0.5-2 Hz on a slow drift."""
    t = 4.0 + np.arange(w) * dt
    decay = np.exp(-rng.uniform(0.3, 1.5) * t)
    f = 2 * np.pi * rng.uniform(0.5, 2.0)
    return decay * 1e-2 * np.sin(f * t) \
        + 1j * (377 + 0.05 * np.exp(-0.5 * t) + 0.3 * decay * np.cos(f * t))


def synthetic_final_windows(seed, n_bus=9, t_end=20.0, dt=2.5e-4,
                            t_step=2.0):
    """The (n_bus, 4001) final windows that ``analyze`` takes from the
    seeded synthetic trajectory of perfbench/synthetic_traj.py, from the
    same draws and closed forms: eps_k = a_k e^(-sigma_k s) sin(w_k s +
    phi_k) and a damped swing of omega_k around a drifting limit. Its CSV
    holds each value to 17 digits, so the file reads back these values."""
    rng = np.random.default_rng(seed)
    d_omega = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.02, 0.2))
    beta = float(rng.uniform(1.0, 2.0))
    sigma = rng.uniform(0.8, 1.5, n_bus)
    w = 2.0 * math.pi * rng.uniform(0.8, 1.8, n_bus)
    a = rng.uniform(0.005, 0.02, n_bus)
    b = rng.uniform(0.05, 0.3, n_bus)
    phi, psi = rng.uniform(0.0, 2.0 * math.pi, (2, n_bus))
    v0 = rng.uniform(0.98, 1.04, n_bus)
    theta0 = rng.uniform(-0.3, 0.3, n_bus)
    times = np.arange(int(round(t_end / dt)) + 1) * dt
    s = np.clip(times - t_step, 0.0, None)[:, None]

    def integral(phase):  # of e^(-sigma u) sin(w u + phase) over [0, s]
        def primitive(u):
            return np.exp(-sigma * u) * (-sigma * np.sin(w * u + phase)
                                         - w * np.cos(w * u + phase)) \
                / (sigma ** 2 + w ** 2)
        return primitive(s) - primitive(0.0)

    theta = theta0 + d_omega * (s - (1.0 - np.exp(-beta * s)) / beta) \
        + b * integral(psi)
    traj = Trajectory(
        times=times, bus_ids=list(range(1, n_bus + 1)),
        v=np.exp(np.log(v0) + a * integral(phi)),
        theta=np.angle(np.exp(1j * theta)), gen_buses=[], delta=None,
        omega=None, e_q=None, p_m=None, p_e=None, q_e=None,
        event_times=[t_step], omega_s=WS)
    series = estimate_complex_frequency(traj)
    final = times >= t_end - 1.0 - 1e-9
    return np.ascontiguousarray(
        (series.eps[final] + 1j * series.omega[final]).T)


class TestWindowDiameters:
    """The batched diameter of a (n_bus, w) stack is bit-equal to the
    all-pairs maximum of every row."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.lists(st.sampled_from(["spiral", "gaussian", "axis_needle",
                                     "dense_end_needle", "two_level",
                                     "constant", "nan", "circle",
                                     "hull_runs", "just_thick",
                                     "few_distinct"]),
                    min_size=1, max_size=6),
           st.integers(2, 700))
    def test_random_stacks(self, seed, kinds, w):
        rng = np.random.default_rng(seed)
        z = np.array([window_row(rng, kind, w) for kind in kinds])
        with np.errstate(invalid="ignore"):
            want = [brute_force_diameter(row) for row in z]
            got = row_diameters(z)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("w", [_BRUTE_FORCE_MAX + 1, 501, 1000, 1001])
    def test_smooth_windows_need_no_fallback(self, monkeypatch, w):
        # settling windows prune in time order; only the gaussian row is
        # rerun on the k-d layout of its points
        calls = record_calls(monkeypatch, "_kd_layout")
        rng = np.random.default_rng(w)
        z = np.array([settling_window(rng, w) for _ in range(12)]
                     + [point_cloud(rng, "gaussian", w)])
        got = row_diameters(z)
        assert [len(args[0]) for args in calls] == [w]
        np.testing.assert_array_equal(
            got, [brute_force_diameter(row) for row in z])

    @pytest.mark.parametrize("seed", [42, 44, 46, 61])
    def test_multi_turn_synthetic_windows(self, seed):
        # the final windows of the 0.25 ms synthetic trajectory: damped
        # swings, and on these seeds a row or two decayed to the rounding
        # of the estimator, a grid of 20 to 344 values per component on
        # which many pairs tie with the diameter
        z = synthetic_final_windows(seed)
        assert z.shape == (9, 4001)
        np.testing.assert_array_equal(
            row_diameters(z),
            [brute_force_diameter(np.unique(row)) for row in z])

    def test_twin_clusters_within_rounding(self):
        # two clusters at +-1 with 2e-15 noise: every cross pair of leaf
        # blocks ties with the diameter within the 64-ulp bound, so the
        # pruning keeps them all. 0.48-0.67 s on a 2-vCPU VM; the bound
        # leaves 6x of that
        rng = np.random.default_rng(0)
        n = 16001
        z = np.where(np.arange(n) % 2 == 0, 1.0, -1.0) + 2e-15 * (
            rng.normal(size=n) + 1j * rng.normal(size=n))
        start = time.perf_counter()
        got = row_diameters(z[None, :])
        seconds = time.perf_counter() - start
        np.testing.assert_array_equal(got, [brute_force_diameter(z, 64)])
        assert seconds < 4.0, f"{seconds:.2f} s"

    def test_huge_values_take_the_fallback(self):
        rng = np.random.default_rng(4)
        z = np.array([point_cloud(rng, "spiral", 400) * 1e305,
                      point_cloud(rng, "spiral", 400)])
        with np.errstate(over="ignore"):
            want = [brute_force_diameter(row) for row in z]
            got = row_diameters(z)
        np.testing.assert_array_equal(got, want)

    def test_no_rows(self):
        assert row_diameters(np.empty((0, 300), dtype=complex)).shape \
            == (0,)


def per_node_verdict(bus, times, eps, omega, config):
    """A node's verdict from per-node formulas, independent of the batched
    pass: 1-D means, a sliding-window max and an all-pairs diameter."""
    seg = (times >= config.resolved_t_coarse() - config.window - 1e-9) \
        & (times <= config.t_end + 1e-9)
    coarse = ComplexFrequencySample(float(np.mean(eps[seg])),
                                    float(np.mean(omega[seg])))
    w = int(round(config.window / (times[1] - times[0]))) + 1
    end = times[w - 1:]

    def settle(x, target, tol):
        wmax = sliding_window_view(np.abs(x - target), w).max(axis=-1)
        hits = np.flatnonzero(
            (wmax < tol) & (end >= config.t_event + config.window - 1e-9))
        return float(end[hits[0]]) if hits.size else None

    t_eps = settle(eps, coarse.eps, config.tol_eps)
    t_omega = settle(omega, coarse.omega, config.tol_omega)
    final = (times >= config.t_end - config.window - 1e-9) \
        & (times <= config.t_end + 1e-9)
    fluctuation = brute_force_diameter(eps[final] + 1j * omega[final])
    if config.limit_mode == "endpoint":
        i_end = int(np.searchsorted(times, config.t_end + 1e-9) - 1)
        limit = ComplexFrequencySample(float(eps[i_end]),
                                       float(omega[i_end]))
    else:
        limit = ComplexFrequencySample(float(np.mean(eps[final])),
                                       float(np.mean(omega[final])))
    return NodeVerdict(
        bus=bus, converged=bool(fluctuation < config.tol_node),
        t_eps=t_eps, t_omega=t_omega,
        t_end_k=None if t_eps is None or t_omega is None
        else max(t_eps, t_omega),
        limit=limit, fluctuation=fluctuation, coarse=coarse)


def two_area_trip_series(wscc9, record_every):
    from test_dynamics import two_area_case
    case = two_area_case(wscc9)
    case.events = [Event(1.0, "line_trip", {"from": 5, "to": 7})]
    traj = simulate(case, SimConfig(t_end=5.0, dt=2e-3,
                                    record_every=record_every))
    return case, estimate_complex_frequency(traj)


class TestEvaluateMatchesPerNodeOracle:
    """evaluate's node verdicts equal, field for field, the per-node
    formulas, on the load shed and on the 18-bus two-area case."""

    @staticmethod
    def check(series, subnets, config):
        report = evaluate(series, subnets, config)
        assert list(report.nodes) == series.bus_ids
        for k, bus in enumerate(series.bus_ids):
            want = per_node_verdict(bus, series.times, series.eps[:, k],
                                       series.omega[:, k], config)
            assert report.nodes[bus] == want
            assert node_verdict(bus, series.times, series.eps[:, k],
                                series.omega[:, k], config) == want
        return report

    @pytest.mark.parametrize("limit_mode", ["endpoint", "window_mean"])
    def test_load_shed(self, loadshed_traj, wscc9_loadshed, limit_mode,
                       monkeypatch):
        calls = record_calls(monkeypatch, "_pairwise_max")
        series = estimate_complex_frequency(loadshed_traj)
        report = self.check(series, wscc9_loadshed.subnets,
                            SyncConfig(t_end=20.0, t_event=2.0,
                                       limit_mode=limit_mode))
        assert report.global_verdict.status == "synchronized"
        # no node window (1,001 samples) left the batched path; the short
        # calls are the subnet and global limit spreads
        assert max(len(args[0]) for args in calls) < _BRUTE_FORCE_MAX

    @pytest.mark.parametrize("record_every", [1, 5])
    def test_two_area_trip(self, wscc9, record_every):
        case, series = two_area_trip_series(wscc9, record_every)
        self.check(series, case.subnets, SyncConfig(t_end=5.0, t_event=1.0))
        # a tolerance that leaves some nodes unconverged or unsettled
        self.check(series, case.subnets,
                   SyncConfig(t_end=5.0, t_event=1.0, tol_eps=1e-6,
                              tol_omega=1e-5, tol_node=1e-5))


class TestEvaluatePass:
    def test_one_convergence_sweep_per_component(self, monkeypatch):
        sweeps = record_calls(monkeypatch, "find_convergence_time")
        verdicts = record_calls(monkeypatch, "node_verdict")
        t = np.arange(0, 10.001, 0.01)
        series = ComplexFrequencySeries(
            times=t, bus_ids=[4, 5, 6], eps=np.zeros((len(t), 3)),
            omega=np.full((len(t), 3), WS))
        evaluate(series, {"A": [4, 5, 6]}, SyncConfig(t_end=10.0))
        assert len(sweeps) == 2 and not verdicts

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    def test_convergence_times_per_column(self, seed, n_bus):
        rng = np.random.default_rng(seed)
        cols = [settle_signal(rng, n=600) for _ in range(n_bus)]
        t = cols[0][0]
        x = np.column_stack([c[1] for c in cols])
        target = np.array([c[2] for c in cols])
        got = find_convergence_time(t, x, target, 0.1, 1.0, 0.5)
        assert got == [find_convergence_time(t, x[:, k], target[k], 0.1,
                                              1.0, 0.5)
                       for k in range(n_bus)]

    @pytest.mark.parametrize("columns", [1, 2, 3, 10**6])
    def test_column_blocks_match_whole_columns(self, monkeypatch, columns):
        # blocks of a few bus columns give each column's time, and a
        # partial last block is swept too
        rng = np.random.default_rng(columns)
        cols = [settle_signal(rng, n=600) for _ in range(7)]
        t = cols[0][0]
        x = np.column_stack([c[1] for c in cols])
        target = np.array([c[2] for c in cols])
        w = int(round(1.0 / 0.01)) + 1
        rows = len(t) - int(np.searchsorted(t, 0.5 + 1.0 - 1e-9)) + w - 1
        monkeypatch.setattr(cf_estimator, "_BLOCK_VALUES", columns * rows)
        got = find_convergence_time(t, x, target, 0.1, 1.0, 0.5)
        assert got == [oracle_convergence_time(t, x[:, k], target[k], 0.1,
                                               1.0, 0.5) for k in range(7)]
        assert any(hit is not None for hit in got)

    def test_peak_memory_is_bounded_on_a_long_wide_series(self, traced_peak):
        # 5,001 x 270, one 270-bus line trip's shape: the whole-array
        # convergence sweep held three 10.3 MiB deviation arrays (27.8 MiB
        # in all); the final windows and coarse segment stay
        rng = np.random.default_rng(0)
        t = np.arange(5001) * 2e-3
        phase = rng.uniform(0, 2 * np.pi, 270)
        decay = np.exp(-np.outer(t, 1.0 + 0.1 * phase))
        series = ComplexFrequencySeries(
            times=t, bus_ids=list(range(270)),
            eps=1e-3 * decay * np.sin(30 * t[:, None] + phase),
            omega=WS + 0.1 * decay * np.cos(30 * t[:, None] + phase))
        report, peak = traced_peak(lambda: evaluate(
            series, {"A": list(range(270))},
            SyncConfig(t_end=10.0, t_event=1.0)))
        assert len(report.nodes) == 270
        assert peak < series.eps.nbytes, f"{peak / 2**20:.1f} MiB"

    def test_peak_memory_is_linear_in_buses_times_window(self, traced_peak):
        # damped spirals, one per bus; (buses, dt) grows the series 4x
        # along each axis in turn. A per-node w x w matrix would need
        # 256 MB at 4,001 samples per window; the 2 MiB constant covers
        # the fixed-size chunk of block pairs.
        for n_bus, dt in ((8, 1e-3), (32, 1e-3), (8, 2.5e-4)):
            t = np.arange(int(round(4.0 / dt)) + 1) * dt
            phase = np.linspace(0.0, 3.0, n_bus)
            decay = np.exp(-np.outer(t, 1.0 + 0.1 * phase))
            series = ComplexFrequencySeries(
                times=t, bus_ids=list(range(n_bus)),
                eps=1e-3 * decay * np.sin(30 * t[:, None] + phase),
                omega=WS + 0.1 * decay * np.cos(30 * t[:, None] + phase))
            _, peak = traced_peak(lambda: evaluate(
                series, {"A": list(range(n_bus))}, SyncConfig(t_end=4.0)))
            assert peak < 4 * series.eps.nbytes + 2**21, (n_bus, dt, peak)
