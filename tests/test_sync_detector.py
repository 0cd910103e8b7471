import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from cfsync import sync_detector
from cfsync.cf_estimator import (
    ComplexFrequencySample,
    ComplexFrequencySeries,
    estimate_complex_frequency,
)
from cfsync.dynamics import SimConfig, simulate
from cfsync.grid_model import Event
from cfsync.sync_detector import (
    _BRUTE_FORCE_MAX,
    NodeVerdict,
    SyncConfig,
    _pairwise_max,
    _window_diameters,
    coarse_limit,
    evaluate,
    find_convergence_time,
    global_verdict,
    node_verdict,
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
    """Point sets for the diameter tests, each stressing the hull path."""
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
                            "dense_end_needle", "two_level"]),
           st.integers(_BRUTE_FORCE_MAX + 1, 4 * _BRUTE_FORCE_MAX))
    def test_random_clouds(self, seed, kind, n):
        z = point_cloud(np.random.default_rng(seed), kind, n)
        assert _pairwise_max(z) == brute_force_diameter(z)

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
        # squared coordinates overflow beyond about 1e154, so the
        # principal axes must come from scaled points
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

    def test_node_verdict_memory_is_linear_in_window(self):
        # 1 s final window at 0.25 ms: 4,001 samples, 16M pairs. An
        # all-pairs matrix needs about 384 MB here; the hull needs O(w).
        t = np.arange(12001) * 2.5e-4
        eps = 1e-3 * np.exp(-t) * np.sin(30 * t)
        omega = WS + 0.1 * np.exp(-t) * np.cos(30 * t)
        cfg = SyncConfig(t_end=float(t[-1]))
        tracemalloc.start()
        try:
            v = node_verdict(1, t, eps, omega, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
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
        t = np.arange(0, 10.001, 0.01)
        out = coarse_limit(t, np.zeros_like(t), np.full_like(t, 377.0),
                           self.cfg())
        assert out.eps == 0.0
        assert out.omega == 377.0

    def test_alternating_mean_matches_direct_sum(self):
        t = np.arange(0, 10.001, 0.01)
        eps = 0.3 + 0.05 * np.where(np.arange(len(t)) % 2 == 0, 1.0, -1.0)
        cfg = self.cfg()
        seg = (t >= cfg.resolved_t_coarse() - cfg.window - 1e-9)
        expected = sum(eps[seg]) / seg.sum()  # direct summation oracle
        out = coarse_limit(t, eps, np.zeros_like(t), cfg)
        assert out.eps == pytest.approx(expected, abs=1e-15)

    def test_empty_segment(self):
        t = np.arange(0, 5.0, 0.01)
        cfg = SyncConfig(t_end=20.0, t_coarse=18.0)
        with pytest.raises(ValueError, match="empty coarse segment"):
            coarse_limit(t, np.zeros_like(t), np.zeros_like(t), cfg)


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
        coarse = coarse_limit(t, eps, omega, cfg)
        assert v.t_eps == oracle_convergence_time(
            t, eps, coarse.eps, cfg.tol_eps, cfg.window, cfg.t_event)
        assert v.t_omega == oracle_convergence_time(
            t, omega, coarse.omega, cfg.tol_omega, cfg.window, cfg.t_event)

    def test_oscillation_above_tolerance_not_converged(self):
        t = np.arange(0, 10.001, 0.01)
        cfg = SyncConfig(t_end=10.0, tol_node=1e-3)
        eps = 2 * cfg.tol_node * np.where(np.arange(len(t)) % 2 == 0, 1, -1.0)
        v = node_verdict(1, t, eps, np.full_like(t, WS), cfg)
        assert not v.converged

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
            times=t, bus_ids=[1, 2, 3], eps=eps, omega=omega,
            smoothing_window=1)
        report = evaluate(series, {"A": [1, 2], "B": [3]},
                          SyncConfig(t_end=10.0))
        assert report.nodes[1].converged and report.nodes[2].converged
        assert not report.nodes[3].converged
        assert report.subnets["A"].internally_synced
        assert not report.subnets["B"].internally_synced
        assert report.global_verdict.status == "not_synchronized"


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


class TestWindowDiameters:
    """The batched diameter of a (n_bus, w) stack is bit-equal to the
    all-pairs maximum of every row."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.lists(st.sampled_from(["spiral", "gaussian", "axis_needle",
                                     "dense_end_needle", "two_level",
                                     "constant", "nan"]),
                    min_size=1, max_size=6),
           st.integers(2, 700))
    def test_random_stacks(self, seed, kinds, w):
        rng = np.random.default_rng(seed)
        z = np.array([window_row(rng, kind, w) for kind in kinds])
        with np.errstate(invalid="ignore"):
            want = [brute_force_diameter(row) for row in z]
            got = _window_diameters(z)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("w", [_BRUTE_FORCE_MAX + 1, 501, 1000, 1001])
    def test_smooth_windows_need_no_fallback(self, monkeypatch, w):
        calls = record_calls(monkeypatch, "_pairwise_max")
        rng = np.random.default_rng(w)
        z = np.array([settling_window(rng, w) for _ in range(12)]
                     + [point_cloud(rng, "gaussian", w)])
        got = _window_diameters(z)
        assert [len(args[0]) for args in calls] == [w]  # the gaussian one
        np.testing.assert_array_equal(
            got, [brute_force_diameter(row) for row in z])

    def test_huge_values_take_the_fallback(self):
        rng = np.random.default_rng(4)
        z = np.array([point_cloud(rng, "spiral", 400) * 1e305,
                      point_cloud(rng, "spiral", 400)])
        with np.errstate(over="ignore"):
            want = [brute_force_diameter(row) for row in z]
            got = _window_diameters(z)
        np.testing.assert_array_equal(got, want)

    def test_no_rows(self):
        assert _window_diameters(np.empty((0, 300), dtype=complex)).shape \
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
            omega=np.full((len(t), 3), WS), smoothing_window=1)
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

    def test_peak_memory_is_linear_in_buses_times_window(self):
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
                omega=WS + 0.1 * decay * np.cos(30 * t[:, None] + phase),
                smoothing_window=1)
            tracemalloc.start()
            try:
                evaluate(series, {"A": list(range(n_bus))},
                         SyncConfig(t_end=4.0))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 * series.eps.nbytes + 2**21, (n_bus, dt, peak)
