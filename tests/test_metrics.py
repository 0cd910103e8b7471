import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from cfsync import sync_detector
from cfsync.cf_estimator import ComplexFrequencySample
from cfsync.metrics import (
    disturbance_region,
    fit_damping,
    local_maxima,
    node_metrics,
    overshoot,
    subnet_metrics,
)
from cfsync.sync_detector import NodeVerdict, SyncConfig, row_diameters


def verdict(bus, t_eps, t_omega, eps_lim=0.0, om_lim=377.0, converged=True):
    lim = ComplexFrequencySample(eps_lim, om_lim)
    t_end_k = None
    if t_eps is not None and t_omega is not None:
        t_end_k = max(t_eps, t_omega)
    return NodeVerdict(bus=bus, converged=converged, t_eps=t_eps,
                       t_omega=t_omega, t_end_k=t_end_k, limit=lim,
                       fluctuation=0.0, coarse=lim)


class TestOvershoot:
    def test_full_sine_period(self):
        t = np.arange(0, 1.0001, 1e-3)
        assert overshoot(t, np.sin(2 * math.pi * t), 0.0,
                         1.0) == pytest.approx(2.0, abs=1e-5)

    def test_ramp_exact(self):
        t = np.arange(0, 10.001, 0.01)
        assert overshoot(t, 0.3 * t, 2.0, 6.0) == pytest.approx(1.2)

    def test_constant_is_zero(self):
        t = np.arange(0, 1, 0.01)
        assert overshoot(t, np.full_like(t, 5.0), 0.0, 1.0) == 0.0

    def test_empty_window(self):
        t = np.arange(0, 1, 0.01)
        with pytest.raises(ValueError, match="empty"):
            overshoot(t, t, 5.0, 6.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.floats(min_value=-10, max_value=10),
           st.floats(min_value=1e-2, max_value=100))
    def test_offset_invariant_and_scale_equivariant(self, seed, c, a):
        rng = np.random.default_rng(seed)
        t = np.arange(0, 1, 0.01)
        x = rng.standard_normal(len(t)).cumsum()
        base = overshoot(t, x, 0.0, 1.0)
        assert overshoot(t, x + c, 0.0, 1.0) == pytest.approx(base,
                                                              abs=1e-12)
        assert overshoot(t, a * x, 0.0, 1.0) == pytest.approx(a * base,
                                                              rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_monotone_in_window(self, seed):
        rng = np.random.default_rng(seed)
        t = np.arange(0, 2, 0.01)
        x = rng.standard_normal(len(t)).cumsum()
        assert overshoot(t, x, 0.0, 1.0) <= overshoot(t, x, 0.0, 2.0)


class TestLocalMaxima:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 3), max_size=30))
    def test_matches_scipy_find_peaks(self, values):
        # small integer ranges make plateaus, edge plateaus and ties common
        x = np.array(values, dtype=float)
        np.testing.assert_array_equal(local_maxima(x), find_peaks(x)[0])

    def test_plateau_midpoint_rounds_down(self):
        x = np.array([0.0, 2.0, 2.0, 2.0, 2.0, 1.0, 3.0, 3.0, 3.0, 0.0])
        np.testing.assert_array_equal(local_maxima(x), [2, 7])

    def test_cli_import_leaves_out_scipy_signal(self, fresh_modules):
        # scipy.signal (and scipy.stats with it) dominated the start-up time
        assert "scipy.signal" not in fresh_modules("import cfsync.cli")


class TestFitDamping:
    def test_pure_exponential_fallback_exact(self):
        t = np.arange(0, 8, 1e-3)
        x = 1.0 + 3.0 * np.exp(-0.5 * t)
        fit = fit_damping(t, x, 1.0, 0.0)
        assert fit.method == "fallback"
        assert fit.sigma == pytest.approx(0.5, abs=1e-6)
        assert fit.amplitude == pytest.approx(3.0, abs=1e-6)
        assert fit.ok

    def test_oscillatory_envelope(self):
        t = np.arange(0, 10, 1e-3)
        x = 2.0 * np.exp(-0.5 * t) * np.cos(10 * t)
        fit = fit_damping(t, x, 0.0, 0.0)
        assert fit.method == "envelope"
        assert fit.sigma == pytest.approx(0.5, rel=0.05)
        assert fit.ok

    def test_fully_damped_sentinel(self):
        t = np.arange(0, 1, 1e-3)
        fit = fit_damping(t, np.full_like(t, 2.5), 2.5, 0.0)
        assert fit.fully_damped
        assert math.isinf(fit.sigma)
        assert fit.ok

    def test_growing_signal_gives_negative_sigma(self):
        t = np.arange(0, 3, 1e-3)
        fit = fit_damping(t, np.exp(0.4 * t), 0.0, 0.0)
        assert fit.sigma == pytest.approx(-0.4, abs=1e-6)

    def test_nonexponential_flagged_unfit(self):
        rng = np.random.default_rng(7)
        t = np.arange(0, 10, 1e-2)
        x = rng.uniform(0.5, 1.5, len(t))  # no decay structure at all
        fit = fit_damping(t, x, 0.0, 0.0)
        assert not fit.ok

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.01, max_value=5.0),
           st.floats(min_value=1e-3, max_value=10.0))
    def test_recovery_sweep(self, sigma, amp):
        t_end = min(5.0, 15.0 / sigma)
        t = np.arange(0, t_end, 1e-3)
        fit = fit_damping(t, amp * np.exp(-sigma * t), 0.0, 0.0)
        assert fit.sigma == pytest.approx(sigma, rel=1e-6)
        assert fit.amplitude == pytest.approx(amp, rel=1e-6)


class TestNodeMetrics:
    def test_rates_match_reference_pairings(self):
        t = np.arange(0, 20.001, 1e-2)
        eps = np.zeros_like(t)
        omega = np.full_like(t, 377.0)
        m = node_metrics(t, eps, omega, verdict(1, 10.2, 14.27),
                         SyncConfig(t_end=20.0))
        assert m.s_eps == pytest.approx(1 / 10.2)
        assert round(m.s_eps, 3) == 0.098
        assert m.s_omega == pytest.approx(1 / 14.27)
        assert round(m.s_omega, 2) == 0.07
        assert m.delta_tau == pytest.approx(4.07)

    def test_overshoot_window_stops_at_node_end(self):
        t = np.arange(0, 20.001, 1e-2)
        eps = np.where(t < 5.0, 1.0 - t / 5.0, 0.0)  # settles by t = 5
        eps = eps + np.where(t > 18.0, 9.9, 0.0)     # late spike
        omega = np.full_like(t, 377.0)
        m = node_metrics(t, eps, omega, verdict(1, 6.0, 6.0),
                         SyncConfig(t_end=20.0))
        assert m.overshoot_eps == pytest.approx(1.0)

    def test_unconverged_rates_are_none(self):
        t = np.arange(0, 10.001, 1e-2)
        m = node_metrics(t, np.zeros_like(t), np.full_like(t, 377.0),
                         verdict(1, None, 4.0, converged=False),
                         SyncConfig(t_end=10.0))
        assert m.s_eps is None and m.t_eps is None
        assert m.delta_tau is None
        assert m.s_omega == pytest.approx(0.25)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.1, max_value=50),
           st.floats(min_value=0.1, max_value=50))
    def test_rate_is_reciprocal_time(self, te, to):
        t = np.arange(0, 60.001, 0.1)
        m = node_metrics(t, np.zeros_like(t), np.zeros_like(t),
                         verdict(1, te, to), SyncConfig(t_end=60.0))
        assert m.s_eps * te == pytest.approx(1.0)
        assert m.s_omega * to == pytest.approx(1.0)


class TestSubnetMetrics:
    def make(self, verdicts, tol_s=1e-3):
        t = np.arange(0, 20.001, 0.1)
        z = np.zeros_like(t)
        ms = [node_metrics(t, z, z + 377.0, v, SyncConfig(t_end=20.0))
              for v in verdicts]
        return subnet_metrics("S", ms, verdicts, tol_s)

    def test_voltage_loop_slower_gives_negative_lag(self):
        # omega settles last (14.27 s) while eps is done by 10.4 s
        vs = [verdict(2, 10.2, 14.27), verdict(5, 10.4, 12.0),
              verdict(7, 10.27, 13.0)]
        sm = self.make(vs)
        assert sm.t_eps_max == pytest.approx(10.4)
        assert sm.t_omega_max == pytest.approx(14.27)
        assert sm.lag == pytest.approx(-3.87)

    def test_lag_none_when_any_member_unconverged(self):
        sm = self.make([verdict(1, 10.0, 11.0), verdict(2, None, 12.0)])
        assert sm.t_eps_max is None
        assert sm.lag is None

    def test_limit_diff_matrix(self):
        vs = [verdict(1, 1.0, 1.0, eps_lim=0.0, om_lim=377.0),
              verdict(2, 1.0, 1.0, eps_lim=0.3, om_lim=377.4)]
        sm = self.make(vs, tol_s=1e-3)
        assert sm.limit_diff.shape == (2, 2)
        np.testing.assert_allclose(np.diag(sm.limit_diff), 0.0)
        assert sm.limit_diff[0, 1] == pytest.approx(abs(0.3 + 0.4j))
        assert sm.limit_diff[0, 1] == sm.limit_diff[1, 0]
        assert not sm.locally_synced

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_limit_diff_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        vs = [verdict(i + 1, 1.0, 1.0, eps_lim=rng.uniform(-1, 1),
                      om_lim=377 + rng.uniform(-1, 1)) for i in range(4)]
        d = self.make(vs).limit_diff
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-12


class TestDisturbanceRegion:
    def setup_method(self):
        self.t = np.arange(0, 10.001, 0.01)
        self.cfg = SyncConfig(t_end=10.0, tol_eps=1e-4, tol_omega=1e-3)

    def signals(self, eps_hit, om_hit, n=5):
        """Bus i gets an eps (omega) excursion iff i in eps_hit (om_hit)."""
        eps = np.zeros((len(self.t), n))
        omega = np.full((len(self.t), n), 377.0)
        bump = np.exp(-((self.t - 1.0) ** 2) / 0.01)
        for i in eps_hit:
            eps[:, i - 1] += 0.05 * bump
        for i in om_hit:
            omega[:, i - 1] += 0.5 * bump
        return eps, omega

    def region(self, eps_hit, om_hit, convention="total_buses", n=5):
        eps, omega = self.signals(eps_hit, om_hit, n)
        return disturbance_region(
            self.t, eps, omega, list(range(1, n + 1)),
            np.zeros(n), np.full(n, 377.0), self.cfg,
            n_convention=convention)

    def test_sets_identified(self):
        r = self.region({1, 2}, {2, 3})
        assert r.disturbed_eps == {1, 2}
        assert r.disturbed_omega == {2, 3}
        assert r.s_inf == {1, 2, 3}

    def test_total_buses_convention(self):
        r = self.region({1, 2}, {2, 3}, "total_buses")
        assert r.n == 5
        assert r.r_inf == pytest.approx(3 / 5)
        assert r.d_inf == pytest.approx((3 / 5) / 3)

    def test_paper_literal_convention(self):
        r = self.region({1, 2}, {2, 3}, "paper_literal")
        assert r.n == 3
        assert r.r_inf == pytest.approx(1 / 3)   # only bus 2 hit in both
        assert r.d_inf == pytest.approx(1 / 9)

    def test_undisturbed_network(self):
        r = self.region(set(), set())
        assert r.s_inf == set()
        assert r.r_inf == 0.0 and r.d_inf == 0.0

    def test_unknown_convention_rejected(self):
        with pytest.raises(ValueError, match="n_convention"):
            self.region({1}, set(), "bogus")

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=1e-5, max_value=1e-3),
           st.floats(min_value=1e-5, max_value=1e-3),
           st.integers(0, 2**32 - 1))
    def test_disturbed_set_shrinks_with_tolerance(self, tol_lo, tol_hi,
                                                  seed):
        if tol_lo > tol_hi:
            tol_lo, tol_hi = tol_hi, tol_lo
        rng = np.random.default_rng(seed)
        n = 6
        eps = rng.normal(0, 2e-4, (len(self.t), n))
        omega = 377.0 + rng.normal(0, 2e-3, (len(self.t), n))
        out = {}
        for tol in (tol_lo, tol_hi):
            cfg = SyncConfig(t_end=10.0, tol_eps=tol, tol_omega=10 * tol)
            out[tol] = disturbance_region(
                self.t, eps, omega, list(range(1, n + 1)),
                np.zeros(n), np.full(n, 377.0), cfg)
        assert out[tol_hi].s_inf <= out[tol_lo].s_inf


class TestRowSpread:
    @pytest.mark.parametrize("m", [1, 2, 5, 40])
    def test_matches_the_full_difference_cube(self, monkeypatch, m):
        # a block size that leaves a short last block
        monkeypatch.setattr(sync_detector, "_PAIR_BLOCK", 7 * m * m - 1)
        rng = np.random.default_rng(m)
        z = rng.normal(size=(101, m)) + 1j * rng.normal(size=(101, m))
        z[3, 0] = -0.0
        full = np.abs(z[:, :, None] - z[:, None, :]).max(axis=(1, 2))
        assert row_diameters(z).tobytes() == full.tobytes()
