import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfsync.cf_estimator import estimate_complex_frequency
from cfsync.dynamics import step_count, step_index
from cfsync.inertia import (
    CapacitorBusModel,
    CapacitorSweepResult,
    EstimationError,
    estimate_frequency_inertia,
    estimate_voltage_inertia,
    generalized_inertia_series,
    simulate_capacitor_bus,
)


def stretched_grid():
    """A 1 ms grid with one 2 ms step, after t = 0.5 s."""
    t = np.arange(0, 1, 1e-3)
    t[501:] += 1e-3
    return t


NON_UNIFORM = r"non-uniform time grid: step 0\.002\d* at t = 0\.5 "


class TestFrequencyInertia:
    def test_synthetic_exact(self):
        t = np.arange(0, 2, 1e-3)
        omega = 377.0 + 0.5 * t ** 2  # omega_dot = t
        dp = 3.7 * t
        m, res = estimate_frequency_inertia(t, omega, dp)
        assert m == pytest.approx(3.7, rel=1e-4)
        assert res < 1e-3  # only edge-stencil gradient error remains

    def test_window_restricts_samples(self):
        t = np.arange(0, 2, 1e-3)
        omega = 377.0 + 0.5 * t ** 2
        dp = 3.7 * t
        dp[t > 1.5] = 0.0  # corrupt the tail, then exclude it
        m, _ = estimate_frequency_inertia(t, omega, dp, window=(0.1, 1.4))
        assert m == pytest.approx(3.7, rel=1e-4)

    def test_flat_frequency_is_an_error(self):
        t = np.arange(0, 1, 1e-3)
        with pytest.raises(EstimationError, match="no frequency excursion"):
            estimate_frequency_inertia(t, np.full_like(t, 377.0),
                                       np.ones_like(t))

    def test_empty_window_is_an_error(self):
        t = np.arange(0, 1, 1e-3)
        with pytest.raises(EstimationError):
            estimate_frequency_inertia(t, 377.0 + t ** 2, t,
                                       window=(5.0, 6.0))

    def test_one_excursion_sample_is_an_error(self):
        # a step at t = 0.5 s gives domega/dt at two samples, and the
        # window holds only the first: any dp fits it with zero residual
        t = np.arange(0, 1, 1e-3)
        omega = 377.0 + np.where(t >= 0.5, 1e-3, 0.0)
        with pytest.raises(EstimationError, match="fewer than 2 samples"):
            estimate_frequency_inertia(t, omega, np.ones_like(t),
                                       window=(0.0, 0.4995))

    def test_non_uniform_grid_names_the_step(self):
        t = stretched_grid()
        with pytest.raises(ValueError, match=NON_UNIFORM):
            estimate_frequency_inertia(t, 377.0 + t ** 2, t)

    def test_two_samples_are_too_few(self):
        t = np.array([2.005, 2.006])
        with pytest.raises(EstimationError,
                           match="at least 3 samples, got 2"):
            estimate_frequency_inertia(t, 377.0 + t, t)

    def test_recovers_machine_inertia_from_simulation(self, wscc9_loadshed,
                                                      loadshed_traj_nogov):
        traj = loadshed_traj_nogov
        ws = traj.omega_s
        # first post-event swing; start one sample late so the gradient
        # stencil never straddles the step discontinuity
        window = (2.005, 2.3)
        for k, gen in enumerate(wscc9_loadshed.generators):
            dp = traj.p_m[:, k] - traj.p_e[:, k]
            m, res = estimate_frequency_inertia(traj.times,
                                                traj.omega[:, k], dp,
                                                window=window)
            assert m == pytest.approx(2 * gen.h / ws, rel=0.02)
            assert res < 0.05


class TestVoltageInertia:
    def test_synthetic_exact_gain_two(self):
        t = np.arange(0, 1, 1e-3)
        eps = 0.05 * np.sin(3 * t)
        h_v, res = estimate_voltage_inertia(t, eps, 2.0 * eps)
        assert h_v == pytest.approx(2.0, rel=1e-12)
        assert res < 1e-12

    def test_flat_eps_is_an_error(self):
        t = np.arange(0, 1, 1e-3)
        with pytest.raises(EstimationError, match="no voltage excursion"):
            estimate_voltage_inertia(t, np.zeros_like(t), np.ones_like(t))

    def test_one_excursion_sample_is_an_error(self):
        t = np.arange(0, 1, 1e-3)
        eps = np.where(np.arange(len(t)) == 500, 0.05, 0.0)
        with pytest.raises(EstimationError, match="fewer than 2 samples"):
            estimate_voltage_inertia(t, eps, np.ones_like(t))

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.integers(0, 2**32 - 1))
    def test_exact_linear_relation_recovered(self, gain, seed):
        rng = np.random.default_rng(seed)
        t = np.arange(0, 1, 1e-2)
        eps = rng.normal(0, 0.1, len(t))
        h_v, res = estimate_voltage_inertia(t, eps, gain * eps)
        assert h_v == pytest.approx(gain, rel=1e-9)
        assert res < 1e-9


class TestGeneralizedInertiaSeries:
    def test_real_axis_substitution(self):
        t = np.arange(0, 1, 1e-2)
        eps = np.full_like(t, 0.05)
        omega = np.full_like(t, 377.0)
        zeta = generalized_inertia_series(2.0, 123.0, t, eps, omega)
        np.testing.assert_allclose(zeta.real, 0.1, atol=1e-12)
        np.testing.assert_allclose(zeta.imag, 0.0, atol=1e-9)

    def test_matches_power_imbalance_components(self):
        t = np.arange(0, 2, 1e-3)
        eps = 0.02 * np.cos(4 * t)
        omega = 377.0 + 0.3 * np.sin(2 * t)
        h_v, m = 1.7, 0.04
        zeta = generalized_inertia_series(h_v, m, t, eps, omega)
        np.testing.assert_allclose(zeta.real, h_v * eps, atol=1e-12)
        interior = slice(2, -2)
        np.testing.assert_allclose(zeta.imag[interior],
                                   m * 0.6 * np.cos(2 * t)[interior],
                                   atol=1e-5)

    def test_non_uniform_grid_names_the_step(self):
        t = stretched_grid()
        with pytest.raises(ValueError, match=NON_UNIFORM):
            generalized_inertia_series(1.0, 1.0, t, t, 377.0 + t ** 2)

    def test_two_samples_are_too_few(self):
        t = np.array([0.0, 1e-3])
        with pytest.raises(ValueError,
                           match="at least 3 samples, got 2") as err:
            generalized_inertia_series(1.0, 1.0, t, t, 377.0 + t)
        assert type(err.value) is ValueError

    def test_misaligned_series_rejected(self):
        t = np.arange(0, 1, 1e-2)
        with pytest.raises(ValueError, match="sample grid"):
            generalized_inertia_series(1.0, 1.0, t, t[:-1], t)

    def test_nonfinite_inertia_rejected(self):
        t = np.arange(0, 1, 1e-2)
        with pytest.raises(ValueError, match="finite"):
            generalized_inertia_series(math.inf, 1.0, t, t, t)


def default_model(**kw):
    args = dict(s_base=100.0, v0=1.0, q_step=10.0, t_step=0.5,
                q_load_coeff=50.0)
    args.update(kw)
    return CapacitorBusModel(**args)


class TestCapacitorBus:
    def test_pre_step_equilibrium_is_exact(self):
        out = simulate_capacitor_bus(default_model(), [1.0], 2.0, 1e-3)
        pre = out.times < 0.5 - 1e-12
        np.testing.assert_array_equal(out.v[pre, 0], 1.0)
        np.testing.assert_array_equal(out.eps[pre, 0], 0.0)

    def test_initial_eps_ratios(self):
        model = default_model()
        out = simulate_capacitor_bus(model, [1.0, 2.0, 4.0], 2.0, 1e-3)
        i0 = np.searchsorted(out.times, model.t_step)
        e0 = out.eps[i0]
        expected = model.q_step / (2 * model.s_base)
        assert e0[0] == pytest.approx(expected, abs=1e-15)
        assert e0[1] / e0[0] == pytest.approx(0.5, abs=1e-9)
        assert e0[2] / e0[0] == pytest.approx(0.25, abs=1e-9)

    def test_settles_at_new_equilibrium(self):
        model = default_model()
        out = simulate_capacitor_bus(model, [0.5], 20.0, 1e-3)
        v_inf = math.sqrt((model.q_load_coeff * model.v0 ** 2 +
                           model.q_step) / model.q_load_coeff)
        assert out.v[-1, 0] == pytest.approx(v_inf, rel=1e-9)
        assert abs(out.eps[-1, 0]) < 1e-10

    def test_peak_eps_ordered_by_inertia(self):
        out = simulate_capacitor_bus(default_model(), [1.0, 2.0, 4.0, 8.0],
                                     2.0, 1e-3)
        peaks = np.abs(out.eps).max(axis=0)
        assert np.all(np.diff(peaks) < 0)

    @pytest.mark.parametrize("h_v", [0.5, 1.0, 2.0, 4.0, 8.0])
    def test_fit_recovers_input_inertia(self, h_v):
        model = default_model()
        out = simulate_capacitor_bus(model, [h_v], 5.0, 1e-3)
        q_m = model.q_load_coeff * model.v0 ** 2 + np.where(
            out.times >= model.t_step - 1e-12, model.q_step, 0.0)
        dq = (q_m - model.q_load_coeff * out.v[:, 0] ** 2) / (
            2 * model.s_base)
        fitted, res = estimate_voltage_inertia(out.times, out.eps[:, 0], dq)
        assert fitted == pytest.approx(h_v, rel=0.01)
        assert res < 0.01

    def test_fit_from_voltage_alone(self):
        # same recovery but with eps re-derived from v, as a field
        # measurement would be
        model = default_model()
        h_v = 2.0
        out = simulate_capacitor_bus(model, [h_v], 5.0, 1e-3)
        eps = np.gradient(np.log(out.v[:, 0]), out.times, edge_order=2)
        q_m = model.q_load_coeff * model.v0 ** 2 + np.where(
            out.times >= model.t_step - 1e-12, model.q_step, 0.0)
        dq = (q_m - model.q_load_coeff * out.v[:, 0] ** 2) / (
            2 * model.s_base)
        fitted, _ = estimate_voltage_inertia(out.times, eps, dq,
                                             window=(0.6, 4.0))
        assert fitted == pytest.approx(h_v, rel=0.01)

    @pytest.mark.parametrize("t_end", [0.0135, 0.0105])
    def test_t_end_must_be_whole_steps(self, t_end):
        with pytest.raises(ValueError, match=rf"t_end={t_end} .* dt=0.002"):
            simulate_capacitor_bus(default_model(), [1.0], t_end, 0.002)

    def test_nonpositive_h_v_rejected(self):
        with pytest.raises(ValueError, match="h_v"):
            simulate_capacitor_bus(default_model(), [1.0, -2.0], 1.0, 1e-3)

    def test_voltage_collapse_reported_with_time(self):
        model = default_model(q_step=-200.0)
        with pytest.raises(ValueError, match=r"voltage collapse at t="):
            simulate_capacitor_bus(model, [1e-3], 5.0, 1e-3)

    def test_blown_up_step_also_reported_as_collapse(self):
        # a steep collapse makes u = v^-2 overflow to inf within 8 ms, so v
        # reads 0; that must surface as a collapse error, not propagate
        # silently
        model = default_model(q_step=-1000.0)
        with pytest.raises(ValueError, match="voltage collapse"):
            simulate_capacitor_bus(model, [1e-4], 5.0, 1e-3)


def rk4_capacitor_bus(model, h_v_values, t_end, dt):
    """The oracle: the capacitor-bus ODE integrated by classical RK4, one
    H_v and one grid step at a time, with the same step snapping."""
    b = model.q_load_coeff
    q0 = b * model.v0 ** 2
    n = step_count(t_end, dt)
    times = np.arange(n + 1) * dt
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
            assert v > 0.0, f"the oracle collapses at t={times[i]}"
            v_out[i, j] = v
            eps_out[i, j] = (q - b * v * v) * gain
            if i < n:
                k1 = f(v, q)
                k2 = f(v + 0.5 * dt * k1, q)
                k3 = f(v + 0.5 * dt * k2, q)
                k4 = f(v + dt * k3, q)
                v = v + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return CapacitorSweepResult(times=times, h_v_values=list(h_v_values),
                                v=v_out, eps=eps_out)


# The largest gaps between the closed form and the RK4 oracle over the
# cases below were 1.5e-14 relative in v and 7.1e-15 absolute in eps; the
# bounds are twice those.
V_REL = 3e-14
EPS_ABS = 1.5e-14

SWEEP_CASES = {
    # scripts/run_hv_sweep.py's defaults
    "script": (CapacitorBusModel(s_base=1.0, v0=1.0, q_step=0.1, t_step=0.0,
                                 q_load_coeff=1.0), [0.5, 1, 2, 4, 8], 5.0),
    "criterion_6": (default_model(), [1.0, 2.0, 4.0], 5.0),
    # Q = B v0^2 + q_step = 0: inertia --sweep 1 --q-step -1
    "q_zero": (CapacitorBusModel(s_base=1.0, v0=1.0, q_step=-1.0,
                                 t_step=0.0, q_load_coeff=1.0), [1.0], 5.0),
    "step_before_start": (default_model(t_step=-0.3), [0.5, 2.0], 2.0),
    "step_after_end": (default_model(t_step=3.0), [0.5, 2.0], 2.0),
    "deep_decay": (default_model(q_step=-200.0), [1.0], 5.0),
    "v0_1.05": (default_model(v0=1.05), [1.0, 2.0], 5.0),
    # 1 / sqrt(1 / 0.9^2) is not 0.9, so this shows that the step row
    # holds v0 itself, not the closed form at s = 0
    "v0_0.9": (default_model(v0=0.9), [1.0], 2.0),
}


class TestClosedFormAgainstRK4:
    @pytest.fixture(params=list(SWEEP_CASES), scope="class")
    def pair(self, request):
        model, h_v_values, t_end = SWEEP_CASES[request.param]
        return (model,
                simulate_capacitor_bus(model, h_v_values, t_end, 1e-3),
                rk4_capacitor_bus(model, h_v_values, t_end, 1e-3))

    def test_same_grid(self, pair):
        _, out, ref = pair
        np.testing.assert_array_equal(out.times, ref.times)
        assert out.h_v_values == ref.h_v_values
        assert out.v.shape == out.eps.shape == ref.v.shape

    def test_rows_to_the_step_are_bit_for_bit(self, pair):
        model, out, ref = pair
        k = min(max(step_index(model.t_step, 1e-3), 0), len(out.times) - 1)
        np.testing.assert_array_equal(out.v[:k + 1], model.v0)
        np.testing.assert_array_equal(out.v[:k + 1], ref.v[:k + 1])
        np.testing.assert_array_equal(out.eps[:k + 1], ref.eps[:k + 1])

    def test_rows_after_the_step_within_bound(self, pair):
        _, out, ref = pair
        np.testing.assert_allclose(out.v, ref.v, rtol=V_REL, atol=0)
        np.testing.assert_allclose(out.eps, ref.eps, rtol=0, atol=EPS_ABS)


class TestClosedForm:
    def test_zero_net_supply_decays(self):
        # Q = 0 gives u = u0 + 2 gain B s, where a B/Q form would give NaN
        model, h_v_values, t_end = SWEEP_CASES["q_zero"]
        out = simulate_capacitor_bus(model, h_v_values, t_end, 1e-3)
        assert np.isfinite(out.eps).all()
        assert out.eps[100, 0] == pytest.approx(-0.5 / 1.1, abs=1e-15)
        assert np.all(np.diff(out.v[:, 0]) < 0)

    def test_nan_h_v_rejected(self):
        with pytest.raises(ValueError, match="h_v"):
            simulate_capacitor_bus(default_model(), [1.0, math.nan], 1.0,
                                   1e-3)
