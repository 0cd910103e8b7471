import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import fsolve

from cfsync import bundled_case_path
from cfsync.grid_model import (
    BusSpec,
    CaseError,
    Event,
    GeneratorSpec,
    LineSpec,
    LoadSpec,
    NetworkCase,
    PowerFlowError,
    apply_event,
    build_ybus,
    load_admittances,
    solve_power_flow,
)


def ybus_without_line(case, key):
    """Y-bus of ``case`` assembled with line ``key`` out of service."""
    lines = [dataclasses.replace(ln, in_service=False) if ln.key == key
             else ln for ln in case.lines]
    return build_ybus(dataclasses.replace(case, lines=lines))


def two_bus_case(load_p=0.0, load_q=0.0, x=0.1):
    return NetworkCase(
        s_base=100.0, f_nominal=60.0,
        buses=[
            BusSpec(1, "slack", 230.0, "A", v_set=1.0),
            BusSpec(2, "pq", 230.0, "A"),
        ],
        lines=[LineSpec(1, 2, 0.0, x, 0.0)],
        generators=[GeneratorSpec(1, h=3.0, d=0.0, xdp=0.3,
                                  s_machine=100.0)],
        loads=[LoadSpec(2, load_p, load_q)] if load_p or load_q else [],
        subnets={"A": [1, 2]},
    )


class TestBuildYbus:
    def test_single_branch_by_hand(self):
        y = build_ybus(two_bus_case())
        expected = np.array([[-10j, 10j], [10j, -10j]])
        np.testing.assert_allclose(y, expected, atol=1e-14)

    def test_zero_lines_gives_zero_matrix(self):
        case = two_bus_case()
        case.lines = []
        y = build_ybus(case)
        assert y.shape == (2, 2)
        assert np.all(y == 0)

    def test_wscc_entry_matches_independent_assembly(self, wscc9):
        # oracle: assemble the (4,5) entry straight from the shipped JSON
        raw = json.loads(bundled_case_path("wscc9").read_text())
        line45 = next(l for l in raw["lines"]
                      if {l["from"], l["to"]} == {4, 5})
        expected = -1.0 / complex(line45["r"], line45["x"])
        y = build_ybus(wscc9)
        idx = wscc9.bus_index()
        assert y[idx[4], idx[5]] == pytest.approx(expected, abs=1e-14)

    def test_out_of_service_line_contributes_nothing(self, wscc9):
        y_full = build_ybus(wscc9)
        y_out = ybus_without_line(wscc9, (5, 7))
        assert not np.allclose(y_full, y_out)
        idx = wscc9.bus_index()
        assert y_out[idx[5], idx[7]] == 0

    def test_duplicate_bus_ids_rejected(self):
        case = two_bus_case()
        case.buses = [case.buses[0], case.buses[0]]
        with pytest.raises(CaseError, match="duplicate"):
            build_ybus(case)

    def test_missing_endpoint_rejected(self):
        case = two_bus_case()
        case.lines = [LineSpec(1, 99, 0.0, 0.1)]
        with pytest.raises(CaseError):
            build_ybus(case)


@st.composite
def random_cases(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    buses = [BusSpec(i + 1, "slack" if i == 0 else "pq", 230.0, "A",
                     v_set=1.0 if i == 0 else None) for i in range(n)]
    lines = [LineSpec(i + 1, i + 2, float(rng.uniform(0, 0.05)),
                      float(rng.uniform(0.01, 0.3)), 0.0)
             for i in range(n - 1)]
    extra = draw(st.integers(0, 3))
    for _ in range(extra):
        a, b = rng.choice(n, size=2, replace=False) + 1
        lines.append(LineSpec(int(a), int(b), float(rng.uniform(0, 0.05)),
                              float(rng.uniform(0.01, 0.3)), 0.0))
    return NetworkCase(100.0, 60.0, buses, lines,
                       [GeneratorSpec(1, 3.0, 0.0, 0.3, 100.0)], [],
                       {"A": [b.id for b in buses]})


class TestYbusProperties:
    @settings(max_examples=50, deadline=None)
    @given(random_cases())
    def test_symmetry_and_row_sums(self, case):
        y = build_ybus(case)
        np.testing.assert_array_equal(y, y.T)  # tap = 1 everywhere: exact
        np.testing.assert_allclose(y.sum(axis=1), 0.0, atol=1e-12)

    def test_tap_breaks_symmetry_consistently(self):
        case = two_bus_case()
        case.lines = [LineSpec(1, 2, 0.0, 0.1, 0.0, tap=1.05)]
        y = build_ybus(case)
        np.testing.assert_allclose(y[0, 1], y[1, 0])  # off-diagonals equal
        assert y[0, 0] != y[1, 1]


def _independent_pf_oracle(raw):
    """Solve the WSCC power flow with fsolve on mismatch equations assembled
    straight from the case JSON. Fully independent of grid_model internals."""
    ids = [b["id"] for b in raw["buses"]]
    pos = {b: i for i, b in enumerate(ids)}
    n = len(ids)
    y = np.zeros((n, n), complex)
    for ln in raw["lines"]:
        i, j = pos[ln["from"]], pos[ln["to"]]
        ys = 1 / complex(ln["r"], ln["x"])
        y[i, i] += ys + 0.5j * ln["b_sh"]
        y[j, j] += ys + 0.5j * ln["b_sh"]
        y[i, j] -= ys
        y[j, i] -= ys
    kinds = {b["id"]: b["kind"] for b in raw["buses"]}
    vset = {b["id"]: b.get("v_set") for b in raw["buses"]}
    p_spec = np.zeros(n)
    q_spec = np.zeros(n)
    for g in raw["generators"]:
        p_spec[pos[g["bus"]]] += g["p_set"]
    for ld in raw["loads"]:
        p_spec[pos[ld["bus"]]] -= ld["p"]
        q_spec[pos[ld["bus"]]] -= ld["q"]
    pv = [b for b in ids if kinds[b] == "pv"]
    pq = [b for b in ids if kinds[b] == "pq"]
    unknown_theta = pv + pq

    def mismatch(z):
        theta = np.zeros(n)
        vm = np.array([vset[b] if vset[b] else 1.0 for b in ids])
        for k, b in enumerate(unknown_theta):
            theta[pos[b]] = z[k]
        for k, b in enumerate(pq):
            vm[pos[b]] = z[len(unknown_theta) + k]
        vc = vm * np.exp(1j * theta)
        s = vc * np.conj(y @ vc)
        return np.concatenate([
            [s.real[pos[b]] - p_spec[pos[b]] for b in unknown_theta],
            [s.imag[pos[b]] - q_spec[pos[b]] for b in pq],
        ])

    z0 = np.concatenate([np.zeros(len(unknown_theta)), np.ones(len(pq))])
    z = fsolve(mismatch, z0, xtol=1e-12)
    theta = np.zeros(n)
    vm = np.array([vset[b] if vset[b] else 1.0 for b in ids])
    for k, b in enumerate(unknown_theta):
        theta[pos[b]] = z[k]
    for k, b in enumerate(pq):
        vm[pos[b]] = z[len(unknown_theta) + k]
    return vm, theta


class TestPowerFlow:
    def test_no_load_flat(self):
        sol = solve_power_flow(two_bus_case())
        np.testing.assert_allclose(sol.v, [1.0, 1.0])
        np.testing.assert_allclose(sol.theta, [0.0, 0.0])
        assert sol.iterations == 1

    def test_wscc_converges_and_matches_oracle(self, wscc9):
        sol = solve_power_flow(wscc9)
        assert sol.iterations <= 6
        assert sol.max_mismatch < 1e-8
        raw = json.loads(bundled_case_path("wscc9").read_text())
        vm, theta = _independent_pf_oracle(raw)
        np.testing.assert_allclose(sol.v, vm, atol=1e-6)
        np.testing.assert_allclose(sol.theta, theta, atol=1e-6)

    def test_no_slack_is_an_error(self):
        case = two_bus_case()
        case.buses = [BusSpec(1, "pv", 230.0, "A", v_set=1.0),
                      case.buses[1]]
        with pytest.raises(CaseError, match="no slack"):
            solve_power_flow(case)

    def test_disconnected_bus_named(self):
        case = two_bus_case()
        case.buses = case.buses + [BusSpec(3, "pq", 230.0, "A")]
        case.subnets = {"A": [1, 2, 3]}
        with pytest.raises(PowerFlowError, match="bus 3"):
            solve_power_flow(case)

    def test_residual_reproduces_specified_injections(self, wscc9):
        sol = solve_power_flow(wscc9)
        y = build_ybus(wscc9)
        vc = sol.v * np.exp(1j * sol.theta)
        s = vc * np.conj(y @ vc)
        idx = wscc9.bus_index()
        for ld in wscc9.loads:  # all loads sit at pq buses in this case
            i = idx[ld.bus]
            assert s.real[i] == pytest.approx(-ld.p, abs=1e-8)
            assert s.imag[i] == pytest.approx(-ld.q, abs=1e-8)


class TestApplyEvent:
    def test_load_scale_halves_admittance_only(self, wscc9):
        sol = solve_power_flow(wscc9)
        ybus = build_ybus(wscc9)
        adm = load_admittances(wscc9, sol)
        ev = Event(2.0, "load_scale",
                   {"bus": 6, "p_factor": 0.5, "q_factor": 0.5})
        y2, adm2 = apply_event(ybus, adm, ev, wscc9)
        i = wscc9.bus_index()[6]
        assert adm2[i] == pytest.approx(0.5 * adm[i])
        np.testing.assert_array_equal(y2, ybus)

    def test_line_trip_matches_reassembly(self, wscc9):
        ybus = build_ybus(wscc9)
        adm = np.zeros(9, complex)
        ev = Event(1.0, "line_trip", {"from": 5, "to": 7})
        y2, _ = apply_event(ybus, adm, ev, wscc9)
        oracle = ybus_without_line(wscc9, (5, 7))
        np.testing.assert_allclose(y2, oracle, atol=1e-15)

    def test_trip_then_readd_restores(self, wscc9):
        ybus = build_ybus(wscc9)
        adm = np.zeros(9, complex)
        ev = Event(1.0, "line_trip", {"from": 4, "to": 6})
        y2, _ = apply_event(ybus, adm, ev, wscc9)
        line_contrib = ybus - ybus_without_line(
            wscc9, (4, 6))
        restored = y2 + line_contrib
        assert np.max(np.abs(restored - ybus)) < 1e-14

    def test_q_injection_step(self, wscc9):
        ybus = build_ybus(wscc9)
        adm = np.zeros(9, complex)
        ev = Event(0.0, "q_injection_step", {"bus": 5, "dq": 0.2})
        y2, adm2 = apply_event(ybus, adm, ev, wscc9)
        assert adm2[wscc9.bus_index()[5]] == 0.2j
        np.testing.assert_array_equal(y2, ybus)

    def test_unknown_bus_rejected(self, wscc9):
        ybus = build_ybus(wscc9)
        ev = Event(0.0, "load_scale",
                   {"bus": 99, "p_factor": 0.5, "q_factor": 0.5})
        with pytest.raises(CaseError, match="unknown bus"):
            apply_event(ybus, np.zeros(9, complex), ev, wscc9)


class TestValidation:
    @pytest.mark.parametrize("v_set", [0.0, -1.0])
    def test_non_positive_v_set_rejected(self, v_set):
        case = two_bus_case()
        case.buses[0] = dataclasses.replace(case.buses[0], v_set=v_set)
        with pytest.raises(CaseError, match="bus 1: v_set must be > 0"):
            case.validate()

    def test_subnets_must_cover_buses(self):
        case = two_bus_case()
        case.subnets = {"A": [1]}
        with pytest.raises(CaseError, match="cover"):
            case.validate()

    def test_event_referencing_unknown_line(self):
        case = two_bus_case()
        case.events = [Event(1.0, "line_trip", {"from": 1, "to": 3})]
        with pytest.raises(CaseError, match="unknown line"):
            case.validate()

    @pytest.mark.parametrize("second", [(5, 7), (7, 5)])
    def test_second_trip_of_a_line_rejected(self, wscc9, second):
        case = dataclasses.replace(
            wscc9, events=[Event(1.0, "line_trip", {"from": 5, "to": 7})])
        case.validate()
        case.events.append(Event(2.0, "line_trip",
                                 {"from": second[0], "to": second[1]}))
        with pytest.raises(CaseError, match="tripped twice"):
            case.validate()

    def test_trip_of_out_of_service_line_rejected(self, wscc9):
        lines = [dataclasses.replace(ln, in_service=False)
                 if ln.key == (5, 7) else ln for ln in wscc9.lines]
        case = dataclasses.replace(
            wscc9, lines=lines,
            events=[Event(1.0, "line_trip", {"from": 7, "to": 5})])
        with pytest.raises(CaseError, match="out of service"):
            case.validate()


class TestGeneratorBuses:
    def test_two_generators_on_one_bus_rejected(self, wscc9):
        g2 = next(g for g in wscc9.generators if g.bus == 2)
        half = dataclasses.replace(g2, s_machine=g2.s_machine / 2,
                                   p_set=g2.p_set / 2)
        case = dataclasses.replace(
            wscc9, generators=[g for g in wscc9.generators if g.bus != 2]
            + [half, half])
        with pytest.raises(CaseError, match="bus 2: more than one generator"):
            case.validate()
