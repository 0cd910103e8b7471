import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cfsync import bundled_case_path
from cfsync.cf_estimator import estimate_complex_frequency
from cfsync.cli import main
from cfsync.fileio import (
    load_case,
    read_trajectory_csv,
    save_case,
    sha256_file,
    write_csv,
    write_trajectory_csv,
)
from cfsync.grid_model import Event

CASE = str(bundled_case_path("wscc9"))
SHED = str(bundled_case_path("wscc9_loadshed"))


@pytest.fixture(scope="module")
def simdir(tmp_path_factory):
    """One short load-shed run shared by the CLI tests."""
    d = tmp_path_factory.mktemp("cli_sim")
    rc = main(["simulate", "--case", SHED, "--t-end", "5.0",
               "--outdir", str(d)])
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def reportdir(simdir, tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_report")
    rc = main(["analyze", "--traj", str(simdir / "trajectory.csv"),
               "--case", SHED, "--outdir", str(d)])
    assert rc == 0
    return d


class TestSimulate:
    def test_outputs_exist_with_expected_columns(self, simdir):
        lines = (simdir / "trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("# events: 2")
        header = lines[1].split(",")
        assert len(header) == 1 + 2 * 9
        assert header[:3] == ["t", "v_1", "theta_1"]
        gen_header = (simdir / "trajectory_gen.csv").read_text() \
            .splitlines()[0]
        assert len(gen_header.split(",")) == 1 + 6 * 3
        manifest = json.loads((simdir / "trajectory_manifest.json")
                              .read_text())
        assert manifest["case_sha256"]
        assert manifest["sim_config"]["t_end"] == 5.0

    def test_rerun_is_byte_identical(self, simdir, tmp_path):
        rc = main(["simulate", "--case", SHED, "--t-end", "5.0",
                   "--outdir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "trajectory.csv").read_bytes() == \
            (simdir / "trajectory.csv").read_bytes()

    def test_replay_from_manifest_is_byte_identical(self, simdir, tmp_path):
        rc = main(["simulate",
                   "--from-manifest",
                   str(simdir / "trajectory_manifest.json"),
                   "--outdir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "trajectory.csv").read_bytes() == \
            (simdir / "trajectory.csv").read_bytes()

    def test_replay_of_an_edited_case_exits_2(self, tmp_path, capsys):
        case_path = tmp_path / "case.json"
        case_path.write_text(Path(CASE).read_text())
        run1 = tmp_path / "run1"
        assert main(["simulate", "--case", str(case_path), "--t-end", "0.5",
                     "--outdir", str(run1)]) == 0
        recorded = sha256_file(case_path)
        case = load_case(case_path)
        case.loads[0] = dataclasses.replace(case.loads[0], p=1.3)
        save_case(case, case_path)
        capsys.readouterr()
        rc = main(["simulate", "--from-manifest",
                   str(run1 / "trajectory_manifest.json"),
                   "--outdir", str(tmp_path / "run2")])
        assert rc == 2
        err = capsys.readouterr().err
        assert recorded in err and sha256_file(case_path) in err
        assert not (tmp_path / "run2" / "trajectory.csv").exists()

    def test_t_end_off_the_step_grid_exits_3(self, tmp_path, capsys):
        rc = main(["simulate", "--case", SHED, "--t-end", "0.0135",
                   "--dt", "0.002", "--outdir", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "t_end=0.0135" in err and "dt=0.002" in err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_repeated_line_trip_exits_2(self, tmp_path, capsys):
        case = load_case(CASE)
        case.events = [Event(1.0, "line_trip", {"from": 5, "to": 7}),
                       Event(2.0, "line_trip", {"from": 5, "to": 7})]
        path = tmp_path / "twice.json"
        save_case(case, path)
        rc = main(["simulate", "--case", str(path), "--t-end", "3.0",
                   "--outdir", str(tmp_path)])
        assert rc == 2
        assert "tripped twice" in capsys.readouterr().err

    def test_two_generators_on_one_bus_exits_2(self, tmp_path, capsys):
        # the network model holds one Norton shunt per generator bus, so
        # the case is an input error, not a numerical failure (exit 4)
        case = load_case(CASE)
        g2 = next(g for g in case.generators if g.bus == 2)
        half = dataclasses.replace(g2, s_machine=g2.s_machine / 2,
                                   p_set=g2.p_set / 2)
        case.generators = [g for g in case.generators if g.bus != 2] \
            + [half, half]
        path = tmp_path / "split.json"
        save_case(case, path)
        rc = main(["simulate", "--case", str(path), "--t-end", "1.0",
                   "--outdir", str(tmp_path)])
        assert rc == 2
        assert "bus 2: more than one generator" in capsys.readouterr().err

    def test_unconverged_trapezoidal_step_exits_4(self, tmp_path, capsys):
        case = load_case(SHED)
        case.generators = [dataclasses.replace(g, h=0.02 * g.h)
                           for g in case.generators]
        path = tmp_path / "stiff.json"
        save_case(case, path)
        rc = main(["simulate", "--case", str(path), "--t-end", "3.0",
                   "--dt", "0.02", "--integrator", "trapezoidal",
                   "--outdir", str(tmp_path)])
        assert rc == 4
        assert "did not converge" in capsys.readouterr().err

    def test_missing_case_exits_2(self, tmp_path, capsys):
        rc = main(["simulate", "--case", str(tmp_path / "nope.json"),
                   "--outdir", str(tmp_path)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_json_names_line_and_column(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"s_base": 100,\n  "f_nominal": }\n')
        rc = main(["simulate", "--case", str(bad), "--outdir",
                   str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    def test_bad_dt_exits_3(self, tmp_path):
        rc = main(["simulate", "--case", CASE, "--t-end", "1.0",
                   "--dt", "0.5", "--outdir", str(tmp_path)])
        assert rc == 3

    def test_record_every_not_dividing_the_steps_exits_3(self, tmp_path,
                                                         capsys):
        # 5 s at 1 ms is 5000 steps: every 3rd sample would end the
        # trajectory in a 2 ms step, which analyze rejects
        rc = main(["simulate", "--case", SHED, "--t-end", "5.0",
                   "--record-every", "3", "--outdir", str(tmp_path)])
        assert rc == 3
        assert "record_every" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_strided_trajectory_is_analyzable(self, tmp_path):
        rc = main(["simulate", "--case", SHED, "--t-end", "5.0",
                   "--record-every", "4", "--outdir", str(tmp_path)])
        assert rc == 0
        rc = main(["analyze", "--traj", str(tmp_path / "trajectory.csv"),
                   "--case", SHED, "--outdir", str(tmp_path)])
        assert rc == 0

    def test_outdir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CFSYNC_OUTDIR", str(tmp_path / "envout"))
        rc = main(["simulate", "--case", CASE, "--t-end", "0.1"])
        assert rc == 0
        assert (tmp_path / "envout" / "trajectory.csv").exists()


class TestAnalyze:
    def test_flat_trajectory_fully_synchronized(self, tmp_path):
        rc = main(["simulate", "--case", CASE, "--t-end", "4.0",
                   "--outdir", str(tmp_path)])
        assert rc == 0
        rc = main(["analyze", "--traj", str(tmp_path / "trajectory.csv"),
                   "--case", CASE, "--outdir", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["global"]["status"] == "synchronized"
        assert all(n["converged"] for n in report["nodes"].values())
        assert report["disturbance_region"]["s_inf"] == []
        assert sorted(report["subnets"]) == ["S1", "S2", "S3"]

    def test_loadshed_report_contents(self, reportdir):
        report = json.loads((reportdir / "report.json").read_text())
        region = report["disturbance_region"]
        # the shed touches every bus in this small meshed network
        assert sorted(region["s_inf"]) == list(range(1, 10))
        assert region["n_convention"] == "total_buses"
        assert region["n"] == 9
        for name, sv in report["subnets"].items():
            assert sorted(sv["member_buses"]) == sorted(
                json.loads(bundled_case_path("wscc9").read_text())
                ["subnets"][name])
        assert report["config"]["sync"]["t_event"] == 2.0

    def test_window_exceeding_span_exits_3(self, simdir, tmp_path, capsys):
        rc = main(["analyze", "--traj", str(simdir / "trajectory.csv"),
                   "--case", SHED, "--window", "10.0",
                   "--outdir", str(tmp_path)])
        assert rc == 3
        assert "window" in capsys.readouterr().err

    def test_non_uniform_time_grid_exits_2(self, simdir, tmp_path, capsys):
        traj = read_trajectory_csv(simdir / "trajectory.csv",
                                   omega_s=load_case(SHED).omega_s)
        traj.times = traj.times.copy()
        traj.times[3000:] += 0.5e-3  # one step of 1.5 ms in a 1 ms grid
        write_trajectory_csv(traj, tmp_path / "uneven.csv")
        rc = main(["analyze", "--traj", str(tmp_path / "uneven.csv"),
                   "--case", SHED, "--outdir", str(tmp_path)])
        assert rc == 2
        assert "non-uniform time grid" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_wrong_case_for_trajectory_exits_2(self, simdir, tmp_path):
        case = load_case(CASE)
        case.buses = case.buses[:-1]
        case.lines = [ln for ln in case.lines
                      if ln.from_bus != 9 and ln.to_bus != 9]
        case.subnets = {"S1": [2, 5, 7], "S2": [1, 4, 6], "S3": [3, 8]}
        small = tmp_path / "small.json"
        save_case(case, small)
        rc = main(["analyze", "--traj", str(simdir / "trajectory.csv"),
                   "--case", str(small), "--outdir", str(tmp_path)])
        assert rc == 2


class TestInertia:
    def test_sweep_peaks_strictly_decreasing(self, tmp_path):
        rc = main(["inertia", "--case", CASE, "--sweep", "1,2,4",
                   "--outdir", str(tmp_path)])
        assert rc == 0
        result = json.loads((tmp_path / "inertia.json").read_text())
        peaks = result["sweep"]["peak_abs_eps"]
        assert len(peaks) == 3
        assert peaks[0] > peaks[1] > peaks[2]
        header = (tmp_path / "hv_sweep.csv").read_text().splitlines()[0]
        assert len(header.split(",")) == 4

    def test_estimates_from_trajectory(self, simdir, tmp_path):
        rc = main(["inertia", "--case", SHED,
                   "--traj", str(simdir / "trajectory.csv"),
                   "--window", "2.005", "2.3",
                   "--outdir", str(tmp_path)])
        assert rc == 0
        result = json.loads((tmp_path / "inertia.json").read_text())
        case = load_case(SHED)
        ws = case.omega_s
        by_bus = {e["bus"]: e for e in result["estimates"]}
        for g in case.generators:
            est = by_bus[g.bus]
            # governors and damping act inside this window, so the match
            # is loose; the dedicated no-governor check lives elsewhere
            assert est["m"] == pytest.approx(2 * g.h / ws, rel=0.25)

    def test_default_window_starts_at_the_recorded_event(self, simdir,
                                                         tmp_path):
        # as analyze does; from t = 0 the window would end at the load
        # shed, with one sample of nonzero domega/dt per machine
        rc = main(["inertia", "--case", SHED,
                   "--traj", str(simdir / "trajectory.csv"),
                   "--outdir", str(tmp_path)])
        assert rc == 0
        result = json.loads((tmp_path / "inertia.json").read_text())
        assert result["window"] == [2.0, 4.0]

    def test_window_ending_at_the_event_fits_no_inertia(self, simdir,
                                                        tmp_path):
        rc = main(["inertia", "--case", SHED,
                   "--traj", str(simdir / "trajectory.csv"),
                   "--t-event", "0", "--outdir", str(tmp_path)])
        assert rc == 0
        result = json.loads((tmp_path / "inertia.json").read_text())
        assert result["window"] == [0.0, 2.0]
        for est in result["estimates"]:
            assert est["m"] is None
            assert "fewer than 2 samples" in est["m_error"]

    @pytest.mark.parametrize("t_end, dt, rows", [
        ("10.0", "2e-3", 5001),  # as many rows, twice the step
        ("3.0", "1e-3", 3001),   # fewer rows, the same step
    ], ids=["same_length", "shorter"])
    def test_generator_series_on_another_grid_exits_2(
            self, simdir, tmp_path, capsys, t_end, dt, rows):
        rc = main(["simulate", "--case", SHED, "--t-end", t_end, "--dt", dt,
                   "--outdir", str(tmp_path)])
        assert rc == 0
        capsys.readouterr()
        rc = main(["inertia", "--case", SHED,
                   "--traj", str(simdir / "trajectory.csv"),
                   "--gen", str(tmp_path / "trajectory_gen.csv"),
                   "--window", "2.005", "2.3", "--outdir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "different time grids" in err
        assert f"{rows} rows, step {float(dt)!r}" in err
        assert "5001 rows, step 0.001" in err
        assert not (tmp_path / "inertia.json").exists()

    @pytest.mark.parametrize("edit", ["drop_qe_3", "swap_omega_eq_1"])
    def test_malformed_generator_header_exits_2(self, simdir, tmp_path,
                                                capsys, edit):
        # without qe_3 the reader raised IndexError; with omega_1 and eq_1
        # swapped, names and values alike, it fitted e_q as the speed
        lines = (simdir / "trajectory_gen.csv").read_text().splitlines()
        cells = [line.split(",") for line in lines]
        assert cells[0][-1] == "qe_3" and cells[0][2:4] == ["omega_1",
                                                            "eq_1"]
        for row in cells:
            if edit == "drop_qe_3":
                del row[-1]
            else:
                row[2], row[3] = row[3], row[2]
        gen = tmp_path / "gen.csv"
        gen.write_text("\n".join(",".join(row) for row in cells) + "\n")
        rc = main(["inertia", "--case", SHED,
                   "--traj", str(simdir / "trajectory.csv"),
                   "--gen", str(gen), "--window", "2.005", "2.3",
                   "--outdir", str(tmp_path)])
        assert rc == 2
        assert "malformed generator header" in capsys.readouterr().err
        assert not (tmp_path / "inertia.json").exists()

    def test_no_inputs_exits_2(self, tmp_path, capsys):
        rc = main(["inertia", "--case", CASE, "--outdir", str(tmp_path)])
        assert rc == 2
        assert "--traj and/or --sweep" in capsys.readouterr().err

    @pytest.mark.parametrize("t_end, dt", [("0.0105", "0.002"),
                                           ("5.0", "0"), ("-1", "1e-3")])
    def test_sweep_off_the_step_grid_exits_3(self, tmp_path, capsys,
                                             t_end, dt):
        # a zero step used to raise ZeroDivisionError out of the command
        rc = main(["inertia", "--case", CASE, "--sweep", "1",
                   "--sweep-t-end", t_end, "--sweep-dt", dt,
                   "--outdir", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"t_end={float(t_end)}" in err and f"dt={float(dt)}" in err

    def test_collapsing_sweep_exits_3(self, tmp_path):
        rc = main(["inertia", "--case", CASE, "--sweep", "0.0001",
                   "--q-step", "-1000", "--outdir", str(tmp_path)])
        assert rc == 3


class TestPlotdata:
    def test_eps_csv_matches_estimator(self, simdir, reportdir, tmp_path):
        rc = main(["plotdata", "--report", str(reportdir / "report.json"),
                   "--traj", str(simdir / "trajectory.csv"),
                   "--kind", "eps", "--outdir", str(tmp_path)])
        assert rc == 0
        data = np.loadtxt(tmp_path / "eps.csv", delimiter=",", skiprows=1)
        case = load_case(SHED)
        traj = read_trajectory_csv(simdir / "trajectory.csv",
                                   omega_s=case.omega_s)
        series = estimate_complex_frequency(traj, smoothing_window=5)
        np.testing.assert_allclose(data[:, 1:], series.eps, atol=1e-12)

    @pytest.mark.parametrize("kind", ["omega", "subnet_spread", "damping"])
    def test_other_kinds_write_csv(self, simdir, reportdir, tmp_path, kind):
        rc = main(["plotdata", "--report", str(reportdir / "report.json"),
                   "--traj", str(simdir / "trajectory.csv"),
                   "--kind", kind, "--outdir", str(tmp_path)])
        assert rc == 0
        out = tmp_path / f"{kind}.csv"
        assert out.exists()
        assert out.read_text().splitlines()[0].startswith("t,")

    def test_subnet_spread_memory_stays_linear(self, tmp_path):
        # one subnet of 40 buses over 2,001 samples: the difference cube of
        # all member pairs at all samples alone would take
        # 2001 * 40 * 40 * 16 bytes = 51 MB
        n, m = 2001, 40
        rng = np.random.default_rng(0)
        buses = list(range(1, m + 1))
        v = 1.0 + 1e-3 * rng.normal(size=(n, m))
        theta = 1e-2 * rng.normal(size=(n, m))
        header = ["t"] + [f"{k}_{b}" for b in buses for k in ("v", "theta")]
        write_csv(tmp_path / "traj.csv", header,
                  [np.arange(n) * 1e-3,
                   np.stack([v, theta], axis=2).reshape(n, -1)],
                  comment="events: ")
        report = {"config": {"estimator": {"omega_s": 376.99111843077515,
                                           "smoothing_window": 5}},
                  "nodes": {str(b): {} for b in buses},
                  "subnets": {"S1": {"member_buses": buses}}}
        (tmp_path / "report.json").write_text(json.dumps(report))
        tracemalloc.start()
        try:
            rc = main(["plotdata", "--report", str(tmp_path / "report.json"),
                       "--traj", str(tmp_path / "traj.csv"),
                       "--kind", "subnet_spread", "--outdir", str(tmp_path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_hv_sweep_kind_exits_2(self, reportdir, tmp_path):
        # the H_v sweep has one path: inertia --sweep
        rc = main(["plotdata", "--report", str(reportdir / "report.json"),
                   "--kind", "hv_sweep", "--outdir", str(tmp_path)])
        assert rc == 2
        assert not (tmp_path / "hv_sweep.csv").exists()

    def test_unknown_kind_lists_valid_ones(self, reportdir, tmp_path,
                                           capsys):
        rc = main(["plotdata", "--report", str(reportdir / "report.json"),
                   "--kind", "bogus", "--outdir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        for kind in ("eps", "omega", "subnet_spread", "damping"):
            assert kind in err


class TestRoundTrips:
    def test_case_json_round_trip(self, tmp_path):
        case = load_case(SHED)
        out = tmp_path / "copy.json"
        save_case(case, out)
        again = load_case(out)
        assert again == case

    def test_trajectory_csv_round_trip_exact(self, tmp_path, flat_traj):
        out = tmp_path / "traj.csv"
        write_trajectory_csv(flat_traj, out)
        back = read_trajectory_csv(out, omega_s=flat_traj.omega_s)
        np.testing.assert_array_equal(back.times, flat_traj.times)
        np.testing.assert_array_equal(back.v, flat_traj.v)
        np.testing.assert_array_equal(back.theta, flat_traj.theta)
        assert back.bus_ids == flat_traj.bus_ids
        assert back.event_times == flat_traj.event_times
