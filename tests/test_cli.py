import collections
import dataclasses
import errno
import functools
import itertools
import json
import operator
import platform
import random
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cfsync import SimConfig, SyncConfig, bundled_case_path, cli
from cfsync.cf_estimator import estimate_complex_frequency, window_slice
from cfsync.cli import main
from cfsync.fileio import (
    build_manifest,
    load_case,
    read_generator_csv,
    read_trajectory_csv,
    save_case,
    sha256_file,
    write_csv,
    write_trajectory_csv,
)
from cfsync.grid_model import Event
from cfsync.inertia import generalized_inertia_series

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


@pytest.fixture(scope="module")
def shed_2ms(tmp_path_factory):
    """The bundled load shed simulated for 10 s at 2 ms steps."""
    d = tmp_path_factory.mktemp("cli_shed_2ms")
    assert main(["simulate", "--case", SHED, "--t-end", "10", "--dt", "0.002",
                 "--outdir", str(d)]) == 0
    return d / "trajectory.csv"


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    """A 3 s load shed at 10 ms steps and the report analyze makes of it."""
    d = tmp_path_factory.mktemp("cli_short_run")
    assert main(["simulate", "--case", SHED, "--t-end", "3.0", "--dt", "0.01",
                 "--outdir", str(d)]) == 0
    assert main(["analyze", "--traj", str(d / "trajectory.csv"),
                 "--case", SHED, "--outdir", str(d)]) == 0
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

    def test_replay_of_a_manifest_with_sync_config_null(self, simdir,
                                                       tmp_path):
        # manifests written before the key was dropped replay the same
        manifest = json.loads(
            (simdir / "trajectory_manifest.json").read_text())
        assert "sync_config" not in manifest
        manifest["sync_config"] = None
        (tmp_path / "old_manifest.json").write_text(json.dumps(manifest))
        assert main(["simulate", "--from-manifest",
                     str(tmp_path / "old_manifest.json"),
                     "--outdir", str(tmp_path)]) == 0
        assert (tmp_path / "trajectory.csv").read_bytes() == \
            (simdir / "trajectory.csv").read_bytes()

    def test_replay_from_another_directory(self, tmp_path, monkeypatch):
        # the manifest records the case as its resolved path, so a run
        # made with a relative --case replays from anywhere
        run1, run2 = tmp_path / "run1", tmp_path / "run2"
        run1.mkdir()
        (run1 / "wscc9.json").write_text(Path(CASE).read_text())
        monkeypatch.chdir(run1)
        assert main(["simulate", "--case", "wscc9.json", "--t-end", "0.5",
                     "--outdir", "."]) == 0
        manifest = json.loads((run1 / "trajectory_manifest.json").read_text())
        assert manifest["case_path"] == str((run1 / "wscc9.json").resolve())
        run2.mkdir()
        monkeypatch.chdir(run2)
        assert main(["simulate", "--from-manifest",
                     "../run1/trajectory_manifest.json", "--outdir", "."]) == 0
        assert (run2 / "trajectory.csv").read_bytes() == \
            (run1 / "trajectory.csv").read_bytes()

    def test_manifest_outputs_resolve_from_another_directory(
            self, tmp_path, monkeypatch):
        # outputs used to be recorded relative to the run's directory, as
        # ["w/trajectory.csv", ...], which resolve from neither w/ nor
        # anywhere else
        run, other = tmp_path / "run", tmp_path / "other"
        run.mkdir()
        other.mkdir()
        monkeypatch.chdir(run)
        assert main(["simulate", "--case", CASE, "--t-end", "0.1",
                     "--outdir", "w"]) == 0
        manifest = json.loads((run / "w" / "trajectory_manifest.json")
                              .read_text())
        monkeypatch.chdir(other)
        assert [Path(p).is_file() for p in manifest["outputs"]] == [True] * 2
        assert [Path(p).name for p in manifest["outputs"]] == [
            "trajectory.csv", "trajectory_gen.csv"]

    def test_manifest_records_the_numerical_environment(self, tmp_path,
                                                        monkeypatch):
        # what a run's bits rest on beyond its case and config; a replay
        # reads none of it and still writes the same bytes (criterion 10)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        run1, run2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["simulate", "--case", SHED, "--t-end", "1.0",
                     "--outdir", str(run1)]) == 0
        manifest = json.loads((run1 / "trajectory_manifest.json")
                              .read_text())
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["environment"] == {
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas["name"], "version": blas["version"]},
            "threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2",
                        "MKL_NUM_THREADS": None}}
        assert main(["simulate", "--from-manifest",
                     str(run1 / "trajectory_manifest.json"),
                     "--outdir", str(run2)]) == 0
        assert (run2 / "trajectory.csv").read_bytes() == \
            (run1 / "trajectory.csv").read_bytes()

    def test_manifest_blas_is_unknown_without_show_config_mode(
            self, monkeypatch):
        # numpy before 1.26 has show_config() alone
        monkeypatch.setattr(np, "show_config", lambda: None)
        env = build_manifest(SHED, SimConfig(t_end=1.0), [])["environment"]
        assert env["blas"] == {"name": "unknown", "version": "unknown"}

    def test_a_warning_is_one_line(self, tmp_path, capsys):
        # it used to print the module's path, line number and the source
        # line "warnings.warn(" too
        rc = main(["simulate", "--case", SHED, "--t-end", "0.1",
                   "--outdir", str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().err == (
            "warning: event at t=2.0 s is beyond t_end=0.1 s; ignored\n")

    def test_other_warnings_keep_their_filters(self, tmp_path, monkeypatch):
        # the suite turns warnings into errors; a numpy warning inside a
        # command still is one
        def overflow(args, outputs):
            return int(np.exp(np.array([1e3]))[0] > 0)

        monkeypatch.setattr(cli, "cmd_simulate", overflow)
        with pytest.raises(RuntimeWarning, match="overflow"):
            main(["simulate", "--case", SHED, "--outdir", str(tmp_path)])

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

    @pytest.mark.parametrize("manifest, message", [
        ({"case_path": "x"}, "manifest has no field sim_config"),
        ({"case_path": CASE, "sim_config": {"t_end": 0.5, "dt": 1e-3,
                                             "integrator": "rk4"}},
         "manifest has no field sim_config.record_every"),
        ({"case_path": CASE, "sim_config": {
            "t_end": "0.5", "dt": 1e-3, "integrator": "rk4",
            "record_every": 1}},
         "manifest field sim_config.t_end has the wrong type: '0.5'"),
        ({"case_path": 7}, "manifest field case_path has the wrong type"),
        ([], "manifest has no field case_path"),
    ], ids=["no_sim_config", "no_record_every", "t_end_a_string",
            "case_path_a_number", "not_an_object"])
    def test_malformed_manifest_exits_2(self, tmp_path, capsys, manifest,
                                        message):
        # a missing field used to raise KeyError: a traceback and exit 1
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        rc = main(["simulate", "--from-manifest", str(path),
                   "--outdir", str(tmp_path)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("path, edit, key", [
        (CASE, lambda d: d.update(buses=5), "case field buses:"),
        (CASE, lambda d: d["generators"][0].update(H="23"),
         "generators[0].H"),
        (CASE, lambda d: d["lines"][3].update(x="0.05"), "lines[3].x"),
        (CASE, lambda d: d["loads"][0].update(p="1.2"), "loads[0].p"),
        (CASE, lambda d: d.update(subnets=[]), "case field subnets:"),
        (CASE, lambda d: d["subnets"].update(S1=5), "subnets.S1"),
        (CASE, lambda d: d["lines"].__setitem__(0, 7), "lines[0]:"),
        (CASE, lambda d: d.update(s_base=None), "s_base"),
        (CASE, lambda d: d["lines"][0].update(in_service=0),
         "lines[0].in_service"),
        (CASE, lambda d: d["generators"][1].update(H=True),
         "generators[1].H"),
        (CASE, lambda d: d["generators"][2].update(governor={}),
         "generators[2].governor.r_gov"),
        (SHED, lambda d: d["events"][0].pop("bus"), "param 'bus'"),
        (SHED, lambda d: d["events"][0].pop("q_factor"), "param 'q_factor'"),
        (SHED, lambda d: d["events"].__setitem__(
            0, {"time": 2.0, "kind": "line_trip", "from": 5}), "param 'to'"),
        (SHED, lambda d: d["events"].__setitem__(
            0, {"time": 2.0, "kind": "q_injection_step", "bus": 8}),
         "param 'dq'"),
        (SHED, lambda d: d["events"][0].update(p_factor="0.5"),
         "param 'p_factor'"),
        (SHED, lambda d: d["events"][0].update(bus=True), "param 'bus'"),
        (SHED, lambda d: d["events"][0].update(time=float("nan")),
         "events[0].time"),
        (SHED, lambda d: d["generators"][0].update(H=float("inf")),
         "generators[0].H"),
        (SHED, lambda d: d.update(s_base=float("nan")), "s_base"),
        (SHED, lambda d: d["events"].__setitem__(
            0, {"time": 2.0, "kind": "q_injection_step", "bus": 8,
                "dq": float("nan")}), "param 'dq'"),
        (SHED, lambda d: d["lines"][0].update(in_servce=False),
         "lines[0].in_servce: unknown key, did you mean 'in_service'?"),
        (SHED, lambda d: d["lines"][0].update(r=0.0, x=0.0), "r and x"),
        (SHED, lambda d: d["lines"][0].update(tap=0), "tap"),
        (SHED, lambda d: d["generators"][0].update(s_machine=0),
         "s_machine"),
        (SHED, lambda d: d["generators"][0]["governor"].update(t_gov=0),
         "t_gov"),
        (SHED, lambda d: d["generators"][0].update(
            exciter={"k_ex": 50.0, "t_ex": 0}), "t_ex"),
        (SHED, lambda d: d["generators"].pop(0),
         "bus 1: slack bus has no generator"),
        (SHED, lambda d: d["generators"].pop(1),
         "bus 2: pv bus has no generator"),
        (SHED, lambda d: d["generators"].pop(2),
         "bus 3: pv bus has no generator"),
        (SHED, lambda d: d["generators"][1].update(bus=5),
         "generator at pq bus 5 is not supported"),
    ], ids=["buses_a_number", "H_a_string", "x_a_string", "p_a_string",
            "subnets_a_list", "subnet_a_number", "line_a_number",
            "s_base_null", "in_service_0", "H_true", "governor_empty",
            "no_bus", "no_q_factor", "no_to", "no_dq", "p_factor_a_string",
            "bus_true", "time_nan", "H_inf", "s_base_nan", "dq_nan",
            "in_service_misspelled", "r_x_zero", "tap_0", "s_machine_0",
            "t_gov_0", "t_ex_0", "no_gen_1", "no_gen_2", "no_gen_3",
            "gen_at_pq_bus"])
    def test_malformed_case_exits_2(self, tmp_path, capsys, path, edit, key):
        # each used to end in a traceback (exit 1: a NaN event time, and a
        # zero divisor: r = x = 0, tap, s_machine, t_gov or t_ex), a
        # disconnected network (in_service 0, exit 4), a numerical error
        # (s_base NaN, dq NaN, a slack or pv bus without a generator: exit
        # 4) or a run (H true as 1 s, H infinite, governor {} as none, an
        # event bus true as bus 1, a misspelled in_service as in service)
        data = json.loads(Path(path).read_text())
        edit(data)
        bad = tmp_path / "case.json"
        bad.write_text(json.dumps(data))
        rc = main(["simulate", "--case", str(bad), "--t-end", "0.5",
                   "--outdir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_neither_case_nor_manifest_exits_2(self, tmp_path, capsys):
        rc = main(["simulate", "--outdir", str(tmp_path)])
        assert rc == 2
        assert "--case is required" in capsys.readouterr().err

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

    @pytest.mark.parametrize("argv, rc, checks", [
        ([], 0, 2), (["--window", "10.0"], 3, 1)], ids=["ok", "exit_3"])
    def test_config_is_checked_on_the_contiguous_grid(
            self, simdir, tmp_path, monkeypatch, argv, rc, checks):
        # a read trajectory's times are a strided column of its table, on
        # which each window cut of the check scans more than 10x slower
        traj = read_trajectory_csv(simdir / "trajectory.csv",
                                   omega_s=load_case(SHED).omega_s)
        assert not traj.times.flags.c_contiguous
        seen = []
        validate = SyncConfig.validate

        def spy(config, times):
            seen.append(times.flags.c_contiguous)
            return validate(config, times)

        monkeypatch.setattr(SyncConfig, "validate", spy)
        assert main(["analyze", "--traj", str(simdir / "trajectory.csv"),
                     "--case", SHED, *argv, "--outdir", str(tmp_path)]) == rc
        assert seen == [True] * checks

    @pytest.mark.parametrize("argv, message", [
        (["--t-end", "30"], "t_end 30.0 must be <= the series' last "
                            "sample, t = 5.0"),
        (["--t-event", "6"], "t_event 6.0 leaves no sample in [t_event, "
                             "t_end = 5.0]"),
        (["--t-end", "1.5"], "t_event 2.0 leaves no sample in [t_event, "
                             "t_end = 1.5]"),
    ], ids=["t_end_after_the_run", "t_event_after_t_end",
            "recorded_event_after_t_end"])
    def test_window_outside_the_run_exits_3(self, simdir, tmp_path, capsys,
                                            argv, message):
        # these raised "empty coarse segment" or "empty overshoot window"
        # from inside the analysis: a traceback and exit 1
        rc = main(["analyze", "--traj", str(simdir / "trajectory.csv"),
                   "--case", SHED, *argv, "--outdir", str(tmp_path)])
        assert rc == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

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

    @pytest.mark.parametrize("edit, message", [
        (lambda cells: cells[:-2], "17 values a row under 19 column names"),
        (lambda cells: cells + ["1", "2"],
         "21 values a row under 19 column names"),
        (None, "malformed trajectory header"),
    ], ids=["short_rows", "long_rows", "theta_of_another_bus"])
    def test_malformed_trajectory_exits_2(self, simdir, tmp_path, capsys,
                                          edit, message):
        # short rows used to raise IndexError and long rows a broadcast
        # ValueError; theta_2 in place of theta_1 was analysed as bus 1's
        lines = (simdir / "trajectory.csv").read_text().splitlines()
        if edit is None:
            lines[1] = lines[1].replace("theta_1,", "theta_2,", 1)
        else:
            lines[2:] = [",".join(edit(line.split(","))) for line in lines[2:]]
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        rc = main(["analyze", "--traj", str(tmp_path / "bad.csv"),
                   "--case", SHED, "--outdir", str(tmp_path)])
        assert rc == 2
        assert f"bad.csv: {message}" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("window", ["0.0005", "1e-9"])
    def test_window_under_one_step_exits_3(self, simdir, tmp_path, capsys,
                                           window):
        # a final window of one sample has fluctuation 0.0, so every node
        # was reported converged
        rc = main(["analyze", "--traj", str(simdir / "trajectory.csv"),
                   "--case", SHED, "--window", window,
                   "--outdir", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"window {float(window)!r} is too short: the final " \
            "window" in err
        assert "holds 1 sample(s)" in err
        assert not (tmp_path / "report.json").exists()

    def test_nothing_after_t_end_is_read(self, tmp_path):
        # a 20 s load shed analysed to 8 s: convergence is judged on
        # [0, 8] s, so no node can converge after it
        assert main(["simulate", "--case", SHED, "--t-end", "20",
                     "--outdir", str(tmp_path)]) == 0
        assert main(["analyze", "--traj", str(tmp_path / "trajectory.csv"),
                     "--case", SHED, "--t-end", "8",
                     "--outdir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        for node in report["nodes"].values():
            for key in ("t_eps", "t_omega"):
                assert node[key] is None or node[key] <= 8.0, (key, node)

    def test_window_longer_than_the_span_to_t_end_exits_3(
            self, simdir, tmp_path, capsys):
        # the run starts at 5 s: [5, 8] s is shorter than a 4 s window,
        # though [5, 10] s is not
        traj = read_trajectory_csv(simdir / "trajectory.csv",
                                   omega_s=load_case(SHED).omega_s)
        traj.times = traj.times + 5.0
        write_trajectory_csv(traj, tmp_path / "late.csv")
        rc = main(["analyze", "--traj", str(tmp_path / "late.csv"),
                   "--case", SHED, "--t-end", "8", "--window", "4",
                   "--t-coarse", "4", "--t-event", "6",
                   "--outdir", str(tmp_path)])
        assert rc == 3
        assert "window 4.0 must be < the series' span to t_end, " \
            "t = 5.0 .. 8.0" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("argv, message", [
        (["--t-end", "9.9995", "--t-event", "9.9991"],
         "t_event 9.9991 leaves no sample in [t_event, t_end = 9.9995]"),
        (["--t-end", "8.001", "--window", "8.0005", "--t-coarse", "-1"],
         "window 8.0005 must be < the series' span to t_end, t = 0.0 .. 8.0"),
    ], ids=["no_sample_from_t_event_to_t_end", "window_past_the_cut_span"])
    def test_windows_off_the_samples_exit_3(self, shed_2ms, tmp_path, capsys,
                                            argv, message):
        # both raised from inside the analysis, "empty overshoot window"
        # and "window exceeds series span": a traceback and exit 1
        rc = main(["analyze", "--traj", str(shed_2ms), "--case", SHED,
                   *argv, "--outdir", str(tmp_path)])
        assert rc == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_option_grid_exits_0_or_3(self, shed_2ms, tmp_path, capsys):
        # every combination of t_end 9.9995 and 8.001, where each call
        # that raised lies, and a seeded sample of the rest of the grid
        grid = list(itertools.product(
            [None, "10", "9.9995", "8.001", "8", "3", "2.0005", "1.5"],
            [None, "0.5", "0.0015", "3", "7.999", "8.0005", "9.5"],
            [None, "0", "1.9999", "8.0005", "9.9991", "-1"],
            [None, "-1", "0", "5"]))
        near = [c for c in grid if c[0] in ("9.9995", "8.001")]
        rest = [c for c in grid if c not in near]
        codes = collections.Counter()
        for combo in near + random.Random(0).sample(rest, 64):
            argv = ["analyze", "--traj", str(shed_2ms), "--case", SHED,
                    "--outdir", str(tmp_path)]
            for option, value in zip(("--t-end", "--window", "--t-event",
                                      "--t-coarse"), combo):
                argv += [option, value] if value is not None else []
            codes[main(argv)] += 1
        capsys.readouterr()
        assert set(codes) == {0, 3}, codes

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

    def test_late_fast_decay_is_fitted_and_drawn(self, tmp_path):
        # bus 1's voltage rings down at 40 1/s after an event at 18 s: the
        # damping fit's intercept at t = 0, e^720, used to overflow
        # math.exp, a traceback and exit 1
        buses = list(load_case(CASE).bus_index())
        t = np.arange(20001) * 1e-3
        s = np.clip(t - 18.0, 0.0, None)
        v = np.ones((len(t), len(buses)))
        v[:, 0] += np.where(t >= 18.0, 0.01 * np.exp(-40 * s)
                            * np.cos(10 * np.pi * s), 0.0)
        header = ["t"] + [f"{k}_{b}" for b in buses for k in ("v", "theta")]
        write_csv(tmp_path / "traj.csv", header,
                  [t, np.stack([v, np.zeros_like(v)], axis=2)
                   .reshape(len(t), -1)], comment="events: 18")
        assert main(["analyze", "--traj", str(tmp_path / "traj.csv"),
                     "--case", CASE, "--outdir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        fit = report["node_metrics"][str(buses[0])]["fit_eps"]
        assert fit["method"] == "envelope"
        assert fit["sigma"] == pytest.approx(40.0, rel=0.01)
        assert main(["plotdata", "--report", str(tmp_path / "report.json"),
                     "--traj", str(tmp_path / "traj.csv"), "--kind",
                     "damping", "--outdir", str(tmp_path)]) == 0
        data = np.loadtxt(tmp_path / "damping.csv", delimiter=",",
                          skiprows=1)
        envelope = data[:, 2]
        assert np.isfinite(envelope).all()
        np.testing.assert_array_equal(envelope[:18000], 0.0)
        assert envelope[18000] == fit["amplitude"]


class TestNonFiniteOptions:
    """A NaN or infinite number exits 3, naming where it was given, and
    writes nothing. ``TRAJ`` stands for the shared load-shed run and
    ``MANIFEST`` for its manifest with ``sim_config.t_end`` infinite."""

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--case", SHED, "--t-end", "inf"],
         "--t-end must be a finite number, got inf"),
        (["inertia", "--sweep", "1,2", "--sweep-t-end", "inf"],
         "--sweep-t-end must be a finite number, got inf"),
        (["simulate", "--from-manifest", "MANIFEST"],
         "need finite t_end > 0 and dt > 0 (t_end=inf, dt=0.001)"),
        (["analyze", "--traj", "TRAJ", "--case", SHED, "--t-event", "nan"],
         "--t-event must be a finite number, got nan"),
        (["analyze", "--traj", "TRAJ", "--case", SHED, "--t-coarse", "nan"],
         "--t-coarse must be a finite number, got nan"),
        (["analyze", "--traj", "TRAJ", "--case", SHED, "--tol-eps", "nan"],
         "--tol-eps must be a finite number, got nan"),
        (["analyze", "--traj", "TRAJ", "--case", SHED, "--tol-eq", "inf"],
         "--tol-eq must be a finite number, got inf"),
        (["inertia", "--sweep", "1,2", "--cap-s-base", "inf"],
         "--cap-s-base must be a finite number, got inf"),
        (["inertia", "--traj", "TRAJ", "--case", SHED,
          "--window", "2.005", "inf"],
         "--window must be a finite number, got inf"),
        (["inertia", "--sweep", "1,2", "--t-step", "nan"],
         "--t-step must be a finite number, got nan"),
    ], ids=["simulate_t_end", "sweep_t_end", "manifest_t_end",
            "analyze_t_event", "analyze_t_coarse", "analyze_tol_eps",
            "analyze_tol_eq", "inertia_cap_s_base", "inertia_window",
            "inertia_t_step"])
    def test_exits_3(self, simdir, tmp_path, capsys, argv, message):
        manifest = json.loads(
            (simdir / "trajectory_manifest.json").read_text())
        manifest["sim_config"]["t_end"] = float("inf")
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        paths = {"TRAJ": str(simdir / "trajectory.csv"),
                 "MANIFEST": str(tmp_path / "manifest.json")}
        out = tmp_path / "out"
        rc = main([paths.get(a, a) for a in argv] + ["--outdir", str(out)])
        assert rc == 3
        assert f"error: {message}" in capsys.readouterr().err
        assert not [p for p in out.rglob("*") if p.is_file()]



@pytest.mark.parametrize("argv, code, stream, text", [
    (["--version"], 0, "out", cli.__version__),
    (["--help"], 0, "out", "usage: cfsync"),
    (["simulate", "--bogus"], 2, "err", "unrecognized arguments: --bogus"),
], ids=["version", "help", "usage_error"])
def test_main_returns_argparse_exit_codes(capsys, argv, code, stream, text):
    # an in-process caller gets a code, not SystemExit
    assert main(argv) == code
    assert text in getattr(capsys.readouterr(), stream)

class TestInertia:
    def test_sweep_only_run_does_not_read_the_case(self, tmp_path):
        # only --traj takes omega_s from the case, so a sweep never opens
        # one it is given
        rc = main(["inertia", "--case", str(tmp_path / "absent.json"),
                   "--sweep", "1", "--sweep-t-end", "0.1",
                   "--outdir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "hv_sweep.csv").exists()

    def test_sweep_without_case_runs(self, tmp_path):
        # --case is required only with --traj
        rc = main(["inertia", "--sweep", "1", "--sweep-t-end", "0.1",
                   "--outdir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "hv_sweep.csv").exists()

    def test_traj_without_case_exits_2(self, simdir, tmp_path, capsys):
        rc = main(["inertia", "--traj", str(simdir / "trajectory.csv"),
                   "--outdir", str(tmp_path)])
        assert rc == 2
        assert "--case is required with --traj" in capsys.readouterr().err
        assert not (tmp_path / "inertia.json").exists()

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

    def test_sweep_csv_resolves_from_another_directory(self, tmp_path,
                                                       monkeypatch):
        # the csv used to be recorded relative to the run's directory, as
        # "w/hv_sweep.csv", which resolves from neither w/ nor anywhere else
        run, other = tmp_path / "run", tmp_path / "other"
        run.mkdir()
        other.mkdir()
        monkeypatch.chdir(run)
        assert main(["inertia", "--sweep", "1,2", "--sweep-t-end", "0.1",
                     "--outdir", "w"]) == 0
        csv = json.loads((run / "w" / "inertia.json").read_text())[
            "sweep"]["csv"]
        monkeypatch.chdir(other)
        assert Path(csv).is_file()
        assert Path(csv).name == "hv_sweep.csv"

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

    def test_zeta_covers_the_fits_samples(self, simdir, tmp_path,
                                          monkeypatch):
        # the fits keep t = 2.3000000000000003 in the window (2.005, 2.3)
        # by their 1e-9 slack, so zeta must keep it too. zeta is built on
        # the whole series, as domega/dt of the M fit is, and |zeta| here
        # is the row number: its peak is the last sample kept.
        seen = []

        def ramp(h_v, m, times, eps, omega):
            seen.append(times)
            return np.arange(len(times), dtype=complex)

        monkeypatch.setattr(cli, "generalized_inertia_series", ramp)
        rc = main(["inertia", "--case", SHED,
                   "--traj", str(simdir / "trajectory.csv"),
                   "--window", "2.005", "2.3",
                   "--outdir", str(tmp_path)])
        assert rc == 0
        times = read_trajectory_csv(simdir / "trajectory.csv",
                                    omega_s=load_case(SHED).omega_s).times
        last = window_slice(times, 2.005, 2.3).stop - 1
        assert times[last] > 2.3
        assert len(seen) == len(load_case(SHED).generators)
        for got in seen:
            assert np.array_equal(got, times)
        result = json.loads((tmp_path / "inertia.json").read_text())
        assert [e["zeta_peak"] for e in result["estimates"]] \
            == [float(last)] * len(seen)

    def test_zeta_is_the_whole_series_masked(self, simdir, tmp_path):
        # domega/dt at the window's ends takes central stencils over
        # samples outside it, not one-sided ones on the window alone
        window = (2.005, 2.3)
        rc = main(["inertia", "--case", SHED,
                   "--traj", str(simdir / "trajectory.csv"),
                   "--window", *map(str, window), "--outdir", str(tmp_path)])
        assert rc == 0
        case = load_case(SHED)
        traj = read_trajectory_csv(simdir / "trajectory.csv",
                                   omega_s=case.omega_s)
        omega = read_generator_csv(simdir / "trajectory_gen.csv")["omega"]
        series = estimate_complex_frequency(traj)
        rows = window_slice(traj.times, *window)
        result = json.loads((tmp_path / "inertia.json").read_text())
        for k, est in enumerate(result["estimates"]):
            zeta = generalized_inertia_series(
                est["h_v"], est["m"], traj.times, series.node(est["bus"])[0],
                omega[:, k])
            assert est["zeta_peak"] == float(np.abs(zeta[rows]).max())

    @pytest.mark.parametrize("window", [("30", "40"), ("5", "3"),
                                        ("2.005", "2.005")],
                             ids=["past_the_run", "reversed", "one_sample"])
    def test_window_with_fewer_than_two_samples_exits_3(
            self, simdir, tmp_path, capsys, window):
        rc = main(["inertia", "--case", SHED,
                   "--traj", str(simdir / "trajectory.csv"),
                   "--window", *window, "--outdir", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "--window gives the inertia window" in err
        assert "a fit needs at least 2" in err
        assert not (tmp_path / "inertia.json").exists()

    def test_defaulted_window_past_the_run_names_t_event(
            self, simdir, tmp_path, capsys):
        rc = main(["inertia", "--case", SHED,
                   "--traj", str(simdir / "trajectory.csv"),
                   "--t-event", "30", "--outdir", str(tmp_path)])
        assert rc == 3
        assert "--t-event gives the inertia window [30.0, 5.0]" \
            in capsys.readouterr().err
        assert not (tmp_path / "inertia.json").exists()

    def test_two_sample_window_fits(self, simdir, tmp_path):
        # the window's own two samples were once re-differentiated, which
        # needs three
        rc = main(["inertia", "--case", SHED,
                   "--traj", str(simdir / "trajectory.csv"),
                   "--window", "2.005", "2.006", "--outdir", str(tmp_path)])
        assert rc == 0
        result = json.loads((tmp_path / "inertia.json").read_text())
        for est in result["estimates"]:
            assert est["m"] > 0
            assert est["zeta_peak"] > 0

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

    @pytest.mark.parametrize("bad", ["abc", "nan", "inf", "-inf", "", "0",
                                     "-2", "-0.0"])
    def test_malformed_sweep_value_exits_3(self, tmp_path, capsys, bad):
        # "abc" used to raise ValueError out of the command, "nan" to report
        # a voltage collapse, "inf" to write a flat eps_hv_inf column and
        # "0" or "-2" to say only that h_v values must be > 0
        rc = main(["inertia", "--case", CASE, "--sweep", f"1,{bad},2",
                   "--outdir", str(tmp_path)])
        assert rc == 3
        assert f"--sweep value {bad!r}" in capsys.readouterr().err
        assert not (tmp_path / "hv_sweep.csv").exists()
        assert not (tmp_path / "inertia.json").exists()

    @pytest.mark.parametrize("sweep, repeat", [("1,1.0,2", "1.0"),
                                               ("2,1,2", "2"),
                                               ("0.5,5e-1", "5e-1")])
    def test_repeated_sweep_value_exits_3(self, tmp_path, capsys, sweep,
                                          repeat):
        # "1,1.0,2" used to exit 0 with the header t,eps_hv_1,eps_hv_1,...
        rc = main(["inertia", "--case", CASE, "--sweep", sweep,
                   "--outdir", str(tmp_path)])
        assert rc == 3
        assert f"--sweep value {repeat!r} repeats" in capsys.readouterr().err
        assert not (tmp_path / "hv_sweep.csv").exists()
        assert not (tmp_path / "inertia.json").exists()

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

    def test_damping_envelope_starts_at_the_event(self, simdir, reportdir,
                                                  tmp_path):
        # each fit column is amplitude * exp(-sigma (t - t_event)) from
        # t_event on, and 0 before, where the fit has no samples
        report = json.loads((reportdir / "report.json").read_text())
        t_event = report["config"]["sync"]["t_event"]
        assert main(["plotdata", "--report", str(reportdir / "report.json"),
                     "--traj", str(simdir / "trajectory.csv"),
                     "--kind", "damping", "--outdir", str(tmp_path)]) == 0
        header = (tmp_path / "damping.csv").read_text().splitlines()[0]
        data = np.loadtxt(tmp_path / "damping.csv", delimiter=",",
                          skiprows=1)
        t = data[:, 0]
        after = t >= t_event
        drawn = 0
        for bus, fit in ((b, m["fit_eps"])
                         for b, m in report["node_metrics"].items()):
            column = data[:, header.split(",").index(f"fit_eps_{bus}")]
            np.testing.assert_array_equal(column[~after], 0.0)
            if fit is None or fit["sigma"] == "inf":
                continue
            np.testing.assert_allclose(
                column[after], fit["amplitude"]
                * np.exp(-fit["sigma"] * (t[after] - t_event)), rtol=1e-12)
            assert column[np.argmax(after)] == fit["amplitude"]
            drawn += 1
        assert drawn

    def test_subnet_spread_memory_stays_linear(self, tmp_path, traced_peak):
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
        rc, peak = traced_peak(lambda: main([
            "plotdata", "--report", str(tmp_path / "report.json"),
            "--traj", str(tmp_path / "traj.csv"),
            "--kind", "subnet_spread", "--outdir", str(tmp_path)]))
        assert rc == 0
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_hv_sweep_kind_exits_2(self, simdir, reportdir, tmp_path,
                                   capsys):
        # the H_v sweep has one path: inertia --sweep
        rc = main(["plotdata", "--report", str(reportdir / "report.json"),
                   "--traj", str(simdir / "trajectory.csv"),
                   "--kind", "hv_sweep", "--outdir", str(tmp_path)])
        assert rc == 2
        assert "invalid choice: 'hv_sweep'" in capsys.readouterr().err
        assert not (tmp_path / "hv_sweep.csv").exists()

    def test_unknown_kind_lists_valid_ones(self, reportdir, tmp_path,
                                           capsys):
        rc = main(["plotdata", "--report", str(reportdir / "report.json"),
                   "--kind", "bogus", "--outdir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        for kind in ("eps", "omega", "subnet_spread", "damping"):
            assert kind in err

    def test_inertia_json_as_report_exits_2(self, simdir, tmp_path, capsys):
        # a report without "config" used to raise KeyError: a traceback
        # and exit 1
        assert main(["inertia", "--case", CASE, "--sweep", "1",
                     "--sweep-t-end", "0.1", "--outdir", str(tmp_path)]) == 0
        capsys.readouterr()
        rc = main(["plotdata", "--report", str(tmp_path / "inertia.json"),
                   "--traj", str(simdir / "trajectory.csv"),
                   "--kind", "eps", "--outdir", str(tmp_path)])
        assert rc == 2
        assert "report has no field config" in capsys.readouterr().err
        assert not (tmp_path / "eps.csv").exists()

    @pytest.mark.parametrize("kind, edit, message", [
        ("eps", lambda r: r["config"]["estimator"].update(
            smoothing_window="5"),
         "report field config.estimator.smoothing_window has the wrong "
         "type: '5'"),
        ("eps", lambda r: r.update(nodes=[]),
         "report field nodes has the wrong type"),
        ("damping", lambda r: r["nodes"]["4"].pop("coarse"),
         "report has no field nodes.4.coarse"),
        ("damping", lambda r: r["node_metrics"]["4"].update(fit_eps=3),
         "report field node_metrics.4.fit_eps has the wrong type: 3"),
        ("subnet_spread", lambda r: r["subnets"].update(S={}),
         "report subnet 'S' has no field member_buses"),
        ("subnet_spread", lambda r: r["subnets"].update(
            S={"member_buses": [4, 99]}),
         "report subnet 'S' has unknown buses"),
        ("subnet_spread", lambda r: r["subnets"].update(
            S={"member_buses": []}),
         "report subnet 'S' has no members"),
        ("eps", lambda r: r["nodes"].pop("4"),
         "report and trajectory bus sets differ"),
        ("eps", lambda r: r["config"]["estimator"].update(
            smoothing_window=0),
         "smoothing_window must be >= 1"),
        # json reads NaN and Infinity: a NaN omega_s used to exit 0 with an
        # all-nan omega.csv
        ("omega", lambda r: r["config"]["estimator"].update(
            omega_s=float("nan")),
         "report field config.estimator.omega_s is not a finite number: "
         "nan"),
        ("damping", lambda r: r["config"]["sync"].update(
            t_event=float("inf")),
         "report field config.sync.t_event is not a finite number: inf"),
        ("damping", lambda r: r["nodes"]["4"]["coarse"].update(
            eps=float("nan")),
         "report field nodes.4.coarse.eps is not a finite number: nan"),
        ("damping", lambda r: r["node_metrics"]["4"]["fit_eps"].update(
            amplitude=float("-inf")),
         "report field node_metrics.4.fit_eps.amplitude is not a finite "
         "number: -inf"),
        ("damping", lambda r: r["node_metrics"]["4"]["fit_eps"].update(
            sigma=float("nan")),
         "report field node_metrics.4.fit_eps.sigma is not a finite "
         "number: nan"),
    ], ids=["wrong_type", "nodes_not_an_object", "missing_nested",
            "fit_not_an_object", "subnet_without_members",
            "subnet_with_unknown_bus", "subnet_with_no_members",
            "bus_sets_differ", "zero_smoothing_window", "nan_omega_s",
            "infinite_t_event", "nan_limit", "infinite_amplitude",
            "nan_sigma"])
    def test_malformed_report_exits_2(self, simdir, reportdir, tmp_path,
                                      capsys, kind, edit, message):
        report = json.loads((reportdir / "report.json").read_text())
        edit(report)
        (tmp_path / "report.json").write_text(json.dumps(report))
        rc = main(["plotdata", "--report", str(tmp_path / "report.json"),
                   "--traj", str(simdir / "trajectory.csv"),
                   "--kind", kind, "--outdir", str(tmp_path)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / f"{kind}.csv").exists()

    def test_without_traj_exits_2(self, reportdir, tmp_path, capsys):
        rc = main(["plotdata", "--report", str(reportdir / "report.json"),
                   "--kind", "eps", "--outdir", str(tmp_path)])
        assert rc == 2
        assert "the following arguments are required: --traj" in \
            capsys.readouterr().err
        assert not (tmp_path / "eps.csv").exists()

    def test_unreadable_report_exits_2(self, simdir, tmp_path, capsys):
        rc = main(["plotdata", "--report", str(tmp_path / "missing.json"),
                   "--traj", str(simdir / "trajectory.csv"),
                   "--kind", "eps", "--outdir", str(tmp_path)])
        assert rc == 2
        assert "cannot read report" in capsys.readouterr().err
        assert not (tmp_path / "eps.csv").exists()


def _missing_dir(tmp_path):
    return tmp_path / "missing" / "out"


def _a_file(tmp_path):
    path = tmp_path / "a_file"
    path.write_text("")
    return path


class TestUnwritableOutput:
    """An output path that cannot be written exits 2, naming the path,
    instead of a traceback and exit 1."""

    @pytest.mark.parametrize("argv, bad", [
        (["inertia", "--sweep", "1", "--sweep-t-end", "0.1",
          "--sweep-out", "{missing}.csv", "--outdir", "{tmp}"], _missing_dir),
        (["inertia", "--sweep", "1", "--sweep-t-end", "0.1",
          "--out", "{missing}.json", "--outdir", "{tmp}"], _missing_dir),
        (["inertia", "--sweep", "1", "--sweep-t-end", "0.1",
          "--outdir", "{file}"], _a_file),
        (["simulate", "--case", CASE, "--t-end", "0.1", "--outdir", "{file}"],
         _a_file),
        (["simulate", "--case", CASE, "--t-end", "0.1", "--out",
          "{missing}.csv", "--outdir", "{tmp}"], _missing_dir),
        (["simulate", "--case", CASE, "--t-end", "0.1", "--gen-out",
          "{missing}.csv", "--outdir", "{tmp}"], _missing_dir),
        (["simulate", "--case", CASE, "--t-end", "0.1", "--manifest-out",
          "{missing}.json", "--outdir", "{tmp}"], _missing_dir),
        (["analyze", "--traj", "{traj}", "--case", SHED, "--outdir",
          "{file}"], _a_file),
        (["analyze", "--traj", "{traj}", "--case", SHED, "--out",
          "{missing}.json", "--outdir", "{tmp}"], _missing_dir),
        (["plotdata", "--report", "{report}", "--traj", "{traj}", "--kind",
          "eps", "--outdir", "{file}"], _a_file),
    ], ids=["inertia_sweep_out", "inertia_out", "inertia_outdir",
            "simulate_outdir", "simulate_out", "simulate_gen_out",
            "simulate_manifest_out", "analyze_outdir", "analyze_out",
            "plotdata_outdir"])
    def test_exits_2_naming_the_path(self, simdir, reportdir, tmp_path,
                                     capsys, argv, bad):
        path = bad(tmp_path)
        fields = dict(tmp=tmp_path, missing=path, file=path,
                      traj=simdir / "trajectory.csv",
                      report=reportdir / "report.json")
        rc = main([arg.format(**fields) for arg in argv])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ")
        assert str(path) in err


class TestFailedRunLeavesNoOutputs:
    """A command that exits 2 after it has started writing removes what
    it wrote, and the output directory it made; the output directory is
    made only by a command's first write."""

    @pytest.mark.parametrize("outdir_exists", [False, True])
    def test_simulate_with_an_unwritable_manifest(self, tmp_path, capsys,
                                                  outdir_exists):
        outdir = tmp_path / "partial"
        if outdir_exists:
            outdir.mkdir()
            (outdir / "keep.txt").write_text("not an output")
        rc = main(["simulate", "--case", CASE, "--t-end", "0.1",
                   "--outdir", str(outdir), "--manifest-out",
                   str(outdir / "missing" / "m.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "error: cannot write output: ")
        if outdir_exists:
            assert [p.name for p in outdir.iterdir()] == ["keep.txt"]
        else:
            assert not outdir.exists()

    def test_inertia_sweep_with_an_unwritable_report(self, tmp_path):
        outdir = tmp_path / "sw"
        rc = main(["inertia", "--sweep", "1,2", "--sweep-t-end", "0.1",
                   "--outdir", str(outdir),
                   "--out", str(outdir / "missing" / "i.json")])
        assert rc == 2
        assert not outdir.exists()

    def test_an_overwritten_output_is_removed(self, simdir, tmp_path):
        # a rerun into a directory of an earlier run: its new trajectory
        # would not match the earlier manifest, so it does not stay
        for name in ("trajectory.csv", "trajectory_gen.csv"):
            (tmp_path / name).write_bytes((simdir / name).read_bytes())
        rc = main(["simulate", "--case", CASE, "--t-end", "0.1",
                   "--outdir", str(tmp_path), "--manifest-out",
                   str(tmp_path / "missing" / "m.json")])
        assert rc == 2
        assert not list(tmp_path.iterdir())

    def test_a_partly_written_output_is_removed(self, tmp_path,
                                                monkeypatch):
        def full_disk(traj, path):
            Path(path).write_text("t,delta_1")
            raise OSError(errno.ENOSPC, "No space left on device")
        monkeypatch.setattr(cli, "write_generator_csv", full_disk)
        rc = main(["simulate", "--case", CASE, "--t-end", "0.1",
                   "--outdir", str(tmp_path)])
        assert rc == 2
        assert not list(tmp_path.iterdir())

    def test_analyze_of_a_missing_trajectory_makes_no_outdir(self, tmp_path):
        rc = main(["analyze", "--traj", str(tmp_path / "missing.csv"),
                   "--case", SHED, "--outdir", str(tmp_path / "new")])
        assert rc == 2
        assert not (tmp_path / "new").exists()


class TestEstimatorInput:
    """The estimator's input errors leave through their exit codes."""

    @pytest.mark.parametrize("command", ["analyze", "inertia"])
    def test_zero_smoothing_window_exits_3(self, simdir, tmp_path, capsys,
                                           command):
        rc = main([command, "--traj", str(simdir / "trajectory.csv"),
                   "--case", SHED, "--smoothing-window", "0",
                   "--outdir", str(tmp_path)])
        assert rc == 3
        assert "--smoothing-window must be >= 1" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize("command", ["analyze", "plotdata", "inertia"])
    def test_zero_voltage_exits_2(self, simdir, reportdir, tmp_path, capsys,
                                  command):
        lines = (simdir / "trajectory.csv").read_text().splitlines()
        cells = lines[98].split(",")
        assert lines[1].split(",")[1] == "v_1"
        cells[1] = "0"
        lines[98] = ",".join(cells)
        traj = tmp_path / "zero.csv"
        traj.write_text("\n".join(lines) + "\n")
        (tmp_path / "zero_gen.csv").write_bytes(
            (simdir / "trajectory_gen.csv").read_bytes())
        out = tmp_path / "out"
        args = {"analyze": ["--case", SHED],
                "inertia": ["--case", SHED],
                "plotdata": ["--report", str(reportdir / "report.json"),
                             "--kind", "eps"]}[command]
        rc = main([command, "--traj", str(traj), *args,
                   "--outdir", str(out)])
        assert rc == 2
        assert f"cannot estimate complex frequency from {traj}: " \
            "non-positive voltage at bus 1, t=0.096 s" \
            in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())

    def test_plotdata_zero_smoothing_window_names_the_report(
            self, simdir, reportdir, tmp_path, capsys):
        report = json.loads((reportdir / "report.json").read_text())
        report["config"]["estimator"]["smoothing_window"] = 0
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        rc = main(["plotdata", "--report", str(path),
                   "--traj", str(simdir / "trajectory.csv"),
                   "--kind", "eps", "--outdir", str(tmp_path / "out")])
        assert rc == 2
        assert f"error: report {path}: config.estimator.smoothing_window " \
            "must be >= 1, got 0\n" == capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "inertia"])
    def test_header_without_rows_exits_2_unwarned(self, simdir, tmp_path,
                                                  capsys, command):
        # np.loadtxt warns on a file without data; the command says why
        # it stops in one line, and nothing else
        name, what, top = {
            "analyze": ("trajectory.csv", "trajectory", 2),
            "inertia": ("trajectory_gen.csv", "generator series", 1)}[command]
        for kept in ("trajectory.csv", "trajectory_gen.csv"):
            (tmp_path / kept).write_bytes((simdir / kept).read_bytes())
        lines = (simdir / name).read_text().splitlines(keepends=True)
        (tmp_path / name).write_text("".join(lines[:top]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([command, "--traj", str(tmp_path / "trajectory.csv"),
                       "--case", SHED, "--outdir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: cannot read {what}: {tmp_path / name}: time grid needs "
            "at least two samples\n")


def _set_value(src: Path, dst: Path, column: str, t: float, value: str):
    """Copy the CSV ``src`` to ``dst`` with ``value`` under ``column`` in
    the row at time ``t``."""
    lines = src.read_text().splitlines()
    top = 1 + lines[0].startswith("#")  # the first data row
    j = lines[top - 1].split(",").index(column)
    i = next(i for i in range(top, len(lines))
             if float(lines[i].partition(",")[0]) == pytest.approx(t))
    cells = lines[i].split(",")
    cells[j] = value
    lines[i] = ",".join(cells)
    dst.write_text("\n".join(lines) + "\n")


class TestNonFiniteRecordedRun:
    """A nan or infinity in a recorded run is an input error, exit 2,
    naming the file, the column and the time, with no output left; it used
    to be read as data."""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_analyze(self, simdir, tmp_path, capsys, value):
        # a nan voltage used to exit 0 with bus 2's coarse eps null, its
        # eps fit "fully_damped" and bus 2 out of disturbed_eps
        traj = tmp_path / "trajectory.csv"
        _set_value(simdir / "trajectory.csv", traj, "v_2", 1.498, value)
        rc = main(["analyze", "--traj", str(traj), "--case", SHED,
                   "--outdir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: cannot read trajectory: {traj}: non-finite value "
            f"{value} under v_2 at t = 1.498 s\n")
        assert not (tmp_path / "out").exists()

    def test_inertia(self, simdir, tmp_path, capsys):
        # used to end in a traceback: "h_v and m must be finite", exit 1
        shutil.copy(simdir / "trajectory.csv", tmp_path)
        gen = tmp_path / "trajectory_gen.csv"
        _set_value(simdir / "trajectory_gen.csv", gen, "omega_1", 2.099,
                   "nan")
        rc = main(["inertia", "--traj", str(tmp_path / "trajectory.csv"),
                   "--case", SHED, "--window", "2.005", "2.3",
                   "--outdir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: cannot read generator series: {gen}: non-finite value "
            "nan under omega_1 at t = 2.099 s\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        pytest.param(["analyze", "--case", SHED], id="analyze"),
        pytest.param(["analyze", "--case", SHED, "--t-event", "2.0"],
                     id="analyze_t_event"),
        pytest.param(["plotdata", "--report", "REPORT", "--kind", "eps"],
                     id="plotdata"),
        pytest.param(["inertia", "--case", SHED], id="inertia"),
        pytest.param(["inertia", "--case", SHED, "--t-event", "2.0"],
                     id="inertia_t_event"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "abc"])
    def test_events_line(self, short_run, tmp_path, capsys, argv, value):
        # nan and inf used to exit 3 with "t_event nan leaves no sample in
        # [t_event, t_end = 3.0]", and abc exit 2 naming neither the file
        # nor the line
        traj = tmp_path / "trajectory.csv"
        lines = (short_run / "trajectory.csv").read_text().splitlines(True)
        assert lines[0] == "# events: 2\n"
        traj.write_text(f"# events: {value}\n" + "".join(lines[1:]))
        shutil.copy(short_run / "trajectory_gen.csv", tmp_path)
        argv = [str(short_run / "report.json") if a == "REPORT" else a
                for a in argv]
        rc = main(argv + ["--traj", str(traj),
                          "--outdir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: cannot read trajectory: {traj}: malformed "
            f"'# events: {value}' line (need finite times, comma-separated)\n")
        assert not (tmp_path / "out").exists()


class TestMalformedRecordedRun:
    """No edit of a recorded run makes a command raise: each one that reads
    it exits 0, 2 or 3."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(["short_row", "long_row", "swap_names",
                            "voltage", "few_rows", "non_numeric"]),
           st.sampled_from([["trajectory.csv"], ["trajectory_gen.csv"],
                            ["trajectory.csv", "trajectory_gen.csv"]]),
           st.integers(0, 10**6), st.integers(0, 10**6),
           st.integers(0, 2), st.sampled_from(["0", "-0", "-1e-3", "-2"]))
    def test_commands_exit_with_a_code(self, short_run, tmp_path, kind,
                                       targets, row, col, n_rows, value):
        files = {name: (short_run / name).read_text().splitlines()
                 for name in ("trajectory.csv", "trajectory_gen.csv")}
        if kind == "voltage":
            targets = ["trajectory.csv"]
        for name in targets:
            lines = files[name]
            top = 2 if name == "trajectory.csv" else 1  # the first data row
            header = lines[top - 1].split(",")
            if kind == "few_rows":
                del lines[top + n_rows:]
            elif kind == "swap_names":
                j = col % len(header)
                k = (j + 1 + row % (len(header) - 1)) % len(header)
                header[j], header[k] = header[k], header[j]
                lines[top - 1] = ",".join(header)
            else:
                i = top + row % (len(lines) - top)
                cells = lines[i].split(",")
                if kind == "short_row":
                    del cells[-1]
                elif kind == "long_row":
                    cells.append("0.5")
                elif kind == "voltage":
                    cells[1 + 2 * (col % (len(header) // 2))] = value
                else:  # non_numeric
                    cells[col % len(cells)] = "abc"
                lines[i] = ",".join(cells)
        run = tmp_path / "run"
        run.mkdir(exist_ok=True)
        for name, lines in files.items():
            (run / name).write_text("\n".join(lines) + "\n")
        traj = str(run / "trajectory.csv")
        report = str(short_run / "report.json")
        commands = [["analyze", "--case", SHED],
                    ["inertia", "--case", SHED]] \
            + [["plotdata", "--report", report, "--kind", plot_kind]
               for plot_kind in cli.PLOT_KINDS]
        for command in commands:
            rc = main(command + ["--traj", traj,
                                 "--outdir", str(run / "out")])
            assert rc in (0, 2, 3), (command, rc)


def json_paths(doc, path=()):
    """The key or index path of every value in the JSON document ``doc``
    below its root, in document order."""
    items = doc.items() if isinstance(doc, dict) \
        else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield [*path, k]
        yield from json_paths(v, [*path, k])


class TestMalformedCase:
    """The case-file twin of TestMalformedRecordedRun: no edit of a saved
    case makes ``simulate`` raise. It runs (exit 0) or exits 2, 3 or 4 with
    an error and no trajectory, and it exits 2 on a non-finite number, a
    value of another type, a duplicated bus id or a misspelled spec key."""

    # 3 s, so that the load shed's event at 2 s is applied
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_simulate_exits_with_a_code(self, tmp_path, capsys, data):
        case = tmp_path / "saved.json"
        save_case(load_case(SHED), case)
        doc = json.loads(case.read_text())
        edit = data.draw(st.sampled_from([
            "drop", "retype", "nan", "inf", "-inf", "zero", "negative",
            "misspell", "duplicate_id"]), label="edit")
        paths = list(json_paths(doc))
        if edit == "misspell":
            paths = [p for p in paths if isinstance(p[-1], str)]
        path = data.draw(st.sampled_from(paths), label="path")
        *parents, last = path
        holder = functools.reduce(operator.getitem, parents, doc)
        value = holder[last]
        # an event keeps unknown keys as params, and a subnet's name is
        # free, so a misspelling under either may still be a valid case
        must_reject = edit in ("retype", "nan", "inf", "-inf",
                               "duplicate_id") or edit == "misspell" and (
            len(path) == 1 or path[0] not in ("events", "subnets"))
        if edit == "drop":
            del holder[last]
        elif edit == "retype":
            holder[last] = 1 if isinstance(value, str) else json.dumps(value)
        elif edit == "misspell":
            i = data.draw(st.integers(0, len(last) - 1), label="letter")
            name = last[:i] + last[i + 1:]
            holder[name + "_" * (name in holder)] = holder.pop(last)
        elif edit == "duplicate_id":
            i, j = data.draw(st.lists(st.integers(0, len(doc["buses"]) - 1),
                                      min_size=2, max_size=2, unique=True),
                             label="buses")
            doc["buses"][i]["id"] = doc["buses"][j]["id"]
        else:
            holder[last] = {
                "nan": float("nan"), "inf": float("inf"),
                "-inf": float("-inf"), "zero": 0,
                "negative": -abs(value) if type(value) in (int, float)
                and value else -1}[edit]
        case.write_text(json.dumps(doc))
        out = tmp_path / "out"
        shutil.rmtree(out, ignore_errors=True)
        capsys.readouterr()
        rc = main(["simulate", "--case", str(case), "--t-end", "3",
                   "--dt", "0.01", "--outdir", str(out)])
        err = capsys.readouterr().err
        if rc == 0:
            assert not must_reject, (edit, path)
            assert (out / "trajectory.csv").exists()
        else:
            assert rc in ((2,) if must_reject else (2, 3, 4)), (edit, path,
                                                                err)
            assert err.startswith("error: ")
            assert not (out / "trajectory.csv").exists()


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
