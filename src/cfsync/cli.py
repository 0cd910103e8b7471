"""Command-line entry points: simulate, analyze, inertia, plotdata.

Exit codes: 0 success, 2 input error, 3 configuration error, 4 numerical
failure. The default output directory comes from $CFSYNC_OUTDIR (cwd if
unset).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cf_estimator import estimate_complex_frequency
from .dynamics import SimConfig, SimulationError, simulate
from .fileio import (
    build_manifest,
    format_number,
    load_case,
    read_generator_csv,
    read_trajectory_csv,
    sha256_file,
    write_csv,
    write_generator_csv,
    write_json,
    write_trajectory_csv,
)
from .grid_model import CaseError, PowerFlowError
from .inertia import (
    CapacitorBusModel,
    EstimationError,
    estimate_frequency_inertia,
    estimate_voltage_inertia,
    generalized_inertia_series,
    simulate_capacitor_bus,
)
from .metrics import disturbance_region, node_metrics, subnet_metrics
from .sync_detector import SyncConfig, evaluate

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4

PLOT_KINDS = ("eps", "omega", "subnet_spread", "damping")


class InputError(Exception):
    pass


class ConfigError(Exception):
    pass


def _outdir(args) -> Path:
    base = getattr(args, "outdir", None) or os.environ.get("CFSYNC_OUTDIR") \
        or "."
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args) -> int:
    outdir = _outdir(args)
    if args.from_manifest:
        try:
            manifest_in = json.loads(Path(args.from_manifest).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read manifest: {exc}") from exc
        case_path = manifest_in["case_path"]
        sc = manifest_in["sim_config"]
        config = SimConfig(t_end=sc["t_end"], dt=sc["dt"],
                           integrator=sc["integrator"],
                           record_every=sc["record_every"])
    else:
        if not args.case:
            raise InputError("--case is required (or use --from-manifest)")
        case_path = args.case
        config = SimConfig(t_end=args.t_end, dt=args.dt,
                           integrator=args.integrator,
                           record_every=args.record_every)
    case = load_case(case_path)
    if args.from_manifest:
        recorded = manifest_in.get("case_sha256")
        actual = sha256_file(case_path)
        if recorded != actual:
            raise InputError(
                f"case file {case_path} has changed since the manifest was "
                f"written: sha256 {actual}, manifest records {recorded}")
    try:
        config.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    traj = simulate(case, config)

    out = Path(args.out) if args.out else outdir / "trajectory.csv"
    gen_out = Path(args.gen_out) if args.gen_out \
        else out.with_name(out.stem + "_gen.csv")
    manifest_out = Path(args.manifest_out) if args.manifest_out \
        else out.with_name(out.stem + "_manifest.json")
    write_trajectory_csv(traj, out)
    write_generator_csv(traj, gen_out)
    write_json(build_manifest(case_path, config,
                              outputs=[str(out), str(gen_out)]),
               manifest_out)
    print(f"wrote {out}, {gen_out}, {manifest_out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze

def _sync_config_from_args(args, traj) -> SyncConfig:
    t_end = args.t_end if args.t_end is not None else float(traj.times[-1])
    if args.t_event is not None:
        t_event = args.t_event
    elif traj.event_times:
        t_event = min(traj.event_times)
    else:
        t_event = 0.0
    return SyncConfig(
        t_end=t_end, window=args.window, t_coarse=args.t_coarse,
        tol_eps=args.tol_eps, tol_omega=args.tol_omega,
        tol_node=args.tol_node, tol_eq=args.tol_eq, t_event=t_event,
        limit_mode=args.limit_mode,
    )


def build_report(traj, case, config: SyncConfig, smoothing_window: int,
                 n_convention: str) -> dict:
    series = estimate_complex_frequency(traj,
                                        smoothing_window=smoothing_window)
    missing = [b for b in case.bus_index() if b not in series.bus_ids]
    extra = [b for b in series.bus_ids if b not in case.bus_index()]
    if missing or extra:
        raise InputError(
            f"trajectory buses do not match the case "
            f"(missing {missing}, unexpected {extra})")
    sync = evaluate(series, case.subnets, config)

    nm = {
        bus: node_metrics(series.times, *series.node(bus), verdict, config)
        for bus, verdict in sync.nodes.items()
    }
    sm = {
        name: subnet_metrics(
            name, [nm[b] for b in sv.member_buses],
            [sync.nodes[b] for b in sv.member_buses], config.tol_eq)
        for name, sv in sync.subnets.items()
    }
    region = disturbance_region(
        series.times, series.eps, series.omega, series.bus_ids,
        np.array([sync.nodes[b].coarse.eps for b in series.bus_ids]),
        np.array([sync.nodes[b].coarse.omega for b in series.bus_ids]),
        config, n_convention=n_convention,
    )
    return {
        "config": {
            "sync": config,
            "estimator": {
                "smoothing_window": smoothing_window,
                "scheme": series.scheme,
                "omega_convention": series.omega_convention,
                "omega_s": traj.omega_s,
            },
            "n_convention": n_convention,
        },
        "nodes": sync.nodes,
        "node_metrics": nm,
        "subnets": sync.subnets,
        "subnet_metrics": sm,
        "global": sync.global_verdict,
        "disturbance_region": region,
    }


def cmd_analyze(args) -> int:
    outdir = _outdir(args)
    case = load_case(args.case)
    try:
        traj = read_trajectory_csv(args.traj, omega_s=case.omega_s)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read trajectory: {exc}") from exc
    config = _sync_config_from_args(args, traj)
    try:
        config.validate()
        if config.window >= traj.times[-1] - traj.times[0]:
            raise ValueError("window exceeds the trajectory span")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = build_report(traj, case, config, args.smoothing_window,
                          args.n_convention)
    out = Path(args.out) if args.out else outdir / "report.json"
    write_json(report, out)
    print(f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# inertia

def cmd_inertia(args) -> int:
    outdir = _outdir(args)
    case = load_case(args.case)
    result: dict = {
        "tool_version": __version__,
        "m_convention": "M = 2*H*(s_machine/s_base)/omega_s",
        "window": None,
        "estimates": [],
        "sweep": None,
    }

    if not args.traj and not args.sweep:
        raise InputError("nothing to do: pass --traj and/or --sweep")

    if args.traj:
        gen_path = Path(args.gen) if args.gen \
            else Path(args.traj).with_name(Path(args.traj).stem + "_gen.csv")
        try:
            gen = read_generator_csv(gen_path)
            traj = read_trajectory_csv(args.traj, omega_s=case.omega_s)
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot read generator series: {exc}") from exc
        series = estimate_complex_frequency(
            traj, smoothing_window=args.smoothing_window)
        times = gen["times"]
        if args.window:
            window = tuple(args.window)
        else:
            t_event = args.t_event if args.t_event is not None else 0.0
            window = (t_event, min(t_event + 2.0, float(times[-1])))
        result["window"] = list(window)
        for k, bus in enumerate(gen["gen_buses"]):
            dp = gen["p_m"][:, k] - gen["p_e"][:, k]
            dq = 0.5 * (gen["q_e"][0, k] - gen["q_e"][:, k])
            eps = None
            est = {"bus": bus, "m": None, "h_v": None,
                   "residual_p": None, "residual_q": None}
            try:
                est["m"], est["residual_p"] = estimate_frequency_inertia(
                    times, gen["omega"][:, k], dp, window)
            except EstimationError as exc:
                est["m_error"] = str(exc)
            try:
                eps = series.node(bus)[0]
                est["h_v"], est["residual_q"] = estimate_voltage_inertia(
                    times, eps, dq, window)
            except (EstimationError, KeyError) as exc:
                est["h_v_error"] = str(exc)
            if est["m"] is not None and est["h_v"] is not None:
                mask = (times >= window[0]) & (times <= window[1])
                zeta = generalized_inertia_series(
                    est["h_v"], est["m"], times[mask], eps[mask],
                    gen["omega"][:, k][mask])
                est["zeta_peak"] = float(np.abs(zeta).max())
            result["estimates"].append(est)

    if args.sweep:
        h_values = [float(x) for x in args.sweep.split(",")]
        model = CapacitorBusModel(
            c_eq=args.c_eq, s_base=args.cap_s_base, v0=args.v0,
            q_step=args.q_step, t_step=args.t_step,
            q_load_coeff=args.q_load_coeff)
        try:
            sweep = simulate_capacitor_bus(model, h_values,
                                           t_end=args.sweep_t_end,
                                           dt=args.sweep_dt)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        sweep_out = Path(args.sweep_out) if args.sweep_out \
            else outdir / "hv_sweep.csv"
        header = ["t"] + [f"eps_hv_{format_number(h)}" for h in h_values]
        write_csv(sweep_out, header, [sweep.times, sweep.eps])
        result["sweep"] = {
            "h_v_values": h_values,
            "model": {"c_eq": model.c_eq, "s_base": model.s_base,
                      "v0": model.v0, "q_step": model.q_step,
                      "t_step": model.t_step,
                      "q_load_coeff": model.q_load_coeff},
            "csv": str(sweep_out),
            "peak_abs_eps": [float(np.abs(sweep.eps[:, j]).max())
                             for j in range(len(h_values))],
        }
        print(f"wrote {sweep_out}")

    out = Path(args.out) if args.out else outdir / "inertia.json"
    write_json(result, out)
    print(f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# plotdata

def cmd_plotdata(args) -> int:
    outdir = _outdir(args)
    if args.kind not in PLOT_KINDS:
        raise InputError(
            f"unknown figure kind {args.kind!r}; valid kinds: "
            + ", ".join(PLOT_KINDS))
    try:
        report = json.loads(Path(args.report).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read report: {exc}") from exc
    est_cfg = report["config"]["estimator"]

    if not args.traj:
        raise InputError(f"--traj is required for kind {args.kind!r}")
    try:
        traj = read_trajectory_csv(args.traj, omega_s=est_cfg["omega_s"])
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read trajectory: {exc}") from exc
    series = estimate_complex_frequency(
        traj, smoothing_window=est_cfg["smoothing_window"])
    node_keys = {int(k) for k in report["nodes"]}
    if node_keys != set(series.bus_ids):
        raise InputError("report and trajectory bus sets differ")

    if args.kind in ("eps", "omega"):
        data = series.eps if args.kind == "eps" else series.omega
        out = outdir / f"{args.kind}.csv"
        header = ["t"] + [f"{args.kind}_{b}" for b in series.bus_ids]
        write_csv(out, header, [series.times, data])
    elif args.kind == "subnet_spread":
        out = outdir / "subnet_spread.csv"
        names = sorted(report["subnets"])
        cols = []
        for name in names:
            members = report["subnets"][name]["member_buses"]
            idx = [series.bus_ids.index(b) for b in members]
            z = series.eps[:, idx] + 1j * series.omega[:, idx]
            spread = np.abs(z[:, :, None] - z[:, None, :]).max(axis=(1, 2))
            cols.append(spread)
        write_csv(out, ["t"] + names, [series.times] + cols)
    else:  # damping
        out = outdir / "damping.csv"
        header, cols = ["t"], [series.times]
        for b in series.bus_ids:
            node = report["nodes"][str(b)]
            fit = report["node_metrics"][str(b)]["fit_eps"]
            dev = np.abs(series.node(b)[0] - node["coarse"]["eps"])
            header += [f"dev_eps_{b}", f"fit_eps_{b}"]
            cols.append(dev)
            if fit is None or fit["sigma"] in ("inf", None):
                cols.append(np.zeros_like(series.times))
            else:
                cols.append(fit["amplitude"]
                            * np.exp(-fit["sigma"] * series.times))
        write_csv(out, header, cols)
    print(f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cfsync",
        description="Complex-frequency synchronization analysis toolkit")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="run a time-domain simulation")
    ps.add_argument("--case", help="case JSON path")
    ps.add_argument("--t-end", type=float, default=20.0)
    ps.add_argument("--dt", type=float, default=1e-3)
    ps.add_argument("--integrator", choices=("rk4", "trapezoidal"),
                    default="rk4")
    ps.add_argument("--record-every", type=int, default=1)
    ps.add_argument("--out", help="trajectory CSV path")
    ps.add_argument("--gen-out", help="generator-series CSV path")
    ps.add_argument("--manifest-out", help="manifest JSON path")
    ps.add_argument("--from-manifest",
                    help="replay case and config from a manifest")
    ps.add_argument("--outdir")
    ps.set_defaults(func=cmd_simulate)

    pa = sub.add_parser("analyze",
                        help="complex-frequency synchronization report")
    pa.add_argument("--traj", required=True)
    pa.add_argument("--case", required=True)
    pa.add_argument("--t-end", type=float)
    pa.add_argument("--window", type=float, default=1.0)
    pa.add_argument("--t-coarse", type=float)
    pa.add_argument("--tol-eps", type=float, default=1e-4)
    pa.add_argument("--tol-omega", type=float, default=1e-3)
    pa.add_argument("--tol-node", type=float, default=1e-3)
    pa.add_argument("--tol-eq", type=float, default=1e-3)
    pa.add_argument("--t-event", type=float)
    pa.add_argument("--limit-mode", choices=("endpoint", "window_mean"),
                    default="endpoint")
    pa.add_argument("--smoothing-window", type=int, default=5)
    pa.add_argument("--n-convention",
                    choices=("total_buses", "paper_literal"),
                    default="total_buses")
    pa.add_argument("--out", help="report JSON path")
    pa.add_argument("--outdir")
    pa.set_defaults(func=cmd_analyze)

    pi = sub.add_parser("inertia", help="generalized-inertia estimation")
    pi.add_argument("--case", required=True)
    pi.add_argument("--traj", help="trajectory CSV for estimation")
    pi.add_argument("--gen", help="generator-series CSV "
                                  "(default: <traj>_gen.csv)")
    pi.add_argument("--window", type=float, nargs=2,
                    metavar=("T0", "T1"))
    pi.add_argument("--t-event", type=float)
    pi.add_argument("--smoothing-window", type=int, default=5)
    pi.add_argument("--sweep", help="comma-separated H_v values for the "
                                    "capacitor-bus sweep")
    pi.add_argument("--c-eq", type=float, default=4.0)
    pi.add_argument("--cap-s-base", type=float, default=1.0)
    pi.add_argument("--v0", type=float, default=1.0)
    pi.add_argument("--q-step", type=float, default=0.1)
    pi.add_argument("--t-step", type=float, default=0.0)
    pi.add_argument("--q-load-coeff", type=float, default=1.0)
    pi.add_argument("--sweep-t-end", type=float, default=5.0)
    pi.add_argument("--sweep-dt", type=float, default=1e-3)
    pi.add_argument("--sweep-out")
    pi.add_argument("--out")
    pi.add_argument("--outdir")
    pi.set_defaults(func=cmd_inertia)

    pp = sub.add_parser("plotdata", help="emit tidy per-figure CSVs")
    pp.add_argument("--report", required=True)
    pp.add_argument("--traj")
    pp.add_argument("--kind", required=True)
    pp.add_argument("--outdir")
    pp.set_defaults(func=cmd_plotdata)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CaseError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PowerFlowError, SimulationError, EstimationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
