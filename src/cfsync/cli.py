"""Command-line entry points: simulate, analyze, inertia, plotdata.

Exit codes: 0 success, 2 input error or an output that cannot be written,
3 configuration error, 4 numerical
failure. A command that fails leaves none of its outputs. The default
output directory comes from $CFSYNC_OUTDIR (cwd if unset); it is made on
a command's first write.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .cf_estimator import estimate_complex_frequency, window_slice
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
from .sync_detector import SyncConfig, evaluate, row_diameters

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4

PLOT_KINDS = ("eps", "omega", "subnet_spread", "damping")
_NUMBER = (int, float)  # a JSON number (_field turns bools away)


class InputError(Exception):
    pass


class ConfigError(Exception):
    pass


def _read(what: str, path, read=None, **kwargs):
    """The file at ``path``, parsed by ``read(path, **kwargs)`` or as
    JSON; an InputError if it cannot be read or parsed."""
    try:
        return (read(path, **kwargs) if read
                else json.loads(Path(path).read_text()))
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {what}: {exc}") from exc


def _field(doc, what: str, path: str, kind=_NUMBER):
    """``doc``'s value at the dotted ``path``; an InputError naming the
    ``what`` if a key is missing or the value is not a ``kind``."""
    keys = path.split(".")
    for depth, key in enumerate(keys, 1):
        if not isinstance(doc, dict) or key not in doc:
            raise InputError(f"{what} has no field {'.'.join(keys[:depth])}")
        doc = doc[key]
    if isinstance(doc, bool) or not isinstance(doc, kind):
        raise InputError(f"{what} field {path} has the wrong type: {doc!r}")
    return doc


def _number(doc, what: str, path: str) -> float:
    """``_field``'s number at ``path``; an InputError naming it unless it
    is finite (json reads NaN and Infinity)."""
    x = _field(doc, what, path)
    if not math.isfinite(x):
        raise InputError(f"{what} field {path} is not a finite number: {x!r}")
    return x


def _estimate(traj, smoothing_window: int, source):
    """The complex frequency of ``traj``, read from the file ``source``; an
    InputError naming that file if it cannot be differentiated (too few
    rows, a voltage at or below zero)."""
    try:
        return estimate_complex_frequency(traj,
                                          smoothing_window=smoothing_window)
    except ValueError as exc:
        raise InputError(
            f"cannot estimate complex frequency from {source}: {exc}") \
            from exc


def _smoothing_window(args) -> int:
    """``--smoothing-window``; a ConfigError unless it is at least 1."""
    if args.smoothing_window < 1:
        raise ConfigError(f"--smoothing-window must be >= 1, got "
                          f"{args.smoothing_window}")
    return args.smoothing_window


class _Outputs:
    """The files one command writes. ``dir`` is the output directory
    (--outdir, else $CFSYNC_OUTDIR, else the cwd), made by the first
    ``write``. ``remove`` deletes the files written so far and the
    directories that first write made, so that a failed command leaves
    none of its outputs."""

    def __init__(self, args):
        self.dir = Path(getattr(args, "outdir", None)
                        or os.environ.get("CFSYNC_OUTDIR") or ".")
        self.made: list[Path] | None = None  # deepest first
        self.written: list[Path] = []

    def write(self, path: Path, write, *args) -> None:
        """``write(*args)``, which writes the file ``path``. If it raises,
        its file is removed unless it was there before."""
        if self.made is None:
            self.made = [d for d in (self.dir, *self.dir.parents)
                         if not d.exists()]
            self.dir.mkdir(parents=True, exist_ok=True)
        existed = path.exists()
        try:
            write(*args)
        except BaseException:
            if not existed:
                path.unlink(missing_ok=True)
            raise
        self.written.append(path)

    def remove(self) -> None:
        for path in self.written:
            path.unlink(missing_ok=True)
        for d in self.made or []:
            with contextlib.suppress(OSError):  # not empty: not only ours
                d.rmdir()


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args, outputs: _Outputs) -> int:
    if args.from_manifest:
        manifest_in = _read("manifest", args.from_manifest)
        case_path = _field(manifest_in, "manifest", "case_path", str)
        config = SimConfig(**{
            key: _field(manifest_in, "manifest", f"sim_config.{key}", kind)
            for key, kind in (("t_end", _NUMBER), ("dt", _NUMBER),
                              ("integrator", str), ("record_every", int))})
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

    out = Path(args.out) if args.out else outputs.dir / "trajectory.csv"
    gen_out = Path(args.gen_out) if args.gen_out \
        else out.with_name(out.stem + "_gen.csv")
    manifest_out = Path(args.manifest_out) if args.manifest_out \
        else out.with_name(out.stem + "_manifest.json")
    outputs.write(out, write_trajectory_csv, traj, out)
    outputs.write(gen_out, write_generator_csv, traj, gen_out)
    outputs.write(manifest_out, write_json, build_manifest(
        case_path, config, [str(out.resolve()), str(gen_out.resolve())]),
        manifest_out)
    print(f"wrote {out}, {gen_out}, {manifest_out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze

def _t_event(args, traj) -> float:
    """--t-event, else the first event recorded in the trajectory, else 0."""
    if args.t_event is not None:
        return args.t_event
    return min(traj.event_times) if traj.event_times else 0.0


def _sync_config_from_args(args, traj) -> SyncConfig:
    t_end = args.t_end if args.t_end is not None else float(traj.times[-1])
    return SyncConfig(
        t_end=t_end, window=args.window, t_coarse=args.t_coarse,
        tol_eps=args.tol_eps, tol_omega=args.tol_omega,
        tol_node=args.tol_node, tol_eq=args.tol_eq,
        t_event=_t_event(args, traj),
        limit_mode=args.limit_mode,
    )


def build_report(traj, case, config: SyncConfig, smoothing_window: int,
                 n_convention: str, source) -> dict:
    """The analysis report of ``traj``, read from the file ``source``."""
    series = _estimate(traj, smoothing_window, source)
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
                "scheme": "central_difference",
                "omega_convention": "absolute",
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


def cmd_analyze(args, outputs: _Outputs) -> int:
    smoothing_window = _smoothing_window(args)
    case = load_case(args.case)
    traj = _read("trajectory", args.traj, read_trajectory_csv,
                 omega_s=case.omega_s)
    config = _sync_config_from_args(args, traj)
    try:
        config.validate(traj.times)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = build_report(traj, case, config, smoothing_window,
                          args.n_convention, args.traj)
    out = Path(args.out) if args.out else outputs.dir / "report.json"
    outputs.write(out, write_json, report, out)
    print(f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# inertia

def _grid(times: np.ndarray) -> str:
    step = f"step {float(times[1] - times[0])!r}" if len(times) > 1 \
        else "no step"
    return f"{len(times)} rows, {step}"


def _sweep_values(text: str) -> list[float]:
    """The comma-separated H_v values of ``--sweep``, each a finite
    number > 0 given once."""
    values = []
    for item in text.split(","):
        try:
            h = float(item)
        except ValueError:
            raise ConfigError(
                f"--sweep value {item!r} is not a number") from None
        if not math.isfinite(h):
            raise ConfigError(f"--sweep value {item!r} is not finite")
        if h <= 0:
            raise ConfigError(f"--sweep value {item!r} is not > 0")
        if h in values:
            raise ConfigError(f"--sweep value {item!r} repeats H_v = "
                              f"{format_number(h)}")
        values.append(h)
    return values


def cmd_inertia(args, outputs: _Outputs) -> int:
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
        if not args.case:
            raise InputError("--case is required with --traj")
        case = load_case(args.case)
        gen_path = Path(args.gen) if args.gen \
            else Path(args.traj).with_name(Path(args.traj).stem + "_gen.csv")
        gen = _read("generator series", gen_path, read_generator_csv)
        traj = _read("trajectory", args.traj, read_trajectory_csv,
                     omega_s=case.omega_s)
        times = gen["times"]
        if not np.array_equal(times, traj.times):
            raise InputError(
                f"generator series {gen_path} and trajectory {args.traj} "
                f"are on different time grids: {_grid(times)} against "
                f"{_grid(traj.times)}")
        if args.window:
            window, given = tuple(args.window), "--window"
        else:
            t_event = _t_event(args, traj)
            window = (t_event, min(t_event + 2.0, float(times[-1])))
            given = "--t-event" if args.t_event is not None \
                else "the trajectory's first event"
        rows = window_slice(times, *window)  # the samples both fits use
        if rows.stop - rows.start < 2:  # so also a reversed window
            raise ConfigError(
                f"{given} gives the inertia window {list(window)!r}, which "
                f"holds {rows.stop - rows.start} of the trajectory's "
                f"samples, t = {float(times[0])!r} .. {float(times[-1])!r}; "
                f"a fit needs at least 2")
        result["window"] = list(window)
        series = _estimate(traj, _smoothing_window(args), args.traj)
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
                zeta = generalized_inertia_series(
                    est["h_v"], est["m"], times, eps, gen["omega"][:, k])
                est["zeta_peak"] = float(np.abs(zeta[rows]).max())
            result["estimates"].append(est)

    if args.sweep:
        h_values = _sweep_values(args.sweep)
        model = CapacitorBusModel(
            s_base=args.cap_s_base, v0=args.v0,
            q_step=args.q_step, t_step=args.t_step,
            q_load_coeff=args.q_load_coeff)
        try:
            sweep = simulate_capacitor_bus(model, h_values,
                                           t_end=args.sweep_t_end,
                                           dt=args.sweep_dt)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        sweep_out = Path(args.sweep_out) if args.sweep_out \
            else outputs.dir / "hv_sweep.csv"
        header = ["t"] + [f"eps_hv_{format_number(h)}" for h in h_values]
        outputs.write(sweep_out, write_csv, sweep_out, header,
                      [sweep.times, sweep.eps])
        result["sweep"] = {
            "h_v_values": h_values,
            "model": model,
            "csv": str(sweep_out),
            "peak_abs_eps": [float(np.abs(sweep.eps[:, j]).max())
                             for j in range(len(h_values))],
        }
        print(f"wrote {sweep_out}")

    out = Path(args.out) if args.out else outputs.dir / "inertia.json"
    outputs.write(out, write_json, result, out)
    print(f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# plotdata

def cmd_plotdata(args, outputs: _Outputs) -> int:
    report = _read("report", args.report)
    omega_s = _number(report, "report", "config.estimator.omega_s")
    smoothing_window = _field(report, "report",
                              "config.estimator.smoothing_window", int)
    if smoothing_window < 1:
        raise InputError(
            f"report {args.report}: config.estimator.smoothing_window must "
            f"be >= 1, got {smoothing_window}")
    nodes = _field(report, "report", "nodes", dict)

    traj = _read("trajectory", args.traj, read_trajectory_csv,
                 omega_s=omega_s)
    series = _estimate(traj, smoothing_window, args.traj)
    if set(nodes) != {str(b) for b in series.bus_ids}:
        raise InputError("report and trajectory bus sets differ")

    if args.kind in ("eps", "omega"):
        data = series.eps if args.kind == "eps" else series.omega
        out = outputs.dir / f"{args.kind}.csv"
        header = ["t"] + [f"{args.kind}_{b}" for b in series.bus_ids]
        outputs.write(out, write_csv, out, header, [series.times, data])
    elif args.kind == "subnet_spread":
        out = outputs.dir / "subnet_spread.csv"
        subnets = _field(report, "report", "subnets", dict)
        names = sorted(subnets)
        cols = []
        for name in names:
            members = _field(subnets[name], f"report subnet {name!r}",
                             "member_buses", list)
            if not members:
                raise InputError(f"report subnet {name!r} has no members")
            if any(b not in series.bus_ids for b in members):
                raise InputError(f"report subnet {name!r} has unknown buses")
            idx = [series.bus_ids.index(b) for b in members]
            cols.append(row_diameters(series.eps[:, idx]
                                      + 1j * series.omega[:, idx]))
        outputs.write(out, write_csv, out, ["t"] + names,
                      [series.times] + cols)
    else:  # damping
        out = outputs.dir / "damping.csv"
        # each envelope spans its fit's rows, from t_event; 0 elsewhere
        t_event = _number(report, "report", "config.sync.t_event")
        rows = window_slice(series.times, t_event)
        header, cols = ["t"], [series.times]
        for b in series.bus_ids:
            fit_path = f"node_metrics.{b}.fit_eps"
            limit = _number(report, "report", f"nodes.{b}.coarse.eps")
            fit = _field(report, "report", fit_path, (dict, type(None))) or {}
            header += [f"dev_eps_{b}", f"fit_eps_{b}"]
            cols.append(np.abs(series.node(b)[0] - limit))
            envelope = np.zeros_like(series.times)
            if fit.get("sigma") not in ("inf", None):
                amplitude, sigma = (
                    _number(report, "report", f"{fit_path}.{key}")
                    for key in ("amplitude", "sigma"))
                envelope[rows] = amplitude * np.exp(
                    -sigma * (series.times[rows] - t_event))
            cols.append(envelope)
        outputs.write(out, write_csv, out, header, cols)
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
    pi.add_argument("--case", help="case JSON path, for its omega_s; "
                                   "needed only with --traj")
    pi.add_argument("--traj", help="trajectory CSV for estimation")
    pi.add_argument("--gen", help="generator-series CSV "
                                  "(default: <traj>_gen.csv)")
    pi.add_argument("--window", type=float, nargs=2,
                    metavar=("T0", "T1"))
    pi.add_argument("--t-event", type=float)
    pi.add_argument("--smoothing-window", type=int, default=5)
    pi.add_argument("--sweep", help="comma-separated H_v values for the "
                                    "capacitor-bus sweep")
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
    pp.add_argument("--traj", required=True)
    pp.add_argument("--kind", required=True, choices=PLOT_KINDS)
    pp.add_argument("--outdir")
    pp.set_defaults(func=cmd_plotdata)
    return p


def _check_finite(args) -> None:
    """A ConfigError naming the first float option, or element of one,
    that is NaN or infinite."""
    for name, value in vars(args).items():
        for x in value if isinstance(value, list) else [value]:
            if isinstance(x, float) and not math.isfinite(x):
                raise ConfigError(f"--{name.replace('_', '-')} must be a "
                                  f"finite number, got {x!r}")


def _warn_in_one_line() -> None:
    """Print each UserWarning of this package as one ``warning:`` line on
    stderr; other warnings keep their filters and their format. Call it
    inside ``warnings.catch_warnings``, which undoes it."""
    warnings.filterwarnings("always", category=UserWarning,
                            module=r"cfsync\.")
    show = warnings.showwarning

    def one_line(message, category, filename, *rest):
        if issubclass(category, UserWarning) \
                and Path(filename).parent == Path(__file__).parent:
            print(f"warning: {message}", file=sys.stderr)
        else:
            show(message, category, filename, *rest)

    warnings.showwarning = one_line


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # usage errors, --help and --version
        return exc.code
    outputs = _Outputs(args)
    try:
        with warnings.catch_warnings():
            _warn_in_one_line()
            _check_finite(args)
            return args.func(args, outputs)
    except (CaseError, InputError) as exc:
        code, message = EXIT_INPUT, str(exc)
    except ConfigError as exc:
        code, message = EXIT_CONFIG, str(exc)
    except (PowerFlowError, SimulationError, EstimationError) as exc:
        code, message = EXIT_NUMERICAL, str(exc)
    except OSError as exc:  # every input is read through _read or load_case
        code, message = EXIT_INPUT, f"cannot write output: {exc}"
    outputs.remove()
    print(f"error: {message}", file=sys.stderr)
    return code


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
