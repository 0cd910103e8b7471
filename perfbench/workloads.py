"""The benchmark workloads: set-up, one pass, and the output checks.

An operation is one CLI command or one N-1 scenario. It fails when it exits
non-zero, raises, or fails an output check. Checks use tolerances, never
byte equality, so a change in the last bits of a float still passes.

Each workload's ``run_pass(outdir, timed, fns)`` runs every timed part
through ``timed(fn) -> (result, seconds)`` and checks outputs outside it.
``fns`` holds the public functions a workload calls itself (traced or not).
"""
from __future__ import annotations

import importlib.util
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import cfsync.cli
from cfsync import SimConfig, SyncConfig, bundled_case_path
from cfsync.fileio import load_case

from synthetic_traj import write_synthetic_trajectory
from tiled_case import tiled_case, trip_scenarios

DEFAULT_SEED = 0
REF_TOL = 1e-6
RESIDUAL_MAX = 1e-10
REFERENCES_PATH = Path(__file__).resolve().parent / "references.json"


@dataclass
class Op:
    name: str
    error: str | None = None


@dataclass
class PassResult:
    wall_s: float
    scenario_s: list[float]
    ops: list[Op]

    @property
    def failed(self) -> int:
        return sum(op.error is not None for op in self.ops)


def load_references() -> dict:
    return json.loads(REFERENCES_PATH.read_text())


def compare(got, ref, path: str = "") -> list[str]:
    """Mismatches between nested values; floats within REF_TOL."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{path}: keys differ"]
        return [m for k in ref for m in compare(got[k], ref[k], f"{path}.{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: length differs"]
        return [m for i, (g, r) in enumerate(zip(got, ref))
                for m in compare(g, r, f"{path}[{i}]")]
    if isinstance(ref, float):
        ok = isinstance(got, (int, float)) and abs(got - ref) <= REF_TOL
        return [] if ok else [f"{path}: {got!r} != {ref!r}"]
    return [] if got == ref else [f"{path}: {got!r} != {ref!r}"]


def _cli_op(ops: list[Op], cli, argv: list[str]) -> int:
    """Run one CLI command, recording it as an operation."""
    kind = argv[argv.index("--kind") + 1] if "--kind" in argv else None
    name = argv[0] + (f":{kind}" if kind else "") \
        + (":sweep" if "--sweep" in argv else "")
    op = Op(name)
    ops.append(op)
    try:
        rc = cli(argv)
    except Exception as exc:
        op.error = f"raised {exc!r}"
        raise
    if rc:
        op.error = f"exit code {rc}"
    return rc


def _csv_rows_and_last(path: Path) -> tuple[int, np.ndarray]:
    """Data rows after the header, and the last row's values."""
    n, last = -1, ""
    with path.open() as f:
        for line in f:
            if not line.startswith("#"):
                n, last = n + 1, line
    return n, np.array(last.split(","), dtype=float)


def _check_csv(path: Path, rows: int) -> str | None:
    if not path.is_file():
        return f"{path.name} missing"
    n, last = _csv_rows_and_last(path)
    if n != rows:
        return f"{path.name}: {n} data rows, expected {rows}"
    if not np.all(np.isfinite(last)):
        return f"{path.name}: non-finite values in the last row"
    return None


def _fail(ops: list[Op], name: str, problem: str | None) -> None:
    for op in ops:
        if op.name == name and problem and op.error is None:
            op.error = problem


def _complete(ops: list[Op], expected: list[str]) -> None:
    """Commands a script never reached count as failed operations."""
    ran = [op.name for op in ops]
    for name in expected:
        if name in ran:
            ran.remove(name)
        else:
            ops.append(Op(name, "not run"))


def _load_script(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


# ---------------------------------------------------------------------------

class ScriptsE2E:
    """Both shipped scripts at their default arguments, in-process."""

    COMMANDS = ["simulate", "analyze", "plotdata:eps", "plotdata:omega",
                "plotdata:subnet_spread", "plotdata:damping", "inertia",
                "inertia:sweep"]
    ROWS = 20001  # 20 s at the scripts' default dt of 1 ms

    def __init__(self, root: Path, seed: int, workdir: Path):
        # the scripts' inputs are fixed, so the seed is unused
        self.scripts = [_load_script(root / "scripts" / name)
                        for name in ("run_load_shed.py", "run_hv_sweep.py")]

    def _run_scripts(self, outdir: Path, ops: list[Op]) -> None:
        for mod, sub in zip(self.scripts, ("load_shed", "hv_sweep")):
            cli = mod.cli
            mod.cli = lambda argv, cli=cli: _cli_op(ops, cli, argv)
            argv, sys.argv = sys.argv, [mod.__file__, "--outdir",
                                        str(outdir / sub)]
            try:
                mod.run()
            except Exception:
                pass  # recorded on the operation that raised
            finally:
                sys.argv, mod.cli = argv, cli

    def run_pass(self, outdir: Path, timed, fns) -> PassResult:
        ops: list[Op] = []
        _, seconds = timed(lambda: self._run_scripts(outdir, ops))
        _complete(ops, self.COMMANDS)
        self.check(outdir, ops, load_references()["scripts_e2e"])
        return PassResult(seconds, [seconds], ops)

    @staticmethod
    def summary(outdir: Path) -> dict:
        """Reference quantities: global limit, final trajectory row,
        inertia fits and sweep peaks."""
        shed, sweep = outdir / "load_shed", outdir / "hv_sweep"
        report = json.loads((shed / "report.json").read_text())
        inertia = json.loads((shed / "inertia.json").read_text())
        hv = json.loads((sweep / "inertia.json").read_text())
        _, last = _csv_rows_and_last(shed / "trajectory.csv")
        return {
            "global_limit": [report["global"]["limit"]["eps"],
                             report["global"]["limit"]["omega"]],
            "final_row": last.tolist(),
            "inertia": [[e["m"], e["h_v"]] for e in inertia["estimates"]],
            "peak_abs_eps": hv["sweep"]["peak_abs_eps"],
        }

    def check(self, outdir: Path, ops: list[Op], ref: dict) -> None:
        if any(op.error for op in ops):
            return
        shed = outdir / "load_shed"
        try:
            got = self.summary(outdir)
            report = json.loads((shed / "report.json").read_text())
        except (OSError, ValueError, KeyError, TypeError) as exc:
            for op in ops:
                op.error = op.error or f"unreadable output: {exc!r}"
            return
        _fail(ops, "simulate", _check_csv(shed / "trajectory.csv", self.ROWS)
              or "; ".join(compare(got["final_row"], ref["final_row"])))
        nodes = report["nodes"]
        bad = [b for b, v in nodes.items() if not v["converged"]]
        _fail(ops, "analyze",
              (f"global verdict {report['global']['status']}"
               if report["global"]["status"] != "synchronized" else None)
              or (f"{len(nodes)} nodes, not converged: {bad}"
                  if len(nodes) != 9 or bad else None)
              or "; ".join(compare(got["global_limit"], ref["global_limit"])))
        for kind in ("eps", "omega", "subnet_spread", "damping"):
            _fail(ops, f"plotdata:{kind}",
                  _check_csv(shed / f"{kind}.csv", self.ROWS))
        _fail(ops, "inertia",
              "; ".join(compare(got["inertia"], ref["inertia"])))
        _fail(ops, "inertia:sweep",
              "; ".join(compare(got["peak_abs_eps"], ref["peak_abs_eps"])))


# ---------------------------------------------------------------------------

class N1Screen:
    """N-1 line-trip screening on a 30-tile, 270-bus, 90-machine ring."""

    N_TILES = 30
    N_SCENARIOS = 4
    T_TRIP = 1.0
    SIM = SimConfig(t_end=10.0, dt=2e-3)

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.seed = seed
        self.scenarios = trip_scenarios(tiled_case(self.N_TILES, seed),
                                        self.N_SCENARIOS, seed, self.T_TRIP)

    def _screen(self, case, fns):
        traj = fns.simulate(case, self.SIM)
        series = fns.estimate(traj)
        cfg = SyncConfig(t_end=self.SIM.t_end, t_event=self.T_TRIP)
        sync = fns.evaluate(series, case.subnets, cfg)
        coarse = [sync.nodes[b].coarse for b in series.bus_ids]
        region = fns.disturbance_region(
            series.times, series.eps, series.omega, series.bus_ids,
            np.array([c.eps for c in coarse]),
            np.array([c.omega for c in coarse]), cfg)
        return traj, sync, region

    def run_pass(self, outdir: Path, timed, fns) -> PassResult:
        ops, times = [], []
        refs = load_references()["n1_screen"] \
            if self.seed == DEFAULT_SEED else None
        for k, case in enumerate(self.scenarios):
            op = Op(case.events[0].description)
            ops.append(op)
            try:
                (traj, sync, region), seconds = timed(
                    lambda case=case: self._screen(case, fns))
            except Exception as exc:
                op.error = f"raised {exc!r}"
                continue
            times.append(seconds)
            op.error = self.check(case, traj, sync, region,
                                  refs[k] if refs else None)
            del traj, sync, region
        return PassResult(sum(times), times, ops)

    @staticmethod
    def summary(case, sync) -> dict:
        ev = case.events[0].params
        return {
            "trip": [ev["from"], ev["to"]],
            "global": sync.global_verdict.status,
            "fluctuation": [sync.nodes[b.id].fluctuation for b in case.buses],
        }

    def check(self, case, traj, sync, region, ref: dict | None) -> str | None:
        arrays = [traj.v, traj.theta, traj.delta, traj.omega, traj.e_q,
                  traj.p_m, traj.p_e, traj.q_e]
        if not all(np.all(np.isfinite(a)) for a in arrays):
            return "non-finite trajectory"
        if not traj.max_residual < RESIDUAL_MAX:
            return f"max_residual {traj.max_residual:.3e} >= {RESIDUAL_MAX}"
        if len(sync.nodes) != case.n_bus or not region.s_inf <= set(
                sync.nodes):
            return "verdicts do not cover the case's buses"
        if ref is None:
            return None
        got = self.summary(case, sync)
        if got["trip"] != ref["trip"]:
            return f"tripped {got['trip']}, reference tripped {ref['trip']}"
        if got["global"] != ref["global"]:
            return f"verdict {got['global']} != reference {ref['global']}"
        tol_node = SyncConfig(t_end=self.SIM.t_end).tol_node
        for b, g, r in zip(case.buses, got["fluctuation"], ref["fluctuation"]):
            if not math.isclose(g, r, rel_tol=REF_TOL, abs_tol=1e-12):
                return f"bus {b.id}: fluctuation {g!r} != reference {r!r}"
            borderline = abs(r - tol_node) <= REF_TOL * tol_node
            if not borderline and sync.nodes[b.id].converged != (r < tol_node):
                return f"bus {b.id}: node verdict differs from reference"
        return None


# ---------------------------------------------------------------------------

class AnalyzeFine:
    """``analyze`` and two ``plotdata`` kinds on a finely sampled synthetic
    trajectory (20 s at 0.25 ms) with analytic limits."""

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.case_path = str(bundled_case_path("wscc9_loadshed"))
        case = load_case(self.case_path)
        self.synth = write_synthetic_trajectory(
            workdir / "synthetic.csv", [b.id for b in case.buses],
            case.omega_s, seed)
        self.tol_eq = 1e-3  # the analyze default
        self.n_bus = case.n_bus

    def _run(self, outdir: Path, ops: list[Op]) -> None:
        traj, cli = str(self.synth.path), cfsync.cli.main
        report = str(outdir / "report.json")
        try:
            if _cli_op(ops, cli, ["analyze", "--traj", traj, "--case",
                                  self.case_path, "--outdir", str(outdir)]):
                return
            for kind in ("subnet_spread", "damping"):
                _cli_op(ops, cli, ["plotdata", "--report", report, "--traj",
                                   traj, "--kind", kind, "--outdir",
                                   str(outdir)])
        except Exception:
            pass  # recorded on the operation that raised

    def run_pass(self, outdir: Path, timed, fns) -> PassResult:
        ops: list[Op] = []
        outdir.mkdir(parents=True, exist_ok=True)
        _, seconds = timed(lambda: self._run(outdir, ops))
        _complete(ops, ["analyze", "plotdata:subnet_spread",
                        "plotdata:damping"])
        self.check(outdir, ops)
        return PassResult(seconds, [seconds], ops)

    def check(self, outdir: Path, ops: list[Op]) -> None:
        if ops[0].error is None:
            try:
                report = json.loads((outdir / "report.json").read_text())
                bad = [b for b, v in report["nodes"].items()
                       if not v["converged"]]
                lim = report["global"]["limit"] or {"eps": math.inf,
                                                    "omega": math.inf}
                dist = abs(complex(lim["eps"], lim["omega"])
                           - complex(self.synth.eps_limit,
                                     self.synth.omega_limit))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                ops[0].error = f"unreadable report: {exc!r}"
            else:
                _fail(ops, "analyze",
                      (f"not converged: {bad}" if bad
                       or len(report["nodes"]) != self.n_bus else None)
                      or (f"global limit off the analytic value by "
                          f"{dist:.3e}" if not dist < self.tol_eq else None))
        for kind in ("subnet_spread", "damping"):
            _fail(ops, f"plotdata:{kind}",
                  _check_csv(outdir / f"{kind}.csv", self.synth.n_rows))


WORKLOADS = {
    "scripts_e2e": ScriptsE2E,
    "n1_screen": N1Screen,
    "analyze_fine": AnalyzeFine,
}
