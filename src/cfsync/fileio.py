"""Case/trajectory/report file formats.

Case files are JSON mirroring the NetworkCase fields (angles in radians,
impedances per-unit on s_base, H in seconds on machine base). Trajectories are
CSV with header ``t,v_1,theta_1,...,v_n,theta_n``, one row per sample, values
at 17 significant digits so doubles round-trip exactly; event times live in a
leading ``# events:`` comment line.

The last trajectory CSV and the last generator CSV this process wrote are
kept in memory when all their values are finite, with the file's size and
the SHA-256 of its bytes, read back from the file just after writing it.
Reading a file of that size hashes it, streamed; if the digest matches, the
kept array is returned as a copy instead of parsing the text, which gives
the same doubles because every finite double round-trips through
``%.17g``. Any other file is parsed.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from . import __version__
from .cf_estimator import ComplexFrequencySample, uniform_step
from .dynamics import Trajectory
from .grid_model import (
    BusSpec,
    CaseError,
    Event,
    ExciterSpec,
    GeneratorSpec,
    GovernorSpec,
    LineSpec,
    LoadSpec,
    NetworkCase,
)

_FMT = "%.17g"  # 17 significant digits: every double round-trips
_CHUNK_ROWS = 4096  # rows formatted per write, bounding the text in memory


def format_number(x: float) -> str:
    return _FMT % x


def write_csv(path: str | Path, header: list[str],
              columns: list[np.ndarray], comment: str | None = None
              ) -> np.ndarray:
    """Write equal-length columns as CSV rows under a header line, and
    return the (n_rows, n_cols) array written.

    Each column is a 1-D array (one CSV column) or a 2-D array (one CSV
    column per array column); all values are written with ``_FMT``. A
    ``comment`` becomes a leading ``# comment`` line."""
    data = np.column_stack(columns)
    row = ",".join([_FMT] * data.shape[1])
    with Path(path).open("w") as f:
        if comment is not None:
            f.write(f"# {comment}\n")
        f.write(",".join(header) + "\n")
        for start in range(0, len(data), _CHUNK_ROWS):
            chunk = data[start:start + _CHUNK_ROWS].tolist()
            f.write("".join([row % tuple(r) + "\n" for r in chunk]))
    return data


@dataclasses.dataclass
class _Written:
    size: int
    digest: str
    data: np.ndarray


# The last trajectory and generator CSV written by this process, by kind,
# so that later commands in the same process (scripts/run_load_shed.py runs
# six on the trajectory it simulates) read them back without parsing.
_written: dict[str, _Written] = {}


def _write_kept(kind: str, path: str | Path, header: list[str],
                columns: list[np.ndarray], comment: str | None = None) -> None:
    """``write_csv``, keeping the written array for ``_kept`` when every
    value is finite (only then does the text round-trip bit for bit)."""
    _written.pop(kind, None)
    data = write_csv(path, header, columns, comment=comment)
    if np.isfinite(data).all():
        path = Path(path)
        _written[kind] = _Written(path.stat().st_size, sha256_file(path),
                                  data)


def _kept(kind: str, path: Path) -> np.ndarray | None:
    """A copy of the array kept for ``kind`` if ``path`` holds exactly the
    bytes written for it, else None. Only a file of the kept size is
    hashed."""
    entry = _written.get(kind)
    if entry is None or path.stat().st_size != entry.size \
            or sha256_file(path) != entry.digest:
        return None
    return entry.data.copy()


# ---------------------------------------------------------------------------
# case JSON

def case_from_dict(d: dict) -> NetworkCase:
    try:
        buses = [
            BusSpec(id=b["id"], kind=b["kind"], base_kv=b["base_kv"],
                    subnet=b["subnet"], v_set=b.get("v_set"))
            for b in d["buses"]
        ]
        lines = [
            LineSpec(from_bus=ln["from"], to_bus=ln["to"], r=ln["r"],
                     x=ln["x"], b_sh=ln.get("b_sh", 0.0),
                     tap=ln.get("tap", 1.0),
                     in_service=ln.get("in_service", True))
            for ln in d["lines"]
        ]
        gens = []
        for g in d["generators"]:
            gov = g.get("governor")
            exc = g.get("exciter")
            gens.append(GeneratorSpec(
                bus=g["bus"], h=g["H"], d=g["D"], xdp=g["xdp"],
                s_machine=g["s_machine"], p_set=g.get("p_set", 0.0),
                governor=GovernorSpec(r_gov=gov["r_gov"], t_gov=gov["t_gov"])
                if gov else None,
                exciter=ExciterSpec(k_ex=exc["k_ex"], t_ex=exc["t_ex"],
                                    v_ref=exc.get("v_ref"))
                if exc else None,
            ))
        loads = [LoadSpec(bus=l["bus"], p=l["p"], q=l["q"])
                 for l in d["loads"]]
        events = []
        for ev in d.get("events", []):
            params = {k: v for k, v in ev.items()
                      if k not in ("time", "kind", "description")}
            events.append(Event(time=ev["time"], kind=ev["kind"],
                                params=params,
                                description=ev.get("description", "")))
        case = NetworkCase(
            s_base=d["s_base"], f_nominal=d["f_nominal"], buses=buses,
            lines=lines, generators=gens, loads=loads,
            subnets={k: list(v) for k, v in d["subnets"].items()},
            events=events,
        )
    except KeyError as exc:
        raise CaseError(f"missing case field {exc.args[0]!r}") from exc
    case.validate()
    return case


def case_to_dict(case: NetworkCase) -> dict:
    def gen_dict(g: GeneratorSpec) -> dict:
        out: dict = {"bus": g.bus, "H": g.h, "D": g.d, "xdp": g.xdp,
                     "s_machine": g.s_machine, "p_set": g.p_set}
        if g.governor:
            out["governor"] = {"r_gov": g.governor.r_gov,
                               "t_gov": g.governor.t_gov}
        if g.exciter:
            exc = {"k_ex": g.exciter.k_ex, "t_ex": g.exciter.t_ex}
            if g.exciter.v_ref is not None:
                exc["v_ref"] = g.exciter.v_ref
            out["exciter"] = exc
        return out

    return {
        "s_base": case.s_base,
        "f_nominal": case.f_nominal,
        "buses": [
            {"id": b.id, "kind": b.kind, "base_kv": b.base_kv,
             "subnet": b.subnet,
             **({"v_set": b.v_set} if b.v_set is not None else {})}
            for b in case.buses
        ],
        "lines": [
            {"from": ln.from_bus, "to": ln.to_bus, "r": ln.r, "x": ln.x,
             "b_sh": ln.b_sh, "tap": ln.tap, "in_service": ln.in_service}
            for ln in case.lines
        ],
        "generators": [gen_dict(g) for g in case.generators],
        "loads": [{"bus": l.bus, "p": l.p, "q": l.q} for l in case.loads],
        "subnets": {k: list(v) for k, v in case.subnets.items()},
        "events": [
            {"time": ev.time, "kind": ev.kind, **ev.params,
             "description": ev.description}
            for ev in case.events
        ],
    }


def load_case(path: str | Path) -> NetworkCase:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise CaseError(f"cannot read case file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseError(
            f"parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return case_from_dict(data)


def save_case(case: NetworkCase, path: str | Path) -> None:
    Path(path).write_text(json.dumps(case_to_dict(case), indent=2) + "\n")


# ---------------------------------------------------------------------------
# trajectory CSV

def _interleave(arrays: list[np.ndarray]) -> np.ndarray:
    """(n, m) arrays a, b, ... as the (n, m * len(arrays)) array whose
    columns run a[:, 0], b[:, 0], ..., a[:, 1], b[:, 1], ..."""
    stacked = np.stack(arrays, axis=2)
    return stacked.reshape(stacked.shape[0], -1)


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    header = ["t"]
    for b in traj.bus_ids:
        header += [f"v_{b}", f"theta_{b}"]
    events = ",".join(format_number(t) for t in traj.event_times)
    _write_kept("trajectory", path, header,
                [traj.times, _interleave([traj.v, traj.theta])],
                comment=f"events: {events}")


def read_trajectory_csv(path: str | Path, omega_s: float) -> Trajectory:
    path = Path(path)
    kept = _kept("trajectory", path)
    event_times: list[float] = []
    with path.open() as f:
        line = f.readline().strip()
        if line.startswith("# events:"):
            payload = line[len("# events:"):].strip()
            if payload:
                event_times = [float(x) for x in payload.split(",")]
            header = f.readline().strip()
        else:
            header = line
        names = header.split(",")
        if names[0] != "t" or (len(names) - 1) % 2 != 0:
            raise ValueError(f"{path}: malformed trajectory header")
        bus_ids = []
        for j in range(1, len(names), 2):
            if not (names[j].startswith("v_")
                    and names[j + 1].startswith("theta_")):
                raise ValueError(f"{path}: malformed trajectory header")
            bus_ids.append(int(names[j][2:]))
        data = kept if kept is not None \
            else np.loadtxt(f, delimiter=",", ndmin=2)
    times = data[:, 0]
    try:
        uniform_step(times)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    v = data[:, 1::2]
    theta = data[:, 2::2]
    return Trajectory(
        times=times, bus_ids=bus_ids, v=v, theta=theta,
        gen_buses=[], delta=None, omega=None, e_q=None, p_m=None,
        p_e=None, q_e=None, event_times=event_times,
        omega_s=omega_s,
    )


def write_generator_csv(traj: Trajectory, path: str | Path) -> None:
    if traj.delta is None:
        raise ValueError("trajectory carries no generator state series")
    header = ["t"]
    for b in traj.gen_buses:
        header += [f"delta_{b}", f"omega_{b}", f"eq_{b}", f"pm_{b}",
                   f"pe_{b}", f"qe_{b}"]
    arrays = [traj.delta, traj.omega, traj.e_q, traj.p_m, traj.p_e, traj.q_e]
    _write_kept("generator", path, header, [traj.times, _interleave(arrays)])


def read_generator_csv(path: str | Path) -> dict:
    path = Path(path)
    kept = _kept("generator", path)
    with path.open() as f:
        names = f.readline().strip().split(",")
        data = kept if kept is not None \
            else np.loadtxt(f, delimiter=",", ndmin=2)
    gen_buses = [int(n.split("_", 1)[1]) for n in names[1::6]]
    out = {"times": data[:, 0], "gen_buses": gen_buses}
    for j, key in enumerate(("delta", "omega", "e_q", "p_m", "p_e", "q_e")):
        out[key] = data[:, 1 + j::6]
    return out


# ---------------------------------------------------------------------------
# JSON reports and manifests

def _jsonable(obj):
    if isinstance(obj, ComplexFrequencySample):
        return {"eps": obj.eps, "omega": obj.omega}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v)
                for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = [_jsonable(v) for v in obj]
        return sorted(items) if isinstance(obj, (set, frozenset)) else items
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return None
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(obj, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(_jsonable(obj), indent=2, sort_keys=True,
                   allow_nan=False) + "\n")


def sha256_file(path: str | Path) -> str:
    """The hex SHA-256 of a file, read in 1 MiB blocks."""
    h = hashlib.sha256()
    with Path(path).open("rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def build_manifest(case_path: str | Path, sim_config,
                   sync_config=None, outputs: list[str] | None = None) -> dict:
    return {
        "tool_version": __version__,
        "case_path": str(case_path),
        "case_sha256": sha256_file(case_path),
        "sim_config": _jsonable(sim_config),
        "sync_config": _jsonable(sync_config) if sync_config else None,
        "outputs": outputs or [],
    }
