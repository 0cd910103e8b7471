"""Case/trajectory/report file formats.

Case files are JSON mirroring the NetworkCase fields (angles in radians,
impedances per-unit on s_base, H in seconds on machine base). A recorded
run is two CSVs, both described by ``_SERIES``: the trajectory
(``t,v_1,theta_1,...``, event times in a leading ``# events:`` line) and
the generator series (``t,delta_1,omega_1,eq_1,pm_1,pe_1,qe_1,...``).

Every CSV is written by ``write_csv``, which gives each value the bytes of
``"%.17g" % x`` without making a Python float of it: a numpy kernel takes
2^14 values at a time, whatever the row width, scales each |x| to 17
integer digits in double-double arithmetic (a table of 10^p built from
Python ints on the first write), turns the digits into ASCII through a
table of 4-digit groups, lays each value out in a fixed slot of 8-byte
words and drops the slot bytes it left NUL. Values whose rounding the
scaling cannot settle (within 1e-9 of a half, or at the 10^16 or 10^17
edge of the digits), non-finite values and |x| outside [1e-200, 1e201) are
formatted by ``%.17g`` itself, so the bytes never rest on how tight the
scaling's error bound is.

The last trajectory CSV and the last generator CSV this process wrote are
kept in memory when all their values are finite, with the file's size and
the SHA-256 of its bytes, hashed as ``write_csv`` writes them.
Reading a file of that size hashes it, streamed; if the digest matches, the
kept array is returned as a copy instead of parsing the text, which gives
the same doubles because every finite double round-trips through
``%.17g``. Any other file is parsed.
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .cf_estimator import uniform_step
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
_CHUNK = 1 << 14  # values formatted per step, bounding the work arrays
# |x| in [_LOW, _HIGH) is scaled in double-double without overflow or
# subnormal parts, and its decimal exponent e is within +-_E_MAX; other
# values go through _FMT
_LOW, _HIGH = 1e-200, 1e201
_E_MAX = 202
# a scaled value this close to a half-integer could round either way within
# the double-double error (about 1e-14); it goes through _FMT
_TIE = 1e-9
_ZEROS = 0x3030303030303030  # eight ASCII "0" in one word


def format_number(x: float) -> str:
    return _FMT % x


@dataclasses.dataclass(frozen=True)
class _Tables:
    """Lookup tables of ``_format_chunk``, indexed by e + _E_MAX unless
    noted. Words are little-endian: the low byte is written first."""
    pow10: tuple[np.ndarray, ...]  # 10^(16 - e): hi, hi's halves, lo
    q: np.ndarray  # digits before the point, 0 when the prefix holds it
    prefix: np.ndarray  # "0." and zeros, after the sign byte
    int_masks: tuple[np.ndarray, ...]  # integer digits among 1-8, 9-16
    exponent: np.ndarray  # "e+XX[X]", zero in fixed notation
    frac_masks: tuple[np.ndarray, ...]  # by nd: digits 1-8, 9-16 kept
    digit4: np.ndarray  # by value: "0000".."9999"


@functools.cache
def _tables() -> _Tables:
    """The tables, built from Python ints on first use."""
    es = range(-_E_MAX, _E_MAX + 1)
    hi, lo = [], []
    for p in (16 - e for e in es):
        num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
        h = num / den  # int division is correctly rounded
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    hi = np.array(hi)
    c = 134217729.0 * hi  # Dekker's split into 26-bit halves
    hi_a = c - (c - hi)

    def words(values) -> np.ndarray:
        return np.array(list(values), dtype=np.uint64)

    def low(k: int) -> int:  # the k low bytes of a word, clipped to 0..8
        return (1 << 8 * min(max(k, 0), 8)) - 1

    # %g: fixed notation for -4 <= e < 17, with a "0.000" prefix below 0
    q = [e + 1 if 0 <= e < 17 else 0 if -4 <= e < 0 else 1 for e in es]
    return _Tables(
        pow10=(hi, hi_a, hi - hi_a, np.array(lo)),
        q=np.array(q),
        prefix=words(int.from_bytes(b"0." + b"0" * (-e - 1), "little") << 8
                     if -4 <= e < 0 else 0 for e in es),
        int_masks=(words(low(k - 1) for k in q), words(low(k - 9) for k in q)),
        exponent=words(0 if -4 <= e < 17
                       else int.from_bytes(b"e%+03d" % e, "little")
                       for e in es),
        frac_masks=(words(low(n - 1) for n in range(18)),
                    words(low(n - 9) for n in range(18))),
        digit4=np.frombuffer(b"".join(b"%04d" % i for i in range(10000)),
                             dtype="<u4").astype(np.uint64))


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10^(16 - e), k = e + _E_MAX, as a normalised double-double
    (yh, yl): an exact product with 10^p's hi part, plus a times its lo
    part."""
    hi, hi_a, hi_b, lo = (t[k] for t in _tables().pow10)
    c = 134217729.0 * a
    a_a = c - (c - a)
    a_b = a - a_a
    p = a * hi
    t = ((a_a * hi_a - p) + a_a * hi_b + a_b * hi_a) + a_b * hi_b + a * lo
    yh = p + t
    return yh, t - (yh - p)


def _format_chunk(x: np.ndarray, last: np.ndarray) -> bytes:
    """The ``_FMT`` text of each value of ``x``, each followed by a newline
    where ``last`` is set and a comma elsewhere, concatenated.

    Each value gets a slot of seven 8-byte words, whose bytes in order are
    the sign; a "0.000" prefix; the integer digits (the first digit in the
    prefix word); the point; the fraction digits (the first in the point's
    word); and "e+XX[X]" and the separator. Bytes a value does not use are
    NUL, and are dropped from the chunk at the end."""
    tab = _tables()
    ax = np.abs(x)
    scalable = (ax >= _LOW) & (ax < _HIGH)
    a = np.where(scalable, ax, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64) + _E_MAX
    yh, yl = _scaled(a, k)
    # log10 can be one off next to a power of ten
    fix = (yh >= 1e17).astype(np.int64) - (yh < 1e16)
    redo = np.flatnonzero(fix)
    if redo.size:
        k[redo] += fix[redo]
        yh[redo], yl[redo] = _scaled(a[redo], k[redo])
    # yh >= 1e16 is an integer, so yl holds the fraction: the 17 digits are
    # d unless the fraction is near one half or d is at an end of the range
    # (out of it, or 10^16 from a rounded-up value)
    r = np.rint(yl)
    d = yh.astype(np.int64) + r.astype(np.int64)
    ok = scalable & (np.abs(yl - r) < 0.5 - _TIE) \
        & ((d > 10 ** 16) & (d < 10 ** 17) | (yh == 1e16) & (yl == 0.0))
    alone = ~ok & (ax != 0.0)
    d = np.where(ok, d, 0)  # zero, and in range for the fallback rows

    top = d // 10 ** 8
    bot = (d - top * 10 ** 8).astype(np.int32)
    top = top.astype(np.int32)
    head = top // 10 ** 4
    d0 = head // 10 ** 4
    g3 = bot // 10 ** 4
    # digits 1-8 and 9-16 of d, the first in the low byte
    dig = tab.digit4
    s1 = dig[head - d0 * 10 ** 4] | dig[top - head * 10 ** 4] << 32
    s2 = dig[g3] | dig[bot - g3 * 10 ** 4] << 32
    # significant digits: up to the last byte that is not "0"
    nb1, nb2 = ((np.frexp((s ^ _ZEROS).astype(np.float64))[1] + 7) // 8
                for s in (s1, s2))
    nd = np.maximum(nb1 + 1, (nb2 > 0) * (nb2 + 9))

    q = tab.q[k]
    pre = q == 0
    i1, i2 = (m[k] for m in tab.int_masks)
    f1, f2 = (m[nd] for m in tab.frac_masks)
    first = (d0.astype(np.uint64) + 48) << 56
    slots = np.empty((len(x), 7), dtype="<u8")
    slots[:, 0] = np.signbit(x) * np.uint64(45) | tab.prefix[k] \
        | first * ~pre
    slots[:, 1] = s1 & i1
    slots[:, 2] = s2 & i2
    slots[:, 3] = ((nd > q) & ~pre) * np.uint64(46) | first * pre
    slots[:, 4] = s1 & f1 & ~i1
    slots[:, 5] = s2 & f2 & ~i2
    slots[:, 6] = tab.exponent[k] | np.uint64(44 << 56) \
        - last * np.uint64(34 << 56)  # "," or newline
    text = slots.view(np.uint8)
    idx = np.flatnonzero(alone)
    if idx.size:
        width = text.shape[1] - 1
        alone_text = "".join([(_FMT % v).ljust(width, "\0")
                              for v in x[idx].tolist()])
        text[idx, :width] = np.frombuffer(alone_text.encode("ascii"),
                                          dtype=np.uint8).reshape(-1, width)
    text = text.ravel()
    return text[text != 0].tobytes()


def write_csv(path: str | Path, header: list[str],
              columns: list[np.ndarray], comment: str | None = None,
              digest=None) -> np.ndarray:
    """Write equal-length columns as CSV rows under a header line, and
    return the (n_rows, n_cols) array written. A ``digest`` (a hashlib
    object) is fed every byte written.

    Each column is a 1-D array (one CSV column) or a 2-D array (one CSV
    column per array column). A ``comment`` becomes a leading
    ``# comment`` line. Every value is written as ``"%.17g" % x`` writes
    it, byte for byte, but formatted in numpy by ``_format_chunk``,
    ``_CHUNK`` values at a time whatever the row width, so its work
    arrays take a few MB however wide the rows are. Values the
    vectorised rounding cannot settle, non-finite values and |x| outside
    [1e-200, 1e201) are formatted by ``%.17g`` itself."""
    data = np.column_stack(columns)
    flat = data.astype(np.float64, copy=False).reshape(-1)
    n_cols = data.shape[1]
    with Path(path).open("wb") as f:
        def write(text: bytes) -> None:
            f.write(text)
            if digest is not None:
                digest.update(text)

        if comment is not None:
            write(f"# {comment}\n".encode())
        write((",".join(header) + "\n").encode())
        for start in range(0, len(flat), _CHUNK):
            chunk = flat[start:start + _CHUNK]
            last = np.arange(start, start + len(chunk)) % n_cols == n_cols - 1
            write(_format_chunk(chunk, last))
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
    value is finite (only then does the text round-trip bit for bit),
    with the size and SHA-256 of the bytes written."""
    _written.pop(kind, None)
    digest = hashlib.sha256()
    data = write_csv(path, header, columns, comment=comment, digest=digest)
    if np.isfinite(data).all():
        _written[kind] = _Written(Path(path).stat().st_size,
                                  digest.hexdigest(), data)


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
# recorded-run CSVs

# The columns of each recorded-run CSV after ``t``: for each bus b in
# order, one column prefix_b per series, mapped to its Trajectory field.
_SERIES = {
    "trajectory": {"v": "v", "theta": "theta"},
    "generator": {"delta": "delta", "omega": "omega", "eq": "e_q",
                  "pm": "p_m", "pe": "p_e", "qe": "q_e"},
}


def _write_series(kind: str, traj: Trajectory, ids: list[int],
                  path: str | Path, comment: str | None = None) -> None:
    """Write the ``kind`` series of ``traj`` for the buses ``ids``."""
    series = _SERIES[kind]
    block = np.stack([getattr(traj, f) for f in series.values()], axis=2)
    _write_kept(kind, path, ["t"] + [f"{p}_{b}" for b in ids for p in series],
                [traj.times, block.reshape(len(block), -1)], comment=comment)


def _read_series(kind: str, path: str | Path, comment: str | None = None
                 ) -> tuple[str | None, list[int], np.ndarray, dict]:
    """The text after a leading ``# comment`` line (None without one), the
    bus ids, the times and each series by its Trajectory field, of a
    ``kind`` CSV. Raises ValueError, naming the file, unless the header is
    exactly ``t`` then the ``_SERIES`` columns of each bus, every row has a
    value under each name and the time grid is uniform."""
    path = Path(path)
    series = _SERIES[kind]
    kept = _kept(kind, path)
    with path.open() as f:
        line, text = f.readline(), None
        if comment is not None and line.startswith(f"# {comment}"):
            text, line = line[len(comment) + 2:].strip(), f.readline()
        names = line.strip().split(",")
        ids = [n.partition("_")[2] for n in names[1::len(series)]]
        if names != ["t"] + [f"{p}_{b}" for b in ids for p in series] \
                or not all(b.removeprefix("-").isdecimal() for b in ids):
            raise ValueError(
                f"{path}: malformed {kind} header (need t, then "
                f"{', '.join(p + '_b' for p in series)} for each bus b)")
        if kept is not None:
            data = kept
        else:
            with warnings.catch_warnings():
                # a header without rows: the time grid check below says so
                warnings.filterwarnings(
                    "ignore", "loadtxt: input contained no data",
                    UserWarning)
                data = np.loadtxt(f, delimiter=",", ndmin=2)
    if len(data) and data.shape[1] != len(names):
        raise ValueError(f"{path}: {data.shape[1]} values a row under "
                         f"{len(names)} column names")
    try:
        uniform_step(data[:, 0])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return text, [int(b) for b in ids], data[:, 0], {
        field: data[:, 1 + j::len(series)]
        for j, field in enumerate(series.values())}


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    events = ",".join(format_number(t) for t in traj.event_times)
    _write_series("trajectory", traj, traj.bus_ids, path,
                  comment=f"events: {events}")


def read_trajectory_csv(path: str | Path, omega_s: float) -> Trajectory:
    events, bus_ids, times, series = _read_series("trajectory", path,
                                                  comment="events:")
    return Trajectory(
        times=times, bus_ids=bus_ids, **series, gen_buses=[],
        **dict.fromkeys(_SERIES["generator"].values()),
        event_times=[float(x) for x in events.split(",")] if events else [],
        omega_s=omega_s)


def write_generator_csv(traj: Trajectory, path: str | Path) -> None:
    if traj.delta is None:
        raise ValueError("trajectory carries no generator state series")
    _write_series("generator", traj, traj.gen_buses, path)


def read_generator_csv(path: str | Path) -> dict:
    """The times, generator buses and the six generator series of a CSV
    from ``write_generator_csv``, by Trajectory field name."""
    _, gen_buses, times, series = _read_series("generator", path)
    return {"times": times, "gen_buses": gen_buses, **series}


# ---------------------------------------------------------------------------
# JSON reports and manifests

def _jsonable(obj):
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
