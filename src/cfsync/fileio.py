"""Case/trajectory/report file formats.

A case file is JSON holding the fields of NetworkCase and its spec
dataclasses (angles in radians, impedances per-unit on s_base, H in
seconds on machine base), read and written by one walk over the specs'
fields and type hints: see ``_read`` and ``_write``. A value of the wrong
type or a non-finite number, a required field left out, or a key that
names no field raises a CaseError naming its key.

A recorded run is two CSVs, both described by ``_SERIES``: the trajectory
(``t,v_1,theta_1,...``, event times in a leading ``# events:`` line) and
the generator series (``t,delta_1,omega_1,eq_1,pm_1,pe_1,qe_1,...``).

Every CSV is written by ``write_csv``, which gives each value the bytes of
``"%.17g" % x`` without making a Python float of it. It streams the table:
blocks of whole rows, about 2^13 values, are gathered from the columns and
formatted by a numpy kernel in work arrays allocated once per call, about
1.3 MiB, so no copy of the table is made. The kernel scales each |x| to 17
integer digits in double-double arithmetic (a table of 10^p built from
Python ints on the first write), turns the digits into ASCII through a
table of 4-digit groups, lays each value's text out as one run in a
32-byte slot (four 8-byte words) and drops the NUL bytes before and after
the run. Values whose rounding the scaling cannot settle (within 1e-9 of a
half, or at the 10^16 or 10^17 edge of the digits), non-finite values and
|x| outside [1e-200, 1e201) are formatted by ``%.17g`` itself, so the
bytes never rest on how tight the scaling's error bound is. The work
arrays are reused rather than made for each chunk (see ``_Work``).

The last trajectory CSV and the last generator CSV this process wrote or
read are kept in memory as one read-only array each, keyed by the file's
size and the SHA-256 of its bytes. A written file's array is the one its
rows were laid out in, kept when all its values are finite, with the bytes
hashed as ``write_csv`` writes them; a read file's array is the one parsed
from it, kept once every value in it is found finite (a non-finite value
is an error). Every read hashes the file, streamed: if the size and
digest are those of the kind's entry, the kept array itself is returned;
otherwise the file is parsed once and its array replaces the entry. A
kept array written by this process gives the doubles parsing would,
because every finite double round-trips through ``%.17g``. Either way the
arrays read back are read-only: an in-place write raises ValueError, so
no caller can change what a later read returns.
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import platform
import types
import typing
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .cf_estimator import uniform_step
from .dynamics import Trajectory
from .grid_model import CaseError, Event, NetworkCase, is_finite_number

_FMT = "%.17g"  # 17 significant digits: every double round-trips
# values formatted per step, bounding the work arrays (``_Work``, 172 bytes
# a value). Both shipped scripts run 12 times in one process peaked at
# 54.4 MiB with 2^14-value chunks, in a CSV write, and at 53.1 and 52.4 MiB
# with 2^13 and 2^12, outside the writer. Each halving pays the kernel's
# fixed cost per call again: an 80,001 x 19 write took 179 ms at 2^14 and
# 204 ms at 2^13 (one BLAS thread, 2-vCPU VM)
_CHUNK = 1 << 13
# |x| in [_LOW, _HIGH) is scaled in double-double without overflow or
# subnormal parts, and its decimal exponent e is within +-_E_MAX; other
# values go through _FMT
_LOW, _HIGH = 1e-200, 1e201
_E_MAX = 202
# a scaled value this close to a half-integer could round either way within
# the double-double error (about 1e-14); it goes through _FMT
_TIE = 1e-9
_ZEROS = 0x3030303030303030  # eight ASCII "0" in one word
_N_E = 2 * _E_MAX + 1  # decimal exponents in the tables


def format_number(x: float) -> str:
    return _FMT % x


@dataclasses.dataclass(frozen=True)
class _Tables:
    """Lookup tables of ``_format_chunk``. Words are little-endian, the low
    byte first; a pair of words is digits 1-8 and 9-16 of a value, as laid
    out from byte 8 of its slot. Indexed by k = e + _E_MAX for a decimal
    exponent e, or by qn = 18 q + nd for q digits before the point (0 after
    a "0.000" prefix) and nd significant digits."""
    pow10: tuple[np.ndarray, ...]  # by k: 10^(16 - e), hi, hi's halves, lo
    q18: np.ndarray  # by k: 18 q
    head: np.ndarray  # by k, + _N_E if negative: sign and prefix to byte 6
    tail: np.ndarray  # by k, + _N_E at a newline: "e+XX[X]", separator
    stay: tuple[np.ndarray, ...]  # by qn: the digits kept in place
    move: tuple[np.ndarray, ...]  # by qn: the digits moved a byte up
    point: tuple[np.ndarray, ...]  # by qn: the point, where they were
    end: np.ndarray  # by qn: 8 times the text's bytes after word 0
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

    def split(wide: list[int]) -> tuple[np.ndarray, ...]:
        return words(v & (1 << 64) - 1 for v in wide), \
            words(v >> 64 for v in wide)

    def digits(first: int, last: int) -> int:  # digits first..last
        return sum(0xFF << 8 * (i - 1) for i in range(first, last + 1))

    # %g: fixed notation for -4 <= e < 17, with a "0.000" prefix below 0
    q = [e + 1 if 0 <= e < 17 else 0 if -4 <= e < 0 else 1 for e in es]
    prefix = [b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"" for e in es]
    exponent = [b"" if -4 <= e < 17 else b"e%+03d" % e for e in es]
    # after a prefix, digits 1..nd-1 follow the first in place; otherwise
    # digits 1..q-1 stay, and a fraction's digits q..nd-1 move up a byte
    # to make room for the point (nd = 0 does not occur)
    qn = [(q, nd) for q in range(18) for nd in range(18)]
    stay = [digits(1, nd - 1) if not q else digits(1, q - 1) for q, nd in qn]
    move = [digits(q, nd - 1) if q else 0 for q, nd in qn]
    point = [ord(".") << 8 * (q - 1) if 0 < q < nd else 0 for q, nd in qn]
    end = [8 * max(nd - 1 if not q else max(nd, q) - 1 + (nd > q), 0)
           for q, nd in qn]
    return _Tables(
        pow10=(hi, hi_a, hi - hi_a, np.array(lo)),
        q18=18 * np.array(q),
        tail=words(int.from_bytes(x + sep, "little")
                   for sep in (b",", b"\n") for x in exponent),
        head=words(int.from_bytes(t, "little") << 8 * (7 - len(t))
                   for sign in (b"", b"-") for t in (sign + p for p in prefix)),
        stay=split(stay), move=split(move), point=split(point),
        end=words(end),
        digit4=np.frombuffer(b"".join(b"%04d" % i for i in range(10000)),
                             dtype="<u4").astype(np.uint64))


class _Work:
    """The work arrays of ``_format_chunk`` for chunks of up to ``size``
    values, allocated once per ``write_csv`` call: 172 bytes a value, so
    1.3 MiB at ``_CHUNK`` values.

    The slots, four words a value, and their NUL mask take the bytes of
    the float rows, which the kernel has stopped reading by the time it
    lays the text out. Allocated anew for each chunk, arrays of 2^14
    values (128 KiB a row) are mapped fresh by glibc's malloc and unmapped
    on free, until a larger block has been freed: in a fresh process a
    streamed 80,001 x 19 write took 98,000 minor page faults and 0.42 s
    that way, against 1,500 and 0.28 s with the arrays reused. The
    compacted text, at most 25 bytes a value, is the one array each chunk
    makes: numpy's only compaction into a given buffer, ``np.compress``,
    first builds an index array eight times its size."""

    def __init__(self, size: int):
        self.f = np.empty((8, size))
        self.i = np.empty((4, size), dtype=np.int64)
        self.j = np.empty((8, size), dtype=np.int32)
        self.u = np.empty((5, size), dtype=np.uint64)
        self.b = np.empty((4, size), dtype=bool)
        self.slots = self.f[:4].view("<u8").reshape(size, 4)
        self.keep = self.f[4:].view(bool).reshape(-1)


def _take(table: np.ndarray, index: np.ndarray, out: np.ndarray) -> None:
    """``out[...] = table[index]`` for indices known to be in range, with
    no temporary (``np.take`` copies ``out`` to check the indices)."""
    np.take(table, index, out=out, mode="clip")


def _scaled(a: np.ndarray, k: np.ndarray, w: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """a * 10^(16 - e), k = e + _E_MAX, as a normalised double-double
    (yh, yl): an exact product with 10^p's hi part, plus a times its lo
    part. Works in the seven rows of ``w``; yh and yl are its first two."""
    hi, hi_a, hi_b, lo, a_a, a_b, p = w
    for table, out in zip(_tables().pow10, (hi, hi_a, hi_b, lo)):
        _take(table, k, out)
    np.multiply(a, 134217729.0, out=a_a)  # Dekker's split: c
    np.subtract(a_a, a, out=a_b)
    a_a -= a_b  # c - (c - a)
    np.subtract(a, a_a, out=a_b)
    np.multiply(a, hi, out=p)
    # t = ((a_a hi_a - p) + a_a hi_b + a_b hi_a) + a_b hi_b + a lo, summed
    # in that order
    np.multiply(a_b, hi_a, out=hi)
    hi_a *= a_a
    hi_a -= p
    a_b *= hi_b
    hi_b *= a_a
    lo *= a
    for term in (hi_b, hi, a_b, lo):
        hi_a += term
    yh, yl = hi, hi_a
    np.add(p, yl, out=yh)
    yl -= np.subtract(yh, p, out=p)
    return yh, yl


def _format_chunk(x: np.ndarray, sep: np.ndarray, w: _Work) -> memoryview:
    """The ``_FMT`` text of each value of ``x``, each followed by its
    separator, concatenated: a comma where ``sep`` is 0, a newline where
    it is _N_E.

    Each value's text is one run in a slot of four 8-byte words: word 0
    ends with the sign, a "0.000" prefix and the first digit, in byte 7;
    digits 1-16 follow from byte 8, those after the point moved up a byte
    to make room for it; and "e+XX[X]" and the separator follow the last
    digit kept. The longest text, "-1.2345678901234567e+100,", takes bytes
    6 to 30. The NUL bytes before and after each run are dropped from the
    chunk at the end."""
    tab = _tables()
    n = len(x)
    a, *sc = w.f[:, :n]
    k, d, top64, bot64 = w.i[:, :n]
    bot, top, head, d0, g3, t32, nb1, nb2 = w.j[:, :n]
    s1, s2, t0, t1, carry = w.u[:, :n]
    ok, m1, m2, m3 = w.b[:, :n]
    np.abs(x, out=a)
    np.greater_equal(a, _LOW, out=ok)  # scalable, for now
    ok &= np.less(a, _HIGH, out=m1)
    np.copyto(a, 1.0, where=np.logical_not(ok, out=m1))
    lg = np.log10(a, out=sc[0])
    k[...] = np.floor(lg, out=lg)
    k += _E_MAX
    yh, yl = _scaled(a, k, sc)
    # log10 can be one off next to a power of ten
    fix = top64
    fix[...] = np.greater_equal(yh, 1e17, out=m1)
    fix -= np.less(yh, 1e16, out=m1)
    redo = np.flatnonzero(fix)
    if redo.size:
        k[redo] += fix[redo]
        yh[redo], yl[redo] = _scaled(a[redo], k[redo],
                                     np.empty((7, redo.size)))
    # yh >= 1e16 is an integer, so yl holds the fraction: the 17 digits are
    # d unless the fraction is near one half or d is at an end of the range
    # (out of it, or 10^16 from a rounded-up value)
    r = np.rint(yl, out=sc[2])
    d[...] = yh
    top64[...] = r
    d += top64
    ok &= np.less(np.abs(np.subtract(yl, r, out=r), out=r), 0.5 - _TIE,
                  out=m1)
    np.greater(d, 10 ** 16, out=m1)
    m1 &= np.less(d, 10 ** 17, out=m2)
    np.equal(yh, 1e16, out=m2)
    m2 &= np.equal(yl, 0.0, out=m3)
    ok &= np.logical_or(m1, m2, out=m1)
    skip = np.logical_not(ok, out=m2)
    alone = np.flatnonzero(np.logical_and(
        skip, np.not_equal(x, 0.0, out=m1), out=m1))
    np.copyto(d, 0, where=skip)  # zero, and in range for the fallback rows

    np.floor_divide(d, 10 ** 8, out=top64)
    np.subtract(d, np.multiply(top64, 10 ** 8, out=bot64), out=bot64)
    bot[...] = bot64
    top[...] = top64
    np.floor_divide(top, 10 ** 4, out=head)
    np.floor_divide(head, 10 ** 4, out=d0)
    np.floor_divide(bot, 10 ** 4, out=g3)
    # digits 1-8 and 9-16 of d, the first in the low byte
    dig = tab.digit4
    _take(dig, np.subtract(head, np.multiply(d0, 10 ** 4, out=t32), out=t32),
          s1)
    _take(dig, g3, s2)
    for s, high, whole in ((s1, head, top), (s2, g3, bot)):
        _take(dig, np.subtract(whole, np.multiply(high, 10 ** 4, out=t32),
                               out=t32), t0)
        s |= np.left_shift(t0, 32, out=t0)
    # significant digits: up to the last byte that is not "0"
    mant = sc[3]
    for s, nb in ((s1, nb1), (s2, nb2)):
        mant[...] = np.bitwise_xor(s, np.uint64(_ZEROS), out=t0)
        np.frexp(mant, out=(mant, nb))
        nb += 7
        nb //= 8
    nd = nb1
    np.greater(nb2, 0, out=m1)
    nb2 += 9
    nb2 *= m1
    nd += 1
    np.maximum(nd, nb2, out=nd)

    qn = top64
    _take(tab.q18, k, qn)
    qn += nd
    slots = w.slots[:n]
    # word 0: the sign and a "0.000" prefix ending at byte 6, and the first
    # digit in byte 7
    signed = bot64
    np.right_shift(x.view(np.int64), 63, out=signed)  # -1 if negative
    signed &= _N_E
    signed += k
    _take(tab.head, signed, t0)
    t1[...] = d0
    t1 += 48
    t1 <<= 56
    np.bitwise_or(t0, t1, out=slots[:, 0])
    # words 1-2: digits 1-16 from byte 8, those after the point moved one
    # byte up past it, and the point; word 3: the byte moved out of word 2
    for s, move, stay, point in zip((s1, s2), tab.move, tab.stay,
                                    tab.point):
        _take(move, qn, t0)
        t0 &= s
        _take(stay, qn, t1)
        s &= t1
        _take(point, qn, t1)
        s |= t1
        s |= np.left_shift(t0, 8, out=t1)
        if s is s2:
            s |= carry
        np.right_shift(t0, 56, out=carry)
    # "e+XX[X]" and the separator, ``end`` bits into word 1: words 1-3
    # each take their share by shifts of their own, which give 0 at a
    # count of 64 or more (so does a negative count, wrapped unsigned)
    k += sep
    tail, end = t0, t1
    _take(tab.tail, k, tail)
    _take(tab.end, qn, end)
    np.left_shift(tail, end, out=slots[:, 1])
    slots[:, 1] |= s1
    for word, j in ((s2, 2), (carry, 3)):
        end -= 64
        word |= np.left_shift(tail, end, out=s1)
        word |= np.right_shift(tail, np.negative(end, out=s1), out=s1)
        slots[:, j] = word
    text = slots.view(np.uint8)
    if alone.size:
        width = text.shape[1]
        alone_text = "".join([(_FMT % v + ",\n"[c]).ljust(width, "\0")
                              for v, c in zip(x[alone].tolist(),
                                              (sep[alone] > 0).tolist())])
        text[alone] = np.frombuffer(alone_text.encode("ascii"),
                                    dtype=np.uint8).reshape(-1, width)
    text = text.reshape(-1)
    return memoryview(text[np.not_equal(text, 0, out=w.keep[:text.size])])


def write_csv(path: str | Path, header: list[str],
              columns: list[np.ndarray], comment: str | None = None,
              digest=None) -> None:
    """Write equal-length columns as CSV rows under a header line. A
    ``digest`` (a hashlib object) is fed every byte written.

    Each column is a 1-D array (one CSV column) or a 2-D array (one CSV
    column per array column); columns of unequal length raise ValueError
    before the file is created. A ``comment`` becomes a leading
    ``# comment`` line. Every value is written as ``"%.17g" % x`` writes
    it, byte for byte, but formatted in numpy by ``_format_chunk``.
    Blocks of whole rows, about ``_CHUNK`` values, are gathered from the
    columns into one array and formatted in work arrays allocated once
    per call, so the writer holds under 2 MiB however many rows and
    columns there are, and no copy of the table. The work arrays are reused
    because malloc would map and fault in fresh pages for each chunk's
    (see ``_Work``). Values the vectorised rounding cannot settle,
    non-finite values and |x| outside [1e-200, 1e201) are formatted by
    ``%.17g`` itself."""
    cols = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]
    if not cols or any(c.ndim != 2 or len(c) != len(cols[0]) for c in cols):
        raise ValueError("write_csv needs 1-D or 2-D columns of one length, "
                         f"got shapes {[np.shape(c) for c in columns]}")
    n_rows = len(cols[0])
    n_cols = sum(c.shape[1] for c in cols)
    rows = max(1, _CHUNK // max(1, n_cols))
    block = np.empty((rows, n_cols))
    sep = np.zeros((rows, n_cols), dtype=np.int64)
    sep[:, -1] = _N_E
    work = _Work(block.size)
    with Path(path).open("wb") as f:
        def write(text) -> None:
            f.write(text)
            if digest is not None:
                digest.update(text)

        if comment is not None:
            write(f"# {comment}\n".encode())
        write((",".join(header) + "\n").encode())
        for r0 in range(0, n_rows, rows):
            m = min(rows, n_rows - r0)
            j = 0
            for c in cols:
                block[:m, j:j + c.shape[1]] = c[r0:r0 + m]
                j += c.shape[1]
            write(_format_chunk(block[:m].reshape(-1), sep[:m].reshape(-1),
                                work))


@dataclasses.dataclass
class _Kept:
    size: int
    digest: str
    data: np.ndarray


# The last trajectory and generator CSV this process wrote or read, by
# kind, so that later commands in the same process read the same bytes
# back without parsing: scripts/run_load_shed.py reads the trajectory it
# simulates six times, and analyze then plotdata read one trajectory in
# turn.
_kept: dict[str, _Kept] = {}


# ---------------------------------------------------------------------------
# case JSON

# JSON keys that differ from the name of the spec field they hold
_KEYS = {"from_bus": "from", "to_bus": "to", "h": "H", "d": "D"}
# an event's own keys; every other key of its object is one of its params
_EVENT_KEYS = ("time", "kind", "description")
_EXPECTED = {float: "a finite number", int: "an integer", str: "a string",
             bool: "true or false", list: "a list"}


@functools.cache
def _fields(spec: type) -> list[tuple[dataclasses.Field, str, object]]:
    """Each field of the dataclass ``spec``, its JSON key and its type."""
    hints = typing.get_type_hints(spec)
    return [(f, _KEYS.get(f.name, f.name), hints[f.name])
            for f in dataclasses.fields(spec)]


def _read(hint, value, key: str):
    """The JSON ``value`` read as type ``hint``, or a CaseError naming
    ``key``. A float takes any finite number but a bool; an int, str or
    bool exactly that type; a spec or dict an object, whose members are
    read by their own hints; null is taken only by ``X | None``. A spec's
    object may hold no key that names none of its fields."""
    if typing.get_origin(hint) is types.UnionType:  # X | None
        return None if value is None \
            else _read(typing.get_args(hint)[0], value, key)
    kind, args = typing.get_origin(hint) or hint, typing.get_args(hint)
    spec = dataclasses.is_dataclass(kind)
    if spec or kind is dict:
        ok = isinstance(value, dict)
    elif kind is float:
        ok = type(value) in (int, float) and is_finite_number(value)
    else:
        ok = type(value) is kind
    if not ok:
        shown = json.dumps(value)
        raise CaseError(f"{'case field ' + key if key else 'case file'}: "
                        f"expected {_EXPECTED.get(kind, 'an object')}, got "
                        f"{shown[:40]}{'...' * (len(shown) > 40)}")
    if kind is list:
        return [_read(args[0], v, f"{key}[{i}]") for i, v in enumerate(value)]
    if kind is dict and args:
        return {k: _read(args[1], v, f"{key}.{k}") for k, v in value.items()}
    if not spec:
        return value
    if kind is Event:
        value = {**{k: value[k] for k in _EVENT_KEYS if k in value},
                 "params": {k: v for k, v in value.items()
                            if k not in _EVENT_KEYS}}
    names = [name for _, name, _ in _fields(kind)]
    for name in value:
        if name not in names:
            import difflib  # on this error only: start-up stays without it
            near = difflib.get_close_matches(name, names, n=1)
            raise CaseError(
                f"case field {key + '.' if key else ''}{name}: unknown key"
                + (f", did you mean {near[0]!r}?" if near else ""))
    found = {}
    for f, name, field_hint in _fields(kind):
        where = f"{key}.{name}" if key else name
        if name in value:
            found[f.name] = _read(field_hint, value[name], where)
        elif (f.default is dataclasses.MISSING
              and f.default_factory is dataclasses.MISSING):
            raise CaseError(f"case field {where}: missing")
    return kind(**found)


def _write(value):
    """The JSON form of a spec, or of a list or dict of them: each field
    under its JSON key, None fields left out, and an event's params in the
    place of its ``params`` field. Other values are returned as they are."""
    if isinstance(value, list):
        return [_write(v) for v in value]
    if isinstance(value, dict):
        return {k: _write(v) for k, v in value.items()}
    if not dataclasses.is_dataclass(value):
        return value
    out = {}
    for f, name, _ in _fields(type(value)):
        item = getattr(value, f.name)
        if isinstance(value, Event) and name == "params":
            out.update(item)
        elif item is not None:
            out[name] = _write(item)
    return out


def case_from_dict(d: dict) -> NetworkCase:
    case = _read(NetworkCase, d, "")
    case.validate()
    return case


def case_to_dict(case: NetworkCase) -> dict:
    return _write(case)


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
    """Write the ``kind`` series of ``traj`` for the buses ``ids``.

    The rows are laid out once, in one (n_samples, n_columns) array, and
    written from it. It is kept read-only in ``_kept`` when every value
    is finite (only then does the text round-trip bit for bit), with the
    size and SHA-256 of the bytes written."""
    series = _SERIES[kind]
    _kept.pop(kind, None)  # before the new rows are laid out beside it
    data = np.empty((len(traj.times), 1 + len(series) * len(ids)))
    data[:, 0] = traj.times
    for j, field in enumerate(series.values()):
        data[:, 1 + j::len(series)] = getattr(traj, field)
    digest = hashlib.sha256()
    write_csv(path, ["t"] + [f"{p}_{b}" for b in ids for p in series],
              [data], comment=comment, digest=digest)
    # nan and infinities reach the min or the max: no full-size mask
    if np.isfinite([data.min(initial=0.0), data.max(initial=0.0)]).all():
        data.flags.writeable = False
        _kept[kind] = _Kept(Path(path).stat().st_size, digest.hexdigest(),
                            data)


def _check_parsed(path: Path, names: list[str], data: np.ndarray) -> None:
    """A ValueError, naming the file, unless the rows parsed from it have a
    value under each of the column ``names`` and every value is finite."""
    if len(data) and data.shape[1] != len(names):
        raise ValueError(f"{path}: {data.shape[1]} values a row under "
                         f"{len(names)} column names")
    # nan and infinities reach the min or the max: no full-size mask
    if not np.isfinite([data.min(initial=0.0), data.max(initial=0.0)]).all():
        row, col = np.argwhere(~np.isfinite(data))[0]
        where = f"t = {float(data[row, 0])!r} s" if col \
            else f"data row {row + 1}"
        raise ValueError(f"{path}: non-finite value "
                         f"{float(data[row, col])!r} under {names[col]} at "
                         f"{where}")


def _read_series(kind: str, path: str | Path, comment: str | None = None
                 ) -> tuple[str | None, list[int], np.ndarray, dict]:
    """The text after a leading ``# comment`` line (None without one), the
    bus ids, the times and each series by its Trajectory field, of a
    ``kind`` CSV. Raises ValueError, naming the file, unless the header is
    exactly ``t`` then the ``_SERIES`` columns of each bus, every row has a
    finite value under each name and the time grid is uniform. The times
    and series are read-only views of one array: the kind's kept one if
    the file has its size and SHA-256, else the parsed one, which replaces
    it in ``_kept`` once it passes ``_check_parsed``. The file is hashed
    once, through the binary buffer of the handle it is then read from."""
    path = Path(path)
    series = _SERIES[kind]
    with path.open() as f:
        stamp = _stamp(f)
        digest = _sha256(f.buffer)
        size = f.buffer.tell()
        f.seek(0)
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
        entry = _kept.get(kind)
        if entry is not None and (entry.size, entry.digest) == (size, digest):
            data = entry.data
        else:
            _kept.pop(kind, None)  # never two tables of one kind at once
            with warnings.catch_warnings():
                # a header without rows: the time grid check below says so
                warnings.filterwarnings(
                    "ignore", "loadtxt: input contained no data",
                    UserWarning)
                data = np.loadtxt(f, delimiter=",", ndmin=2)
            _check_parsed(path, names, data)
            data.flags.writeable = False
            # a file written to while it was read may not hold the bytes
            # that were hashed
            if _stamp(f) == stamp:
                _kept[kind] = _Kept(size, digest, data)
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
    """The Trajectory of a CSV from ``write_trajectory_csv``, with no
    generator series. Its times, v and theta are read-only views of one
    array: the one kept from writing or reading that file in this process,
    if its bytes are unchanged, else the parsed one. A ValueError names the
    file and its ``# events:`` line unless each comma-separated entry there
    is a finite number (an empty line has none)."""
    events, bus_ids, times, series = _read_series("trajectory", path,
                                                  comment="events:")
    try:
        event_times = [float(x) for x in events.split(",")] if events else []
    except ValueError:  # not a number: refused as a non-finite one
        event_times = [math.nan]
    if not all(map(math.isfinite, event_times)):
        raise ValueError(f"{path}: malformed '# events: {events}' line "
                         "(need finite times, comma-separated)")
    return Trajectory(
        times=times, bus_ids=bus_ids, **series, gen_buses=[],
        **dict.fromkeys(_SERIES["generator"].values()),
        event_times=event_times, omega_s=omega_s)


def write_generator_csv(traj: Trajectory, path: str | Path) -> None:
    if traj.delta is None:
        raise ValueError("trajectory carries no generator state series")
    _write_series("generator", traj, traj.gen_buses, path)


def read_generator_csv(path: str | Path) -> dict:
    """The times, generator buses and the six generator series of a CSV
    from ``write_generator_csv``, by Trajectory field name. The arrays are
    read-only views of one array, kept or parsed as in
    ``read_trajectory_csv``."""
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


def _sha256(f) -> str:
    """The hex SHA-256 of the rest of the binary file ``f``, read in
    1 MiB blocks into one buffer."""
    h = hashlib.sha256()
    block = memoryview(bytearray(1 << 20))
    while n := f.readinto(block):
        h.update(block[:n])
    return h.hexdigest()


def _stamp(f) -> tuple[int, int]:
    """The size and modification time of the open file ``f``."""
    st = os.fstat(f.fileno())
    return st.st_size, st.st_mtime_ns


def sha256_file(path: str | Path) -> str:
    """The hex SHA-256 of a file."""
    with Path(path).open("rb", buffering=0) as f:
        return _sha256(f)


def _environment() -> dict:
    """The numerical environment of this process: the python and numpy
    versions, the BLAS numpy was built against (name and version from
    ``np.show_config(mode="dicts")``, "unknown" where numpy has no such
    mode), and each BLAS thread variable as set, or None."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: str(blas.get(key, "unknown"))
                 for key in ("name", "version")},
        "threads": {var: os.environ.get(var) for var in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def build_manifest(case_path: str | Path, sim_config,
                   outputs: list[str]) -> dict:
    """The manifest of a run of the case at ``case_path`` that wrote
    ``outputs``. The case is recorded as its resolved path, so that the
    run replays from any working directory, and with the run's numerical
    environment (``_environment``), which a replay does not read."""
    return {
        "tool_version": __version__,
        "case_path": str(Path(case_path).resolve()),
        "case_sha256": sha256_file(case_path),
        "sim_config": _jsonable(sim_config),
        "outputs": outputs,
        "environment": _environment(),
    }
