import dataclasses
import functools
import hashlib
import importlib.util
import json
import operator
import os
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cfsync import bundled_case_path, cli, fileio
from cfsync.dynamics import Trajectory
from cfsync.fileio import (
    format_number,
    load_case,
    read_generator_csv,
    read_trajectory_csv,
    save_case,
    write_csv,
    write_generator_csv,
    write_trajectory_csv,
)
from cfsync.grid_model import (
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

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_load_shed.py"

# -0 and nan around the longest text of each notation, then a tie that
# takes the fallback: side by side in each column, the last of which puts
# a newline after each (the nearest double to -1234567890123456.8 is
# itself a tie at 17 digits; -1234567890123456.5 is not)
SPECIALS = [0.0, -0.0, -0.00012345678901234567, -1234567890123456.8,
            -1234567890123456.5, -1.2345678901234566e-99,
            -1.2345678901234567e+100, -1.2345678901234567e-100, np.nan,
            -(2.0 ** 50 + 0.25), np.inf, -np.inf, 5e-324, -5e-324, 1e300,
            -1e300, 2.2250738585072014e-308, 0.1, 1 / 3, 377.0, 2.0 ** 53]


def legacy_rows(columns):
    """The per-value row loop the CSV writers used before write_csv."""
    return "".join(",".join("{:.17g}".format(x) for x in row) + "\n"
                   for row in zip(*columns))


def assert_writes_legacy(tmp_path, columns):
    """write_csv of ``columns`` gives the bytes of ``legacy_rows``."""
    names = [f"c{j}" for j in range(len(columns))]
    out = tmp_path / "legacy.csv"
    write_csv(out, names, columns)
    assert out.read_bytes() == (",".join(names) + "\n"
                                + legacy_rows(columns)).encode()


def legacy_trajectory(traj):
    out = "# events: " + ",".join("{:.17g}".format(t)
                                  for t in traj.event_times) + "\n"
    out += "t," + ",".join(f"v_{b},theta_{b}" for b in traj.bus_ids) + "\n"
    cols = [traj.times]
    for k in range(len(traj.bus_ids)):
        cols += [traj.v[:, k], traj.theta[:, k]]
    return out + legacy_rows(cols)


def legacy_generator(traj):
    names = ("delta", "omega", "eq", "pm", "pe", "qe")
    out = "t," + ",".join(f"{n}_{b}" for b in traj.gen_buses
                          for n in names) + "\n"
    arrays = [traj.delta, traj.omega, traj.e_q, traj.p_m, traj.p_e, traj.q_e]
    cols = [traj.times]
    for k in range(len(traj.gen_buses)):
        cols += [a[:, k] for a in arrays]
    return out + legacy_rows(cols)


class TestWriteCsv:
    def test_bytes_match_legacy_format(self, tmp_path):
        rng = np.random.default_rng(0)
        # more rows than one write chunk, with every special value in
        # every column
        n = 9001
        cols = [rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)
                for _ in range(3)]
        for j, col in enumerate(cols):
            col[j:j + len(SPECIALS)] = SPECIALS
        out = tmp_path / "a.csv"
        write_csv(out, ["a", "b", "c"], cols)
        assert out.read_text() == "a,b,c\n" + legacy_rows(cols)

    def test_two_dimensional_block_and_comment(self, tmp_path):
        t = np.arange(5) * 0.1
        block = np.arange(10.0).reshape(5, 2) - 3.0
        out = tmp_path / "b.csv"
        write_csv(out, ["t", "x", "y"], [t, block], comment="note: 1,2")
        assert out.read_text() == "# note: 1,2\nt,x,y\n" \
            + legacy_rows([t, block[:, 0], block[:, 1]])

    @pytest.mark.parametrize("x", SPECIALS)
    def test_format_number_matches_legacy(self, x):
        assert format_number(x) == "{:.17g}".format(x)

    def test_trajectory_writers_match_legacy(self, loadshed_traj, tmp_path):
        write_trajectory_csv(loadshed_traj, tmp_path / "t.csv")
        write_generator_csv(loadshed_traj, tmp_path / "g.csv")
        assert (tmp_path / "t.csv").read_text() == \
            legacy_trajectory(loadshed_traj)
        assert (tmp_path / "g.csv").read_text() == \
            legacy_generator(loadshed_traj)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                              allow_subnormal=True), min_size=1, max_size=40))
    def test_any_double_matches_legacy(self, tmp_path, values):
        assert_writes_legacy(tmp_path, [np.array(values)])

    def test_random_bit_patterns_match_legacy(self, tmp_path):
        # every exponent, sign and payload, NaNs and subnormals included
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2**64, 60_000, dtype=np.uint64)
        assert_writes_legacy(tmp_path, list(bits.view(np.float64)
                                            .reshape(-1, 3).T))

    def test_half_way_decimals_match_legacy(self, tmp_path):
        # 18 significant digits ending in 5: the 17-digit rounding sits at
        # a half, exactly for k + 1/4 and k + 3/4 (k < 2^51), and within
        # rounding of one for the nearest double to a random decimal
        rng = np.random.default_rng(2)
        k = rng.integers(10**15, 2**51, 2000).astype(np.float64)
        mantissas = rng.integers(10**16, 10**17, 4000)
        exps = rng.integers(-320, 290, 4000)
        near = np.array([float(f"{m}5e{x}") for m, x in zip(mantissas, exps)])
        x = np.concatenate([k + 0.25, k + 0.75, near])
        x = np.concatenate([x, np.nextafter(x, -np.inf),
                            np.nextafter(x, np.inf), -x])
        assert_writes_legacy(tmp_path, [x[: len(x) // 2], x[len(x) // 2:]])

    def test_powers_of_ten_and_neighbours_match_legacy(self, tmp_path):
        # the nearest doubles to 10^k and one ulp either side, across the
        # whole range; some of them round up to the next power of ten at 17
        # digits (1e-14 prints as "1e-14" though it is below 10^-14)
        tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
        x = np.concatenate([tens, np.nextafter(tens, 0.0),
                            np.nextafter(tens, np.inf)])

        def carries(v):
            printed = Decimal("%.17g" % v)
            return printed == Decimal(10) ** printed.adjusted() > Decimal(v)

        assert any(carries(v) for v in x.tolist() if v > 0)
        assert_writes_legacy(tmp_path, [x, -x])

    def test_notation_boundaries_match_legacy(self, tmp_path):
        # %.17g switches notation below 1e-4 and from 1e17 up
        edges = np.array([1e-5, 1e-4, 1e16, 1e17, 1e-3, 0.1, 1.0, 1e15])
        x = np.concatenate([edges * f for f in (1.0, 0.5, 2.0, 9.999)])
        x = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])
        assert_writes_legacy(tmp_path, [x, -x])

    def test_negative_nan_prints_nan(self, tmp_path):
        neg_nan = np.copysign(np.nan, -1.0)
        assert np.signbit(neg_nan)
        out = tmp_path / "n.csv"
        write_csv(out, ["a", "b"], [np.array([neg_nan]), np.array([-0.0])])
        assert out.read_text() == "a,b\nnan,-0\n"

    @pytest.mark.parametrize("n_rows, n_cols", [
        (0, 3), (1, 1), (fileio._CHUNK + 7, 1), (3 * fileio._CHUNK - 1, 2),
        (100, 541)])
    def test_shapes_match_legacy(self, tmp_path, n_rows, n_cols):
        # empty, one column, and row counts that leave a partial last chunk
        # or put a chunk boundary inside a row
        rng = np.random.default_rng(n_rows)
        data = rng.normal(size=(n_rows, n_cols)) * 1e3
        assert_writes_legacy(tmp_path, list(data.T))

    def test_wide_file_memory_is_bounded(self, tmp_path, traced_peak):
        # the trajectory shape of the 270-bus ring (20.6 MiB of values):
        # formatting whole rows of Python floats and strings at once took
        # 170 MB here, and a copy of the table before formatting 25.4 MiB;
        # row blocks and their work arrays take 1.6 MiB; the lookup tables
        # are built once per process, before the write
        fileio._tables()
        data = np.random.default_rng(3).normal(size=(5001, 541))
        _, peak = traced_peak(
            lambda: write_csv(tmp_path / "w.csv", ["c"] * 541,
                              [data[:, 0], data[:, 1:]]))
        assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("columns", [
        [np.zeros(4), np.zeros(5)], [np.zeros(4), np.zeros((3, 2))],
        [np.zeros((4, 2)), np.zeros(4), np.zeros((5, 1))]])
    def test_unequal_columns_raise_before_the_file_exists(self, tmp_path,
                                                          columns):
        # as when the columns were stacked into one array first
        out = tmp_path / "u.csv"
        with pytest.raises(ValueError):
            write_csv(out, ["c"] * 4, columns)
        assert not out.exists()


class TestReadTrajectory:
    def test_non_uniform_grid_rejected(self, tmp_path):
        out = tmp_path / "bad.csv"
        t = np.arange(0, 1, 0.01)
        t[40:] += 0.001
        write_csv(out, ["t", "v_1", "theta_1"],
                  [t, np.ones_like(t), np.zeros_like(t)], comment="events: ")
        with pytest.raises(ValueError, match="non-uniform time grid"):
            read_trajectory_csv(out, omega_s=377.0)

    @pytest.mark.parametrize("extra", [-2, -1, 1, 2])
    def test_row_width_must_match_the_header(self, tmp_path, extra):
        # two values short used to raise IndexError later, in the estimator;
        # two long, a broadcast error
        out = tmp_path / "bad.csv"
        t = np.arange(0, 1, 0.01)
        write_csv(out, ["t", "v_1", "theta_1", "v_2", "theta_2"],
                  [t] + [np.ones((len(t), 4 + extra))], comment="events: ")
        with pytest.raises(ValueError,
                           match=f"{5 + extra} values a row under 5 column"):
            read_trajectory_csv(out, omega_s=377.0)

    @pytest.mark.parametrize("header", [
        "t,v_1,theta_2,v_2,theta_1",  # used to read as buses 1 and 2
        "t,theta_1,v_1", "t,v_1", "t,v_1,theta_1,v_2", "v_1,theta_1",
        "t,v_x,theta_x", "t,v_1_0,theta_1_0"])
    def test_header_must_name_each_bus_exactly(self, tmp_path, header):
        out = tmp_path / "bad.csv"
        n = len(header.split(","))
        rows = "".join(",".join([f"{0.01 * i!r}"] + ["1"] * (n - 1)) + "\n"
                       for i in range(5))
        out.write_text(f"# events: \n{header}\n{rows}")
        with pytest.raises(ValueError, match="malformed trajectory header"):
            read_trajectory_csv(out, omega_s=377.0)


class TestReadGenerator:
    def test_non_uniform_grid_rejected(self, loadshed_traj, tmp_path):
        traj = dataclasses.replace(loadshed_traj,
                                   times=loadshed_traj.times.copy())
        traj.times[4000:] += 0.5e-3
        write_generator_csv(traj, tmp_path / "g.csv")
        with pytest.raises(ValueError, match="non-uniform time grid"):
            read_generator_csv(tmp_path / "g.csv")


@pytest.fixture
def kept_reads(monkeypatch):
    """A fresh, empty read-back store, and a list that records for each
    read whether it was served from memory: it was if the kind's entry
    is the one the read found."""
    monkeypatch.setattr(fileio, "_kept", {})
    hits = []
    read = fileio._read_series

    def counting(kind, *args, **kwargs):
        entry = fileio._kept.get(kind)
        out = read(kind, *args, **kwargs)
        hits.append(entry is not None and fileio._kept.get(kind) is entry)
        return out

    monkeypatch.setattr(fileio, "_read_series", counting)
    return hits


def counted(monkeypatch, owner, name, on_call=None):
    """Patch ``owner.name`` to count its calls in the list returned, and
    call ``on_call()`` first on each."""
    calls = []
    fn = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(on_call() if on_call else None)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def read_back(origin, *reads):
    """Leave the kept entries of the files just written (origin
    "written"), or drop them and make them by reading each file once
    (origin "read"); ``reads`` are the reading calls."""
    if origin == "read":
        fileio._kept.clear()
        for read in reads:
            read()


def bits(a):
    return np.ascontiguousarray(a).tobytes()


def hand_built_trajectory():
    n = 6
    v = np.array([[1.0, -0.0], [5e-324, 1e300], [0.1, -5e-324],
                  [1 / 3, 2.0 ** 53], [-1e300, 0.0], [377.0, 1.0]])
    theta = -v[::-1] * 0.5
    return Trajectory(
        times=np.arange(n) * 1e-3, bus_ids=[4, 7], v=v, theta=theta,
        gen_buses=[], delta=None, omega=None, e_q=None, p_m=None, p_e=None,
        q_e=None, event_times=[0.002], omega_s=377.0)


class TestReadBack:
    """A trajectory or generator CSV this process wrote or read is read
    back from memory while its bytes are unchanged, bit-equal to parsing
    it."""

    def test_trajectory_hit_is_bit_equal_to_loadtxt(self, loadshed_traj,
                                                    tmp_path, kept_reads):
        for traj in (loadshed_traj, hand_built_trajectory()):
            out = tmp_path / "t.csv"
            write_trajectory_csv(traj, out)
            back = read_trajectory_csv(out, omega_s=traj.omega_s)
            ref = np.loadtxt(out, delimiter=",", skiprows=2, ndmin=2)
            assert bits(back.times) == bits(ref[:, 0])
            assert bits(back.v) == bits(ref[:, 1::2])
            assert bits(back.theta) == bits(ref[:, 2::2])
            assert back.bus_ids == traj.bus_ids
            assert back.event_times == traj.event_times
        assert kept_reads == [True, True]

    def test_generator_hit_is_bit_equal_to_loadtxt(self, loadshed_traj,
                                                   tmp_path, kept_reads):
        out = tmp_path / "g.csv"
        write_generator_csv(loadshed_traj, out)
        back = read_generator_csv(out)
        ref = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        assert bits(back["times"]) == bits(ref[:, 0])
        for j, key in enumerate(("delta", "omega", "e_q", "p_m", "p_e",
                                 "q_e")):
            assert bits(back[key]) == bits(ref[:, 1 + j::6])
        assert back["gen_buses"] == loadshed_traj.gen_buses
        assert kept_reads == [True]

    @pytest.mark.parametrize("origin", ["written", "read"])
    def test_same_size_edit_is_parsed(self, tmp_path, kept_reads, origin):
        out = tmp_path / "t.csv"
        write_trajectory_csv(hand_built_trajectory(), out)
        read_back(origin, lambda: read_trajectory_csv(out, omega_s=377.0))
        assert fileio._kept["trajectory"].data[3, 1] == 1 / 3
        text = out.read_text()
        edited = text.replace("0.33333333333333331", "0.33333333333333341")
        assert len(edited) == len(text) and edited != text
        out.write_text(edited)
        back = read_trajectory_csv(out, omega_s=377.0)
        assert kept_reads == [False] * (1 + (origin == "read"))
        assert back.v[3, 0] == 0.33333333333333341
        assert fileio._kept["trajectory"].data[3, 1] == 0.33333333333333341

    @pytest.mark.parametrize("origin", ["written", "read"])
    def test_returned_arrays_are_read_only(self, loadshed_traj, tmp_path,
                                           kept_reads, origin):
        # the kept array is handed out, not copied, and a parsed one alike
        traj = hand_built_trajectory()
        write_trajectory_csv(traj, tmp_path / "t.csv")
        write_generator_csv(loadshed_traj, tmp_path / "g.csv")

        def reads():
            back = read_trajectory_csv(tmp_path / "t.csv", omega_s=377.0)
            gen = read_generator_csv(tmp_path / "g.csv")
            return [back.times, back.v, back.theta] + [
                gen[key] for key in ("times", "delta", "omega", "e_q", "p_m",
                                     "p_e", "q_e")]

        want = [traj.times, traj.v, traj.theta, loadshed_traj.times,
                loadshed_traj.delta, loadshed_traj.omega, loadshed_traj.e_q,
                loadshed_traj.p_m, loadshed_traj.p_e, loadshed_traj.q_e]
        read_back(origin, reads)
        kept = reads()
        fileio._kept.clear()
        parsed = reads()
        assert kept_reads == [False, False] * (origin == "read") + [
            True, True, False, False]
        for a in kept + parsed:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 7.0
            with pytest.raises(ValueError, match="read-only"):
                a += 1.0
        # the arrays handed out, and a later read, hold the written bits
        for a, b in zip(kept + parsed + reads(), want * 3):
            assert bits(a) == bits(b)

    def test_non_finite_values_are_not_kept(self, tmp_path, kept_reads):
        traj = hand_built_trajectory()
        traj = dataclasses.replace(traj, v=traj.v.copy())
        traj.v[2, 1] = np.nan
        write_trajectory_csv(traj, tmp_path / "t.csv")
        assert fileio._kept == {}
        # nor read: the parse is rejected before it could be kept, so a
        # second read of the same bytes parses and rejects it again
        for _ in range(2):
            with pytest.raises(ValueError, match=r"t\.csv: non-finite value "
                               r"nan under v_7 at t = 0\.002 s"):
                read_trajectory_csv(tmp_path / "t.csv", omega_s=377.0)
            assert fileio._kept == {}

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_values_are_rejected_by_name(self, tmp_path,
                                                    kept_reads, value):
        out = tmp_path / "g.csv"
        write_csv(out, ["t", "delta_3", "omega_3", "eq_3", "pm_3", "pe_3",
                        "qe_3"], [np.arange(4) * 0.5, np.ones((4, 6))])
        lines = out.read_text().splitlines()
        lines[3] = lines[3].replace(",1,1,", f",1,{value},", 1)  # omega_3
        out.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"g\\.csv: non-finite value "
                           f"{value} under omega_3 at t = 1\\.0 s"):
            read_generator_csv(out)
        lines[3] = lines[3].replace("1", value, 1)  # the time itself
        out.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"non-finite value {value} "
                           "under t at data row 3"):
            read_generator_csv(out)
        assert fileio._kept == {}

    def test_read_back_without_hashlib_file_digest(self, tmp_path,
                                                   kept_reads, monkeypatch):
        # hashlib.file_digest is new in Python 3.11; the package supports 3.10
        monkeypatch.delattr(hashlib, "file_digest", raising=False)
        out = tmp_path / "t.csv"
        write_trajectory_csv(hand_built_trajectory(), out)
        read_trajectory_csv(out, omega_s=377.0)
        assert kept_reads == [True]

    def test_kept_digest_is_hashed_as_written(self, loadshed_traj, tmp_path,
                                               kept_reads, monkeypatch):
        # the digest comes from the bytes write_csv writes, not from
        # reading the file back, and equals the file's own digest
        sha256 = fileio.sha256_file
        monkeypatch.setattr(fileio, "sha256_file", None)  # not called
        write_trajectory_csv(loadshed_traj, tmp_path / "t.csv")
        write_generator_csv(loadshed_traj, tmp_path / "g.csv")
        for kind, name in (("trajectory", "t.csv"), ("generator", "g.csv")):
            entry = fileio._kept[kind]
            assert entry.digest == sha256(tmp_path / name), kind
            assert entry.size == (tmp_path / name).stat().st_size, kind
        digest = hashlib.sha256()
        write_csv(tmp_path / "o.csv", ["t", "x"],
                  [np.arange(3) * 0.5, np.array([1 / 3, -0.0, 1e300])],
                  comment="events: 0.5", digest=digest)
        assert digest.hexdigest() == sha256(tmp_path / "o.csv")

    def test_each_read_hashes_once_and_a_miss_replaces_the_entry(
            self, loadshed_traj, tmp_path, kept_reads, monkeypatch):
        write_generator_csv(loadshed_traj, tmp_path / "g.csv")
        generator = fileio._kept["generator"]
        write_trajectory_csv(loadshed_traj, tmp_path / "a.csv")
        written = fileio._kept["trajectory"]
        write_csv(tmp_path / "b.csv", ["t", "v_1", "theta_1"],
                  [np.arange(4) * 0.5, np.ones(4), np.zeros(4)],
                  comment="events: ")
        hashes = counted(monkeypatch, fileio, "_sha256")
        # whether a trajectory entry is still held when a parse starts
        parses = counted(monkeypatch, np, "loadtxt",
                         lambda: "trajectory" in fileio._kept)
        counts = []
        for name in ("a.csv", "b.csv", "b.csv", "a.csv", "a.csv"):
            read_trajectory_csv(tmp_path / name, omega_s=377.0)
            entry = fileio._kept["trajectory"]
            assert entry.size == (tmp_path / name).stat().st_size, name
            counts.append((len(hashes), len(parses)))
        assert kept_reads == [True, False, True, False, True]
        assert counts == [(1, 0), (2, 1), (3, 1), (4, 2), (5, 2)]
        assert parses == [False, False]
        assert entry.digest == written.digest and entry is not written
        assert fileio._kept["generator"] is generator

    def test_a_file_changed_while_read_is_not_kept(self, tmp_path,
                                                   kept_reads, monkeypatch):
        out = tmp_path / "t.csv"
        write_trajectory_csv(hand_built_trajectory(), out)
        fileio._kept.clear()
        # the file's modification time moves between the hash and the parse
        counted(monkeypatch, np, "loadtxt", lambda: os.utime(out, ns=(0, 0)))
        back = read_trajectory_csv(out, omega_s=377.0)
        assert back.v[3, 0] == 1 / 3
        assert fileio._kept == {}

    def test_analyze_and_plotdata_parse_a_file_they_did_not_write_once(
            self, loadshed_traj, tmp_path, monkeypatch, kept_reads):
        # written by np.savetxt, as another program would write it
        traj, case = tmp_path / "traj.csv", bundled_case_path("wscc9_loadshed")
        data = np.column_stack([loadshed_traj.times] + [
            np.stack([loadshed_traj.v[:, k], loadshed_traj.theta[:, k]], 1)
            for k in range(len(loadshed_traj.bus_ids))])
        with traj.open("w") as f:
            f.write("# events: " + ",".join(
                map(format_number, loadshed_traj.event_times)) + "\n")
            f.write("t," + ",".join(f"v_{b},theta_{b}"
                                    for b in loadshed_traj.bus_ids) + "\n")
            np.savetxt(f, data, fmt="%.17g", delimiter=",")
        parses = counted(monkeypatch, np, "loadtxt")

        def run(where):
            out = tmp_path / where
            assert cli.main(["analyze", "--traj", str(traj), "--case",
                             str(case), "--outdir", str(out)]) == 0
            for kind in ("subnet_spread", "damping"):
                assert cli.main(["plotdata", "--report",
                                 str(out / "report.json"), "--traj",
                                 str(traj), "--kind", kind, "--outdir",
                                 str(out)]) == 0
            return {name: (out / name).read_bytes() for name in
                    ("report.json", "subnet_spread.csv", "damping.csv")}

        kept = run("kept")
        assert len(parses) == 1
        assert kept_reads == [False, True, True]

        def cleared(*args, read=cli.read_trajectory_csv, **kwargs):
            fileio._kept.clear()
            return read(*args, **kwargs)

        monkeypatch.setattr(cli, "read_trajectory_csv", cleared)
        parsed = run("parsed")
        assert len(parses) == 4
        for name in kept:
            assert parsed[name] == kept[name], name

    def test_load_shed_script_output_does_not_depend_on_read_back(
            self, tmp_path, monkeypatch, kept_reads):
        spec = importlib.util.spec_from_file_location("run_load_shed", SCRIPT)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)

        def run(where):
            (tmp_path / where).mkdir()
            monkeypatch.chdir(tmp_path / where)
            monkeypatch.setattr(sys, "argv", ["run_load_shed.py",
                                              "--t-end", "4",
                                              "--outdir", "out"])
            assert script.run() == 0
            return {p.name: p.read_bytes()
                    for p in (tmp_path / where / "out").iterdir()}

        kept = run("kept")
        # analyze, four plotdata kinds, and inertia's two reads
        assert kept_reads == [True] * 7
        for name in ("read_trajectory_csv", "read_generator_csv"):
            def cleared(*args, read=getattr(cli, name), **kwargs):
                fileio._kept.clear()
                return read(*args, **kwargs)
            monkeypatch.setattr(cli, name, cleared)
        parsed = run("parsed")
        assert kept_reads[7:] == [False] * 7
        assert sorted(parsed) == sorted(kept)
        # the manifests name their outputs by absolute path
        kept_dir, parsed_dir = (str((tmp_path / where).resolve()).encode()
                                for where in ("kept", "parsed"))
        for name in kept:
            assert parsed[name] == kept[name].replace(kept_dir, parsed_dir), \
                name


# save_case's text for GOLDEN_CASE: every field that may be None is None
# in one spec and set in another, and an event has a description
GOLDEN_TEXT = """\
{
  "s_base": 100.0,
  "f_nominal": 50.0,
  "buses": [
    {
      "id": 1,
      "kind": "slack",
      "base_kv": 16.5,
      "subnet": "A",
      "v_set": 1.04
    },
    {
      "id": 2,
      "kind": "pv",
      "base_kv": 18.0,
      "subnet": "A",
      "v_set": 1.025
    },
    {
      "id": 3,
      "kind": "pv",
      "base_kv": 13.8,
      "subnet": "A",
      "v_set": 1.025
    },
    {
      "id": 4,
      "kind": "pq",
      "base_kv": 230.0,
      "subnet": "A"
    }
  ],
  "lines": [
    {
      "from": 1,
      "to": 4,
      "r": 0.01,
      "x": 0.085,
      "b_sh": 0.176,
      "tap": 1.0,
      "in_service": true
    },
    {
      "from": 2,
      "to": 4,
      "r": 0.0,
      "x": 0.0625,
      "b_sh": 0.0,
      "tap": 1.05,
      "in_service": false
    }
  ],
  "generators": [
    {
      "bus": 1,
      "H": 23.64,
      "D": 47.3,
      "xdp": 0.0608,
      "s_machine": 100.0,
      "p_set": 0.7,
      "governor": {
        "r_gov": 0.05,
        "t_gov": 0.5
      },
      "exciter": {
        "k_ex": 50.0,
        "t_ex": 0.05,
        "v_ref": 1.04
      }
    },
    {
      "bus": 2,
      "H": 6.4,
      "D": 12.8,
      "xdp": 0.1198,
      "s_machine": 100.0,
      "p_set": 0.0,
      "exciter": {
        "k_ex": 40.0,
        "t_ex": 0.1
      }
    },
    {
      "bus": 3,
      "H": 3.01,
      "D": 6.0,
      "xdp": 0.1813,
      "s_machine": 100.0,
      "p_set": 0.0,
      "governor": {
        "r_gov": 0.05,
        "t_gov": 0.5
      }
    }
  ],
  "loads": [
    {
      "bus": 4,
      "p": 1.25,
      "q": 0.5
    }
  ],
  "subnets": {
    "A": [
      1,
      2,
      3,
      4
    ]
  },
  "events": [
    {
      "time": 1.0,
      "kind": "line_trip",
      "from": 1,
      "to": 4,
      "description": ""
    },
    {
      "time": 2.0,
      "kind": "q_injection_step",
      "bus": 4,
      "dq": 0.2,
      "description": "capacitor bank"
    }
  ]
}
"""

GOLDEN_CASE = NetworkCase(
    s_base=100.0, f_nominal=50.0,
    buses=[BusSpec(1, "slack", 16.5, "A", v_set=1.04),
           BusSpec(2, "pv", 18.0, "A", v_set=1.025),
           BusSpec(3, "pv", 13.8, "A", v_set=1.025),
           BusSpec(4, "pq", 230.0, "A")],
    lines=[LineSpec(1, 4, 0.01, 0.085, b_sh=0.176),
           LineSpec(2, 4, 0.0, 0.0625, tap=1.05, in_service=False)],
    generators=[
        GeneratorSpec(1, 23.64, 47.3, 0.0608, 100.0, p_set=0.7,
                      governor=GovernorSpec(0.05, 0.5),
                      exciter=ExciterSpec(50.0, 0.05, v_ref=1.04)),
        GeneratorSpec(2, 6.4, 12.8, 0.1198, 100.0,
                      exciter=ExciterSpec(40.0, 0.1)),
        GeneratorSpec(3, 3.01, 6.0, 0.1813, 100.0,
                      governor=GovernorSpec(0.05, 0.5))],
    loads=[LoadSpec(4, 1.25, 0.5)],
    subnets={"A": [1, 2, 3, 4]},
    events=[Event(1.0, "line_trip", {"from": 1, "to": 4}),
            Event(2.0, "q_injection_step", {"bus": 4, "dq": 0.2},
                  "capacitor bank")])

NUMBERS = st.floats(allow_nan=False, allow_infinity=False) | st.integers()
POSITIVE = st.floats(min_value=1e-6, max_value=1e6)


@st.composite
def network_cases(draw):
    """A case that passes validate, with each field that may be None drawn
    None or set, one event of each kind, and a param named ``params``."""
    ids = draw(st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=5,
                        unique=True))
    names = draw(st.lists(st.text(max_size=3), min_size=1, max_size=3,
                          unique=True))
    kinds = ["slack"] + [draw(st.sampled_from(["pv", "pq"])) for _ in ids[1:]]
    buses = [BusSpec(i, k, draw(NUMBERS), draw(st.sampled_from(names)),
                     draw(POSITIVE if k != "pq" else st.none() | POSITIVE))
             for i, k in zip(ids, kinds)]
    ends = st.lists(st.sampled_from(ids), min_size=2, max_size=2,
                    unique=True)
    impedances = st.tuples(NUMBERS, NUMBERS).filter(lambda z: z != (0, 0))
    lines = [LineSpec(*draw(ends), *draw(impedances), draw(NUMBERS),
                      draw(POSITIVE),
                      n == 0 or draw(st.booleans()))  # line 0 is tripped
             for n in range(draw(st.integers(1, 4)))]
    generators = [
        GeneratorSpec(
            bus, draw(POSITIVE), draw(POSITIVE | st.just(0.0)),
            draw(POSITIVE), draw(POSITIVE), draw(NUMBERS),
            draw(st.none() | st.builds(GovernorSpec, POSITIVE, POSITIVE)),
            draw(st.none() | st.builds(ExciterSpec, NUMBERS, POSITIVE,
                                       st.none() | NUMBERS)))
        # one generator at each slack or pv bus, none at a pq bus
        for bus in draw(st.permutations(
            [b.id for b in buses if b.kind != "pq"]))]
    loads = [LoadSpec(draw(st.sampled_from(ids)), draw(NUMBERS),
                      draw(NUMBERS))
             for _ in range(draw(st.integers(0, 3)))]
    json_values = st.none() | st.booleans() | NUMBERS | st.text() \
        | st.lists(st.integers())
    bus, time, text = st.sampled_from(ids), POSITIVE | st.just(0.0), st.text()
    events = [
        Event(draw(time), "load_scale", {"bus": draw(bus),
                                         "p_factor": draw(NUMBERS),
                                         "q_factor": draw(NUMBERS)},
              draw(text)),
        Event(draw(time), "line_trip", {"from": lines[0].from_bus,
                                        "to": lines[0].to_bus},
              draw(text)),
        Event(draw(time), "q_injection_step",
              {"bus": draw(bus), "dq": draw(NUMBERS),
               "params": draw(json_values)}, draw(text))]
    return NetworkCase(
        draw(POSITIVE), draw(POSITIVE), buses, lines, generators, loads,
        {name: [b.id for b in buses if b.subnet == name] for name in names},
        draw(st.permutations(events)))


class TestCaseJson:
    def test_save_case_text_is_pinned(self, tmp_path):
        path = tmp_path / "case.json"
        save_case(GOLDEN_CASE, path)
        assert path.read_text() == GOLDEN_TEXT
        assert load_case(path) == GOLDEN_CASE

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(network_cases())
    def test_load_inverts_save(self, tmp_path, case):
        path = tmp_path / "case.json"
        save_case(case, path)
        assert load_case(path) == case

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(network_cases(), st.data())
    def test_a_value_of_the_wrong_type_is_named(self, tmp_path, case, data):
        # a number becomes a string, a string a number and a bool an int;
        # the extra param named "params" may hold any value
        def leaves(obj, path):
            if not isinstance(obj, (dict, list)):
                yield path
                return
            for k, v in (obj.items() if isinstance(obj, dict)
                         else enumerate(obj)):
                if k != "params":
                    yield from leaves(v, path + [k])

        doc = fileio.case_to_dict(case)
        path = data.draw(st.sampled_from(list(leaves(doc, []))))
        *parents, last = path
        holder = functools.reduce(operator.getitem, parents, doc)
        value = holder[last]
        holder[last] = (int(value) if isinstance(value, bool)
                        else 1 if isinstance(value, str) else str(value))
        out = tmp_path / "case.json"
        out.write_text(json.dumps(doc))
        with pytest.raises(CaseError) as err:
            load_case(out)
        assert str([k for k in path if isinstance(k, str)][-1]) \
            in str(err.value)
