import numpy as np
import pytest

from cfsync.fileio import (
    format_number,
    read_trajectory_csv,
    write_csv,
    write_generator_csv,
    write_trajectory_csv,
)

SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e300,
            -1e300, 2.2250738585072014e-308, 0.1, 1 / 3, 377.0, 2.0 ** 53]


def legacy_rows(columns):
    """The per-value row loop the CSV writers used before write_csv."""
    return "".join(",".join("{:.17g}".format(x) for x in row) + "\n"
                   for row in zip(*columns))


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


class TestReadTrajectory:
    def test_non_uniform_grid_rejected(self, tmp_path):
        out = tmp_path / "bad.csv"
        t = np.arange(0, 1, 0.01)
        t[40:] += 0.001
        write_csv(out, ["t", "v_1", "theta_1"],
                  [t, np.ones_like(t), np.zeros_like(t)], comment="events: ")
        with pytest.raises(ValueError, match="non-uniform time grid"):
            read_trajectory_csv(out, omega_s=377.0)
