import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cfsync
from cfsync import SimConfig, bundled_case_path, simulate
from cfsync.fileio import load_case

SRC = Path(cfsync.__file__).resolve().parents[1]


def _fresh_modules(code: str) -> set[str]:
    """The names in ``sys.modules`` after running ``code`` in a fresh
    interpreter with PYTHONPATH=src."""
    script = code + "\nimport json, sys\nprint(json.dumps(list(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", script],
                         env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout.splitlines()[-1]))


@pytest.fixture(scope="session")
def fresh_modules():
    return _fresh_modules


@pytest.fixture(scope="session")
def wscc9():
    return load_case(bundled_case_path("wscc9"))


@pytest.fixture(scope="session")
def wscc9_loadshed():
    return load_case(bundled_case_path("wscc9_loadshed"))


@pytest.fixture(scope="session")
def flat_traj(wscc9):
    """Event-free WSCC trajectory, 10 s."""
    return simulate(wscc9, SimConfig(t_end=10.0, dt=1e-3))


@pytest.fixture(scope="session")
def loadshed_traj(wscc9_loadshed):
    """Load shed at bus 6 at t = 2 s, 20 s horizon."""
    return simulate(wscc9_loadshed, SimConfig(t_end=20.0, dt=1e-3))


@pytest.fixture(scope="session")
def loadshed_traj_nogov(wscc9_loadshed):
    """Same disturbance with governors off and near-zero damping, for
    first-swing inertia fits."""
    case = dataclasses.replace(
        wscc9_loadshed,
        generators=[
            dataclasses.replace(g, d=0.1, governor=None)
            for g in wscc9_loadshed.generators
        ],
    )
    return simulate(case, SimConfig(t_end=4.0, dt=1e-3))
