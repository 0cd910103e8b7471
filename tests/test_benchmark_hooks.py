"""The benchmark's layer tracer patches package names at their call sites; a
rename or removal of one of them must fail here, not only in a traced
benchmark pass. Likewise an output change that moves a benchmark workload
off its recorded references must fail here, not only in a benchmark run."""
import importlib
import sys
from pathlib import Path

import pytest

import cfsync.dynamics

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name: str):
    """perfbench's module ``name``, imported with perfbench on the import
    path, as its own scripts import it."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


def test_tracer_installs_and_uninstalls():
    layertrace = _load("layertrace")
    step = cfsync.dynamics.step
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        assert cfsync.dynamics.step is not step
    finally:
        tracer.uninstall()
    assert cfsync.dynamics.step is step


@pytest.mark.parametrize("name", ["scripts_e2e", "n1_screen"])
def test_one_pass_matches_the_references(name, tmp_path):
    # one untraced pass at the default seed, checked against
    # perfbench/references.json as a benchmark run checks it
    workloads = _load("workloads")
    fns = _load("layertrace").untraced_entry_points()
    wl = workloads.WORKLOADS[name](ROOT, workloads.DEFAULT_SEED,
                                   tmp_path / "work")
    res = wl.run_pass(tmp_path / "pass", lambda fn: (fn(), 0.0), fns)
    assert res.ops
    assert [(op.name, op.error) for op in res.ops if op.error] == []
