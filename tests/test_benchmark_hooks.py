"""The benchmark's layer tracer patches package names at their call sites; a
rename or removal of one of them must fail here, not only in a traced
benchmark pass."""
import importlib.util
from pathlib import Path

import cfsync.dynamics

ROOT = Path(__file__).resolve().parents[1]
LAYERTRACE = ROOT / "perfbench" / "layertrace.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    step = cfsync.dynamics.step
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        assert cfsync.dynamics.step is not step
    finally:
        tracer.uninstall()
    assert cfsync.dynamics.step is step
