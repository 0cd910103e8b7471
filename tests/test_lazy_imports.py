"""Each command loads only the scipy modules its work needs: importing the
package loads none of the heavy ones, and only the convex-hull branch of
the node diameter loads scipy.spatial."""
from pathlib import Path

import pytest

HEAVY = ("scipy.sparse", "scipy.spatial", "scipy.signal", "scipy.stats")
SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_load_shed.py"


@pytest.mark.parametrize("module", ["cfsync", "cfsync.cli"])
def test_import_loads_no_heavy_scipy_module(fresh_modules, module):
    loaded = fresh_modules(f"import {module}")
    assert not loaded & set(HEAVY)


def test_load_shed_commands_never_load_scipy_spatial(fresh_modules,
                                                     tmp_path):
    # simulate, analyze, the four plotdata kinds and inertia, at the
    # script's default 20 s horizon
    loaded = fresh_modules(
        "import runpy, sys\n"
        f"sys.argv = ['run_load_shed.py', '--outdir', {str(tmp_path)!r}]\n"
        f"assert runpy.run_path({str(SCRIPT)!r})['run']() == 0\n")
    assert (tmp_path / "inertia.json").exists()
    assert "scipy.sparse" in loaded  # the residual of simulate
    assert "scipy.spatial" not in loaded


def test_hull_branch_loads_scipy_spatial_on_first_use(fresh_modules):
    loaded = fresh_modules(
        "import sys\n"
        "import numpy as np\n"
        "from cfsync.sync_detector import _brute_force_max, _pairwise_max\n"
        "assert 'scipy.spatial' not in sys.modules\n"
        "rng = np.random.default_rng(0)\n"
        "z = rng.normal(size=500) + 1j * rng.normal(size=500)\n"
        "assert _pairwise_max(z) == _brute_force_max(z)\n")
    assert "scipy.spatial" in loaded
