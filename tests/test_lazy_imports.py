"""cfsync runs on numpy alone. Importing the package loads none of the heavy
scipy modules even where scipy is installed, nor ``fractions`` or
``decimal`` (the CSV writer builds its tables from Python ints on its first
write), and in a fresh interpreter
where ``import scipy`` fails the command line, both experiment scripts and
the k-d layout branch of the node diameter still work."""
from pathlib import Path

import pytest

HEAVY = ("scipy.sparse", "scipy.spatial", "scipy.signal", "scipy.stats",
         "fractions", "decimal")
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
# None in sys.modules makes every later import of scipy raise ImportError
NO_SCIPY = "import sys\nsys.modules['scipy'] = None\n"


@pytest.mark.parametrize("module", ["cfsync", "cfsync.cli"])
def test_import_loads_no_heavy_scipy_module(fresh_modules, module):
    loaded = fresh_modules(f"import {module}")
    assert not loaded & set(HEAVY)


def test_scripts_run_without_scipy(fresh_modules, tmp_path):
    # the load shed: simulate, analyze, the four plotdata kinds, inertia
    fresh_modules(
        NO_SCIPY
        + "import runpy\n"
        "try:\n"
        "    import scipy\n"
        "except ImportError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('scipy imported')\n"
        "import cfsync.cli\n"
        f"sys.argv = ['run_load_shed.py', '--t-end', '4', "
        f"'--outdir', {str(tmp_path / 'shed')!r}]\n"
        f"assert runpy.run_path({str(SCRIPTS / 'run_load_shed.py')!r})"
        "['run']() == 0\n"
        f"sys.argv = ['run_hv_sweep.py', "
        f"'--outdir', {str(tmp_path / 'sweep')!r}]\n"
        f"assert runpy.run_path({str(SCRIPTS / 'run_hv_sweep.py')!r})"
        "['run']() == 0\n")
    assert (tmp_path / "shed" / "inertia.json").exists()
    assert (tmp_path / "shed" / "damping.csv").exists()
    assert (tmp_path / "sweep" / "hv_sweep.csv").exists()


def test_kd_layout_diameter_runs_without_scipy(fresh_modules):
    # a 4,001-point gaussian cloud: no time order prunes it, so it is
    # rerun on the k-d layout of its points
    fresh_modules(
        NO_SCIPY
        + "import numpy as np\n"
        "from cfsync import sync_detector\n"
        "calls = []\n"
        "layout = sync_detector._kd_layout\n"
        "sync_detector._kd_layout = "
        "lambda u: calls.append(len(u)) or layout(u)\n"
        "rng = np.random.default_rng(0)\n"
        "z = rng.normal(size=4001) + 1j * rng.normal(size=4001)\n"
        "brute = max(float(np.max(np.abs(z[i:i + 256, None] - z[None, :])))\n"
        "            for i in range(0, len(z), 256))\n"
        "assert sync_detector._pairwise_max(z) == brute\n"
        "assert calls == [4001], calls\n")
