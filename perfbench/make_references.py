#!/usr/bin/env python3
"""Regenerate references.json from the current source tree.

    PYTHONPATH=src python3 perfbench/make_references.py

Runs the scripts_e2e pass and the n1_screen scenarios of the default seed
once and stores the quantities their output checks compare against. Only
regenerate when a change is meant to alter these results.
"""
import json
import shutil
import tempfile
from pathlib import Path

from layertrace import untraced_entry_points
from workloads import DEFAULT_SEED, REFERENCES_PATH, N1Screen, ScriptsE2E

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    work = Path(tempfile.mkdtemp(dir=ROOT))
    try:
        scripts = ScriptsE2E(ROOT, DEFAULT_SEED, work)
        ops = []
        scripts._run_scripts(work, ops)
        if any(op.error for op in ops):
            raise SystemExit(f"scripts failed: {ops}")
        n1 = N1Screen(ROOT, DEFAULT_SEED, work)
        fns = untraced_entry_points()
        screen = [N1Screen.summary(case, n1._screen(case, fns)[1])
                  for case in n1.scenarios]
        refs = {"scripts_e2e": ScriptsE2E.summary(work), "n1_screen": screen}
    finally:
        shutil.rmtree(work)
    REFERENCES_PATH.write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
