#!/usr/bin/env python3
"""Sweep the single-bus capacitor model over voltage-inertia values.

Writes hv_sweep.csv (t plus one eps column per H_v) and inertia.json with
the peak |eps| per value; larger H_v should damp the voltage response in
inverse proportion.
"""
import argparse
import sys

from cfsync.cli import main as cli


def run() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="out_hv_sweep")
    ap.add_argument("--h-v", default="0.5,1,2,4,8",
                    help="comma-separated voltage-inertia values")
    ap.add_argument("--q-step", type=float, default=0.1)
    ap.add_argument("--t-end", type=float, default=5.0)
    args = ap.parse_args()

    return cli(["inertia", "--sweep", args.h_v, "--q-step", str(args.q_step),
                "--sweep-t-end", str(args.t_end),
                "--outdir", args.outdir])


if __name__ == "__main__":
    sys.exit(run())
