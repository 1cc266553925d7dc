#!/usr/bin/env python3
"""Sweep the sharpness modulus for a problem file and print margin curves.

For a ladder of alpha values around the estimated modulus, prints the
definition checker's worst margin, one plot-ready line per alpha.  Every
alpha is probed on the one built problem (its grid and endpoint values do
not depend on alpha).

Usage: python3 scripts/modulus_sweep.py problems/vee1d.txt [--points N]
"""

import argparse
import sys

import numpy as np

from ivwsm import check_definition, estimate_modulus
from ivwsm.problems import build_problem, load_problem_file


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("file")
    parser.add_argument("--points", type=int, default=9)
    parser.add_argument("--grid", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    spec = load_problem_file(args.file)
    base = build_problem(spec, grid=args.grid, seed=args.seed)
    estimate = estimate_modulus(base)
    print(f"estimated modulus: {estimate:.4f}")
    center = estimate if estimate > 0 else spec.alpha
    for alpha in np.linspace(0.25 * center, 1.75 * center, args.points):
        if alpha <= 0:
            continue
        report = check_definition(base.with_alpha(float(alpha)))
        print(
            f"#DATA alpha={alpha:.6f} verdict={report.verdict} "
            f"margin={report.worst_margin:.6e}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
