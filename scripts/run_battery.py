#!/usr/bin/env python3
"""Run the sharpness battery and tabulate checker verdicts.

For every battery case the five checkers run at 0.8x and 1.2x the nominal
modulus on a shared grid; the table shows one verdict column per checker
plus the estimated modulus, so disagreements (there should be none) are
visible at a glance.

Usage: python3 scripts/run_battery.py [--grid N] [--seed N]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import wsm_battery  # noqa: E402

from ivwsm import CHECKERS, check_all, concordant, estimate_modulus  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=int, default=33)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    header = f"{'case':26s} {'alpha':>7s}  " + "  ".join(
        f"{name:>10s}" for name in CHECKERS
    ) + f"  {'agree':>5s}"
    print(header)
    print("-" * len(header))
    start = time.perf_counter()
    disagreements = 0
    for case in wsm_battery():
        base = case.modulus if case.positive else case.nominal_alpha
        for scale in (0.8, 1.2):
            alpha = scale * base
            reports = check_all(case.problem(alpha, grid=args.grid, seed=args.seed))
            agree = concordant(reports)
            disagreements += 0 if agree else 1
            row = f"{case.name:26s} {alpha:7.3f}  " + "  ".join(
                f"{reports[name].verdict:>10s}" for name in CHECKERS
            ) + f"  {'yes' if agree else 'NO':>5s}"
            print(row)
        estimate = estimate_modulus(case.problem(base, grid=args.grid, seed=args.seed))
        known = f"{case.modulus:.3f}" if case.positive else "none"
        print(f"{'':26s} estimated modulus {estimate:.4f} (known {known})")
    elapsed = time.perf_counter() - start
    print(f"\n{disagreements} disagreements, {elapsed:.1f}s total")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
