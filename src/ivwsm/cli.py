"""Command-line front end: run checkers on problem files, print reports.

Exit codes: 0 when every checker run holds, 1 when any fails, 2 on input
errors and on objectives that cannot be evaluated or differentiated at
some point (division by zero, overflow, a non-finite value, a kink inside
the derivative probe range); the message names the point.  Besides the
human-readable blocks, each checker emits one machine-readable line::

    #DATA checker=<name> verdict=<holds|fails> margin=<float> witness=<floats> samples=<int>

Identical input file and seed produce byte-identical ``#DATA`` lines.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .expr import EvalError
from .intervals import is_finite
from .ivectors import IVector
from .ivf import NonsmoothUncertainError
from .problems import ProblemFileError, build_problem, load_problem_file
from .subdiff import (
    ExplicitBoxSubdiff,
    SingletonSubdiff,
    is_subgradient,
    is_subgradient_directional,
    subdiff_1d,
    subdiff_support,
)
from .support import default_directions
from .wsm import CHECKER_NAMES, GuardError, check_all, concordant, estimate_modulus, run_checker


def _fmt(value: float) -> str:
    if value == 0:
        value = 0.0  # normalize -0.0 so witnesses format stably
    return f"{value:.9g}"


def _fmt_vec(vec) -> str:
    return ",".join(_fmt(v) for v in np.atleast_1d(np.asarray(vec, dtype=float)))


def _print_report(report) -> None:
    print(f"checker: {report.checker}")
    print(f"  verdict: {report.verdict} (on the sampled grid)")
    print(f"  worst margin: {_fmt(report.worst_margin)}")
    if report.witness is not None:
        a, b = report.witness
        la, lb = report.witness_labels
        print(f"  witness: {la}=({_fmt_vec(a)})  {lb}=({_fmt_vec(b)})")
    else:
        print("  witness: none")
    print(f"  samples: {report.samples_evaluated}  grid/axis: {report.grid_per_axis}")
    witness = "none"
    if report.witness is not None:
        witness = f"{_fmt_vec(report.witness[0])};{_fmt_vec(report.witness[1])}"
    print(
        f"#DATA checker={report.checker} verdict={report.verdict} "
        f"margin={_fmt(report.worst_margin)} witness={witness} "
        f"samples={report.samples_evaluated}"
    )


def _print_notes(notes) -> None:
    for note in notes:
        print(f"NOTE: {note}")


def _cmd_check(args) -> int:
    spec = load_problem_file(args.file)
    problem = build_problem(
        spec, grid=args.grid, seed=args.seed, n_dirs=args.dirs, margin_tol=args.tol
    )
    if args.mode == "all":
        reports = check_all(problem)
        printed_notes = False
        for name in CHECKER_NAMES:
            _print_report(reports[name])
            if not printed_notes:
                _print_notes(reports[name].notes)
                printed_notes = True
        agree = concordant(reports)
        verdicts = ", ".join(f"{n}={reports[n].verdict}" for n in CHECKER_NAMES)
        print(f"CONCORDANCE: {'agree' if agree else 'DISAGREE'} ({verdicts})")
        return 0 if all(r.holds for r in reports.values()) else 1
    report = run_checker(problem, args.mode)
    _print_report(report)
    _print_notes(report.notes)
    return 0 if report.holds else 1


def _cmd_modulus(args) -> int:
    spec = load_problem_file(args.file)
    problem = build_problem(
        spec, grid=args.grid, seed=args.seed, n_dirs=args.dirs, margin_tol=args.tol
    )
    value = estimate_modulus(problem)
    if value > 0:
        report = run_checker(problem.with_alpha(value + 2e-3), "definition")
        if report.witness is not None and not report.holds:
            a, b = report.witness
            print(
                f"fails just above the estimate (alpha={_fmt(value + 2e-3)}): "
                f"xbar=({_fmt_vec(a)}) x=({_fmt_vec(b)})"
            )
        _print_notes(report.notes)
    else:
        print("no positive modulus passes on the grid")
    print(f"estimated modulus: {_fmt(value)}")
    print(f"#DATA modulus={_fmt(value)}")
    return 0


def _parse_floats(text: str, what: str, expected: int) -> np.ndarray:
    try:
        values = np.array([float(tok) for tok in text.replace(",", " ").split()])
    except ValueError:
        raise ProblemFileError(f"{what} must be a list of numbers, got {text!r}")
    if len(values) != expected:
        raise ProblemFileError(f"{what} needs {expected} values, got {len(values)}")
    return values


def _cmd_subdiff(args) -> int:
    spec = load_problem_file(args.file)
    problem = build_problem(spec, grid=args.grid, seed=args.seed, n_dirs=args.dirs)
    f = problem.f
    n = f.dimension
    at = _parse_floats(args.at, "--at", n)
    if not f.domain.contains(at):
        raise ProblemFileError(f"--at point {at} is outside the domain")
    if n == 1:
        rep = subdiff_1d(f, at)
        if isinstance(rep, SingletonSubdiff):
            g = rep.gradient
            print(f"subdifferential is the singleton gradient ({g})")
            print(f"#DATA subdiff=singleton lo={_fmt_vec(g.los)} hi={_fmt_vec(g.his)}")
        else:
            box = rep.box
            print(
                f"subdifferential box: all G with [{_fmt(box.lower.los[0])}, "
                f"{_fmt(box.lower.his[0])}] <= G <= [{_fmt(box.upper.los[0])}, "
                f"{_fmt(box.upper.his[0])}]"
            )
            print(
                f"#DATA subdiff=box lo={_fmt_vec(box.lower.los)},{_fmt_vec(box.lower.his)} "
                f"hi={_fmt_vec(box.upper.los)},{_fmt_vec(box.upper.his)}"
            )
    else:
        oracle = subdiff_support(f, at)
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            for d in (e, -e):
                val = oracle.support(d)
                shown = f"[{_fmt(val.lo)}, {_fmt(val.hi)}]" if is_finite(val) else "+inf"
                print(f"support along ({_fmt_vec(d)}): {shown}")
    exit_code = 0
    if args.probe is not None:
        probe = _parse_floats(args.probe, "--probe", 2 * n)
        g = IVector(probe[0::2], probe[1::2])
        grid_points = f.domain.grid(min(problem.grid, 17))
        by_def = is_subgradient(f, at, g, grid_points)
        dirs = default_directions(n, problem.seed, problem.n_dirs)
        by_dir = is_subgradient_directional(f, at, g, dirs)
        def_text = (
            "member" if by_def.member else f"violated at x=({_fmt_vec(by_def.witness)})"
        )
        dir_text = (
            "member"
            if by_dir.member
            else f"violated along d=({_fmt_vec(by_dir.witness)})"
        )
        agree = by_def.member == by_dir.member
        print(f"probe {g}: definition: {def_text}; directional: {dir_text}")
        print(f"criteria agree: {'yes' if agree else 'NO'}")
        print(
            f"#DATA probe_member={'yes' if by_def.member else 'no'} "
            f"agree={'yes' if agree else 'no'}"
        )
        exit_code = 0 if by_def.member else 1
    return exit_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ivwsm",
        description="verify weak sharp minima of interval-valued objectives",
    )
    parser.add_argument("--tol", type=float, default=None, help="margin tolerance for verdicts")
    parser.add_argument("--dirs", type=int, default=128, help="number of random directions")
    parser.add_argument("--grid", type=int, default=None, help="grid points per axis")
    parser.add_argument("--seed", type=int, default=None, help="override the problem seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run one or all checkers on a problem file")
    p_check.add_argument("file")
    p_check.add_argument(
        "--mode",
        default="all",
        choices=list(CHECKER_NAMES) + ["all"],
    )
    p_check.set_defaults(func=_cmd_check)

    p_mod = sub.add_parser("modulus", help="estimate the largest grid-feasible modulus")
    p_mod.add_argument("file")
    p_mod.set_defaults(func=_cmd_modulus)

    p_sub = sub.add_parser("subdiff", help="inspect the subgradient set at a point")
    p_sub.add_argument("file")
    p_sub.add_argument("--at", required=True, help="evaluation point, space/comma separated")
    p_sub.add_argument("--probe", default=None, help="candidate interval vector: lo1 hi1 ...")
    p_sub.set_defaults(func=_cmd_subdiff)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ProblemFileError,
        GuardError,
        ValueError,
        EvalError,
        OverflowError,
        NonsmoothUncertainError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
