"""Command-line front end: run checkers on problem files, print reports.

Exit codes: 0 when every checker run holds, 1 when any fails, 2 on input
errors and on objectives that cannot be evaluated or differentiated at
some point (division by zero, overflow, a non-finite value or derivative,
a direction that leaves the domain at once); the message names the point.
Derivatives of problem files are exact, so a kink never makes them
uncertain.  Besides the human-readable blocks, each checker emits one
machine-readable line::

    #DATA checker=<name> verdict=<holds|fails> margin=<float> witness=<floats> samples=<int>

Identical input file and seed produce byte-identical ``#DATA`` lines.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .ivectors import IVector
from .problems import ProblemFileError, build_problem, load_problem_file
from .subdiff import is_subgradient, is_subgradient_directional, subdiff_1d, subdiff_support
from .support import FiniteIVecSet, default_directions, signed_basis
from .wsm import (
    CHECKERS,
    check_all,
    check_definition,
    concordant,
    convexity_note,
    estimate_modulus,
    grid_density,
)


def _fmt(value: float) -> str:
    if value == 0:
        value = 0.0  # normalize -0.0 so witnesses format stably
    return f"{value:.9g}"


def _fmt_vec(vec) -> str:
    return ",".join(_fmt(v) for v in np.atleast_1d(np.asarray(vec, dtype=float)))


def _print_report(report) -> None:
    shown = witness = "none"
    if report.witness is not None:
        a, b = map(_fmt_vec, report.witness)
        la, lb = report.witness_labels
        shown, witness = f"{la}=({a})  {lb}=({b})", f"{a};{b}"
    print(f"checker: {report.checker}")
    print(f"  verdict: {report.verdict} (on the sampled grid)")
    print(f"  worst margin: {_fmt(report.worst_margin)}")
    print(f"  witness: {shown}")
    print(f"  samples: {report.samples_evaluated}  grid/axis: {report.grid_per_axis}")
    print(
        f"#DATA checker={report.checker} verdict={report.verdict} "
        f"margin={_fmt(report.worst_margin)} witness={witness} "
        f"samples={report.samples_evaluated}"
    )


def _print_notes(notes) -> None:
    for note in notes:
        print(f"NOTE: {note}")


def _problem(args):
    """The problem of the file named on the command line, with the global
    flags overriding its settings."""
    return build_problem(
        load_problem_file(args.file),
        grid=args.grid,
        seed=args.seed,
        n_dirs=args.dirs,
        margin_tol=args.tol,
    )


def _cmd_check(args) -> int:
    problem = _problem(args)
    if args.mode == "all":
        reports = check_all(problem)
    else:
        reports = {args.mode: CHECKERS[args.mode](problem)}
    for i, report in enumerate(reports.values()):
        _print_report(report)
        if i == 0:
            _print_notes(report.notes)
    if args.mode == "all":
        agree = concordant(reports)
        verdicts = ", ".join(f"{n}={r.verdict}" for n, r in reports.items())
        print(f"CONCORDANCE: {'agree' if agree else 'DISAGREE'} ({verdicts})")
    return 0 if all(r.holds for r in reports.values()) else 1


def _cmd_modulus(args) -> int:
    problem = _problem(args)
    value = estimate_modulus(problem)
    if value > 0:
        report = check_definition(problem.with_alpha(value + 2e-3))
        if report.witness is not None and not report.holds:
            a, b = report.witness
            print(
                f"fails just above the estimate (alpha={_fmt(value + 2e-3)}): "
                f"xbar=({_fmt_vec(a)}) x=({_fmt_vec(b)})"
            )
    else:
        print("no positive modulus passes on the grid")
    _print_notes(problem.context().notes)
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
    problem = _problem(args)
    f = problem.f
    n = f.dimension
    at = _parse_floats(args.at, "--at", n)
    if not np.all((f.domain.lo < at) & (at < f.domain.hi)):
        raise ProblemFileError(f"--at point ({_fmt_vec(at)}) is not interior to the domain")
    probe = None
    if args.probe is not None:
        values = _parse_floats(args.probe, "--probe", 2 * n)
        try:
            probe = IVector(values[0::2], values[1::2])
        except ValueError as exc:
            raise ProblemFileError(
                f"--probe ({_fmt_vec(values)}) is not an interval vector: {exc}"
            )
        try:
            probe_density = grid_density(f.domain, min(problem.grid, 17))
        except ValueError as exc:
            raise ProblemFileError(f"--probe grid: the domain has {exc}")
    f.value(at)  # endpoints that cross at --at exit 2 naming the point
    try:
        note = convexity_note(f, problem.seed)
    except (ValueError, ArithmeticError):
        # the guard samples the whole domain; where F cannot be evaluated
        # there (check and modulus exit 2), the set at --at is still shown
        note = None
    # every line is computed before any is printed, so a failure exits 2
    # with empty stdout
    if n == 1:
        rep = subdiff_1d(f, at)
        if isinstance(rep, FiniteIVecSet):
            g = rep.members[0]
            lines = [
                f"subdifferential is the singleton gradient ({g})",
                f"#DATA subdiff=singleton lo={_fmt_vec(g.los)} hi={_fmt_vec(g.his)}",
            ]
        else:
            lower, upper = rep.lower, rep.upper
            lines = [
                f"subdifferential box: all G with [{_fmt(lower.los[0])}, "
                f"{_fmt(lower.his[0])}] <= G <= [{_fmt(upper.los[0])}, "
                f"{_fmt(upper.his[0])}]",
                f"#DATA subdiff=box lo={_fmt_vec(lower.los)},{_fmt_vec(lower.his)} "
                f"hi={_fmt_vec(upper.los)},{_fmt_vec(upper.his)}",
            ]
    else:
        # one support call per direction, so a failure is that direction's own
        dirs = signed_basis(n)
        lines = [
            f"support along ({_fmt_vec(d)}): [{_fmt(s.lo)}, {_fmt(s.hi)}]"
            for d, s in zip(dirs, map(subdiff_support(f, at).support, dirs))
        ]
    if note is not None:
        lines.append(f"NOTE: {note}")
    status = 0
    if probe is not None:
        grid_points = f.domain.grid(probe_density)
        by_def = is_subgradient(f, at, probe, grid_points)
        dirs = default_directions(n, problem.seed, problem.n_dirs)
        by_dir = is_subgradient_directional(f, at, probe, dirs)
        def_text = "member" if by_def.member else f"violated at x=({_fmt_vec(by_def.witness)})"
        dir_text = "member" if by_dir.member else f"violated along d=({_fmt_vec(by_dir.witness)})"
        agree = by_def.member == by_dir.member
        lines += [
            f"probe {probe}: definition: {def_text}; directional: {dir_text}",
            f"criteria agree: {'yes' if agree else 'NO'}",
            f"#DATA probe_member={'yes' if by_def.member else 'no'} "
            f"agree={'yes' if agree else 'no'}",
        ]
        status = 0 if by_def.member else 1
    print("\n".join(lines))
    return status


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The ``ivwsm`` argument parser, built on the first ``main`` call and
    kept for the process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="ivwsm",
        description="verify weak sharp minima of interval-valued objectives",
    )
    parser.add_argument("--tol", type=float, default=None, help="margin tolerance for verdicts")
    parser.add_argument("--dirs", type=int, default=None, help="number of random directions")
    parser.add_argument("--grid", type=int, default=None, help="grid points per axis")
    parser.add_argument("--seed", type=int, default=None, help="override the problem seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run one or all checkers on a problem file")
    p_check.add_argument("file")
    p_check.add_argument(
        "--mode",
        default="all",
        choices=[*CHECKERS, "all"],
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

    return parser


def main(argv=None) -> int:
    # "--at V" as "--at=V": argparse reads a V that starts with '-' and is
    # not a plain decimal (-1e-5) as an option
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):
        if argv[i] in ("--at", "--probe"):
            argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
