"""Problem files: one verification instance as plain ``key: value`` text.

Format (``#`` starts a comment, blank lines ignored, boxes are
space-separated ``lo1 hi1 lo2 hi2 ...``)::

    dimension: 2
    lower: 5 - x1*x2 - x1
    upper: 10 - x1^2*x2 - x2^2*x1
    domain: -1 0 -1 0
    S: -1 0 -1 0
    Sbar: 0 0 -1 0
    alpha: 0.1
    grid: 33      # optional
    seed: 7       # optional

The file is checked for syntax and types only: known keys, numbers where
numbers go, expressions that parse at the declared dimension.  Values are
checked by ``WsmProblem``; :func:`build_problem` reports a value it rejects
at the line of the key it came from.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .expr import ExprAst, ParseError, parse
from .geometry import BoxSet
from .ivf import Ivf
from .wsm import GuardError, WsmProblem

REQUIRED_KEYS = ("dimension", "lower", "upper", "domain", "S", "Sbar", "alpha")
OPTIONAL_KEYS = ("grid", "seed")


class ProblemFileError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")
        self.line = line


@dataclass(frozen=True)
class ProblemSpec:
    dimension: int
    lower: ExprAst
    upper: ExprAst
    domain: BoxSet
    s: BoxSet
    sbar: BoxSet
    alpha: float
    grid: int | None  # None: the file has no such key
    seed: int | None
    lines: dict[str, int]  # field name -> line of the key it came from


def _parse_box(text: str, line: int, dimension: int) -> BoxSet:
    try:
        values = [float(tok) for tok in text.split()]
    except ValueError:
        raise ProblemFileError(f"box values must be numbers, got {text!r}", line)
    if len(values) != 2 * dimension:
        raise ProblemFileError(
            f"box needs {2 * dimension} values (lo/hi per axis), got {len(values)}", line
        )
    lo = np.array(values[0::2])
    hi = np.array(values[1::2])
    try:
        return BoxSet(lo, hi)
    except ValueError as exc:
        raise ProblemFileError(str(exc), line)


def parse_problem_text(text: str) -> ProblemSpec:
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ProblemFileError(f"expected 'key: value', got {raw!r}", lineno)
        key, value = line.split(":", 1)
        key = key.strip()
        if key not in REQUIRED_KEYS + OPTIONAL_KEYS:
            raise ProblemFileError(f"unknown key {key!r}", lineno)
        if key in entries:
            raise ProblemFileError(f"duplicate key {key!r}", lineno)
        entries[key] = (value.strip(), lineno)
    for key in REQUIRED_KEYS:
        if key not in entries:
            raise ProblemFileError(f"missing required key {key!r}")

    def number(key, convert):
        value, line = entries[key]
        try:
            return convert(value)
        except ValueError:
            kind = "an integer" if convert is int else "a number"
            raise ProblemFileError(f"{key} must be {kind}", line)

    dimension = number("dimension", int)
    if dimension < 1:
        raise ProblemFileError("dimension must be >= 1", entries["dimension"][1])
    endpoints = {}
    for key in ("lower", "upper"):
        source, line = entries[key]
        try:
            endpoints[key] = parse(source, dimension)
        except ParseError as exc:
            raise ProblemFileError(f"{key} expression: {exc}", line)
    domain, s, sbar = (_parse_box(*entries[key], dimension) for key in ("domain", "S", "Sbar"))
    alpha = number("alpha", float)
    optional = {key: number(key, int) for key in OPTIONAL_KEYS if key in entries}
    return ProblemSpec(
        dimension=dimension,
        lower=endpoints["lower"],
        upper=endpoints["upper"],
        domain=domain,
        s=s,
        sbar=sbar,
        alpha=alpha,
        grid=optional.get("grid"),
        seed=optional.get("seed"),
        lines={key.lower(): line for key, (_, line) in entries.items()},
    )


def load_problem_file(path: str | Path) -> ProblemSpec:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}")
    return parse_problem_text(text)


def build_problem(spec: ProblemSpec, **overrides) -> WsmProblem:
    """The problem a parsed file describes.  Keyword ``WsmProblem`` settings
    override the file's; a None override keeps the file's value, or the
    ``WsmProblem`` default for a setting the file has no key for.  A value
    ``WsmProblem`` rejects raises ProblemFileError at the line of its key
    when it came from the file, the GuardError itself when it came from an
    override."""
    overrides = {k: v for k, v in overrides.items() if v is not None}
    settings = {"alpha": spec.alpha, "grid": spec.grid, "seed": spec.seed}
    settings = {k: v for k, v in settings.items() if v is not None} | overrides
    f = Ivf(spec.dimension, spec.lower, spec.upper, spec.domain)
    try:
        return WsmProblem(f=f, s=spec.s, sbar=spec.sbar, **settings)
    except GuardError as exc:
        if exc.field in overrides:
            raise
        raise ProblemFileError(str(exc), spec.lines.get(exc.field)) from exc
