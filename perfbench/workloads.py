"""The benchmark's workloads: inputs generated from a seed, the invocations
that drive the verifier, and the known answer each invocation must give.

Two routes reach the verifier.  The CLI route calls ``ivwsm.cli.main`` in
process with stdout captured, exactly as the ``ivwsm`` command does.  The
API route builds ``Ivf``/``WsmProblem`` objects and calls ``check_all`` and
``estimate_modulus``.  Every invocation builds its problem afresh, so the
lazy context build is paid inside the timed call, as users pay it.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DESK_DIR = HERE / "desk"
DESK_GOLDEN = HERE / "desk_golden.json"

WORKLOADS = ("desk", "scan", "stress3d", "analytic3d")

WHY = {
    "desk": (
        "the documented user path on the four shipped problem files; fixed "
        "per-run costs dominate and it owns the byte-identical #DATA contract"
    ),
    "scan": (
        "weighted-L1 problems in 2-d, 3-d and 4-d on grids near GRID_CAP; "
        "expression evaluation, guards and bisection, no derivatives"
    ),
    "stress3d": (
        "3-d strip problem files at grid 17 under all five checkers; numeric "
        "one-sided derivatives through expr dominate"
    ),
    "analytic3d": (
        "the stress3d family through the API with analytic derivatives; no "
        "expr work, isolating the wsm, geometry and subdiff loops"
    ),
}

#: Grid points per axis for the scan problems, the largest odd counts whose
#: full grid stays near GRID_CAP (40k points).
SCAN_GRIDS = {2: 199, 3: 33, 4: 13}
STRIP_GRID = 17
#: estimate_modulus bisects to 1e-3 and returns the passing end, so a
#: correct estimate lies just below the known modulus.
MODULUS_TOL = 2e-3
#: Multiples of the known modulus checked: below it holds, above it fails.
HOLDS_FACTOR, FAILS_FACTOR = 0.8, 1.2


@dataclass
class Outcome:
    exit_code: Optional[int] = None
    verdicts: dict = field(default_factory=dict)  # checker -> (verdict, samples)
    modulus: Optional[float] = None
    data: list = field(default_factory=list)  # #DATA lines (CLI route)
    error: Optional[str] = None


@dataclass
class Invocation:
    kind: str  # "check", "modulus" or "subdiff"
    label: str
    expect: dict
    argv: Optional[list] = None  # CLI route
    call: Optional[Callable[[], Outcome]] = None  # API route


@dataclass
class Workload:
    name: str
    ivwsm: object
    invocations: list
    problems: list  # the problems set-up parsed and built


def import_ivwsm():
    """Import ``ivwsm`` and its CLI from source, dropping earlier imports so
    that each set-up pays the import again."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "ivwsm" or m.startswith("ivwsm.")]:
        del sys.modules[name]
    ivwsm = importlib.import_module("ivwsm")
    importlib.import_module("ivwsm.cli")
    return ivwsm


# -- input generation -------------------------------------------------------


def _node(rng: np.random.Generator, points: int) -> float:
    """A grid node of [-1, 1] at `points` per axis, in the middle half, so the
    known modulus is attained on the grid."""
    k = int(rng.integers((points - 1) // 4, 3 * (points - 1) // 4 + 1))
    return -1.0 + 2.0 * k / (points - 1)


def _shift(var: str, c: float) -> str:
    return f"({var} - {c!r})" if c >= 0 else f"({var} + {-c!r})"


def _box(lo, hi) -> str:
    return " ".join(f"{a!r} {b!r}" for a, b in zip(lo, hi))


def _problem_text(n, lower, upper, sbar_lo, sbar_hi, alpha, grid, seed) -> str:
    return "\n".join(
        [
            f"dimension: {n}",
            f"lower: {lower}",
            f"upper: {upper}",
            f"domain: {_box([-2.0] * n, [2.0] * n)}",
            f"S: {_box([-1.0] * n, [1.0] * n)}",
            f"Sbar: {_box(sbar_lo, sbar_hi)}",
            f"alpha: {alpha!r}",
            f"grid: {grid}",
            f"seed: {seed}",
            "",
        ]
    )


def weighted_l1(rng: np.random.Generator, n: int, points: int) -> dict:
    """lower = sum a_i |x_i - c_i|, upper = sum b_i |x_i - c_i| + w, Sbar = {c}.

    With b_i >= a_i and w >= 0, lower <= upper on the whole domain, and
    the modulus is min a_i, attained along the axis of the smallest a_i.
    """
    a = [round(float(rng.uniform(0.5, 0.9)), 3) for _ in range(n)]
    b = [round(ai + float(rng.uniform(0.1, 0.5)), 3) for ai in a]
    w = round(float(rng.uniform(0.0, 0.5)), 3)
    c = [_node(rng, points) for _ in range(n)]
    terms_lo = [f"{ai!r}*abs{_shift(f'x{i + 1}', ci)}" for i, (ai, ci) in enumerate(zip(a, c))]
    terms_hi = [f"{bi!r}*abs{_shift(f'x{i + 1}', ci)}" for i, (bi, ci) in enumerate(zip(b, c))]
    return {
        "lower": " + ".join(terms_lo),
        "upper": " + ".join(terms_hi) + f" + {w!r}",
        "sbar": (c, c),
        "modulus": min(a),
    }


def strip(rng: np.random.Generator, points: int) -> dict:
    """lower = a|x1 - c|, upper = b|x1 - c| + (x1 - c)^2 + w, Sbar = {c} x [-1,1]^2.

    With b >= a and w >= 0, lower <= upper on the whole domain; F is
    constant on Sbar and the modulus is a.
    """
    a = round(float(rng.uniform(0.5, 0.9)), 3)
    b = round(a + float(rng.uniform(0.1, 0.5)), 3)
    w = round(float(rng.uniform(0.1, 0.5)), 3)
    c = _node(rng, points)
    t = _shift("x1", c)
    return {
        "a": a,
        "b": b,
        "w": w,
        "c": c,
        "lower": f"{a!r}*abs{t}",
        "upper": f"{b!r}*abs{t} + {t}^2 + {w!r}",
        "sbar": ([c, -1.0, -1.0], [c, 1.0, 1.0]),
        "modulus": a,
    }


def _check_expect(verdict: str, checkers: int) -> dict:
    return {"exit": 0 if verdict == "holds" else 1, "verdict": verdict, "checkers": checkers}


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


# -- workloads --------------------------------------------------------------


def setup(name: str, seed: int, workdir: Path, scan_grids=None, strip_grid=STRIP_GRID) -> Workload:
    """Import ``ivwsm``, generate the inputs and parse and build every problem."""
    ivwsm = import_ivwsm()
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    if name == "desk":
        return _desk(ivwsm, workdir)
    if name == "scan":
        return _scan(ivwsm, rng, workdir, scan_grids or SCAN_GRIDS)
    if name == "stress3d":
        return _stress3d(ivwsm, rng, workdir, strip_grid)
    if name == "analytic3d":
        return _analytic3d(ivwsm, rng, strip_grid)
    raise ValueError(f"unknown workload {name!r}")


def _load_all(ivwsm, paths) -> list:
    return [ivwsm.build_problem(ivwsm.load_problem_file(p)) for p in paths]


def desk_invocations(workdir: Path) -> list:
    """The shipped problems under check --mode all and modulus, plus one
    subdiff probe; expectations are attached from the golden file."""
    invocations = []
    for src in sorted(DESK_DIR.glob("*.txt")):
        path = str(workdir / src.name)
        invocations.append(
            Invocation("check", f"check {src.name}", {}, argv=["check", path, "--mode", "all"])
        )
        invocations.append(Invocation("modulus", f"modulus {src.name}", {}, argv=["modulus", path]))
    vee = str(workdir / "vee1d.txt")
    invocations.append(
        Invocation(
            "subdiff",
            "subdiff vee1d.txt",
            {},
            argv=["subdiff", vee, "--at", "0", "--probe", "0.2 0.2"],
        )
    )
    return invocations


def _desk(ivwsm, workdir: Path) -> Workload:
    # The desk inputs are fixed files, so the seed does not change them.
    paths = [shutil.copy(src, workdir / src.name) for src in sorted(DESK_DIR.glob("*.txt"))]
    golden = json.loads(DESK_GOLDEN.read_text())
    invocations = desk_invocations(workdir)
    for inv in invocations:
        entry = golden[inv.label]
        inv.expect = {"exit": entry["exit"], "data": entry["data"]}
    return Workload("desk", ivwsm, invocations, _load_all(ivwsm, paths))


def _scan(ivwsm, rng, workdir: Path, grids: dict) -> Workload:
    invocations, paths = [], []
    for n, points in sorted(grids.items()):
        fam = weighted_l1(rng, n, points)
        factor = HOLDS_FACTOR if rng.integers(2) else FAILS_FACTOR
        verdict = "holds" if factor == HOLDS_FACTOR else "fails"
        text = _problem_text(
            n, fam["lower"], fam["upper"], *fam["sbar"],
            round(factor * fam["modulus"], 6), points, int(rng.integers(1000)),
        )
        path = _write(workdir / f"scan{n}d.txt", text)
        paths.append(path)
        invocations.append(
            Invocation(
                "check", f"check scan{n}d", _check_expect(verdict, 1),
                argv=["check", path, "--mode", "definition"],
            )
        )
        invocations.append(
            Invocation("modulus", f"modulus scan{n}d", {"exit": 0, "modulus": fam["modulus"]},
                       argv=["modulus", path])
        )
    return Workload("scan", ivwsm, invocations, _load_all(ivwsm, paths))


def _stress3d(ivwsm, rng, workdir: Path, points: int) -> Workload:
    fam = strip(rng, points)
    problem_seed = int(rng.integers(1000))
    invocations, paths = [], []
    for factor, verdict in ((HOLDS_FACTOR, "holds"), (FAILS_FACTOR, "fails")):
        text = _problem_text(
            3, fam["lower"], fam["upper"], *fam["sbar"],
            round(factor * fam["modulus"], 6), points, problem_seed,
        )
        path = _write(workdir / f"strip3d-{verdict}.txt", text)
        paths.append(path)
        invocations.append(
            Invocation("check", f"check strip3d-{verdict}", _check_expect(verdict, 5),
                       argv=["check", path, "--mode", "all"])
        )
    invocations.append(
        Invocation("modulus", "modulus strip3d", {"exit": 0, "modulus": fam["modulus"]},
                   argv=["modulus", paths[0]])
    )
    return Workload("stress3d", ivwsm, invocations, _load_all(ivwsm, paths))


def strip_ivf(ivwsm, fam: dict):
    """The strip family as an ``Ivf`` with closed-form endpoints and an exact
    interval directional derivative."""
    a, b, w, c = fam["a"], fam["b"], fam["w"], fam["c"]

    def lower(x):
        return a * abs(x[0] - c)

    def upper(x):
        t = x[0] - c
        return b * abs(t) + t * t + w

    def dir_deriv(x, d):
        t = float(x[0]) - c
        d1 = float(d[0])
        if abs(t) <= 1e-12:
            k_lo, k_hi = a * abs(d1), b * abs(d1)
        else:
            k_lo = a * np.sign(t) * d1
            k_hi = b * np.sign(t) * d1 + 2.0 * t * d1
        return ivwsm.Interval(min(k_lo, k_hi), max(k_lo, k_hi))

    domain = ivwsm.BoxSet(np.full(3, -2.0), np.full(3, 2.0))
    return ivwsm.Ivf(3, lower, upper, domain, analytic_dir_deriv=dir_deriv)


def _analytic3d(ivwsm, rng, points: int) -> Workload:
    fam = strip(rng, points)
    problem_seed = int(rng.integers(1000))
    f = strip_ivf(ivwsm, fam)
    s = ivwsm.BoxSet(np.full(3, -1.0), np.full(3, 1.0))
    sbar = ivwsm.BoxSet(np.array(fam["sbar"][0]), np.array(fam["sbar"][1]))

    def problem(alpha):
        return ivwsm.WsmProblem(f=f, s=s, sbar=sbar, alpha=alpha, grid=points, seed=problem_seed)

    def check(alpha):
        reports = ivwsm.check_all(problem(alpha))
        return Outcome(
            exit_code=0 if all(r.holds for r in reports.values()) else 1,
            verdicts={k: (r.verdict, r.samples_evaluated) for k, r in reports.items()},
        )

    def modulus():
        return Outcome(exit_code=0, modulus=ivwsm.estimate_modulus(problem(fam["modulus"])))

    invocations = []
    for factor, verdict in ((HOLDS_FACTOR, "holds"), (FAILS_FACTOR, "fails")):
        alpha = round(factor * fam["modulus"], 6)
        invocations.append(
            Invocation("check", f"check_all strip3d-{verdict}", _check_expect(verdict, 5),
                       call=lambda alpha=alpha: check(alpha))
        )
    invocations.append(
        Invocation("modulus", "estimate_modulus strip3d", {"exit": 0, "modulus": fam["modulus"]},
                   call=modulus)
    )
    problems = [problem(round(k * fam["modulus"], 6)) for k in (HOLDS_FACTOR, FAILS_FACTOR)]
    return Workload("analytic3d", ivwsm, invocations, problems)


# -- running and verifying --------------------------------------------------


def parse_cli(exit_code: int, stdout: str) -> Outcome:
    out = Outcome(exit_code=exit_code)
    for line in stdout.splitlines():
        if not line.startswith("#DATA "):
            continue
        out.data.append(line)
        fields = dict(tok.split("=", 1) for tok in line[6:].split() if "=" in tok)
        if "checker" in fields:
            out.verdicts[fields["checker"]] = (fields["verdict"], int(fields["samples"]))
        elif "modulus" in fields:
            out.modulus = float(fields["modulus"])
    return out


def run_invocation(workload: Workload, inv: Invocation) -> Outcome:
    """Run one invocation, capturing what it prints."""
    stdout = io.StringIO()
    try:
        if inv.call is not None:
            outcome = inv.call()
        else:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = workload.ivwsm.cli.main(inv.argv)
                except SystemExit as exc:  # argparse rejects bad arguments this way
                    code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # any raise is a failed invocation, not a crash
        return Outcome(error=f"{type(exc).__name__}: {exc}")
    if inv.call is None:
        outcome = parse_cli(code, stdout.getvalue())
    return outcome


def verify(inv: Invocation, out: Outcome) -> Optional[str]:
    """None when the outcome matches the known answer, else the reason."""
    exp = inv.expect
    if out.error is not None:
        return f"raised {out.error}"
    if out.exit_code == 2:
        return "exit 2 (input error)"
    if "exit" in exp and out.exit_code != exp["exit"]:
        return f"exit {out.exit_code}, expected {exp['exit']}"
    if "data" in exp and out.data != exp["data"]:
        return "#DATA lines differ from the golden file"
    if "verdict" in exp:
        got = [v for v, _ in out.verdicts.values()]
        if len(got) != exp["checkers"] or any(v != exp["verdict"] for v in got):
            return f"verdicts {got}, expected {exp['checkers']} x {exp['verdict']}"
    if "modulus" in exp:
        if out.modulus is None or not abs(out.modulus - exp["modulus"]) <= MODULUS_TOL:
            return f"modulus {out.modulus}, expected {exp['modulus']}"
    return None
