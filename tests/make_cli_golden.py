"""Rewrite ``cli_golden.json``: the exit code, full stdout and stderr of
every run of the CLI corpus, as the verifier at the current commit
produces them.  It is the one golden file of the CLI under ``tests/``.

The corpus is every file in ``problems/`` and ``tests/regressions/`` under
``check --mode all``, ``modulus`` and ``subdiff --at v`` (v in
:data:`AT_VALUES` on every axis, alone and with each of :data:`PROBES` on
every axis), each with the flag sets of :data:`FLAG_SETS`, plus the
:data:`EXTRA_RUNS`.  Runs go through ``cli.main`` in process.

Run from the repository root only when the CLI output is meant to change::

    PYTHONPATH=src python3 tests/make_cli_golden.py

Before it rewrites the file it prints the name of each run it adds,
changes or removes, one per line, so a change lists its moved runs from
this output.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from ivwsm.cli import main as cli_main
from ivwsm.problems import load_problem_file

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "cli_golden.json"
FILES = sorted(
    p.relative_to(ROOT).as_posix()
    for directory in (ROOT / "problems", HERE / "regressions")
    for p in directory.glob("*.txt")
)
FLAG_SETS = ([], ["--grid", "9"], ["--seed", "11", "--grid", "13"])
AT_VALUES = ("0.5", "-0.5", "0", "0.25", "1e-5")
PROBES = ("0.2 0.3", "0 0", "1 2")
#: Runs outside the pattern above: a point off AT_VALUES, a degenerate
#: probe, and a probe whose axes differ, without flags; then malformed
#: command lines (no file named, a non-number flag, a dropped value, an
#: unknown choice and an unknown option).
EXTRA_RUNS = (
    ["subdiff", "problems/vee1d.txt", "--at", "0.7"],
    ["subdiff", "problems/vee1d.txt", "--at", "0", "--probe", "0.2 0.2"],
    ["subdiff", "problems/l1cone2d.txt", "--at", "0.3,-0.2", "--probe", "0.5,1.5,-2,-1"],
    ["check"],
    ["--grid", "x", "check", "problems/vee1d.txt"],
    ["subdiff", "problems/vee1d.txt", "--at"],
    ["check", "problems/vee1d.txt", "--mode", "bogus"],
    ["--bogus", "modulus", "problems/vee1d.txt"],
)


def corpus() -> dict[str, list[str]]:
    """Each run's name, mapped to its argument list (paths relative to the
    repository root)."""
    runs = []
    for name in FILES:
        n = load_problem_file(ROOT / name).dimension
        commands = [["check", name, "--mode", "all"], ["modulus", name]]
        for v in AT_VALUES:
            at = ["subdiff", name, "--at", " ".join([v] * n)]
            commands.append(at)
            commands += [[*at, "--probe", " ".join([probe] * n)] for probe in PROBES]
        runs += [[*flags, *command] for flags in FLAG_SETS for command in commands]
    return {
        " ".join(repr(a) if " " in a else a for a in argv): argv
        for argv in [*runs, *EXTRA_RUNS]
    }


def outcome(argv: list[str]) -> dict:
    """The exit code, stdout lines and stderr of one in-process run, with
    file names taken relative to the repository root."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main([str(ROOT / a) if a in FILES else a for a in argv])
    return {"exit": code, "stdout": out.getvalue().splitlines(), "stderr": err.getvalue()}


def main() -> None:
    golden = {name: outcome(argv) for name, argv in corpus().items()}
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for name, result in golden.items():
        if name not in old:
            print(f"added: {name}")
        elif result != old[name]:
            print(f"changed: {name}")
    for name in old:
        if name not in golden:
            print(f"removed: {name}")
    GOLDEN.write_text(json.dumps(golden, indent=1, ensure_ascii=False) + "\n")


if __name__ == "__main__":
    main()
