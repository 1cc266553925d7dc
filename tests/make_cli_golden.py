"""Rewrite ``cli_golden.json``: the data lines, stderr and exit code of
every run of the CLI corpus, as the verifier at the current commit
produces them.

The corpus is every file in ``problems/`` and ``tests/regressions/`` under
``check --mode all``, ``modulus`` and ``subdiff --at v`` (v in
:data:`AT_VALUES` on every axis, alone and with each of :data:`PROBES` on
every axis), each with the flag sets of :data:`FLAG_SETS`.  Runs go
through ``cli.main`` in process.

Run from the repository root only when the CLI output is meant to change::

    PYTHONPATH=src python3 tests/make_cli_golden.py
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
DATA = ("#DATA", "support along")


def corpus() -> dict[str, list[str]]:
    """Each run's name, mapped to its argument list (paths relative to the
    repository root)."""
    runs = {}
    for name in FILES:
        n = load_problem_file(ROOT / name).dimension
        commands = [["check", name, "--mode", "all"], ["modulus", name]]
        for v in AT_VALUES:
            at = ["subdiff", name, "--at", " ".join([v] * n)]
            commands.append(at)
            commands += [[*at, "--probe", " ".join([probe] * n)] for probe in PROBES]
        for flags in FLAG_SETS:
            for command in commands:
                argv = [*flags, *command]
                runs[" ".join(repr(a) if " " in a else a for a in argv)] = argv
    return runs


def outcome(argv: list[str]) -> dict:
    """The exit code, stderr and data lines of one in-process run, with
    file names taken relative to the repository root.  The data lines are
    the ``#DATA`` lines and, for ``subdiff`` in more than one dimension,
    the support values."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main([str(ROOT / a) if a in FILES else a for a in argv])
    data = [line for line in out.getvalue().splitlines() if line.startswith(DATA)]
    return {"exit": code, "data": data, "stderr": err.getvalue()}


def main() -> None:
    golden = {name: outcome(argv) for name, argv in corpus().items()}
    GOLDEN.write_text(json.dumps(golden, indent=1, ensure_ascii=False) + "\n")


if __name__ == "__main__":
    main()
