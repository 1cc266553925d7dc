"""Pinned ``#DATA`` lines and exit codes of the shipped problem files.

``golden_problems.json`` holds the output of ``check --mode all`` and
``modulus`` on every file in ``problems/``.  Any change to evaluation,
derivatives or the checkers that moves a margin, a witness or a sample
count by one bit shows up here.
"""

import json
from pathlib import Path

import pytest

from ivwsm.cli import main

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
GOLDEN = json.loads((Path(__file__).parent / "golden_problems.json").read_text())


def test_every_shipped_problem_is_pinned():
    assert {key.split()[1] for key in GOLDEN} == {p.name for p in PROBLEMS.glob("*.txt")}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_data_lines_and_exit_code(key, capsys):
    command, name = key.split()
    extra = ["--mode", "all"] if command == "check" else []
    code = main([command, str(PROBLEMS / name), *extra])
    data = [line for line in capsys.readouterr().out.splitlines() if line.startswith("#DATA")]
    assert {"exit": code, "data": data} == GOLDEN[key]
