"""Pinned ``#DATA`` lines and exit codes of the shipped problem files.

``golden_problems.json`` holds the output of ``check --mode all`` and
``modulus`` on every file in ``problems/``.  Any change to evaluation,
derivatives or the checkers that moves a margin, a witness or a sample
count by one bit shows up here.  Its ``subdiff`` entries pin the full
stdout of one run per subgradient-set form (box, singleton, support
oracle) and of two ``--probe`` runs.
"""

import json
import shlex
from pathlib import Path

import pytest

from ivwsm.cli import main

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
GOLDEN = json.loads((Path(__file__).parent / "golden_problems.json").read_text())
SUBDIFF = sorted(key for key in GOLDEN if key.startswith("subdiff "))
DATA = sorted(key for key in GOLDEN if key not in SUBDIFF)


def test_every_shipped_problem_is_pinned():
    assert {key.split()[1] for key in DATA} == {p.name for p in PROBLEMS.glob("*.txt")}


@pytest.mark.parametrize("key", DATA)
def test_data_lines_and_exit_code(key, capsys):
    command, name = key.split()
    extra = ["--mode", "all"] if command == "check" else []
    code = main([command, str(PROBLEMS / name), *extra])
    data = [line for line in capsys.readouterr().out.splitlines() if line.startswith("#DATA")]
    assert {"exit": code, "data": data} == GOLDEN[key]


@pytest.mark.parametrize("key", SUBDIFF)
def test_subdiff_stdout_and_exit_code(key, capsys):
    command, name, *options = shlex.split(key)
    code = main([command, str(PROBLEMS / name), *options])
    stdout = capsys.readouterr().out.splitlines()
    assert {"exit": code, "stdout": stdout} == GOLDEN[key]
