"""The shipped problem files' headline runs, one test id each.

``check --mode all`` and ``modulus`` on every file in ``problems/``, and
five ``subdiff`` runs: one per subgradient-set form (box, singleton,
support oracle) and two ``--probe`` runs.  Each run's exit code, full
stdout and stderr must equal its pin in ``cli_golden.json``, the corpus
of ``make_cli_golden.py``; this file holds no pins of its own.
"""

import json
import shlex

import pytest

from make_cli_golden import GOLDEN, ROOT, corpus, outcome

EXPECTED = json.loads(GOLDEN.read_text())
KEY_OF = {tuple(argv): key for key, argv in corpus().items()}
SHIPPED = sorted(p.name for p in (ROOT / "problems").glob("*.txt"))
DATA = [f"{command} {name}" for command in ("check", "modulus") for name in SHIPPED]
SUBDIFF = [
    "subdiff vee1d.txt --at 0",
    "subdiff vee1d.txt --at 0.7",
    "subdiff vee1d.txt --at 0 --probe '0.2 0.2'",
    "subdiff poly2d.txt --at '-0.5 -0.5'",
    "subdiff l1cone2d.txt --at 0.3,-0.2 --probe 0.5,1.5,-2,-1",
]


def _argv(key):
    command, name, *options = shlex.split(key)
    return (command, f"problems/{name}", *(["--mode", "all"] if command == "check" else options))


def test_every_shipped_problem_is_pinned():
    assert [key for key in DATA if KEY_OF.get(_argv(key)) not in EXPECTED] == []


@pytest.mark.parametrize("key", DATA)
def test_data_lines_and_exit_code(key):
    assert outcome(list(_argv(key))) == EXPECTED[KEY_OF[_argv(key)]]


@pytest.mark.parametrize("key", SUBDIFF)
def test_subdiff_stdout_and_exit_code(key):
    assert outcome(list(_argv(key))) == EXPECTED[KEY_OF[_argv(key)]]
