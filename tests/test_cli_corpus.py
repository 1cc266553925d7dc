"""The CLI corpus of ``make_cli_golden.py``: every run's exit code, full
stdout and stderr equal the committed golden file.

Any change to parsing, evaluation, derivatives, the checkers or the report
that moves one printed character of one run shows up here, named by run.
A change that moves output on purpose regenerates the file with that
script and lists the moved runs.
"""

import json

from make_cli_golden import GOLDEN, corpus, outcome

EXPECTED = json.loads(GOLDEN.read_text())
RUNS = corpus()


def test_the_golden_file_covers_the_corpus():
    assert sorted(EXPECTED) == sorted(RUNS)


def test_every_run_matches_the_golden_file():
    differing = [key for key, argv in RUNS.items() if outcome(argv) != EXPECTED.get(key)]
    assert not differing, f"{len(differing)} of {len(RUNS)} runs differ: {'; '.join(differing)}"
