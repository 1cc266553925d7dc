"""The CLI corpus of ``make_cli_golden.py``: every run's ``#DATA`` lines,
support values, stderr and exit code equal the committed golden file.

Any change to parsing, evaluation, derivatives or the checkers that moves
one printed digit of one run shows up here, named by run.  A change that
moves output on purpose regenerates the file with that script and lists
the moved runs.
"""

import json

from make_cli_golden import GOLDEN, corpus, outcome

EXPECTED = json.loads(GOLDEN.read_text())


def test_the_golden_file_covers_the_corpus():
    assert sorted(EXPECTED) == sorted(corpus())


def test_every_run_matches_the_golden_file():
    differing = [
        name
        for name, argv in corpus().items()
        if name in EXPECTED and outcome(argv) != EXPECTED[name]
    ]
    assert differing[:5] == [], f"{len(differing)} of {len(EXPECTED)} runs differ"
