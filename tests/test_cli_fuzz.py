"""The exit-code contract of the CLI, fuzzed over generated problem files.

Every run ends in exit 0, 1 or 2 and raises nothing; exit 1 comes only
from a failing checker of ``check`` or a non-member ``subdiff --probe``;
exit 2 leaves stdout empty and prints one ``error:`` line; and no Python
warning is emitted.  The files are 1-3 dimensional, with endpoints built
from ``abs``, ``max`` and ``^`` of affine forms or from a weighted
distance to Sbar (so that some problems are sharp), and they sample the
extremes on purpose: alpha at 1e-300 and 1e308, boxes scaled by 1e160 or
1e300 (where squared distances overflow, and ``--at`` takes negative
numbers in exponent form), degenerate boxes, Sbar on a face of S, ``--at``
on a face of S, and the flags ``--tol 0``, ``--tol nan``, ``--tol inf``
and ``--dirs 0``.  A second run of the fuzzer adds
coefficients of 1e150 to 1e308.
One mutation of a valid file may be drawn: an unknown key, a duplicate
key, a stray character in an expression, or a non-number in a number key.
"""

import io
import warnings
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from ivwsm.cli import main

COEFFICIENTS = (-2, -1, -0.5, 0, 0.5, 1, 3)
#: Coefficients near the top of the float range, where values, their
#: differences and derivatives overflow.
MAGNITUDES = (1e150, -3e200, 1e250, -1e300, 4e307, 1.7e308)
ALPHAS = ("1e-300", "0.001", "0.1", "0.5", "2", "1e308")
#: Factors of every box: at 1e160 and 1e300 a squared distance overflows.
SCALES = (1, 1e160, 1e300)
#: Fractions of an enclosing box's width at which a sub-box's ends sit:
#: 0 and 1 put them on its faces, equal draws make them degenerate.
FRACTIONS = (0, 0.25, 0.5, 1)
STRAY = ("$", "@", ";", "?", "é", "²", "٣", ".")
NON_NUMBERS = ("fast", "1.5", "", "1e", "0x10", "nan")
NUMBER_KEYS = ("dimension", "alpha", "grid", "seed")
MUTATIONS = ("unknown", "duplicate", "stray", "non-number")


@st.composite
def affine(draw, n, coefficients):
    terms = [f"{draw(st.sampled_from(coefficients))}"]
    terms += [f"{draw(st.sampled_from(coefficients))}*x{i}" for i in range(1, n + 1)]
    return " + ".join(terms)


@st.composite
def endpoint(draw, n, coefficients):
    a = draw(affine(n, coefficients))
    return draw(
        st.sampled_from(
            [
                a,
                f"abs({a})",
                f"max({a}, {draw(affine(n, coefficients))})",
                f"({a})^{draw(st.integers(2, 3))}",
            ]
        )
    )


def boxes(pairs):
    return " ".join(f"{lo:g} {hi:g}" for lo, hi in pairs)


def sub_box(draw, lo, hi):
    ends = sorted(draw(st.sampled_from(FRACTIONS)) for _ in range(2))
    return [lo + (hi - lo) * f for f in ends]


@st.composite
def runs(draw, coefficients):
    """The text of one problem file, its affine forms' coefficients drawn
    from ``coefficients``, and the argument lists to run on it."""
    n = draw(st.integers(1, 3))
    scale = draw(st.sampled_from(SCALES))
    domain, s, sbar = [], [], []
    for _ in range(n):
        lo = scale * draw(st.sampled_from((-2, -1, 0)))
        hi = lo + scale * draw(st.sampled_from((1, 2, 4)))
        domain.append((lo, hi))
        s.append(sub_box(draw, lo, hi))
        sbar.append(sub_box(draw, *s[-1]))
    if draw(st.booleans()):
        # weighted distance to Sbar, so Sbar is the set of minima
        weights = [draw(st.sampled_from((0.5, 1, 3))) for _ in range(n)]
        lower = " + ".join(
            f"{w}*max({lo:g} - x{i}, x{i} - {hi:g}, 0)"
            for i, (w, (lo, hi)) in enumerate(zip(weights, sbar), start=1)
        )
    else:
        lower = draw(endpoint(n, coefficients))
    gap = draw(st.sampled_from(("0", "0.5", "2")))
    upper = draw(st.sampled_from([f"{lower} + {gap}", draw(endpoint(n, coefficients))]))
    fields = {
        "dimension": n,
        "lower": lower,
        "upper": upper,
        "domain": boxes(domain),
        "S": boxes(s),
        "Sbar": boxes(sbar),
        "alpha": draw(st.sampled_from(ALPHAS)),
        "grid": draw(st.integers(2, 7)),
        "seed": draw(st.integers(0, 99)),
    }
    # most files stay valid, so most runs reach the checkers
    mutation = draw(st.sampled_from(MUTATIONS)) if draw(st.integers(0, 3)) == 3 else None
    if mutation == "stray":
        key = draw(st.sampled_from(("lower", "upper")))
        at = draw(st.integers(0, len(fields[key])))
        fields[key] = fields[key][:at] + draw(st.sampled_from(STRAY)) + fields[key][at:]
    elif mutation == "non-number":
        fields[draw(st.sampled_from(NUMBER_KEYS))] = draw(st.sampled_from(NON_NUMBERS))
    lines = [f"{key}: {value}" for key, value in fields.items()]
    if mutation == "unknown":
        lines.insert(draw(st.integers(0, len(lines))), "extra: 1")
    elif mutation == "duplicate":
        lines.append(draw(st.sampled_from(lines)))
    flags = []
    if draw(st.integers(0, 3)) == 3:
        flags += ["--tol", draw(st.sampled_from(("0", "nan", "inf", "1e-9")))]
    dirs = draw(st.sampled_from((None, "0", "3")))
    if dirs is not None:
        flags += ["--dirs", dirs]
    # the middle of the domain, or the lower corner of S: on a face of S,
    # and of the domain where S reaches it
    at = draw(st.sampled_from([[(lo + hi) / 2 for lo, hi in domain], [lo for lo, _ in s]]))
    at = " ".join(f"{v:g}" for v in at)
    subdiff = ["subdiff", "FILE", "--at", at]
    if draw(st.booleans()):
        probe = draw(st.sampled_from(("0 0", "0.2 0.3", "-1 1", "1 2")))
        subdiff += ["--probe", " ".join([probe] * n)]
    commands = [["check", "FILE", "--mode", "all"], ["modulus", "FILE"], subdiff]
    return "\n".join(lines) + "\n", [flags + command for command in commands]


def run(argv):
    """Exit code, stdout and stderr of one in-process CLI run, with every
    warning raised as an error."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(runs(COEFFICIENTS))
def test_every_run_keeps_the_exit_code_contract(tmp_path_factory, case):
    check_contract(tmp_path_factory, case)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(runs(COEFFICIENTS + MAGNITUDES))
def test_near_the_top_of_the_float_range(tmp_path_factory, case):
    check_contract(tmp_path_factory, case)


def check_contract(tmp_path_factory, case):
    text, argvs = case
    path = tmp_path_factory.mktemp("fuzz") / "problem.txt"
    path.write_text(text)
    for argv in argvs:
        argv = [str(path) if a == "FILE" else a for a in argv]
        code, out, err = run(argv)
        assert code in (0, 1, 2), (argv, text)
        if code == 2:
            assert out == "", (argv, text)
            assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, text, err)
            continue
        assert err == "", (argv, text, err)
        if "check" in argv:
            assert (code == 1) == ("verdict: fails" in out), (argv, text, out)
        elif "--probe" in argv:
            assert (code == 1) == ("#DATA probe_member=no" in out), (argv, text, out)
        else:
            assert code == 0, (argv, text, out)
