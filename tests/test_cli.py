"""Problem files, CLI subcommands, exit codes, and report determinism."""

import argparse
import codecs
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ivwsm.cli

from ivwsm import GuardError, ProblemFileError, WsmProblem, build_problem, load_problem_file
from ivwsm.cli import main
from ivwsm.problems import parse_problem_text
from ivwsm.wsm import GRID_CAP, grid_density

from conftest import cube, point_box, vee_ivf

VEE = """\
# kinked 1-d objective
dimension: 1
lower: 0.25 * abs(x1)
upper: abs(x1)
domain: -2 2
S: -1 1
Sbar: 0 0
alpha: {alpha}
seed: 7
"""

POLY = """\
dimension: 2
lower: 5 - x1*x2 - x1
upper: 10 - x1^2*x2 - x2^2*x1
domain: -1 0 -1 0
S: -1 0 -1 0
Sbar: 0 0 -1 0
alpha: {alpha}
seed: 7
"""


@pytest.fixture
def vee_file(tmp_path):
    def write(alpha=0.2):
        path = tmp_path / "vee.txt"
        path.write_text(VEE.format(alpha=alpha))
        return str(path)

    return write


@pytest.fixture
def poly_file(tmp_path):
    def write(alpha=0.1):
        path = tmp_path / "poly.txt"
        path.write_text(POLY.format(alpha=alpha))
        return str(path)

    return write


class TestProblemParsing:
    def test_round_trip(self):
        spec = parse_problem_text(VEE.format(alpha=0.2))
        assert spec.dimension == 1
        assert spec.alpha == 0.2
        assert spec.seed == 7
        problem = build_problem(spec)
        assert problem.grid == 33
        assert problem.f.value([1.0]).hi == 1.0

    def test_missing_key(self):
        with pytest.raises(ProblemFileError, match="missing required key"):
            parse_problem_text("dimension: 1\nlower: x1\n")

    def test_unknown_key(self):
        with pytest.raises(ProblemFileError, match="unknown key"):
            parse_problem_text(VEE.format(alpha=0.2) + "extra: 1\n")

    def test_expression_error_carries_line(self):
        bad = VEE.format(alpha=0.2).replace("abs(x1)", "abs(x2)")
        with pytest.raises(ProblemFileError, match="line .*dimension"):
            parse_problem_text(bad)

    def test_malformed_box_rejected(self):
        bad = VEE.format(alpha=0.2).replace("S: -1 1", "S: 1 -1")
        with pytest.raises(ProblemFileError, match="lo > hi"):
            parse_problem_text(bad)

    def test_containment_enforced(self):
        bad = VEE.format(alpha=0.2).replace("Sbar: 0 0", "Sbar: 1.5 1.5")
        with pytest.raises(ProblemFileError, match="^line 7: Sbar"):
            build_problem(parse_problem_text(bad))

    def test_missing_file(self):
        with pytest.raises(ProblemFileError, match="cannot read"):
            load_problem_file("/nonexistent/problem.txt")

    @pytest.mark.parametrize(
        "old, new, line, message",
        [
            ("Sbar: 0 0", "Sbar 0 0", 7, "expected 'key: value', got 'Sbar 0 0'"),
            ("seed: 7", "seed: 7\nalpha: 0.3", 10, "duplicate key 'alpha'"),
            ("dimension: 1", "dimension: 1.5", 2, "dimension must be an integer"),
            ("dimension: 1", "dimension: 0", 2, "dimension must be >= 1"),
            ("alpha: 0.2", "alpha: fast", 8, "alpha must be a number"),
            ("seed: 7", "seed: 7\ngrid: 2.5", 10, "grid must be an integer"),
            ("S: -1 1", "S: -1 one", 6, "box values must be numbers, got '-1 one'"),
            ("S: -1 1", "S: -1", 6, "box needs 2 values (lo/hi per axis), got 1"),
            ("seed: 7", "seed: x", 9, "seed must be an integer"),
        ],
        ids=[
            "no-colon", "duplicate-key", "fractional-dimension", "zero-dimension",
            "alpha-not-a-number", "fractional-grid", "box-not-numbers", "box-too-short",
            "seed-not-an-integer",
        ],
    )
    def test_file_error_reports_its_line(self, old, new, line, message):
        text = VEE.format(alpha=0.2)
        assert old in text
        with pytest.raises(ProblemFileError) as err:
            parse_problem_text(text.replace(old, new))
        assert str(err.value) == f"line {line}: {message}"

    def test_errors_are_found_in_key_order_not_line_order(self):
        text = VEE.format(alpha=0.2)
        # a bad alpha on line 1 and a bad S on line 7: the boxes are read first
        bad = "alpha: fast\n" + text.replace("alpha: 0.2\n", "").replace("S: -1 1", "S: -1 one")
        with pytest.raises(ProblemFileError, match=r"^line 7: box values must be numbers"):
            parse_problem_text(bad)
        # a bad grid on line 1 and a bad alpha on line 9: alpha is read first
        bad = "grid: 2.5\n" + text.replace("alpha: 0.2", "alpha: fast")
        with pytest.raises(ProblemFileError, match=r"^line 9: alpha must be a number$"):
            parse_problem_text(bad)

    def test_a_byte_order_mark_is_ignored(self, tmp_path, capsys):
        text = VEE.format(alpha=0.2).encode()
        data = []
        for name, content in [("plain.txt", text), ("bom.txt", codecs.BOM_UTF8 + text)]:
            path = tmp_path / name
            path.write_bytes(content)
            assert main(["check", str(path)]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            data.append([line for line in out.splitlines() if line.startswith("#DATA")])
        assert data[0] == data[1] and len(data[0]) == 5

    def test_a_file_that_is_not_utf8_is_named(self, tmp_path, capsys):
        path = tmp_path / "latin.txt"
        path.write_bytes(VEE.format(alpha=0.2).encode() + b"# caf\xff\n")
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot read {path}: 'utf-8' codec")
        assert captured.out == ""


class TestCheckCommand:
    def test_sharp_problem_exits_zero(self, vee_file, capsys):
        assert main(["check", vee_file(0.2), "--mode", "all"]) == 0
        out = capsys.readouterr().out
        assert "CONCORDANCE: agree" in out
        assert out.count("#DATA checker=") == 5

    def test_failing_problem_exits_one(self, vee_file, capsys):
        assert main(["check", vee_file(0.3), "--mode", "all"]) == 1
        out = capsys.readouterr().out
        assert "CONCORDANCE: agree" in out
        assert "verdict=fails" in out

    def test_single_mode(self, vee_file, capsys):
        assert main(["check", vee_file(0.2), "--mode", "definition"]) == 0
        out = capsys.readouterr().out
        assert out.count("#DATA checker=") == 1

    def test_malformed_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(VEE.format(alpha=0.2).replace("S: -1 1", "S: 1 -1"))
        assert main(["check", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_poly_example_concordant_and_flagged(self, poly_file, capsys):
        # the declared-convex guard fails on this objective; the run still
        # completes with all five checkers agreeing
        code = main(["check", poly_file(0.05), "--mode", "all"])
        out = capsys.readouterr().out
        assert code == 1
        assert "CONCORDANCE: agree" in out
        assert "NOTE:" in out and "convexity" in out

    def test_segment_candidate_file(self, tmp_path, capsys):
        # candidate sets need not be points: a whole segment passes below
        # its modulus and fails above it, concordantly
        path = tmp_path / "strip.txt"
        template = (
            "dimension: 2\nlower: abs(x1)\nupper: 2*abs(x1)\n"
            "domain: -2 2 -2 2\nS: -1 1 -1 1\nSbar: 0 0 -1 1\nalpha: {a}\nseed: 7\n"
        )
        path.write_text(template.format(a=0.8))
        assert main(["check", str(path), "--mode", "all"]) == 0
        assert "CONCORDANCE: agree" in capsys.readouterr().out
        path.write_text(template.format(a=1.2))
        assert main(["check", str(path), "--mode", "all"]) == 1
        assert "CONCORDANCE: agree" in capsys.readouterr().out

    def test_data_lines_are_deterministic(self, vee_file, capsys):
        main(["check", vee_file(0.2), "--mode", "all"])
        first = [l for l in capsys.readouterr().out.splitlines() if l.startswith("#DATA")]
        main(["check", vee_file(0.2), "--mode", "all"])
        second = [l for l in capsys.readouterr().out.splitlines() if l.startswith("#DATA")]
        assert first == second

    def test_data_line_grammar(self, vee_file, capsys):
        main(["check", vee_file(0.2), "--mode", "definition"])
        line = [
            l for l in capsys.readouterr().out.splitlines() if l.startswith("#DATA")
        ][0]
        fields = dict(part.split("=", 1) for part in line.split()[1:])
        assert fields["checker"] == "definition"
        assert fields["verdict"] in ("holds", "fails")
        float(fields["margin"])
        int(fields["samples"])
        for vec in fields["witness"].split(";"):
            np.array([float(v) for v in vec.split(",")])

    def test_a_checker_with_nothing_to_test_reports_no_witness(self, tmp_path, capsys):
        # Sbar = S leaves dual-e no direction tangent to S and normal to Sbar
        path = tmp_path / "sbar_is_s.txt"
        path.write_text(L1_SEGMENT.replace("Sbar: 0 0 -0.5 0.5", "Sbar: -1 1 -1 1"))
        assert main(["--grid", "9", "check", str(path), "--mode", "dual-e"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:5] == [
            "checker: dual-e",
            "  verdict: holds (on the sampled grid)",
            "  worst margin: inf",
            "  witness: none",
            "  samples: 81  grid/axis: 9",
        ]
        assert out[5] == "#DATA checker=dual-e verdict=holds margin=inf witness=none samples=81"

    def test_grid_override(self, vee_file, capsys):
        assert main(["--grid", "9", "check", vee_file(0.2), "--mode", "definition"]) == 0
        assert "samples: 9" in capsys.readouterr().out


class TestOutOfRangeFlags:
    @pytest.mark.parametrize(
        "flags, setting",
        [
            (["--grid", "0"], "grid"),
            (["--grid", "1"], "grid"),
            (["--grid", "-3"], "grid"),
            (["--tol", "-1"], "margin_tol"),
            (["--tol", "nan"], "margin_tol"),
            (["--tol", "inf"], "margin_tol"),
            (["--dirs", "-1"], "n_dirs"),
            (["--seed", "-1"], "seed"),
            (["--dirs", "100000000000"], "n_dirs"),
        ],
    )
    @pytest.mark.parametrize("command", ["check", "modulus", "subdiff"])
    def test_exit_two_naming_the_setting(self, vee_file, capsys, command, flags, setting):
        probe = ["--at", "0", "--probe", "0.2 0.2"] if command == "subdiff" else []
        assert main([*flags, command, vee_file(), *probe]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {setting} must be")
        assert captured.out == ""

    def test_smallest_accepted_values_run(self, vee_file, capsys):
        assert main(["--grid", "2", "--tol", "0", "--dirs", "0", "check", vee_file()]) == 0
        assert "grid/axis: 2" in capsys.readouterr().out


class TestFileValueRules:
    """A value the file holds is checked by WsmProblem, with the message the
    API and the flags give, prefixed by the line of its key."""

    @pytest.mark.parametrize(
        "old, new, line, setting",
        [
            ("alpha: 0.2", "alpha: 0", 8, {"alpha": 0.0}),
            ("alpha: 0.2", "alpha: inf", 8, {"alpha": float("inf")}),
            ("seed: 7", "seed: 7\ngrid: 1", 10, {"grid": 1}),
            ("seed: 7", "seed: -1", 9, {"seed": -1}),
            ("Sbar: 0 0", "Sbar: 1.5 1.5", 7, {"sbar": point_box(1.5)}),
            ("S: -1 1", "S: -3 3", 6, {"s": cube(1, -3, 3)}),
        ],
        ids=["alpha-0", "alpha-inf", "grid-1", "seed-negative", "sbar-outside-s", "s-outside"],
    )
    def test_bad_value_reports_its_line(self, tmp_path, capsys, old, new, line, setting):
        vee = {"f": vee_ivf(), "s": cube(1, -1, 1), "sbar": point_box(0.0), "alpha": 0.2}
        with pytest.raises(GuardError) as api:
            WsmProblem(**vee | setting)
        path = tmp_path / "bad.txt"
        path.write_text(VEE.format(alpha=0.2).replace(old, new))
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: line {line}: {api.value}\n"
        assert captured.out == ""
        name, value = next(iter(setting.items()))
        if name in ("grid", "seed"):
            assert main([f"--{name}", str(value), "check", str(path)]) == 2
            assert capsys.readouterr().err == f"error: {api.value}\n"

    @pytest.mark.parametrize("free", [16, 17, 34])
    def test_too_many_free_axes_for_the_grid_cap_report_the_line_of_s(
        self, tmp_path, capsys, free
    ):
        # 2 points per free axis already exceed GRID_CAP
        path = tmp_path / "wide.txt"
        path.write_text(_wide_problem(free))
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: line 5: S has {free} free axes: 2 points on each exceed the "
            f"{GRID_CAP}-point cap\n"
        )
        assert captured.out == ""

    def test_fifteen_free_axes_fit_the_grid_cap(self):
        problem = build_problem(parse_problem_text(_wide_problem(15)))
        assert grid_density(problem.s, problem.grid) == 2

    @pytest.mark.parametrize("command", [["check"], ["modulus"], ["subdiff", "--at", "0"]])
    def test_a_domain_wider_than_the_float_range_reports_its_line(self, tmp_path, capsys,
                                                                  command):
        path = tmp_path / "huge.txt"
        path.write_text(VEE.format(alpha=0.2).replace("domain: -2 2", "domain: -1.5e308 1.5e308"))
        assert main([command[0], str(path), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: line 5: box width hi - lo is past the float range on some axis\n")
        assert captured.out == ""

    def test_flag_overrides_a_bad_file_value(self, tmp_path, capsys):
        path = tmp_path / "grid1.txt"
        path.write_text(VEE.format(alpha=0.2) + "grid: 1\n")
        assert main(["--grid", "9", "check", str(path)]) == 0
        assert "grid/axis: 9" in capsys.readouterr().out


def _wide_problem(free: int, s: str = "-1 1") -> str:
    """A problem file over the domain [-1, 1]^free, with the bounds s of S
    on every axis and Sbar the origin."""
    return (
        f"dimension: {free}\nlower: abs(x1)\nupper: abs(x1) + 1\n"
        f"domain: {' '.join(['-1 1'] * free)}\nS: {' '.join([s] * free)}\n"
        f"Sbar: {' '.join(['0 0'] * free)}\nalpha: 0.5\n"
    )


@pytest.mark.parametrize("n", [64, 100])
def test_point_candidates_past_numpys_64_dimensions_verify(tmp_path, capsys, n):
    # the grid of a point S has no free axis; it used to take one array
    # dimension per axis and exit 2 from 64 axes on
    path = tmp_path / f"wide{n}.txt"
    path.write_text(
        f"dimension: {n}\nlower: x1\nupper: x1 + 1\n"
        f"domain: {' '.join(['-1 1'] * n)}\n"
        f"S: {' '.join(['0 0'] * n)}\nSbar: {' '.join(['0 0'] * n)}\nalpha: 0.1\n"
    )
    assert main(["check", str(path)]) == 0
    out, err = capsys.readouterr()
    data = [line for line in out.splitlines() if line.startswith("#DATA")]
    assert len(data) == 5 and all(" verdict=holds " in line for line in data)
    assert err == ""
    assert main(["modulus", str(path)]) == 0


class TestModulusCommand:
    def test_vee_modulus(self, vee_file, capsys):
        assert main(["modulus", vee_file()]) == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("#DATA modulus=")][0]
        value = float(line.split("=", 1)[1])
        assert value == pytest.approx(0.25, abs=1e-3)
        assert "fails just above" in out

    def test_non_sharp_candidate_reports_zero(self, tmp_path, capsys):
        path = tmp_path / "tilt.txt"
        path.write_text(
            "dimension: 1\nlower: x1\nupper: x1 + 1\ndomain: -2 2\n"
            "S: -1 1\nSbar: 0 0\nalpha: 0.1\n"
        )
        assert main(["modulus", str(path)]) == 0
        out = capsys.readouterr().out
        assert "#DATA modulus=0" in out

    def test_missing_file_exits_two(self, capsys):
        assert main(["modulus", "/nonexistent/problem.txt"]) == 2

    def test_no_positive_modulus_still_prints_the_notes(self, capsys):
        path = str(PROBLEMS / "poly2d.txt")
        main(["check", path, "--mode", "definition"])
        notes = [line for line in capsys.readouterr().out.splitlines() if line.startswith("NOTE: ")]
        assert len(notes) == 1 and "convexity" in notes[0]
        assert main(["modulus", path]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "no positive modulus passes on the grid",
            *notes,
            "estimated modulus: 0",
            "#DATA modulus=0",
        ]

    def test_probe_reuses_the_built_problem(self, vee_file, capsys, monkeypatch):
        calls = []

        def counting_build(*args, **kwargs):
            calls.append(kwargs)
            return build_problem(*args, **kwargs)

        monkeypatch.setattr(ivwsm.cli, "build_problem", counting_build)
        assert main(["modulus", vee_file()]) == 0
        assert len(calls) == 1
        assert "fails just above the estimate (alpha=0.251634589): xbar=(0) x=(-1)" in (
            capsys.readouterr().out
        )


REGRESSIONS = Path(__file__).parent / "regressions"
PROBLEMS = Path(__file__).parent.parent / "problems"


TOO_DEEP = "expression nests deeper than 512 levels"


class TestExpressionLimits:
    """An expression that nests too deep, holds a non-ASCII character or
    has an oversized exponent exits 2 naming the line and the offset, never
    with a traceback; a flat sum of any length verifies."""

    @pytest.mark.parametrize(
        "lower, message",
        [
            ("(" * 245 + "x1" + ")" * 245, f"{TOO_DEEP} (at offset 128)"),
            ("-" * 980 + "x1", f"{TOO_DEEP} (at offset 509)"),
            ("x1\u00b2", "unexpected character '\u00b2' (at offset 2)"),
            ("\u00e9 + x1", "unexpected character '\u00e9' (at offset 0)"),
            (
                "x1^" + "9" * 5000,
                "exponent must be a nonnegative integer below 1e308 (at offset 3)",
            ),
        ],
        ids=["deep-parens", "many-minuses", "superscript", "accent", "long-exponent"],
    )
    def test_exit_two_naming_line_and_offset(self, tmp_path, capsys, lower, message):
        path = tmp_path / "deep.txt"
        path.write_text(SUM_500.replace(SUM_500.splitlines()[1], f"lower: {lower}"))
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: line 2: lower expression: {message}\n")

    def test_a_flat_sum_of_500_terms_verifies(self, tmp_path, capsys):
        path = tmp_path / "sum500.txt"
        path.write_text(SUM_500)
        assert main(["check", str(path)]) == 0
        assert "CONCORDANCE: agree" in capsys.readouterr().out

    def test_a_flat_sum_of_1000_terms_verifies(self, tmp_path, capsys):
        path = tmp_path / "sum1000.txt"
        lower = " + ".join(["0.00025*abs(x1)"] * 1000)
        path.write_text(SUM_500.replace(SUM_500.splitlines()[1], f"lower: {lower}"))
        assert main(["check", str(path)]) == 0
        assert "CONCORDANCE: agree" in capsys.readouterr().out


SUM_500 = f"""\
dimension: 1
lower: {" + ".join(["0.0005*abs(x1)"] * 500)}
upper: abs(x1)
domain: -2 2
S: -1 1
Sbar: 0 0
alpha: 0.2
"""


def test_an_alpha_near_the_float_limit_fails_with_nothing_on_stderr(capsys):
    path = str(REGRESSIONS / "alpha_near_float_max.txt")
    assert main(["check", path, "--mode", "all"]) == 1
    out, err = capsys.readouterr()
    assert err == "" and out.count("verdict=fails") == 5
    assert main(["modulus", path]) == 0
    assert capsys.readouterr().err == ""


def test_alpha_times_a_distance_past_the_float_range_fails_silently(capsys):
    # alpha * dist(x, Sbar) = 2e308 is inf: the definition and dual-f
    # margins are -inf, failures, and no overflow warning is printed
    path = str(REGRESSIONS / "alpha_times_distance_overflow.txt")
    assert main(["check", path, "--mode", "all"]) == 1
    out, err = capsys.readouterr()
    assert err == "" and out.count("verdict=fails") == 5
    for checker in ("definition", "dual-f"):
        assert f"#DATA checker={checker} verdict=fails margin=-inf" in out


def package_env() -> dict:
    """The environment with the tested ``ivwsm`` first on PYTHONPATH, for
    a subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(ivwsm.cli.__file__).parents[1]), env.get("PYTHONPATH")) if p
    )
    return env


STEEP = """\
dimension: 1
lower: {scale}*abs(x1 + 1)
upper: {scale}*abs(x1 + 1)
domain: -1 1
S: -1 1
Sbar: -1 -1
alpha: 1
grid: 5
"""


@pytest.mark.parametrize(
    "text, code, out, err",  # out: the last line printed, if any
    [
        # endpoint differences past the float range: no Lipschitz cap
        (
            (REGRESSIONS / "endpoints_near_float_max.txt").read_text(),
            2,
            "",
            "error: lower([-1.0]) = -1e+308 exceeds 8.98846567e+307 in magnitude, where "
            "differences of endpoint values overflow\n",
        ),
        # finite endpoint differences, but the sampled slopes (1e311)
        # overflow: the Lipschitz cap is inf, held to the largest float,
        # where every modulus passes
        (
            "dimension: 1\nlower: 1e308*(1e3*x1)\nupper: 1e308*(1e3*x1)\n"
            "domain: -1e-4 1e-4\nS: -1e-4 1e-4\nSbar: -1e-4 -1e-4\nalpha: 1\ngrid: 5\n",
            0,
            "#DATA modulus=1.79769313e+308",
            "",
        ),
        # past 4.5e12 adjacent floats lie more than 1e-3 apart, so the
        # bisection ends where lo and hi are adjacent
        (STEEP.format(scale="4e307"), 0, "#DATA modulus=4e+307", ""),
        (STEEP.format(scale="1e14"), 0, "#DATA modulus=1e+14", ""),
    ],
    ids=["endpoints-near-float-max", "infinite-cap", "modulus-4e307", "modulus-1e14"],
)
def test_modulus_ends_on_steep_objectives(tmp_path, text, code, out, err):
    # in a subprocess with a timeout: a bisection that never ends fails
    # the test instead of stopping the suite
    path = tmp_path / "steep.txt"
    path.write_text(text)
    run = subprocess.run(
        [sys.executable, "-W", "error", "-m", "ivwsm.cli", "modulus", str(path)],
        capture_output=True, text=True, env=package_env(), timeout=60,
    )
    assert (run.returncode, run.stderr) == (code, err)
    assert run.stdout.splitlines()[-1:] == ([out] if out else [])


class TestUnevaluableObjectives:
    """Objectives that cannot be evaluated or differentiated at a grid point
    end in exit 2 with the point named, never in a traceback."""

    @pytest.mark.parametrize(
        "name, message",
        [
            ("division_by_zero.txt", "division by zero at x=[0.0]"),
            ("power_overflow.txt", "'^400' overflows at x=[-1.0]"),
            ("nonfinite_in_domain.txt", "lower([-9.669447289429417]) = inf is not finite"),
            (
                "endpoints_near_float_max.txt",
                "lower([-1.0]) = -1e+308 exceeds 8.98846567e+307 in magnitude",
            ),
            ("crossed_outside_s.txt", "exceeds upper"),
            # S passes the domain's containment check by its tolerance, and
            # dual-f's ray from q = (-5e-13, 0) leaves the domain at once
            (
                "s_past_domain_within_tolerance.txt",
                "the direction [-5e-13, 0.03125] exits the domain immediately "
                "at [-5e-13, 0.0]",
            ),
        ],
    )
    def test_check_exits_two_naming_the_point(self, name, message, capsys):
        assert main(["check", str(REGRESSIONS / name), "--mode", "all"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "name", ["division_by_zero.txt", "power_overflow.txt", "nonfinite_in_domain.txt"]
    )
    def test_modulus_exits_two(self, name, capsys):
        assert main(["modulus", str(REGRESSIONS / name)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_crossed_endpoints_outside_s_exit_two_in_modulus(self, capsys):
        # check meets the crossing in the convexity guard, modulus in the
        # Lipschitz estimate: both sample the whole domain
        assert main(["modulus", str(REGRESSIONS / "crossed_outside_s.txt")]) == 2
        assert "exceeds upper" in capsys.readouterr().err

    def test_kink_in_probe_range_ends_in_a_verdict(self, capsys):
        # lower is minimal on [0, 1e-4], not only at Sbar = {0}: the exact
        # derivatives there are 0, so the derivative checkers fail, while
        # the grid misses the segment and the definition holds
        assert main(["check", str(REGRESSIONS / "kink_in_probe_range.txt"), "--mode", "all"]) == 1
        out, err = capsys.readouterr()
        assert err == "" and out.splitlines()[-1] == (
            "CONCORDANCE: DISAGREE (definition=holds, primal=fails, dual-b=fails, "
            "dual-e=fails, dual-f=fails)"
        )

    def test_dual_e_kink_names_the_first_failing_direction(self, capsys):
        # the first candidate point's first direction runs along the flat
        # segment [0, 1e-4] of lower, where the derivative is 0
        assert main(["check", str(REGRESSIONS / "kink_dual_e_2d.txt"), "--mode", "dual-e"]) == 1
        out, err = capsys.readouterr()
        assert err == "" and out.splitlines()[-1] == (
            "#DATA checker=dual-e verdict=fails margin=-0.5 witness=0,-0.5;1,0 samples=1192"
        )


class TestSubdiffCommand:
    def test_kink_box_printed(self, vee_file, capsys):
        assert main(["subdiff", vee_file(), "--at", "0"]) == 0
        out = capsys.readouterr().out
        assert "subdifferential box" in out
        assert "-0.25" in out and "0.25" in out

    def test_probe_member(self, vee_file, capsys):
        assert main(["subdiff", vee_file(), "--at", "0", "--probe", "0.2 0.2"]) == 0
        out = capsys.readouterr().out
        assert "criteria agree: yes" in out
        assert "probe_member=yes" in out

    def test_probe_violation(self, vee_file, capsys):
        assert main(["subdiff", vee_file(), "--at", "0", "--probe", "0.5 0.5"]) == 1
        out = capsys.readouterr().out
        assert "violated at x=" in out
        assert "violated along d=" in out
        assert "criteria agree: yes" in out

    @pytest.mark.parametrize(
        "at, probe", [("-1e-5", "-1e-1 1"), ("-1e-5,-5e-1", "-1e-1,1,-2,-1e-3")], ids=["1-d", "2-d"]
    )
    def test_a_negative_value_in_exponent_form(self, vee_file, poly_file, capsys, at, probe):
        # argparse reads such a value as an option unless it follows "="
        path = vee_file() if "," not in at else poly_file()
        runs = [["--at", at, "--probe", probe], [f"--at={at}", f"--probe={probe}"]]
        outcomes = []
        for argv in runs:
            code = main(["subdiff", path, *argv])
            outcomes.append((code, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] in (0, 1) and outcomes[0][2] == ""
        assert "#DATA probe_member=" in outcomes[0][1]

    def test_smooth_point_prints_singleton(self, vee_file, capsys):
        assert main(["subdiff", vee_file(), "--at", "0.7"]) == 0
        assert "singleton" in capsys.readouterr().out

    def test_support_values_in_higher_dimension(self, poly_file, capsys, monkeypatch):
        assert main(["subdiff", poly_file(), "--at", "-0.5 -0.5"]) == 0
        out = capsys.readouterr().out
        assert out.count("support along") == 4
        # every bit shown: each line is the one-direction derivative's, at a
        # smooth point and on the kink x1 = 0
        monkeypatch.setattr(ivwsm.cli, "_fmt", lambda value: float(value).hex())
        for path, at in [(poly_file(), "-0.5 -0.5"), (str(PROBLEMS / "strip3d.txt"), "0 0.5 -0.5")]:
            assert main(["subdiff", path, "--at", at]) == 0
            f = build_problem(load_problem_file(path)).f
            x = np.array(at.split(), dtype=float)
            expected = []
            for d in (d for e in np.eye(f.dimension) for d in (e, -e)):
                value = f.dir_deriv(x, d)
                shown = ",".join(float(c).hex() for c in d)
                expected.append(f"support along ({shown}): [{value.lo.hex()}, {value.hi.hex()}]")
            out = capsys.readouterr().out.splitlines()
            assert [line for line in out if not line.startswith("NOTE: ")] == expected

    def test_a_nonconvex_objective_gets_the_check_note(self, poly_file, vee_file, capsys):
        # the sampled guard runs in every dimension, with check's note text
        assert main(["check", poly_file(), "--mode", "definition"]) == 1
        notes = [line for line in capsys.readouterr().out.splitlines() if "convexity" in line]
        assert len(notes) == 1 and notes[0].startswith("NOTE: ")
        assert main(["subdiff", poly_file(), "--at", "-0.5 -0.5"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == notes[0]
        path = REGRESSIONS / "concave_kink_1d.txt"
        assert main(["subdiff", str(path), "--at", "0.5"]) == 0
        assert "NOTE: declared-convex objective failed" in capsys.readouterr().out
        assert main(["subdiff", vee_file(), "--at", "0"]) == 0
        assert "NOTE" not in capsys.readouterr().out
        # convex at scale 1e14, where the guard's round-off is about 1e-2
        path = REGRESSIONS / "large_scale_convex.txt"
        for command in (["check", str(path)], ["modulus", str(path)]):
            assert main(command) == 0
            assert "NOTE" not in capsys.readouterr().out

    def test_point_outside_domain_exits_two(self, vee_file, capsys):
        assert main(["subdiff", vee_file(), "--at", "3.0"]) == 2

    @pytest.mark.parametrize(
        "name, args, message",
        [
            ("strip3d.txt", ["--at", "2 0 0"], "--at point (2,0,0) is not interior"),
            ("strip3d.txt", ["--at", "nan 0 0"], "--at point (nan,0,0) is not interior"),
            ("vee1d.txt", ["--at", "0", "--probe", "1 0"], "--probe (1,0) is not"),
            ("vee1d.txt", ["--at", "0", "--probe", "nan 1"], "--probe (nan,1) is not"),
            ("strip3d.txt", ["--at", "0 0 0", "--probe", "1 0 0 0 0 0"], "--probe (1,0,0,"),
            ("concave_kink_1d.txt", ["--at", "0"], "F is not convex at x=0: the subgradient"),
            ("division_by_zero.txt", ["--at", "0.5"], "lower([0.5]) = 2.0 exceeds upper([0.5])"),
            (
                "crossed_outside_s.txt",
                ["--at", "0.25", "--probe", "0 0.5"],
                "lower([-3.0]) = 12.0 exceeds upper([-3.0])",
            ),
            ("vee1d.txt", ["--at", "zero"], "--at must be a list of numbers, got 'zero'"),
            ("vee1d.txt", ["--at", "0 0"], "--at needs 1 values, got 2"),
            (
                "vee1d.txt",
                ["--at", "0", "--probe", "0 one"],
                "--probe must be a list of numbers, got '0 one'",
            ),
            ("vee1d.txt", ["--at", "0", "--probe", "0"], "--probe needs 2 values, got 1"),
        ],
    )
    def test_bad_point_exits_two_naming_flag_and_point(self, name, args, message, capsys):
        path = PROBLEMS / name if (PROBLEMS / name).exists() else REGRESSIONS / name
        assert main(["subdiff", str(path), *args]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""

    def test_the_probe_grid_keeps_to_the_grid_cap(self, tmp_path, capsys, monkeypatch):
        # 17 points per axis over a 4-d domain would be 83521 probes
        path = tmp_path / "wide4.txt"
        path.write_text(_wide_problem(4))
        probes = []
        original = ivwsm.cli.is_subgradient

        def counted(f, at, g, probe_points):
            probes.append(len(probe_points))
            return original(f, at, g, probe_points[:100])

        monkeypatch.setattr(ivwsm.cli, "is_subgradient", counted)
        args = ["subdiff", str(path), "--at", "0 0 0 0", "--probe", "0 0 0 0 0 0 0 0"]
        assert main(args) == 0
        assert "probe_member=yes" in capsys.readouterr().out
        assert probes == [14**4] and 14**4 <= GRID_CAP

    def test_a_domain_too_wide_for_the_probe_grid_exits_two_before_printing(
        self, tmp_path, capsys
    ):
        path = tmp_path / "wide_domain.txt"
        path.write_text(_wide_problem(16, s="0 0"))
        args = ["subdiff", str(path), "--at", " ".join(["0.5"] * 16), "--probe", "0 " * 32]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: --probe grid: the domain has 16 free axes: 2 points on each exceed "
            f"the {GRID_CAP}-point cap\n"
        )
        assert captured.out == ""

    def test_support_values_in_more_dimensions_than_one_derivative_block(
        self, tmp_path, capsys
    ):
        # 1025 axes give 2050 signed-basis directions, more than the 2048
        # rows of one derivative block
        n = 1025
        path = tmp_path / "wide1025.txt"
        path.write_text(
            f"dimension: {n}\nlower: x1\nupper: x1 + 1\n"
            f"domain: {' '.join(['-1 1'] * n)}\n"
            f"S: {' '.join(['0 0'] * n)}\nSbar: {' '.join(['0 0'] * n)}\nalpha: 0.5\n"
        )
        assert main(["subdiff", str(path), "--at", " ".join(["0"] * n)]) == 0
        out, err = capsys.readouterr()
        assert out.count("support along") == 2 * n and err == ""

    def test_failing_support_value_prints_no_partial_output(self, tmp_path, capsys):
        # the derivatives along (1,0) and (-1,0) are finite; the one along
        # (0,1) is 1e200 * 1e200 and overflows
        path = tmp_path / "steep_x2.txt"
        path.write_text(
            "dimension: 2\nlower: abs(x1) + 1e200*abs(x2)*1e200\n"
            "upper: 2*abs(x1) + 1e200*abs(x2)*1e200\ndomain: -1 1 -1 1\n"
            "S: -1 1 -1 1\nSbar: 0 0 0 0\nalpha: 0.5\n"
        )
        assert main(["subdiff", str(path), "--at", "0.5 0"]) == 2
        assert capsys.readouterr() == (
            "",
            "error: directional derivative inf at x=[0.5, 0.0] along d=[0.0, 1.0] is not finite\n",
        )

    def test_support_values_beside_a_kink_are_exact(self, capsys):
        # the kink at x1 = 0 sits 1e-5 behind --at; the exact derivatives
        # read the tape at --at itself, so the kink does not blur them
        assert main(["subdiff", str(PROBLEMS / "strip3d.txt"), "--at", "1e-5 0 0"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.splitlines()[:2] == [
            "support along (1,0,0): [1, 2.00002]",
            "support along (-1,0,0): [-2.00002, -1]",
        ]


L1_SEGMENT = """\
dimension: 2
lower: abs(x1) + abs(x2)
upper: 2*abs(x1) + 2*abs(x2)
domain: -2 2 -2 2
S: -1 1 -1 1
Sbar: 0 0 -0.5 0.5
alpha: 0.8
seed: 7
"""


class TestConstantOnSbarGuard:
    def test_non_constant_objective_is_noted_and_data_unchanged(self, tmp_path, capsys):
        path = tmp_path / "l1seg.txt"
        path.write_text(L1_SEGMENT)
        code = main(["check", str(path), "--mode", "all"])
        out = capsys.readouterr().out.splitlines()
        assert code == 1
        notes = [line for line in out if line.startswith("NOTE:")]
        assert notes == [
            "NOTE: F is not constant on the sampled Sbar grid (endpoint spread 1); the "
            "dual characterizations assume Sbar is a set of minima on which F is "
            "constant, so checker equivalences are not guaranteed"
        ]
        assert [line for line in out if line.startswith("#DATA")] == [
            "#DATA checker=definition verdict=fails margin=-1 witness=0,-0.5;0,0 samples=35937",
            "#DATA checker=primal verdict=fails margin=-2 witness=0,-0.5;0,1 samples=4356",
            "#DATA checker=dual-b verdict=fails margin=-2 witness=0,-0.5;0,1 samples=5053",
            "#DATA checker=dual-e verdict=holds margin=0.2 witness=0,-0.5;1,0 samples=4360",
            "#DATA checker=dual-f verdict=holds margin=0.0125 witness=-0.0625,-0.5;0,-0.5 "
            "samples=1089",
        ]

    def test_constant_objective_has_no_note(self, poly_file, capsys):
        main(["check", poly_file(), "--mode", "all"])
        assert not any("not constant" in line for line in capsys.readouterr().out.splitlines())


class TestParserReuse:
    """``main`` builds its argument parser once per process; a parse leaves
    nothing behind that a later call could see."""

    def test_importing_the_cli_builds_no_parser(self):
        # a parser built at import would cost every API-only caller
        code = (
            "import argparse\n"
            "init, built = argparse.ArgumentParser.__init__, []\n"
            "def spy(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = spy\n"
            "import ivwsm.cli\n"
            "print(len(built))\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=package_env(),
            timeout=120,
        )
        assert (run.returncode, run.stdout, run.stderr) == (0, "0\n", "")

    def test_later_calls_construct_no_parser(self, vee_file, capsys, monkeypatch):
        path = vee_file()
        main(["check", path])
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        assert main(["check", path]) == 0
        assert main(["modulus", path]) == 0
        assert main(["subdiff", path, "--at", "0"]) == 0
        assert built == []

    def test_a_rejection_and_a_flag_leave_the_next_call_unchanged(self, vee_file, capsys):
        path = vee_file()
        ivwsm.cli._parser.cache_clear()
        assert main(["check", path]) == 0
        first = capsys.readouterr()
        with pytest.raises(SystemExit) as rejected:
            main(["check", path, "--mode", "bogus"])
        assert rejected.value.code == 2
        assert main(["--grid", "9", "check", path]) == 0
        capsys.readouterr()
        assert main(["check", path]) == 0
        assert capsys.readouterr() == first

    def test_help_text_is_the_same_on_every_call(self, capsys):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as done:
                main(["--help"])
            assert done.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] and texts[0].startswith("usage: ivwsm")
