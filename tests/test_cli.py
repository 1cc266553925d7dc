"""Problem files, CLI subcommands, exit codes, and report determinism."""

from pathlib import Path

import numpy as np
import pytest

import ivwsm.cli

from ivwsm import ProblemFileError, build_problem, load_problem_file
from ivwsm.cli import main
from ivwsm.problems import parse_problem_text

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
        assert spec.grid == 33
        problem = build_problem(spec)
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
        with pytest.raises(ProblemFileError, match="Sbar"):
            parse_problem_text(bad)

    def test_missing_file(self):
        with pytest.raises(ProblemFileError, match="cannot read"):
            load_problem_file("/nonexistent/problem.txt")


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

    def test_grid_override(self, vee_file, capsys):
        assert main(["--grid", "9", "check", vee_file(0.2), "--mode", "definition"]) == 0
        assert "samples: 9" in capsys.readouterr().out


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


class TestUnevaluableObjectives:
    """Objectives that cannot be evaluated or differentiated at a grid point
    end in exit 2 with the point named, never in a traceback."""

    @pytest.mark.parametrize(
        "name, message",
        [
            ("division_by_zero.txt", "division by zero at x=[0.]"),
            ("power_overflow.txt", "'^400' overflows at x=[-1.]"),
            ("kink_in_probe_range.txt", "nonsmooth-uncertain at x=[0.] along d=[1.]"),
            ("nonfinite_in_domain.txt", "lower([-9.66944729]) = inf is not finite"),
        ],
    )
    def test_check_exits_two_naming_the_point(self, name, message, capsys):
        assert main(["check", str(REGRESSIONS / name), "--mode", "all"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "name", ["division_by_zero.txt", "power_overflow.txt", "nonfinite_in_domain.txt"]
    )
    def test_modulus_exits_two(self, name, capsys):
        assert main(["modulus", str(REGRESSIONS / name)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


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

    def test_smooth_point_prints_singleton(self, vee_file, capsys):
        assert main(["subdiff", vee_file(), "--at", "0.7"]) == 0
        assert "singleton" in capsys.readouterr().out

    def test_support_values_in_higher_dimension(self, poly_file, capsys):
        assert main(["subdiff", poly_file(), "--at", "-0.5 -0.5"]) == 0
        out = capsys.readouterr().out
        assert out.count("support along") == 4

    def test_point_outside_domain_exits_two(self, vee_file, capsys):
        assert main(["subdiff", vee_file(), "--at", "3.0"]) == 2
