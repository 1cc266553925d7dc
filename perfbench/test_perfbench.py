"""Tests of the benchmark itself: tracer hygiene, traced/untraced agreement,
failure accounting, the known-answer generators and the bypass properties.

Run from the repository root with ``python3 -m pytest perfbench``.  The
workloads run here on small grids so the tests stay quick.
"""

from __future__ import annotations

import inspect
import sys

import numpy as np
import pytest

import run
import workloads
from tracer import Tracer

SMALL_SCAN = {2: 21, 3: 9, 4: 5}
SMALL_STRIP = 5


def _setup(name, tmp_path, seed=3):
    return workloads.setup(name, seed, tmp_path, scan_grids=SMALL_SCAN, strip_grid=SMALL_STRIP)


def _bindings() -> dict:
    """Every name in every ivwsm module, class and module-level dict."""
    snap = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "ivwsm" and not mod_name.startswith("ivwsm."):
            continue
        for attr, obj in vars(module).items():
            snap[(mod_name, attr)] = obj
            if isinstance(obj, dict):
                snap.update({(mod_name, attr, key): value for key, value in obj.items()})
            elif inspect.isclass(obj):
                snap.update({(mod_name, attr, "." + a): v for a, v in vars(obj).items()})
    return snap


def _failed_labels(workload) -> list:
    passes = [run.run_pass(workload, phase, i) for i, phase in enumerate(("check", "modulus"))]
    return [label for p in passes for label, _ in p.failures]


def _traced_metrics(workload) -> dict:
    tracer = Tracer()
    passes = run.run_phases(workload, 0, tracer)
    assert not [f for p in passes for f in p.failures]
    return run.layer_metrics(passes, tracer)


def test_uninstall_restores_every_original(tmp_path):
    _setup("desk", tmp_path)
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        during = _bindings()
        swapped = {key[0] for key in before if during[key] is not before[key]}
        assert {"ivwsm", "ivwsm.cli", "ivwsm.wsm", "ivwsm.ivf", "ivwsm.expr"} <= swapped
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


@pytest.mark.parametrize("name", ["desk", "stress3d"])
def test_traced_pass_prints_the_same_data_lines(tmp_path, name):
    workload = _setup(name, tmp_path)
    passes = run.run_phases(workload, 0, Tracer())
    assert not [f for p in passes for f in p.failures]
    for phase in ("check", "modulus"):
        plain = [p.data for p in passes if p.phase == phase and not p.traced]
        traced = [p.data for p in passes if p.phase == phase and p.traced]
        assert all(plain[0].values())
        assert traced == plain


def test_wrong_expected_answers_count_as_failures(tmp_path):
    desk = _setup("desk", tmp_path / "desk")
    scan = _setup("scan", tmp_path / "scan")
    assert _failed_labels(desk) == [] and _failed_labels(scan) == []
    desk.invocations[0].expect["data"] = desk.invocations[0].expect["data"][:-1]
    check, modulus = scan.invocations[:2]
    wrong = "fails" if check.expect["verdict"] == "holds" else "holds"
    check.expect.update(verdict=wrong, exit=1 - check.expect["exit"])
    modulus.expect["modulus"] += 0.1
    assert _failed_labels(desk) == [desk.invocations[0].label]
    assert _failed_labels(scan) == [check.label, modulus.label]


def test_bypass_properties_and_build_counts(tmp_path):
    scan = _setup("scan", tmp_path / "scan")
    m = _traced_metrics(scan)
    assert m["ivf.one_sided_calls"] == 0
    assert m["expr.evaluate_calls"] > 0
    kinds = [inv.kind for inv in scan.invocations]
    assert m["cli.build_problem_calls"] == kinds.count("check") + 2 * kinds.count("modulus")

    analytic = _setup("analytic3d", tmp_path / "analytic")
    m = _traced_metrics(analytic)
    assert m["expr.evaluate_calls"] == 0
    assert m["ivf.dir_deriv_calls.numeric"] == 0
    assert m["ivf.dir_deriv_calls.analytic"] > 0

    stress = _setup("stress3d", tmp_path / "stress")
    m = _traced_metrics(stress)
    assert m["ivf.dir_deriv_calls.analytic"] == 0
    assert m["ivf.one_sided_calls"] == 2 * m["ivf.dir_deriv_calls.numeric"] > 0


@pytest.mark.parametrize("seed", range(5))
def test_generated_endpoints_stay_ordered_on_the_whole_domain(tmp_path, seed):
    ivwsm = workloads.import_ivwsm()
    rng = np.random.default_rng(seed)
    families = [(n, workloads.weighted_l1(rng, n, 9)) for n in (2, 3, 4)]
    families.append((3, workloads.strip(rng, 17)))
    for n, fam in families:
        lower, upper = ivwsm.parse(fam["lower"], n), ivwsm.parse(fam["upper"], n)
        for x in rng.uniform(-2.0, 2.0, size=(500, n)):
            assert ivwsm.evaluate(lower, x) <= ivwsm.evaluate(upper, x)


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "SRC", tmp_path)
    code = run.main(["--workload", "desk", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
