"""The scripts under ``scripts/``, run as a user runs them."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: stdout of ``modulus_sweep.py problems/vee1d.txt --grid 9 --points 5``, the
#: same as when the script rebuilt the problem and its context per alpha.
VEE_SWEEP = """\
estimated modulus: 0.2496
#DATA alpha=0.062409 verdict=holds margin=0.000000e+00
#DATA alpha=0.156022 verdict=holds margin=0.000000e+00
#DATA alpha=0.249635 verdict=holds margin=0.000000e+00
#DATA alpha=0.343248 verdict=fails margin=-9.324756e-02
#DATA alpha=0.436861 verdict=fails margin=-1.868605e-01
"""


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=120,
    )


def test_modulus_sweep_output_is_unchanged():
    result = run_script("modulus_sweep.py", "problems/vee1d.txt", "--grid", "9", "--points", "5")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == VEE_SWEEP



def test_bench_writes_an_a_b_file(tmp_path):
    # an A/A run of the working tree on one short desk pair; no timing is
    # asserted, only the file's layout
    out = tmp_path / "bench.json"
    result = run_script("bench.py", "--a", str(ROOT), "--b", str(ROOT), "--workloads", "desk",
                        "--pairs", "1", "--seconds", "0.2", "--out", str(out))
    assert result.returncode == 0, result.stderr
    report = json.loads(out.read_text())
    assert set(report) == {"machine", "a", "b", "command", "pairs", "seeds", "workloads",
                           "controls"}
    assert report["machine"].startswith("nproc=") and report["seeds"] == [501]
    assert report["controls"] == {}
    desk = report["workloads"]["desk"]
    assert set(desk) == {"machine", "metrics", "failed"}
    assert set(desk["metrics"]) == {"setup_s", "check_s", "modulus_s", "peak_rss_mb"}
    for metric in desk["metrics"].values():
        assert set(metric) == {"a", "b", "change"}
        for side in ("a", "b"):
            assert set(metric[side]) == {"median", "q1", "q3", "runs"}
            assert len(metric[side]["runs"]) == 1
    assert desk["failed"] == {"a": [], "b": []}
