"""The scripts under ``scripts/``, run as a user runs them."""

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

