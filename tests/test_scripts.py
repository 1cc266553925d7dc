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

#: stdout of ``run_battery.py --grid 9`` without its final line, which
#: holds the disagreement count and the run time.
BATTERY_GRID9 = """\
case                         alpha  definition      primal      dual-b      dual-e      dual-f  agree
-----------------------------------------------------------------------------------------------------
vee-quarter                  0.200       holds       holds       holds       holds       holds    yes
vee-quarter                  0.300       fails       fails       fails       fails       fails    yes
                           estimated modulus 0.2496 (known 0.250)
l1-n2                        0.800       holds       holds       holds       holds       holds    yes
l1-n2                        1.200       fails       fails       fails       fails       fails    yes
                           estimated modulus 0.9995 (known 1.000)
vee-shifted                  0.400       holds       holds       holds       holds       holds    yes
vee-shifted                  0.600       fails       fails       fails       fails       fails    yes
                           estimated modulus 0.4999 (known 0.500)
l1-width                     0.800       holds       holds       holds       holds       holds    yes
l1-width                     1.200       fails       fails       fails       fails       fails    yes
                           estimated modulus 0.9995 (known 1.000)
strip-segment                0.800       holds       holds       holds       holds       holds    yes
strip-segment                1.200       fails       fails       fails       fails       fails    yes
                           estimated modulus 0.9997 (known 1.000)
halfline                     0.800       holds       holds       holds       holds       holds    yes
halfline                     1.200       fails       fails       fails       fails       fails    yes
                           estimated modulus 0.9998 (known 1.000)
l1-n3                        0.800       holds       holds       holds       holds       holds    yes
l1-n3                        1.200       fails       fails       fails       fails       fails    yes
                           estimated modulus 0.9996 (known 1.000)
tilt-neg                     0.400       fails       fails       fails       fails       fails    yes
tilt-neg                     0.600       fails       fails       fails       fails       fails    yes
                           estimated modulus 0.0000 (known none)
quad-neg                     0.400       fails       fails       fails       fails       fails    yes
quad-neg                     0.600       fails       fails       fails       fails       fails    yes
                           estimated modulus 0.2494 (known none)
l1-wrong-sbar-neg            0.400       fails       fails       fails       fails       fails    yes
l1-wrong-sbar-neg            0.600       fails       fails       fails       fails       fails    yes
                           estimated modulus 0.0000 (known none)
halfline-small-sbar-neg      0.400       fails       fails       fails       fails       fails    yes
halfline-small-sbar-neg      0.600       fails       fails       fails       fails       fails    yes
                           estimated modulus 0.0000 (known none)
vee-wrong-sbar-neg           0.400       fails       fails       fails       fails       fails    yes
vee-wrong-sbar-neg           0.600       fails       fails       fails       fails       fails    yes
                           estimated modulus 0.0000 (known none)
bowl2-neg                    0.400       fails       fails       fails       fails       fails    yes
bowl2-neg                    0.600       fails       fails       fails       fails       fails    yes
                           estimated modulus 0.2495 (known none)

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


def test_run_battery_output_is_unchanged():
    result = run_script("run_battery.py", "--grid", "9")
    assert (result.returncode, result.stderr) == (0, "")
    table, _, last = result.stdout.rstrip("\n").rpartition("\n")
    assert table + "\n" == BATTERY_GRID9
    assert last.startswith("0 disagreements, ")
