"""Rewrite ``desk_golden.json``: the exit code and ``#DATA`` lines of every
desk invocation, as the verifier at the current commit produces them.

Run from the repository root only when the desk contract is meant to
change::

    python3 perfbench/make_golden.py
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import workloads


def main() -> None:
    ivwsm = workloads.import_ivwsm()
    with tempfile.TemporaryDirectory(dir=workloads.HERE) as tmp:
        workdir = Path(tmp)
        for src in workloads.DESK_DIR.glob("*.txt"):
            shutil.copy(src, workdir / src.name)
        workload = workloads.Workload("desk", ivwsm, workloads.desk_invocations(workdir), [])
        golden = {}
        for inv in workload.invocations:
            outcome = workloads.run_invocation(workload, inv)
            if outcome.error is not None:
                raise SystemExit(f"{inv.label}: {outcome.error}")
            golden[inv.label] = {"exit": outcome.exit_code, "data": outcome.data}
    workloads.DESK_GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
