#!/usr/bin/env python3
"""Paired A/B runs of the benchmark, written to one JSON file.

Runs ``python3 <dir>/perfbench/run.py --workload W --seed S --seconds T
--trace 0`` for two source trees A and B, in pairs: pair i runs both trees
on seed ``FIRST_SEED + i``, A first in even pairs and B first in odd ones, so
that a drift of the host's speed falls on both sides alike.  Each run is a
fresh process with bytecode writing off, so every run compiles the
package, as a clean checkout does.  Pass two clean copies of the trees
(``git archive`` output, without ``__pycache__``); the script itself
reads no version control.  ``--controls`` also runs B against itself on
the workloads it names: that A/A split shows the spread a real
difference must exceed.

The file records the benchmark's ``machine:`` line and, per workload (and
per control) and end-to-end metric, each side's median, quartiles and
every run's value, and the change of B's median against A's; every run
that failed an invocation, or exited with another code than 0, is listed
with its ``FAIL`` lines.

Usage::

    python3 scripts/bench.py --a PARENT --b CHANGE --workloads stress3d desk \\
        --controls desk --pairs 10 --seconds 25 --out BENCH.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

#: The seed of the first pair; pair i runs on ``FIRST_SEED + i``.
FIRST_SEED = 501


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run of a tree: its metrics, machine line and failures."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=tree, env=env,
    )
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else {}
    return {
        "seed": seed,
        "returncode": done.returncode,
        "machine": next((line[9:] for line in lines if line.startswith("machine: ")), None),
        "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()},
        "failed": result.get("failed"),
        "fail_lines": [line for line in lines if line.startswith("FAIL ")],
        "stderr": done.stderr[-2000:],
    }


def spread(values: list) -> dict:
    """Median and quartiles of the values, and the values in run order."""
    ordered = sorted(values)
    q1, _, q3 = statistics.quantiles(ordered, n=4, method="inclusive") if len(values) > 1 \
        else ordered * 3
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3, "runs": values}


def compare(a: Path, b: Path, workload: str, args) -> dict:
    """Paired runs of trees a and b on one workload, summarized."""
    runs = {"a": [], "b": []}
    for i in range(args.pairs):
        for side in ("ab" if i % 2 == 0 else "ba"):
            result = run((a if side == "a" else b).resolve(), workload, FIRST_SEED + i,
                         args.seconds)
            runs[side].append(result)
            print(f"{workload} pair {i} {side}: {result['metrics'] or result['stderr']}",
                  file=sys.stderr)
    metrics = {}
    for name in dict.fromkeys(k for rs in runs.values() for r in rs for k in r["metrics"]):
        values = [[r["metrics"][name] for r in runs[side] if name in r["metrics"]]
                  for side in "ab"]
        if all(values):
            sa, sb = map(spread, values)
            metrics[name] = {"a": sa, "b": sb, "change": sb["median"] / sa["median"] - 1}
    return {
        "machine": runs["a"][0]["machine"],
        "metrics": metrics,
        "failed": {side: [r for r in rs if r["returncode"] != 0 or r["failed"]]
                   for side, rs in runs.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", type=Path, required=True, help="the baseline tree")
    parser.add_argument("--b", type=Path, required=True, help="the tree compared with it")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--controls", nargs="*", default=[],
                        help="workloads also run with B against itself")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    workloads = {w: compare(args.a, args.b, w, args) for w in args.workloads}
    controls = {w: compare(args.b, args.b, w, args) for w in args.controls}
    report = {
        "machine": next(iter(workloads.values()))["machine"],
        "a": args.a.resolve().name,
        "b": args.b.resolve().name,
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "pairs": args.pairs,
        "seeds": [FIRST_SEED + i for i in range(args.pairs)],
        "workloads": workloads,
        "controls": controls,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
