"""Benchmark of the WSM verifier: time to verdict over four workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload <desk|scan|stress3d|analytic3d> \
        --seed <n> --seconds <s> --trace <0|1>

The run imports ``ivwsm`` from ``src/`` and generates the workload's inputs
from the seed.  Check passes then repeat for half of ``--seconds`` and
modulus passes for the rest, and every invocation is checked against its
known answer.  End-to-end times are scaled to a reference speed by the
calibration in ``calibration.py``.  With ``--trace 0`` the last line
reports the end-to-end metrics; with ``--trace 1`` untraced and traced
passes alternate and the last line reports the per-layer metrics of the
traced passes.  The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark runs in a single process on few cores, and
# thread pools must be fixed before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from calibration import REFERENCE_S, SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402

WORK = Path(__file__).resolve().parent / ".work"
#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 9
#: Share of --seconds spent on check passes; modulus passes get the rest.
CHECK_SHARE = 0.5
#: Fewest passes per phase; a phase also runs until its share of time is used.
MIN_PASSES = {"check": 1, "modulus": 3}
CHECKERS = ("definition", "primal", "dual_b", "dual_e", "dual_f")


@dataclass
class PassResult:
    phase: str  # "check" (check and subdiff invocations) or "modulus"
    traced: bool
    times: dict = field(default_factory=dict)  # label -> seconds
    calibration: dict = field(default_factory=dict)  # label -> mean calibration seconds
    attempted: int = 0
    failures: list = field(default_factory=list)  # (label, reason)
    samples: dict = field(default_factory=dict)  # checker -> samples evaluated
    data: dict = field(default_factory=dict)  # label -> #DATA lines


def phase_of(inv) -> str:
    return "modulus" if inv.kind == "modulus" else "check"


def run_pass(workload, phase: str, pass_index: int, tracer: Tracer | None = None) -> PassResult:
    """One pass over the phase's invocations; tracing is installed only around it."""
    result = PassResult(phase, tracer is not None)
    if tracer is not None:
        tracer.install()
    try:
        for inv in workload.invocations:
            if phase_of(inv) != phase:
                continue
            if tracer is not None:
                tracer.begin_invocation(pass_index, inv.label)
            with SpeedProbe() as probe:
                outcome = workloads.run_invocation(workload, inv)
            if tracer is not None:
                tracer.end_invocation()
            result.times[inv.label] = probe.elapsed
            result.calibration[inv.label] = probe.speed
            result.attempted += 1
            reason = workloads.verify(inv, outcome)
            if reason is not None:
                result.failures.append((inv.label, reason))
            result.data[inv.label] = outcome.data
            for checker, (_, samples) in outcome.verdicts.items():
                key = checker.replace("-", "_")
                result.samples[key] = result.samples.get(key, 0) + samples
    finally:
        if tracer is not None:
            tracer.uninstall()
    return result


def run_phases(workload, seconds: float, tracer: Tracer | None = None) -> list:
    """Check passes for CHECK_SHARE of `seconds`, then modulus passes until
    `seconds`; with a tracer, untraced and traced passes alternate.  The
    pass index is the position in the returned list."""
    passes = []
    start = perf_counter()
    for phase, until in (("check", CHECK_SHARE * seconds), ("modulus", seconds)):
        count = 0
        while count < MIN_PASSES[phase] or perf_counter() - start < until:
            passes.append(run_pass(workload, phase, len(passes)))
            if tracer is not None:
                passes.append(run_pass(workload, phase, len(passes), tracer))
            count += 1
            # drop the reference cycles a pass leaves (problem <-> context), so
            # the peak memory is that of one pass, not of how many fit
            gc.collect()
    return passes


def phase_time(passes: list, phase: str, scaled: bool = True, traced: bool = False) -> float:
    """Sum over the phase's invocations of each one's median time over the
    untraced (or traced) passes, at the reference speed unless `scaled` is
    false."""
    chosen = [p for p in passes if p.phase == phase and p.traced == traced]

    def time_of(p, label):
        if not scaled:
            return p.times[label]
        return p.times[label] / p.calibration[label] * REFERENCE_S

    return sum(statistics.median(time_of(p, label) for p in chosen) for label in chosen[0].times)


def layer_metrics(passes: list, tracer: Tracer) -> dict:
    """Per-layer metrics of one check pass plus one modulus pass, each the
    median over the traced passes of its phase."""
    total = {}
    for phase in ("check", "modulus"):
        per_pass = []
        for index, p in enumerate(passes):
            if p.phase == phase and p.traced:
                m = tracer.layer_metrics(index)
                for checker in CHECKERS:
                    m[f"wsm.{checker}_samples"] = p.samples.get(checker, 0)
                per_pass.append(m)
        for key in per_pass[0]:
            total[key] = total.get(key, 0) + statistics.median(m[key] for m in per_pass)
    total["trace.overhead_s"] = sum(
        phase_time(passes, phase, traced=True) - phase_time(passes, phase)
        for phase in ("check", "modulus")
    )
    return total


def machine_facts() -> str:
    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} blas_threads={BLAS_THREADS} "
        f"(OMP_NUM_THREADS, OPENBLAS_NUM_THREADS, MKL_NUM_THREADS)"
    )


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path):
    """Set up, run both phases for about `seconds`, and return the metrics,
    the passes and the unscaled wall times."""
    setups = []  # (seconds, calibration seconds)
    for _ in range(SETUP_REPEATS):
        with SpeedProbe() as probe:
            workload = workloads.setup(name, seed, workdir)
        setups.append((probe.elapsed, probe.speed))
    tracer = Tracer() if trace else None
    passes = run_phases(workload, seconds, tracer)
    wall = {
        "setup": statistics.median(s for s, _ in setups),
        "check": phase_time(passes, "check", scaled=False),
        "modulus": phase_time(passes, "modulus", scaled=False),
        "calibration": statistics.median(c for p in passes for c in p.calibration.values()),
    }
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(s / c * REFERENCE_S for s, c in setups),
            "check_s": phase_time(passes, "check"),
            "modulus_s": phase_time(passes, "modulus"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        metrics = layer_metrics(passes, tracer)
        tracer.write(WORK / f"trace-{name}.npz")
    return metrics, passes, wall


def unit_of(metric: str) -> str:
    if metric == "peak_rss_mb":
        return "MB"
    return "s" if metric.endswith("_s") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (workloads.SRC / "ivwsm" / "__init__.py").is_file():
        print(f"error: no ivwsm sources under {workloads.SRC}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        metrics, passes, wall = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"why: {workloads.WHY[args.workload]}")
    print(f"machine: {machine_facts()}")
    for phase in ("check", "modulus"):
        count = sum(p.phase == phase for p in passes)
        kind = "alternating untraced/traced" if args.trace else "untraced"
        print(f"{phase} passes: {count} ({kind})")
    for label, reason in failures[:20]:
        print(f"FAIL {label}: {reason}")
    print(
        "wall time, unscaled: "
        + " ".join(f"{k}={v:.6g}s" for k, v in wall.items() if k != "calibration")
        + f"; calibration median {wall['calibration'] * 1e3:.4g} ms"
        + f" (reference {REFERENCE_S * 1e3:.4g} ms)"
    )
    print(f"fail_share: {len(failures) / attempted:.6g} ({len(failures)} of {attempted} invocations)")
    for key, value in metrics.items():
        print(f"{key}: {value:.10g} {unit_of(key)}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
