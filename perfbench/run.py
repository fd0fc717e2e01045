#!/usr/bin/env python3
"""permlat benchmark: one workload per call, a single-process closed loop.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Set-up (interpreter start and import in a fresh process, writing the input
files, generating inputs) runs SETUP_REPEATS times and ``setup_s`` is the
median. Then the workload's pass, the same jobs each time, repeats until
the next pass would end after ``--seconds``; one job starts only when the
previous one has finished, in one thread. Every output of every pass is
checked (outside the timed region) and every failed check is counted.

Times in the metrics are scaled to a reference machine speed, measured by
a short fixed loop around every step of a pass or a set-up (see
``workloads.StepClock``); the human lines give wall times too.

``--trace 0`` prints the end-to-end metrics. ``run_s`` is the time of one
pass, taken as the sum over the pass's steps of each step's median over
passes. ``--trace 1`` spends the first half of the time untraced and the
second half traced, and prints the per-layer metrics (per-pass medians of
self time; counts of one pass, which must repeat exactly in every pass)
together with ``trace.overhead_s``.

Human-readable lines come first; the last line of stdout is the result
JSON. The same result, stamped with the Python version, core count, CPU
model, commit and seed, is appended to ``.bench_out/results.jsonl`` for
``compare.py``; traced runs write their spans to ``.bench_out/spans/``.
Temporary files live in ``.bench_out/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import COMPUTED, METRICS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 1
# Never used while tuning the benchmark or a change; a claimed gain must also
# hold on this seed.
HELD_OUT_SEED = 9
SETUP_REPEATS = 5

def percentile_summary(samples: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    line = f"median {statistics.median(samples):.4f}"
    if n >= 20:
        p = 100 * (n - 10) // n   # nearest rank ceil(p*n/100) <= n - 10
        line += f", p{p} {sorted(samples)[-(-p * n // 100) - 1]:.4f}"
    else:
        line += ", no percentile with ten samples beyond it"
    return line + f" (n={n})"


def stamp(workload: str, seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "held_out": seed == HELD_OUT_SEED,
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "commit": commit()}


def commit() -> str:
    """HEAD of the checkout's git directory, read without running git (the
    benchmark reads nothing outside its checkout); "unknown" if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


WALL, SCALED = 0, 1


def setup(workload, seed: int, tmp: Path, checks, clock):
    """SETUP_REPEATS full set-ups; returns the last state and, per set-up,
    its (wall, scaled) time: the sum over its steps, each timed by
    ``clock``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(SETUP_REPEATS):
        workdir = tmp / f"setup{i}"
        workdir.mkdir()
        steps = {}
        clock(steps, "import", subprocess.run, [sys.executable, "-c", "import permlat.cli"],
              env=env, check=True, cwd=workdir)
        state = workload.setup(seed, workdir, checks, steps)
        times.append(tuple(sum(t[which] for t in steps.values()) for which in (WALL, SCALED)))
    return state, times


def timed_phase(workload, state, seconds: float, checks, reference, tracer=None) -> list:
    """Repeat the pass while the next one is expected to end in time; at
    least one pass. Returns, per pass, its wall time and each step's."""
    samples = []
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.begin_pass()
        start = time.perf_counter()
        steps, outs = workload.run_pass(state)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_pass()
        workload.check(state, outs, checks, reference)
        samples.append({"pass": elapsed, "steps": steps})
        if time.perf_counter() + elapsed > deadline:
            return samples


def phase_times(samples: list, which: int = SCALED) -> dict:
    """Each phase's time in one pass: the sum over its steps (named
    ``<phase>:<item>``) of the step's median over passes, of the steps'
    scaled or wall times. A burst of load on the machine slows a few
    samples of a step, which its median ignores."""
    phases: dict[str, float] = {}
    for step in samples[0]["steps"]:
        phase = step.split(":", 1)[0]
        median = statistics.median(s["steps"][step][which] for s in samples)
        phases[phase] = phases.get(phase, 0.0) + median
    return phases


def layer_metrics(tracer, phases: dict, traced: list, run_s: float, checks) -> dict:
    """Per-layer metrics of a traced run: median self time over traced
    passes, and counts of one pass, checked to repeat in every pass."""
    per_pass = [tracer.pass_metrics(p) for p in tracer.passes]
    metrics = {}
    for name, (unit, _, _) in METRICS.items():
        values = [p[name] for p in per_pass]
        if unit in ("s", "ratio"):
            value = statistics.median(values)
        else:
            value = values[0]
            checks(f"count {name} repeats in every pass", len(set(values)) == 1)
        metrics[name] = {"value": value, "unit": unit}
    # scaled time of the gen and check commands in the untraced passes
    for phase in ("gen", "check"):
        metrics[f"cmd.{phase}_s"] = {"value": phases.get(phase, 0.0), "unit": "s"}
    traced_run_s = sum(phase_times(traced).values())
    metrics["trace.overhead_s"] = {"value": traced_run_s - run_s, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "permlat" / "__init__.py").is_file():
        print(f"error: no permlat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PERMLAT_THREADS"] = "1"   # manifests record it; pin it
    import workloads
    from workloads import CLOCK

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}-{os.getpid()}"
    checks = workloads.Checks()
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        state, setup_times = setup(workload, args.seed, tmp, checks, CLOCK)
        untraced_seconds = args.seconds / 2 if args.trace else args.seconds
        samples = timed_phase(workload, state, untraced_seconds, checks, reference)
        traced = []
        tracer = None
        if args.trace:
            tracer = Tracer(run_id)
            tracer.install()
            try:
                traced = timed_phase(workload, state, args.seconds / 2, checks, reference,
                                     tracer)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    phases = phase_times(samples)
    run_s = sum(phases.values())
    if args.trace:
        metrics = layer_metrics(tracer, phases, traced, run_s, checks)
        tracer.write(OUT / "spans" / f"{run_id}.jsonl")
    else:
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "setup_s": {"value": statistics.median(t[SCALED] for t in setup_times),
                        "unit": "s"},
            "pass_ratio": {"value": (checks.attempted - checks.failed) / checks.attempted,
                           "unit": "ratio"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    info = stamp(args.workload, args.seed)
    print(f"# {args.workload} seed {args.seed}: python {info['python']}, "
          f"{info['nproc']} cores, {info['cpu']}, commit {info['commit']}")
    wall_phases = phase_times(samples, WALL)
    print(f"run_s: {run_s:.4f} s scaled, {sum(wall_phases.values()):.4f} s wall, the sum "
          f"of step medians; pass wall time "
          f"{percentile_summary([s['pass'] for s in samples])} s")
    for phase, t in phases.items():
        print(f"  {phase}_s: {t:.4f} s scaled, {wall_phases[phase]:.4f} s wall")
    print(f"setup_s: scaled {percentile_summary([t[SCALED] for t in setup_times])} s; "
          f"wall {percentile_summary([t[WALL] for t in setup_times])} s")
    print(f"checks: {checks.attempted - checks.failed}/{checks.attempted} passed")
    for failure in checks.failures[:20]:
        print(f"  FAILED {failure}")
    print(f"peak_rss_mb: {peak_rss_mb:.1f} MB")
    if args.trace:
        print(f"traced: {percentile_summary([s['pass'] for s in traced])} s per pass")
        for name, m in metrics.items():
            label = " (computed)" if name in COMPUTED else ""
            print(f"  {name:34} {m['value']:14.6g} {m['unit']}{label}")

    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    record = {"run_id": run_id, "trace": args.trace, "seconds": args.seconds,
              "stamp": info, "result": result,
              "samples": samples, "traced_samples": traced, "setup_samples": setup_times}
    with (OUT / "results.jsonl").open("a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
