#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of hfpa.

Run from the repository root:

    python3 perfbench/run.py --workload calibrate|controller|imd \\
        --seed N --seconds S --trace 0|1

One process, one caller, no worker threads. A run takes the first N
operations of one workload's seeded stream (see ``workloads.py``), N sized
from ``--seconds`` and the workload's nominal cost, so a seed always gives
the same operations and the same failures. It runs the first second's worth
untimed as a warm-up, then times all N, checks every operation's output,
requires the warm-up operations to repeat bit for bit, and prints two JSON
lines: a report (environment, failures, latency tail, fit residual, raw
timings, tracing details) and, last, the result
``{"correct", "attempted", "failed", "metrics"}``.

Timings are scaled to a nominal machine speed, measured by a reference loop
that does not touch hfpa (``speed.py``), because the shared host's speed
moves by 30-45% for tens of seconds at a time. The report keeps the raw
timings and the run's median slowdown.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: a fresh interpreter up to the first operation being ready,
  ``import hfpa`` included; the median of several child processes, each
  run on this process's CPU between two speed probes.
* ``op_p50_ms``: median latency of the operations that passed their check.
* ``ops_per_s``: operations that passed, per second spent in operations.
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` runs half as many operations, first untraced and then with
every layer wrapped (``tracing.py``), and reports per-layer ``calls``,
``busy_s`` and ``self_s``, the work counts, ``setup.import_s`` and the
untraced and traced ``ops_per_s``, whose ratio is the tracing overhead.

A failed operation counts against ``ops_per_s`` and is left out of
``op_p50_ms``; the report gives the latency percentiles with failures
counted as infinitely slow, and ``fail_frac``.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_PROBES = 5
WARMUP_S = 1.0
PROBE_INTERVAL_S = 0.25
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


def import_package():
    """Import hfpa from this checkout's ``src``; None when it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import hfpa
    except ImportError as exc:
        print(f"error: cannot import hfpa from {SRC}: {exc}", file=sys.stderr)
        return None
    if SRC.resolve() not in Path(hfpa.__file__).resolve().parents:
        print(f"error: imported hfpa from {hfpa.__file__}, not {SRC}",
              file=sys.stderr)
        return None
    return hfpa


def probe_setup(workload: str, seed: int, speed):
    """Seconds from starting a fresh interpreter to its first op being ready,
    at nominal speed and raw, and the child's own import time.

    The caller keeps this process on one CPU, which the child inherits, so
    that the speed probes on either side of the child see the speed it ran at.
    """
    before = speed.probe()
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or not line:
            raise RuntimeError(f"set-up probe failed: {' '.join(cmd)}")
    scale = speed.scale(before, speed.probe())
    return ready_s * scale, ready_s, json.loads(line)["import_s"]


def run_phase(workload, inputs, speed, tracer=None):
    """Runs ``inputs`` in a closed loop from a fresh session and checker.

    A speed probe runs at least every PROBE_INTERVAL_S, and each latency is
    scaled to nominal speed by the probes on either side of it. Each digest
    is checked as it arrives, with tracing paused, and kept as a hash for
    comparing repeated runs.
    """
    latencies = array("d")
    raw = array("d")
    failures = {}
    digests = []
    pending = []

    def settle(before, after):
        scale = speed.scale(before, after)
        latencies.extend(elapsed * scale for elapsed in pending)
        raw.extend(pending)
        pending.clear()

    session = workload.session()
    checker = workload.checker()
    before = speed.probe()
    for index, inp in enumerate(inputs):
        if time.perf_counter() - speed.last_t > PROBE_INTERVAL_S:
            after = speed.probe()
            settle(before, after)
            before = after
        if tracer is not None:
            tracer.op_id = index
            tracer.active = True
        t0 = time.perf_counter()
        try:
            digest, error = workload.op(session, inp), None
        except Exception as exc:  # a raising operation is a failed operation
            digest, error = None, f"raised {type(exc).__name__}: {exc}"
        pending.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        status = checker.check(inp, digest)
        if error or status != "pass":
            failures[index] = error or status
        digests.append(hash(repr(digest)))
    settle(before, speed.probe())
    failures.update(checker.finish())
    return {"latencies": latencies, "raw_latencies": raw, "failures": failures,
            "digests": digests, "report": checker.report()}


def nearest_rank(sorted_values, pct: float):
    k = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def latency_report(phase):
    """Median and tail in ms with failed operations counted as infinitely slow.

    The tail is the highest of TAIL_PERCENTILES with at least
    TAIL_MIN_BEYOND operations beyond it, left out when it equals the median.
    """
    failures = phase["failures"]
    lat = sorted(math.inf if i in failures else t * 1e3
                 for i, t in enumerate(phase["latencies"]))
    n = len(lat)
    finite = lambda v: v if math.isfinite(v) else None  # noqa: E731
    p50 = nearest_rank(lat, 50.0)
    tail = None
    for pct in TAIL_PERCENTILES:
        beyond = n - math.ceil(pct / 100.0 * n)
        if beyond >= TAIL_MIN_BEYOND:
            value = nearest_rank(lat, pct)
            if value != p50:
                tail = {"percentile": pct, "value": finite(value), "ops": n,
                        "ops_beyond": beyond}
            break
    return {"op_p50_ms_failures_as_inf": finite(p50), "op_tail_ms": tail}


def summarize(phase, key="latencies"):
    """Median latency of passed operations and passes per second of op time."""
    passed = [t for i, t in enumerate(phase[key])
              if i not in phase["failures"]]
    return {
        "op_p50_ms": statistics.median(passed) * 1e3 if passed else None,
        "ops_per_s": len(passed) / sum(phase[key]),
    }


def op_count(workload, seconds: float) -> int:
    """Operations that take about ``seconds`` at the workload's nominal cost.

    The count follows from that cost, not from a clock, so a seed always
    gives the same operations and the same failures.
    """
    return max(1, round(seconds / workload.op_cost_s))


def first_mismatch(reference, phase):
    """Index of the first op whose digest differs bit for bit, or None."""
    for i, (a, b) in enumerate(zip(reference["digests"], phase["digests"])):
        if a != b:
            return i
    return None


def environment(hfpa, args, workloads):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "kernel_backend": getattr(hfpa, "KERNEL_BACKEND", None),
        "git_commit": git_commit(),
        "seed": args.seed,
        "fit_budget": workloads.FIT_BUDGET,
    }


def git_commit():
    """HEAD of the repository rooted exactly here, else None."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if Path(lines[0]).resolve() == ROOT else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    hfpa = import_package()
    if hfpa is None:
        return 2
    import tracing
    import workloads
    from speed import SpeedProbe
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    speed = SpeedProbe()
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        probes = [probe_setup(workload.name, args.seed, speed)
                  for _ in range(SETUP_PROBES)]
    finally:
        os.sched_setaffinity(0, cpus)
    setup_s = statistics.median(p[0] for p in probes)
    import_s = statistics.median(p[2] for p in probes)

    seconds = args.seconds / 2.0 if args.trace else args.seconds
    inputs = list(itertools.islice(workload.inputs(args.seed),
                                   op_count(workload, seconds)))
    warmup = run_phase(workload, inputs[:op_count(workload, WARMUP_S)], speed)
    phases = []
    tracer = None
    if args.trace:
        phases.append(run_phase(workload, inputs, speed))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            phases.append(run_phase(workload, inputs, speed, tracer))
        finally:
            tracer.uninstall()
    else:
        phases.append(run_phase(workload, inputs, speed))

    attempted = sum(len(p["latencies"]) for p in phases)
    failed = sum(len(p["failures"]) for p in phases)
    problems = [f"op {i}: {s}" for p in phases
                for i, s in sorted(p["failures"].items()) if s != "miss"]
    mismatches = [first_mismatch(warmup, p) for p in phases]
    problems += [f"op {i} differs between two runs"
                 for i in mismatches if i is not None]
    if workload.name == "calibrate" and any(0 in p["failures"] for p in phases):
        problems.append("op 0 (the reference table) did not pass")

    summaries = [summarize(p) for p in phases]
    kinds = Counter(s.split(":")[0].split()[0]
                    for p in phases for s in p["failures"].values())
    report = {
        "workload": workload.name,
        "why": workload.why,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(hfpa, args, workloads),
        "operations": len(inputs),
        "warmup_operations": len(warmup["digests"]),
        "fail_frac": failed / attempted,
        "statuses": {"pass": attempted - failed, **kinds},
        "problems": problems[:20],
        "bit_identical_repeats": all(i is None for i in mismatches),
        **latency_report(phases[-1]),
        **phases[-1]["report"],
        "slowdown": speed.slowdown(),
        "raw": {"setup_s": statistics.median(p[1] for p in probes),
                **summarize(phases[-1], "raw_latencies")},
        "setup_probes_raw_s": [p[1] for p in probes],
    }

    if args.trace:
        untraced, traced = summaries
        metrics = tracer.metrics()
        metrics["setup.import_s"] = (import_s, "s")
        metrics["trace.ops"] = (len(inputs), "count")
        metrics["trace.untraced_ops_per_s"] = (untraced["ops_per_s"], "1/s")
        metrics["trace.traced_ops_per_s"] = (traced["ops_per_s"], "1/s")
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        report["tracing"] = {
            "absent_layers": tracer.absent,
            "spans_file": str(spans_path.relative_to(ROOT)),
            "spans_kept": len(tracer.spans),
            "spans_dropped": tracer.spans_dropped,
            "overhead": (untraced["ops_per_s"] / traced["ops_per_s"]
                         if traced["ops_per_s"] else None),
        }
    else:
        (summary,) = summaries
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_p50_ms": (summary["op_p50_ms"], "ms"),
            "ops_per_s": (summary["ops_per_s"], "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }

    print(json.dumps(report))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
