#!/usr/bin/env python3
"""Record one benchmark snapshot of this checkout in ``BENCH_<tag>.json``.

Usage: ``python tools/bench_snapshot.py --tag T [--seeds 1,2,3]``

Run from anywhere; the checkout is the one this file lives in, and the file
is written at its root. The snapshot holds:

* each ``BENCHMARK.json`` workload, run once per seed as a subprocess of
  ``perfbench/run.py --seconds 20 --trace 0``: every run's result, and per
  metric the median and min over seeds of the scaled and the raw values,
  with ``attempted`` and ``failed`` summed;
* one ``--trace 1`` run per workload, on the first seed: the layer table
  and the work counts;
* each step of ``tools/cli_artifacts.py``'s walkthrough (its ``STEPS``),
  timed as a subprocess in a temporary directory, median and min of 3;
* the start-up floor: ``python -c pass``, ``import numpy`` and ``import
  hfpa``, median and min of 7;
* the wall time of the tier-1 suite and its summary line;
* the environment: CPU, Python, numpy, and OpenBLAS's core type (from a
  child run with ``OPENBLAS_VERBOSE=2``) and thread count.

It edits nothing under ``perfbench/``. Compare two snapshots only when both
were taken on the same machine: the host's speed moves between runs (see
``perfbench/README.md``), so read medians against the quartile spreads
there. A snapshot took about two and a half minutes at three seeds on a
2-core host.
"""
from __future__ import annotations

import argparse
import datetime
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_SECONDS = 20
CLI_REPEATS = 3
STARTUP_REPEATS = 7
STARTUP = (("python -c pass", "pass"), ("import numpy", "import numpy"),
           ("import hfpa", "import hfpa"))
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]

#: Printed by the environment child: OpenBLAS's thread count, through the
#: first of its known entry points that the loaded library exports.
ENV_PROBE = """\
import ctypes, json, numpy
threads = None
with open("/proc/self/maps", encoding="utf-8") as fh:
    libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
for path in sorted(libs):
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
        fn = getattr(lib, name, None)
        if fn is not None and threads is None:
            fn.restype = ctypes.c_int
            threads = fn()
print(json.dumps({"numpy": numpy.__version__, "openblas_threads": threads}))
"""


def load_cli_artifacts():
    spec = importlib.util.spec_from_file_location(
        "cli_artifacts", ROOT / "tools" / "cli_artifacts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stats(values):
    return {"median": statistics.median(values), "min": min(values)}


def run_json(cmd):
    """Runs ``cmd`` from the root; its last two stdout lines as JSON."""
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    report, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(report), json.loads(result)


def bench(workload, seeds):
    """The seeded runs of one workload and their per-metric summary."""
    runs = []
    for seed in seeds:
        report, result = run_json([
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(RUN_SECONDS),
            "--trace", "0"])
        runs.append({
            "seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "raw": report["raw"], "slowdown": report["slowdown"],
            "problems": report["problems"]})
    summary = {"attempted": sum(r["attempted"] for r in runs),
               "failed": sum(r["failed"] for r in runs),
               "correct": all(r["correct"] for r in runs)}
    for key in ("metrics", "raw"):
        summary[key] = {name: stats([r[key][name] for r in runs])
                        for name in runs[0][key]
                        if all(r[key][name] is not None for r in runs)}
    report, result = run_json([
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seeds[0]), "--seconds", str(RUN_SECONDS),
        "--trace", "1"])
    trace = {"seed": seeds[0], "correct": result["correct"],
             "metrics": {k: v["value"] for k, v in result["metrics"].items()},
             "overhead": report["tracing"]["overhead"]}
    return {"runs": runs, "summary": summary, "trace": trace}


def cli_steps():
    """Wall seconds of each walkthrough step, median and min of repeats,
    with the exit codes seen."""
    cli_artifacts = load_cli_artifacts()
    times = {name: [] for name, _ in cli_artifacts.STEPS}
    exits = {name: set() for name, _ in cli_artifacts.STEPS}
    for _ in range(CLI_REPEATS):
        with tempfile.TemporaryDirectory() as tmp:
            for name, proc, seconds in cli_artifacts.run_steps(Path(tmp)):
                times[name].append(seconds)
                exits[name].add(proc.returncode)
    return {name: {**stats(times[name]), "exit": sorted(exits[name]),
                   "expected_exit": cli_artifacts.EXPECTED_EXIT.get(name, 0)}
            for name in times}


def startup():
    """Wall seconds of a bare interpreter, ``import numpy`` and ``import
    hfpa``, median and min of repeats."""
    out = {}
    for label, code in STARTUP:
        times = []
        for _ in range(STARTUP_REPEATS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
            times.append(time.perf_counter() - t0)
        out[label] = stats(times)
    return out


def tier1():
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=ROOT,
                          capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "exit": proc.returncode,
            "summary": lines[-1] if lines else ""}


def environment():
    proc = subprocess.run([sys.executable, "-c", ENV_PROBE], cwd=ROOT,
                          env=dict(os.environ, OPENBLAS_VERBOSE="2"),
                          capture_output=True, text=True, check=True)
    lines = (proc.stdout + proc.stderr).splitlines()
    core = next((line.split(":", 1)[1].strip() for line in lines
                 if line.startswith("Core:")), None)
    probe = json.loads(next(line for line in lines if line.startswith("{")))
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    git = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                          "--untracked-files=no"],
                         capture_output=True, text=True)
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return {
        "cpu_model": cpu or platform.processor() or None,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": probe["numpy"],
        "openblas_core": core,
        "openblas_threads": probe["openblas_threads"],
        "git_commit": head.stdout.strip() or None,
        "git_dirty": bool(git.stdout.strip()) if git.returncode == 0 else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--seeds", default="1,2,3")
    args = parser.parse_args(argv)
    if not args.tag.replace("-", "").replace("_", "").isalnum():
        parser.error("--tag takes letters, digits, '-' and '_'")
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        parser.error(f"--seeds must be comma-separated integers, "
                     f"got {args.seeds!r}")

    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    workloads = [w["name"] for w in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    snapshot = {
        "tag": args.tag,
        "taken_utc": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "environment": environment(),
        "seeds": seeds,
        "run_seconds": RUN_SECONDS,
        "workloads": {},
    }
    for workload in workloads:
        print(f"{workload} ...", flush=True)
        snapshot["workloads"][workload] = bench(workload, seeds)
    print("cli steps ...", flush=True)
    snapshot["cli_steps"] = cli_steps()
    snapshot["startup"] = startup()
    print("tier-1 ...", flush=True)
    snapshot["tier1"] = tier1()
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(snapshot, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
