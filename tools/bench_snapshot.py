#!/usr/bin/env python3
"""Record a paired benchmark snapshot of this checkout and another one in
``bench/BENCH_<tag>.json`` and ``bench/BENCH_<tag>parent.json``.

Usage::

    python tools/bench_snapshot.py --tag T --against DIR [--pairs N] \
        [--seeds 1] [--workloads W,...]
    python tools/bench_snapshot.py --table bench/BENCH_T.json ...

``--table`` prints the Markdown evidence table of paired files already
written (see ``table_rows``), with each row's verdict (see ``verdict``), and
runs nothing.

Run from anywhere; this checkout is the one this file lives in, and both
files are written to its ``bench/`` directory (``BENCH_DIR``). ``DIR`` is a
second checkout of this repository, for example a ``git clone`` of the
parent commit, and ``BENCH_<T>parent.json`` describes it; ``DIR`` may not
be this checkout. To snapshot one commit alone, pair it against a clone of
itself: the A/A pair records the host's spread beside the figures. Each
file holds, for its tree:

* each ``BENCHMARK.json`` workload, run N times per seed as a subprocess of
  ``perfbench/run.py --seconds 20 --trace 0``: every run's result with the
  child's CPU seconds (user + system, from ``getrusage(RUSAGE_CHILDREN)``)
  and wall seconds, and per metric the median and min over runs of the
  scaled and the raw values, with ``attempted`` and ``failed`` summed;
* before each workload's first pair, one discarded run of each tree on
  the first seed, so that neither side takes the host's first-run cost;
* one ``--trace 1`` run per workload, on the first seed: the layer table
  and the work counts;
* each step of ``tools/cli_artifacts.py``'s walkthrough (its ``STEPS``),
  timed as a subprocess in a temporary directory, median and min of 3;
* the start-up floor (``STARTUP``): a bare interpreter, ``import numpy``,
  ``import hfpa``, the model's modules and ``python -m hfpa psu-read
  --help``, each run's wall seconds with their median and min, 10 runs;
* the wall time of the tier-1 suite and its summary line;
* the environment: CPU, core count, Python, and the host key that
  ``tools/cli_artifacts.py``'s golden check is pinned on (numpy's version,
  its highest dispatched SIMD target and OpenBLAS's core type, from
  ``host_key``); and the tree: the git commit and dirty flag, when the tree
  is a git checkout, and a sha256 over its ``src/`` and ``perfbench/``
  files.

The two trees take turns under one rule: in each repeat both run, and the
side that leads runs first in the even repeats and second in the odd ones.
A workload's runs go back to back per pair, and the side that leads
alternates from one workload to the next; its two ``--trace 1`` runs go in
that order. The start-up floor and the CLI steps take turns per repeat, led
by this tree; the tier-1 suite runs once per tree. ``BENCH_<T>.json`` adds
a ``pairs`` block: for each workload and end-to-end metric, the
after/before ratio of the scaled and of the raw values in every pair, their
median and quartiles, the count of pairs in which this tree is better, and
the medians and quartiles of both trees' scaled values, and both trees'
median CPU/wall ratio (``cpu_per_wall``: near 1 when a run used one core,
near 2 when its split overlapped on two); its ``startup`` entry gives the
same per start-up row, from the raw wall times. Two snapshots
taken apart, even minutes apart, do not resolve a change smaller than the
host's drift; a paired one does.

It edits nothing under ``perfbench/``. The host's speed moves between runs
(see ``perfbench/README.md``), so read the ratios against their quartiles.
Ten pairs of all three workloads on one seed took about ten minutes on a
2-core host, both tier-1 runs included.
"""
from __future__ import annotations

import argparse
import datetime
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Where the snapshot files go, under ROOT.
BENCH_DIR = "bench"
RUN_SECONDS = 20
CLI_REPEATS = 3
STARTUP_REPEATS = 10
#: (label, interpreter arguments) of each start-up row. ``import hfpa``
#: imports none of the package's modules; the second import row measures
#: the model's.
STARTUP = (("python -c pass", ["-c", "pass"]),
           ("import numpy", ["-c", "import numpy"]),
           ("import hfpa", ["-c", "import hfpa"]),
           ("import hfpa.biasctl, hfpa.calibrate",
            ["-c", "import hfpa.biasctl, hfpa.calibrate"]),
           ("python -m hfpa psu-read --help",
            ["-m", "hfpa", "psu-read", "--help"]))
#: A verdict needs at least this share of the pairs on one side.
VERDICT_SHARE = 0.9
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
#: The directories whose files identify a tree.
TREE_DIRS = ("src", "perfbench")
#: The two sides of a paired snapshot: this tree, and the one it is run
#: against.
AFTER, BEFORE = "after", "before"

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


def child_clock():
    """The CPU seconds (user + system) of this process's waited-for
    children, and the wall clock in seconds."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime, time.perf_counter()


def seeded_run(workload, seed, trace, root):
    """One ``perfbench/run.py`` run of the tree at ``root``: its report, its
    result, and the CPU and wall seconds it took (``cpu_s``, ``wall_s``)."""
    cpu0, wall0 = child_clock()
    report, result = run_json([
        sys.executable, str(root / "perfbench" / "run.py"), "--workload",
        workload, "--seed", str(seed), "--seconds", str(RUN_SECONDS),
        "--trace", str(trace)])
    cpu1, wall1 = child_clock()
    return report, result, {"cpu_s": cpu1 - cpu0, "wall_s": wall1 - wall0}


def run_record(seed, report, result, usage):
    return {"seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "raw": report["raw"], "slowdown": report["slowdown"],
            "problems": report["problems"], **usage}


def trace_record(seed, report, result, usage):
    return {"seed": seed, "correct": result["correct"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "overhead": report["tracing"]["overhead"], **usage}


def summarize(runs):
    """Per metric, the median and min over runs of the scaled and the raw
    values, with ``attempted`` and ``failed`` summed."""
    summary = {"attempted": sum(r["attempted"] for r in runs),
               "failed": sum(r["failed"] for r in runs),
               "correct": all(r["correct"] for r in runs)}
    for key in ("metrics", "raw"):
        summary[key] = {name: stats([r[key][name] for r in runs])
                        for name in runs[0][key]
                        if all(r[key][name] is not None for r in runs)}
    return summary


def quartiles(values):
    """(q1, median, q3), inclusive method; a lone value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def turns(rep):
    """The two sides in their order in repeat ``rep``: this tree runs first
    in the even repeats and second in the odd ones."""
    return (AFTER, BEFORE) if rep % 2 == 0 else (BEFORE, AFTER)


def paired_bench(workload, seeds, pairs, trees, lead=0):
    """Both trees' seeded runs of one workload, ``pairs`` per seed, the
    pairs taking repeats ``lead``, ``lead + 1``, ... of ``turns``; the two
    discarded warm-up runs before them and the two ``--trace 1`` runs after
    them go in repeat ``lead``'s order.

    Returns each side's record (its runs, their summary and its trace run)
    and the order of the pairs.
    """
    for side in turns(lead):  # warm-up, discarded
        seeded_run(workload, seeds[0], 0, trees[side])
    runs = {side: [] for side in trees}
    log = []
    for i, seed in enumerate(s for s in seeds for _ in range(pairs)):
        order = turns(lead + i)
        for side in order:
            runs[side].append(run_record(
                seed, *seeded_run(workload, seed, 0, trees[side])))
        log.append({"seed": seed, "first": order[0]})
    sides = {side: {"runs": runs[side], "summary": summarize(runs[side]),
                    "trace": trace_record(seeds[0], *seeded_run(
                        workload, seeds[0], 1, trees[side]))}
             for side in turns(lead)}
    return sides, log


def ratio_stats(pairs, direction):
    """The after/before ratio of each (after, before) pair, their
    quartiles and the after tree's wins; None unless every pair has both
    values and a nonzero before."""
    if not pairs or any(a is None or not b for a, b in pairs):
        return None
    ratios = [a / b for a, b in pairs]
    wins = sum(r < 1 if direction == "lower" else r > 1 for r in ratios)
    q1, median, q3 = quartiles(ratios)
    return {"ratios": ratios, "median": median, "q1": q1, "q3": q3,
            "wins": wins, "pairs": len(ratios)}


def side_quartiles(values):
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3}


def pair_stats(after_runs, before_runs, better):
    """Per end-to-end metric: the after/before ratios of the scaled and raw
    values pair by pair, their quartiles, the wins of the after tree, and
    both trees' scaled quartiles."""
    out = {}
    for name, direction in better.items():
        entry = {"better": direction}
        for key, label in (("metrics", "scaled"), ("raw", "raw")):
            ratio = ratio_stats([(a[key].get(name), b[key].get(name))
                                 for a, b in zip(after_runs, before_runs)],
                                direction)
            if ratio is not None:
                entry[label] = ratio
        for side, side_runs in ((AFTER, after_runs), (BEFORE, before_runs)):
            values = [r["metrics"].get(name) for r in side_runs]
            if values and None not in values:
                entry[side] = side_quartiles(values)
        out[name] = entry
    return out


def startup_pairs(floors):
    """Per start-up row of both trees' ``startup`` records: the after/before
    ratios of the wall times repeat by repeat (``raw``, as nothing scales
    them), their quartiles, the wins of the after tree, and both trees'
    quartiles."""
    out = {}
    for label in floors[AFTER]:
        runs = {side: floors[side][label]["runs"] for side in floors}
        out[label] = {"better": "lower",
                      "raw": ratio_stats(list(zip(runs[AFTER], runs[BEFORE])),
                                         "lower"),
                      **{side: side_quartiles(runs[side]) for side in runs}}
    return out


def tree_env(root):
    """This process's environment with ``PYTHONPATH`` led by the tree's
    ``src/``: every step of a snapshot runs on its tree this way."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(root / "src"), os.environ.get("PYTHONPATH")])))


def cli_steps(trees):
    """Wall seconds of each walkthrough step per tree, median and min of
    repeats, with the exit codes seen; the trees take turns per repeat."""
    cli_artifacts = load_cli_artifacts()
    names = [name for name, _ in cli_artifacts.STEPS]
    times = {side: {name: [] for name in names} for side in trees}
    exits = {side: {name: set() for name in names} for side in trees}
    for rep in range(CLI_REPEATS):
        for side in turns(rep):
            with tempfile.TemporaryDirectory() as tmp:
                for name, proc, seconds in cli_artifacts.run_steps(
                        Path(tmp), tree_env(trees[side])):
                    times[side][name].append(seconds)
                    exits[side][name].add(proc.returncode)
    expected = cli_artifacts.EXPECTED_EXIT
    return {side: {name: {**stats(times[side][name]),
                          "exit": sorted(exits[side][name]),
                          "expected_exit": expected.get(name, 0)}
                   for name in names} for side in trees}


def startup(trees):
    """Wall seconds of each ``STARTUP`` row per tree: every repeat's, and
    their median and min; the trees take turns per repeat."""
    times = {side: {label: [] for label, _ in STARTUP} for side in trees}
    for label, argv in STARTUP:
        for rep in range(STARTUP_REPEATS):
            for side in turns(rep):
                t0 = time.perf_counter()
                subprocess.run([sys.executable, *argv], cwd=trees[side],
                               env=tree_env(trees[side]), check=True,
                               stdout=subprocess.DEVNULL)
                times[side][label].append(time.perf_counter() - t0)
    return {side: {label: {**stats(t[label]), "runs": t[label]}
                   for label, _ in STARTUP}
            for side, t in times.items()}


def tier1(root):
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=root,
                          env=tree_env(root),
                          capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "exit": proc.returncode,
            "summary": lines[-1] if lines else ""}


def tree_identity(root):
    """The tree's git commit, whether its tracked ``src/`` and
    ``perfbench/`` files differ from that commit (None outside a git
    checkout; other files do not count), and a sha256 over the paths and
    bytes of those directories' files, caches left out."""
    digest = hashlib.sha256()
    for sub in TREE_DIRS:
        for path in sorted((root / sub).rglob("*")):
            if (not path.is_file() or "__pycache__" in path.parts
                    or path.suffix == ".pyc"):
                continue
            data = path.read_bytes()
            digest.update(f"{path.relative_to(root).as_posix()}\0"
                          f"{len(data)}\0".encode())
            digest.update(data)
    git = subprocess.run(["git", "-C", str(root), "status", "--porcelain",
                          "--untracked-files=no", "--", *TREE_DIRS],
                         capture_output=True, text=True)
    head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return {
        "git_commit": (head.stdout.strip() or None) if head.returncode == 0
        else None,
        "git_dirty": bool(git.stdout.strip()) if git.returncode == 0 else None,
        "tree_sha256": digest.hexdigest(),
    }


def environment(root):
    """The host this process runs on and the tree at ``root``."""
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "cpu_model": cpu or platform.processor() or None,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **load_cli_artifacts().host_key(),
        **tree_identity(root),
    }


def snapshot_head(tag, root, seeds):
    return {
        "tag": tag,
        "taken_utc": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "environment": environment(root),
        "seeds": seeds,
        "run_seconds": RUN_SECONDS,
        "workloads": {},
    }


def write(snapshot):
    path = ROOT / BENCH_DIR / f"BENCH_{snapshot['tag']}.json"
    path.write_text(json.dumps(snapshot, indent=1) + "\n", encoding="utf-8")
    print(path)


def paired(args, seeds, workloads, better):
    """Write ``BENCH_<tag>parent.json`` for the other tree and
    ``BENCH_<tag>.json``, with the ``pairs`` block, for this one. The tree
    that leads the pairs alternates from one workload to the next."""
    trees = {AFTER: ROOT, BEFORE: args.against}
    tags = {AFTER: args.tag, BEFORE: f"{args.tag}parent"}
    snaps = {side: snapshot_head(tags[side], trees[side], seeds)
             for side in trees}
    block = {"against": {"tag": tags[BEFORE], **tree_identity(args.against)},
             "pairs_per_seed": args.pairs, "workloads": {}}
    for k, workload in enumerate(workloads):
        print(f"{workload} ({args.pairs} pairs per seed) ...", flush=True)
        sides, log = paired_bench(workload, seeds, args.pairs, trees, k)
        for side, record in sides.items():
            snaps[side]["workloads"][workload] = record
        block["workloads"][workload] = {
            "order": log,
            "metrics": pair_stats(sides[AFTER]["runs"],
                                  sides[BEFORE]["runs"], better),
            "cpu_per_wall": {side: statistics.median(
                r["cpu_s"] / r["wall_s"] for r in record["runs"])
                for side, record in sides.items()}}
    print("cli steps ...", flush=True)
    for key, measure in (("cli_steps", cli_steps), ("startup", startup)):
        for side, record in measure(trees).items():
            snaps[side][key] = record
    print("tier-1 ...", flush=True)
    for side in trees:
        snaps[side]["tier1"] = tier1(trees[side])
    block["startup"] = startup_pairs({side: snaps[side]["startup"]
                                      for side in trees})
    snaps[AFTER]["pairs"] = block
    write(snaps[BEFORE])
    write(snaps[AFTER])


TABLE_HEADER = (
    "| file | trees (parent → change) | workload, seeds, pairs | metric "
    "| parent → change | scaled ratio [q1, q3] | raw ratio [q1, q3] "
    "| wins scaled, raw | verdict |\n"
    "|---|---|---|---|---|---|---|---|---|")


def _tree(identity):
    """A tree's short commit, ``*`` marking a dirty one."""
    commit = (identity.get("git_commit") or "?")[:7]
    return commit + ("*" if identity.get("git_dirty") else "")


def _ratio(entry):
    if entry is None:
        return "—", "—"
    return (f"{entry['median']:.3f} [{entry['q1']:.3f}, {entry['q3']:.3f}]",
            f"{entry['wins']}/{entry['pairs']}")


def verdict(entry, key):
    """The rule a claim is judged by, on the ``key`` ratio ('scaled' or
    'raw') of one metric's pair entry: 'resolved better' or 'resolved
    worse' when at least ``VERDICT_SHARE`` of the pairs went that way and
    the gap between the two trees' medians, in that direction, is wider
    than the parent's quartile spread; 'not resolved' otherwise; '—' when
    the entry lacks the ratio or a tree's quartiles."""
    ratio, before, after = entry.get(key), entry.get(BEFORE), entry.get(AFTER)
    if ratio is None or before is None or after is None:
        return "—"
    need = math.ceil(VERDICT_SHARE * ratio["pairs"])
    gap = after["median"] - before["median"]
    if entry["better"] == "lower":
        gap = -gap
    losses = sum(r > 1 if entry["better"] == "lower" else r < 1
                 for r in ratio["ratios"])
    spread = before["q3"] - before["q1"]
    if ratio["wins"] >= need and gap > spread:
        return "resolved better"
    if losses >= need and -gap > spread:
        return "resolved worse"
    return "not resolved"


def _usage(record):
    """A workload's ``cpu/wall`` medians cell, ``—`` for a tree without
    one (pair files written before CPU time was recorded)."""
    usage = record.get("cpu_per_wall", {})
    return " → ".join(f"{usage[side]:.2f}" if side in usage else "—"
                      for side in (BEFORE, AFTER))


def table_rows(path):
    """One Markdown row per workload and end-to-end metric of the pair file
    at ``path``, in the file's order, each workload's closed by a
    ``cpu/wall`` row, then one per start-up row if the file pairs them: the
    trees, the workload (``startup``), its seeds and pairs, the metric, both
    trees' medians, the scaled and raw after/before ratios with their
    quartiles, the change's wins, and the verdict on the scaled ratio (the
    raw one for start-up rows). A ``cpu/wall`` row gives both trees' median
    CPU/wall ratio and no ratio, wins or verdict. Everything comes from the
    file's ``pairs`` block, except the change's own commit, which the
    file's ``environment`` records."""
    snapshot = json.loads(Path(path).read_text(encoding="utf-8"))
    block = snapshot.get("pairs")
    if block is None:
        raise ValueError("no pairs block: not the change's file of a "
                         "paired snapshot")
    trees = f"{_tree(block['against'])} → {_tree(snapshot['environment'])}"
    head = f"| `{Path(path).name}` | {trees} | "
    rows = []

    def add(run, metric, entry, key):
        medians = (f"{entry['before']['median']:.4g} → "
                   f"{entry['after']['median']:.4g}")
        scaled, scaled_wins = _ratio(entry.get("scaled"))
        raw, raw_wins = _ratio(entry.get("raw"))
        rows.append(f"{head}{run} | {metric} | {medians} | {scaled} | {raw} "
                    f"| {scaled_wins}, {raw_wins} | {verdict(entry, key)} |")

    for workload, record in block["workloads"].items():
        seeds = ",".join(str(s) for s in sorted({o["seed"]
                                                 for o in record["order"]}))
        run = f"{workload}, {seeds}, {len(record['order'])}"
        for metric, entry in record["metrics"].items():
            add(run, metric, entry, "scaled")
        rows.append(f"{head}{run} | cpu/wall | {_usage(record)} | — | — "
                    f"| —, — | — |")
    for label, entry in block.get("startup", {}).items():
        add(f"startup, —, {entry['raw']['pairs']}", label, entry, "raw")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--table", nargs="+", metavar="FILE",
                        help="print the evidence rows of these pair files "
                             "and run nothing")
    parser.add_argument("--tag")
    parser.add_argument("--seeds", default="1",
                        help="comma-separated workload seeds (default: 1)")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset of BENCHMARK.json's "
                             "workloads (default: all)")
    parser.add_argument("--against", type=Path,
                        help="a second checkout to pair this one against")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.table:
        rows = []
        for path in args.table:
            try:
                rows += table_rows(path)
            except (OSError, ValueError, KeyError) as exc:
                print(f"error: {path}: {exc}", file=sys.stderr)
                return 1
        print("\n".join([TABLE_HEADER, *rows]))
        return 0
    if args.tag is None or args.against is None:
        parser.error("a snapshot needs --tag and --against")
    if not args.tag.replace("-", "").replace("_", "").isalnum():
        parser.error("tags take letters, digits, '-' and '_'")
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        parser.error(f"--seeds must be comma-separated integers, "
                     f"got {args.seeds!r}")
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in bench_spec["workloads"]]
    workloads = known if args.workloads is None else args.workloads.split(",")
    if not set(workloads) <= set(known):
        parser.error(f"--workloads takes names from {known}")
    args.against = args.against.resolve()
    if not (args.against / "perfbench" / "run.py").is_file():
        parser.error(f"{args.against} is not a checkout of this repo")
    if args.against == ROOT:
        parser.error("--against must name another directory than this "
                     "checkout: the directory moves peak_rss_mb")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    paired(args, seeds, workloads,
           {m["name"]: m["better"] for m in bench_spec["end_to_end"]})
    return 0


if __name__ == "__main__":
    sys.exit(main())
