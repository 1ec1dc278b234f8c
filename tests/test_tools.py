"""Smoke tests of the evidence scripts under ``tools/``, so that a change to
the package cannot leave them broken unnoticed."""
import argparse
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from hfpa import cli, measure

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


cw_law_scan = load_tool("cw_law_scan")
cli_artifacts = load_tool("cli_artifacts")
bench_snapshot = load_tool("bench_snapshot")


def test_cw_law_scan_stays_far_inside_the_drive_margin():
    worst = cw_law_scan.scan(1, 300)
    assert list(worst) == list(cw_law_scan.KINDS)
    for kind, gap in worst.items():
        assert gap < 1e-3 * measure.DRIVE_PREDICT_MARGIN, kind


@pytest.mark.parametrize("name, args", cli_artifacts.STEPS,
                         ids=[name for name, _ in cli_artifacts.STEPS])
def test_cli_artifact_step_parses(name, args):
    assert cli.build_parser().parse_args(args).command == args[0]


def test_bench_snapshot_summarizes_the_seeded_runs(monkeypatch):
    calls = []

    def fake_run_json(cmd):
        calls.append(cmd)
        seed, trace = int(cmd[cmd.index("--seed") + 1]), cmd[-1]
        if trace == "1":
            return ({"tracing": {"overhead": 1.5}},
                    {"correct": True, "attempted": 10, "failed": 0,
                     "metrics": {"trace.ops": {"value": 5, "unit": "count"}}})
        return ({"raw": {"op_p50_ms": 2.0 * seed, "setup_s": None},
                 "slowdown": 1.0, "problems": []},
                {"correct": True, "attempted": 4, "failed": seed % 2,
                 "metrics": {"op_p50_ms": {"value": float(seed), "unit": "ms"}}})

    monkeypatch.setattr(bench_snapshot, "run_json", fake_run_json)
    got = bench_snapshot.bench("imd", [3, 1, 2])
    assert [c[c.index("--trace") + 1] for c in calls] == ["0"] * 3 + ["1"]
    assert all(c[c.index("--seconds") + 1] == "20" for c in calls)
    summary = got["summary"]
    assert summary["metrics"] == {"op_p50_ms": {"median": 2.0, "min": 1.0}}
    assert summary["raw"] == {"op_p50_ms": {"median": 4.0, "min": 2.0}}
    assert (summary["attempted"], summary["failed"]) == (12, 2)
    assert got["trace"] == {"seed": 3, "correct": True,
                            "metrics": {"trace.ops": 5}, "overhead": 1.5}


def test_bench_snapshot_records_the_environment():
    env = bench_snapshot.environment()
    assert env["numpy"] == np.__version__
    assert env["nproc"] >= 1 and env["python"]


def fake_paired_runner(calls, before_root):
    """A ``run_json`` stub for two trees: the tree is read from the run.py
    path; the before tree's op_p50_ms is 2.0 scaled and 3.0 raw, the after
    tree's 1.5 and 2.7 except in its third run, where it is 2.5 and 3.3."""
    counts = {"after": 0, "before": 0}

    def run_json(cmd):
        side = ("before" if Path(cmd[1]).parent.parent == before_root
                else "after")
        seed, trace = int(cmd[cmd.index("--seed") + 1]), cmd[-1]
        calls.append((side, seed, trace))
        if trace == "1":
            return ({"tracing": {"overhead": 1.2}},
                    {"correct": True, "attempted": 5, "failed": 0,
                     "metrics": {"trace.ops": {"value": 5, "unit": "count"}}})
        counts[side] += 1
        slow = side == "before" or counts[side] == 3
        scaled, raw = ((2.0, 3.0) if side == "before"
                       else (2.5, 3.3) if slow else (1.5, 2.7))
        return ({"raw": {"op_p50_ms": raw, "setup_s": None},
                 "slowdown": 1.0, "problems": []},
                {"correct": True, "attempted": 4, "failed": 1,
                 "metrics": {"op_p50_ms": {"value": scaled, "unit": "ms"},
                             "peak_rss_mb": {"value": 40.0, "unit": "MB"}}})
    return run_json


def test_paired_runs_alternate_and_give_the_ratios(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(bench_snapshot, "run_json",
                        fake_paired_runner(calls, tmp_path))
    trees = {"after": bench_snapshot.ROOT, "before": tmp_path}
    sides, log = bench_snapshot.paired_bench("controller", [1, 7], 2, trees)
    runs = [(side, seed) for side, seed, trace in calls if trace == "0"]
    assert runs == [("after", 1), ("before", 1), ("before", 1), ("after", 1),
                    ("after", 7), ("before", 7), ("before", 7), ("after", 7)]
    assert log == [{"seed": 1, "first": "after"}, {"seed": 1, "first": "before"},
                   {"seed": 7, "first": "after"}, {"seed": 7, "first": "before"}]
    assert [c for c in calls if c[2] == "1"] == [("after", 1, "1"),
                                                 ("before", 1, "1")]

    calls.clear()
    bench_snapshot.paired_bench("controller", [1], 2, trees, "before")
    assert [c[0] for c in calls] == ["before", "after", "after", "before",
                                     "before", "after"]
    assert [c[2] for c in calls] == ["0", "0", "0", "0", "1", "1"]
    for side in ("after", "before"):
        assert [r["seed"] for r in sides[side]["runs"]] == [1, 1, 7, 7]
        assert sides[side]["summary"]["failed"] == 4

    got = bench_snapshot.pair_stats(sides["after"]["runs"],
                                    sides["before"]["runs"],
                                    {"op_p50_ms": "lower",
                                     "peak_rss_mb": "lower",
                                     "ops_per_s": "higher"})
    p50 = got["op_p50_ms"]
    assert p50["scaled"]["ratios"] == [0.75, 0.75, 1.25, 0.75]
    assert (p50["scaled"]["q1"], p50["scaled"]["median"],
            p50["scaled"]["q3"]) == (0.75, 0.75, 0.875)
    assert p50["scaled"]["wins"] == 3 and p50["scaled"]["pairs"] == 4
    assert p50["raw"]["ratios"] == [2.7 / 3.0, 2.7 / 3.0, 3.3 / 3.0, 2.7 / 3.0]
    assert p50["raw"]["wins"] == 3
    assert p50["before"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert p50["after"]["median"] == 1.5
    rss = got["peak_rss_mb"]
    assert rss["scaled"]["wins"] == 0 and "raw" not in rss
    assert got["ops_per_s"] == {"better": "higher"}  # no run reports it


def make_tree(root):
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "src" / "pkg" / "mod.py").write_text("x = 1\n")
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text("pass\n")
    return root


def test_tree_identity_hashes_the_sources(tmp_path):
    tree = make_tree(tmp_path / "tree")
    first = bench_snapshot.tree_identity(tree)
    assert first["git_commit"] is None and first["git_dirty"] is None
    assert len(first["tree_sha256"]) == 64
    (tree / "src" / "pkg" / "__pycache__").mkdir()
    (tree / "src" / "pkg" / "__pycache__" / "mod.cpython-311.pyc").write_bytes(
        b"\0")
    (tree / "notes.txt").write_text("outside src/ and perfbench/")
    assert bench_snapshot.tree_identity(tree) == first
    (tree / "src" / "pkg" / "mod.py").write_text("x = 2\n")
    assert bench_snapshot.tree_identity(tree)["tree_sha256"] != (
        first["tree_sha256"])
    here = bench_snapshot.tree_identity(bench_snapshot.ROOT)
    assert here["git_commit"] and isinstance(here["git_dirty"], bool)


def test_paired_snapshot_writes_both_files(monkeypatch, tmp_path):
    after = make_tree(tmp_path / "after")
    before = make_tree(tmp_path / "before")
    (before / "src" / "pkg" / "mod.py").write_text("x = 0\n")
    monkeypatch.setattr(bench_snapshot, "ROOT", after)
    monkeypatch.setattr(bench_snapshot, "run_json",
                        fake_paired_runner([], before))
    env = {"python": "3", "numpy": "2"}
    monkeypatch.setattr(bench_snapshot, "environment",
                        lambda root: {**env, **bench_snapshot.tree_identity(
                            root)})
    monkeypatch.setattr(bench_snapshot, "cli_steps",
                        lambda roots: [{"step": k} for k in range(len(roots))])
    monkeypatch.setattr(bench_snapshot, "startup",
                        lambda roots: [{"floor": k} for k in range(len(roots))])
    monkeypatch.setattr(bench_snapshot, "tier1", lambda root: {"root": str(root)})
    args = argparse.Namespace(tag="T", against=before, pairs=3)
    bench_snapshot.paired(args, [1], ["imd", "controller"],
                          {"op_p50_ms": "lower"})
    new = json.loads((after / "BENCH_T.json").read_text())
    old = json.loads((after / "BENCH_Tparent.json").read_text())
    assert new["tag"] == "T" and old["tag"] == "Tparent"
    assert new["environment"]["tree_sha256"] == (
        bench_snapshot.tree_identity(after)["tree_sha256"])
    assert old["environment"]["tree_sha256"] == (
        bench_snapshot.tree_identity(before)["tree_sha256"])
    assert new["environment"]["tree_sha256"] != old["environment"]["tree_sha256"]
    assert (new["cli_steps"], old["cli_steps"]) == ({"step": 0}, {"step": 1})
    assert (new["startup"], old["startup"]) == ({"floor": 0}, {"floor": 1})
    assert old["tier1"] == {"root": str(before)}
    assert "pairs" not in old
    block = new["pairs"]
    assert block["against"]["tag"] == "Tparent"
    assert block["against"]["tree_sha256"] == old["environment"]["tree_sha256"]
    assert block["pairs_per_seed"] == 3
    imd = block["workloads"]["imd"]
    assert [o["first"] for o in imd["order"]] == ["after", "before", "after"]
    assert imd["metrics"]["op_p50_ms"]["scaled"]["ratios"] == [0.75, 0.75, 1.25]
    # the second workload is led by the other tree
    ctl = block["workloads"]["controller"]
    assert [o["first"] for o in ctl["order"]] == ["before", "after", "before"]
    for snap in (new, old):
        assert len(snap["workloads"]["imd"]["runs"]) == 3
        assert len(snap["workloads"]["controller"]["runs"]) == 3
