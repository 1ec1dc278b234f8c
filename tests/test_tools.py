"""Smoke tests of the evidence scripts under ``tools/``, so that a change to
the package cannot leave them broken unnoticed."""
import argparse
import importlib.util
import json
import os
import subprocess
from pathlib import Path

import numpy as np
import pytest

from hfpa import cli

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


cli_artifacts = load_tool("cli_artifacts")
bench_snapshot = load_tool("bench_snapshot")


GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_artifacts.json"


def test_cli_artifacts_match_the_golden_manifest(tmp_path, monkeypatch,
                                                 capsys):
    # the walkthrough of tools/cli_artifacts.py, in process: its bits are
    # the round's fixed behaviour, pinned on the host that wrote them
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    host = cli_artifacts.host_key()
    if host != golden["host"]:
        pytest.skip(f"manifest pinned on {golden['host']}, this host is {host}")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", cli_artifacts.HELP_COLUMNS)
    cli_artifacts.write_inputs(tmp_path)
    for name, args in cli_artifacts.STEPS:
        try:
            code = cli.main(args)
        except SystemExit as exc:  # --help
            code = exc.code
        out, err = capsys.readouterr()
        cli_artifacts.record(tmp_path, name, code, out, err)
    got = cli_artifacts.manifest(tmp_path)
    assert got["exit"] == golden["exit"]
    differ = sorted(name for name in golden["files"].keys() | got["files"]
                    if golden["files"].get(name) != got["files"].get(name))
    assert not differ, f"{len(differ)} files differ, first {differ[:5]}"


@pytest.mark.parametrize("name, args", cli_artifacts.STEPS,
                         ids=[name for name, _ in cli_artifacts.STEPS])
def test_cli_artifact_step_parses(name, args, capsys):
    parser = cli.build_parser()
    if args[-1] != "--help":
        assert parser.parse_args(args).command == args[0]
        return
    with pytest.raises(SystemExit) as err:
        parser.parse_args(args)
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith(
        " ".join(["usage: hfpa", *args[:-1]]))


def test_cli_artifacts_take_the_help_of_every_subcommand():
    action = next(a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    assert cli_artifacts.SUBCOMMANDS == tuple(action.choices)


def test_bench_snapshot_records_the_environment():
    env = bench_snapshot.environment(bench_snapshot.ROOT)
    assert env["numpy"] == np.__version__
    assert env["nproc"] >= 1 and env["python"]


def fake_paired_runner(calls, before_root):
    """A ``run_json`` stub for two trees: the tree is read from the run.py
    path; the before tree's op_p50_ms is 2.0 scaled and 3.0 raw, the after
    tree's 1.5 and 2.7 except in its fourth run (the third after its
    warm-up), where it is 2.5 and 3.3;
    peak_rss_mb is 40 + seed scaled and 30 + seed raw on both trees, and
    setup_s has no raw value. Every run must last 20 s."""
    counts = {"after": 0, "before": 0}

    def run_json(cmd):
        side = ("before" if Path(cmd[1]).parent.parent == before_root
                else "after")
        seed, trace = int(cmd[cmd.index("--seed") + 1]), cmd[-1]
        assert cmd[cmd.index("--seconds") + 1] == "20"
        calls.append((side, seed, trace))
        if trace == "1":
            return ({"tracing": {"overhead": 1.2}},
                    {"correct": True, "attempted": 5, "failed": 0,
                     "metrics": {"trace.ops": {"value": 5, "unit": "count"}}})
        counts[side] += 1
        slow = side == "before" or counts[side] == 4
        scaled, raw = ((2.0, 3.0) if side == "before"
                       else (2.5, 3.3) if slow else (1.5, 2.7))
        return ({"raw": {"op_p50_ms": raw, "setup_s": None,
                         "peak_rss_mb": 30.0 + seed},
                 "slowdown": 1.0, "problems": []},
                {"correct": True, "attempted": 4, "failed": 1,
                 "metrics": {"op_p50_ms": {"value": scaled, "unit": "ms"},
                             "peak_rss_mb": {"value": 40.0 + seed,
                                             "unit": "MB"}}})
    return run_json


def test_paired_runs_alternate_and_give_the_ratios(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(bench_snapshot, "run_json",
                        fake_paired_runner(calls, tmp_path))
    trees = {"after": bench_snapshot.ROOT, "before": tmp_path}
    sides, log = bench_snapshot.paired_bench("controller", [1, 7], 2, trees)
    runs = [(side, seed) for side, seed, trace in calls if trace == "0"]
    # a discarded warm-up run of each tree, on the first seed, then the pairs
    assert runs == [("after", 1), ("before", 1),
                    ("after", 1), ("before", 1), ("before", 1), ("after", 1),
                    ("after", 7), ("before", 7), ("before", 7), ("after", 7)]
    assert log == [{"seed": 1, "first": "after"}, {"seed": 1, "first": "before"},
                   {"seed": 7, "first": "after"}, {"seed": 7, "first": "before"}]
    assert [c for c in calls if c[2] == "1"] == [("after", 1, "1"),
                                                 ("before", 1, "1")]

    for side in ("after", "before"):
        assert [r["seed"] for r in sides[side]["runs"]] == [1, 1, 7, 7]
        summary = sides[side]["summary"]
        assert (summary["attempted"], summary["failed"]) == (16, 4)
        assert summary["metrics"]["peak_rss_mb"] == {"median": 44.0,
                                                     "min": 41.0}
        assert summary["raw"]["peak_rss_mb"] == {"median": 34.0, "min": 31.0}
        assert "setup_s" not in summary["raw"]  # no run has a value
        assert sides[side]["trace"] == {"seed": 1, "correct": True,
                                        "metrics": {"trace.ops": 5},
                                        "overhead": 1.2}

    calls.clear()
    bench_snapshot.paired_bench("controller", [1], 2, trees, 1)
    assert [c[0] for c in calls] == ["before", "after", "before", "after",
                                     "after", "before", "before", "after"]
    assert [c[2] for c in calls] == ["0"] * 6 + ["1", "1"]

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
    assert rss["scaled"]["ratios"] == [1.0] * 4 and rss["scaled"]["wins"] == 0
    assert rss["raw"]["wins"] == 0
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


def test_tree_identity_is_dirty_only_for_the_sources(tmp_path):
    tree = make_tree(tmp_path / "tree")
    (tree / "NOTES.md").write_text("text\n")

    def git(*args):
        subprocess.run(["git", "-C", str(tree), "-c", "user.name=t",
                        "-c", "user.email=t@t", *args], check=True,
                       capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "tree")
    assert bench_snapshot.tree_identity(tree)["git_dirty"] is False
    (tree / "NOTES.md").write_text("edited\n")
    assert bench_snapshot.tree_identity(tree)["git_dirty"] is False
    (tree / "perfbench" / "run.py").write_text("pass  # edited\n")
    assert bench_snapshot.tree_identity(tree)["git_dirty"] is True


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
                        lambda trees: {s: {"step": str(t)}
                                       for s, t in trees.items()})
    floors = {"after": [0.5, 0.25, 1.0], "before": [1.0, 1.0, 0.5]}
    monkeypatch.setattr(bench_snapshot, "startup", lambda trees: {
        s: {"psu-read --help": {"runs": floors[s]}} for s in trees})
    monkeypatch.setattr(bench_snapshot, "tier1", lambda root: {"root": str(root)})
    (after / "bench").mkdir()
    args = argparse.Namespace(tag="T", against=before, pairs=3)
    bench_snapshot.paired(args, [1], ["imd", "controller"],
                          {"op_p50_ms": "lower"})
    new = json.loads((after / "bench" / "BENCH_T.json").read_text())
    old = json.loads((after / "bench" / "BENCH_Tparent.json").read_text())
    assert new["tag"] == "T" and old["tag"] == "Tparent"
    assert new["environment"]["tree_sha256"] == (
        bench_snapshot.tree_identity(after)["tree_sha256"])
    assert old["environment"]["tree_sha256"] == (
        bench_snapshot.tree_identity(before)["tree_sha256"])
    assert new["environment"]["tree_sha256"] != old["environment"]["tree_sha256"]
    assert (new["cli_steps"], old["cli_steps"]) == ({"step": str(after)},
                                                    {"step": str(before)})
    assert (new["startup"], old["startup"]) == (
        {"psu-read --help": {"runs": floors["after"]}},
        {"psu-read --help": {"runs": floors["before"]}})
    assert old["tier1"] == {"root": str(before)}
    assert "pairs" not in old
    block = new["pairs"]
    # the start-up rows pair repeat by repeat, on their wall times
    assert block["startup"] == {"psu-read --help": {
        "better": "lower",
        "raw": {"ratios": [0.5, 0.25, 2.0], "median": 0.5, "q1": 0.375,
                "q3": 1.25, "wins": 2, "pairs": 3},
        "after": {"median": 0.5, "q1": 0.375, "q3": 0.75},
        "before": {"median": 1.0, "q1": 0.75, "q3": 1.0}}}
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


@pytest.mark.parametrize("argv", [
    ["--tag", "T"],  # a snapshot is always a pair
    ["--tag", "T", "--against", str(bench_snapshot.ROOT)],
    ["--tag", "T", "--against", str(bench_snapshot.ROOT / "tools" / "..")],
], ids=["no-against", "this-checkout", "this-checkout-via-dotdot"])
def test_snapshot_needs_another_checkout(monkeypatch, capsys, argv):
    def never(*args):
        raise AssertionError("a snapshot was started")

    for name in ("paired", "snapshot_head", "run_json"):
        monkeypatch.setattr(bench_snapshot, name, never)
    with pytest.raises(SystemExit) as err:
        bench_snapshot.main(argv)
    assert err.value.code == 2
    assert "--against" in capsys.readouterr().err


def test_cli_steps_and_startup_take_turns_per_repeat(monkeypatch, tmp_path):
    trees = {"after": bench_snapshot.ROOT, "before": make_tree(tmp_path)}
    side_of = {str(root / "src"): side for side, root in trees.items()}
    steps = []

    def run_steps(workdir, environ):
        steps.append(side_of[environ["PYTHONPATH"].split(os.pathsep)[0]])
        yield "gen", argparse.Namespace(returncode=0), 0.5
        yield "calibrate", argparse.Namespace(returncode=1), 1.5

    monkeypatch.setattr(cli_artifacts, "run_steps", run_steps)
    monkeypatch.setattr(cli_artifacts, "STEPS", [("gen", []), ("calibrate", [])])
    monkeypatch.setattr(cli_artifacts, "EXPECTED_EXIT", {"calibrate": 1})
    monkeypatch.setattr(bench_snapshot, "load_cli_artifacts",
                        lambda: cli_artifacts)
    got = bench_snapshot.cli_steps(trees)
    assert steps == ["after", "before", "before", "after", "after", "before"]
    assert got["before"] == {
        "gen": {"median": 0.5, "min": 0.5, "exit": [0], "expected_exit": 0},
        "calibrate": {"median": 1.5, "min": 1.5, "exit": [1],
                      "expected_exit": 1}}

    runs = []

    def run(cmd, cwd, env, check, stdout):
        runs.append((cmd[1:], side_of[env["PYTHONPATH"].split(os.pathsep)[0]]))
        assert cwd == trees[runs[-1][1]]
        assert stdout is subprocess.DEVNULL

    monkeypatch.setattr(bench_snapshot.subprocess, "run", run)
    got = bench_snapshot.startup(trees)
    per_code = bench_snapshot.STARTUP_REPEATS
    assert len(runs) == 2 * per_code * len(bench_snapshot.STARTUP)
    for k, (_, code) in enumerate(bench_snapshot.STARTUP):
        turns = runs[2 * per_code * k:2 * per_code * (k + 1)]
        assert [c for c, _ in turns] == [code] * 2 * per_code
        assert [side for _, side in turns] == (
            ["after", "before", "before", "after"] * per_code)[:2 * per_code]
    assert set(got) == {"after", "before"}
    assert set(got["after"]) == {label for label, _ in bench_snapshot.STARTUP}
    assert all(len(row["runs"]) == per_code for row in got["after"].values())


def stub_pair_file(path):
    """A pair file with only what ``--table`` reads: two workloads, the
    first with two metrics, the second with one and no raw ratio, and one
    start-up row, against a clean parent from a dirty change."""
    def metric(before, after, scaled, raw, spread=2.0):
        entry = {"better": "lower",
                 "before": {"median": before, "q1": before - spread / 2,
                            "q3": before + spread / 2},
                 "after": {"median": after}, "scaled": scaled}
        if raw is not None:
            entry["raw"] = raw
        return entry

    ratio = {"ratios": [0.9] * 9 + [1.1], "median": 0.9, "q1": 0.85,
             "q3": 0.95, "wins": 9, "pairs": 10}
    snapshot = {
        "environment": {"git_commit": "b" * 40, "git_dirty": True},
        "pairs": {
            "against": {"tag": "xparent", "git_commit": "a" * 40,
                        "git_dirty": False},
            "workloads": {
                "calibrate": {
                    "order": [{"seed": s, "first": f} for s, f in
                              ((7, "after"), (7, "before"), (2, "after"))],
                    "metrics": {
                        "op_p50_ms": metric(53.7, 48.25, ratio, dict(
                            ratio, median=0.912, wins=8)),
                        "peak_rss_mb": metric(57.61, 54.7, dict(
                            ratio, median=0.9495, wins=10), None)}},
                "imd": {"order": [{"seed": 1, "first": "before"}],
                        "metrics": {"op_p50_ms": metric(8.1234, 8.2, dict(
                            ratio, ratios=[1.0126], median=1.0126, q1=1.0,
                            q3=1.025, wins=0, pairs=1), None, 0.05)}}},
            "startup": {"python -m hfpa psu-read --help": {
                "better": "lower",
                "before": {"median": 0.25, "q1": 0.24, "q3": 0.26},
                "after": {"median": 0.08},
                "raw": dict(ratio, median=0.32, q1=0.3, q3=0.34, wins=8)}}}}
    path.write_text(json.dumps(snapshot), encoding="utf-8")
    return path


def test_table_prints_a_row_per_workload_of_a_pair_file(monkeypatch, capsys,
                                                         tmp_path):
    def never(*args):
        raise AssertionError("a snapshot was started")

    for name in ("paired", "snapshot_head", "run_json"):
        monkeypatch.setattr(bench_snapshot, name, never)
    path = stub_pair_file(tmp_path / "BENCH_x.json")
    assert bench_snapshot.main(["--table", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == bench_snapshot.TABLE_HEADER.splitlines()
    assert lines[2:] == [
        "| `BENCH_x.json` | aaaaaaa → bbbbbbb* | calibrate, 2,7, 3 "
        "| op_p50_ms | 53.7 → 48.25 | 0.900 [0.850, 0.950] "
        "| 0.912 [0.850, 0.950] | 9/10, 8/10 | resolved better |",
        "| `BENCH_x.json` | aaaaaaa → bbbbbbb* | calibrate, 2,7, 3 "
        "| peak_rss_mb | 57.61 → 54.7 | 0.950 [0.850, 0.950] | — "
        "| 10/10, — | resolved better |",
        "| `BENCH_x.json` | aaaaaaa → bbbbbbb* | imd, 1, 1 "
        "| op_p50_ms | 8.123 → 8.2 | 1.013 [1.000, 1.025] | — | 0/1, — "
        "| resolved worse |",
        "| `BENCH_x.json` | aaaaaaa → bbbbbbb* | startup, —, 10 "
        "| python -m hfpa psu-read --help | 0.25 → 0.08 | — "
        "| 0.320 [0.300, 0.340] | —, 8/10 | not resolved |"]


def verdict_entry(better, wins, losses, before, after, spread):
    ratios = ([0.9 if better == "lower" else 1.1] * wins
              + [1.1 if better == "lower" else 0.9] * losses
              + [1.0] * (10 - wins - losses))
    return {"better": better,
            "scaled": {"ratios": ratios, "wins": wins, "pairs": 10},
            "before": {"median": before, "q1": before - spread / 2,
                       "q3": before + spread / 2},
            "after": {"median": after}}


@pytest.mark.parametrize("better, wins, losses, before, after, spread, want", [
    ("lower", 9, 1, 2.0, 1.5, 0.4, "resolved better"),
    ("lower", 10, 0, 2.0, 1.5, 0.5, "not resolved"),  # gap = the spread
    ("lower", 8, 0, 2.0, 1.5, 0.1, "not resolved"),  # 8 of 10
    ("lower", 0, 9, 2.0, 2.5, 0.4, "resolved worse"),
    ("lower", 9, 0, 2.0, 2.5, 0.4, "not resolved"),  # medians the other way
    ("higher", 9, 0, 10.0, 12.0, 1.0, "resolved better"),
    ("higher", 1, 9, 10.0, 8.0, 1.0, "resolved worse"),
])
def test_verdict_takes_nine_of_ten_pairs_and_a_gap_past_the_spread(
        better, wins, losses, before, after, spread, want):
    entry = verdict_entry(better, wins, losses, before, after, spread)
    assert bench_snapshot.verdict(entry, "scaled") == want
    assert bench_snapshot.verdict(entry, "raw") == "—"


def test_table_gives_the_verdict_of_a_stubbed_paired_run(monkeypatch,
                                                         tmp_path):
    # the stub's after tree wins 9 of 10 op_p50_ms pairs by 0.5 ms against
    # a parent with no spread; peak_rss_mb is equal on both trees
    after = make_tree(tmp_path / "after")
    before = make_tree(tmp_path / "before")
    (after / "bench").mkdir()
    monkeypatch.setattr(bench_snapshot, "ROOT", after)
    monkeypatch.setattr(bench_snapshot, "run_json",
                        fake_paired_runner([], before))
    monkeypatch.setattr(bench_snapshot, "environment",
                        bench_snapshot.tree_identity)
    for name in ("cli_steps", "startup"):
        monkeypatch.setattr(bench_snapshot, name, lambda trees: {
            s: {"row": {"runs": [1.0] * 10}} for s in trees})
    monkeypatch.setattr(bench_snapshot, "tier1", lambda root: {})
    args = argparse.Namespace(tag="T", against=before, pairs=10)
    bench_snapshot.paired(args, [1], ["imd"], {"op_p50_ms": "lower",
                                               "peak_rss_mb": "lower"})
    rows = bench_snapshot.table_rows(after / "bench" / "BENCH_T.json")
    assert [row.rsplit(" | ", 2)[-2:] for row in rows] == [
        ["9/10, 9/10", "resolved better |"],
        ["0/10, 0/10", "not resolved |"],
        ["—, 0/10", "not resolved |"]]


def test_table_refuses_a_file_without_pairs(capsys, tmp_path):
    path = tmp_path / "BENCH_xparent.json"
    path.write_text(json.dumps({"environment": {}}), encoding="utf-8")
    assert bench_snapshot.main(["--table", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: no pairs block")


def committed_pair_files():
    """Every ``bench/BENCH_*.json`` with a ``pairs`` block."""
    paths = sorted((bench_snapshot.ROOT / "bench").glob("BENCH_*.json"))
    return [p for p in paths
            if "pairs" in json.loads(p.read_text(encoding="utf-8"))]


@pytest.mark.parametrize("path", committed_pair_files(),
                         ids=lambda p: p.name)
def test_every_committed_pair_file_prints_its_rows(path):
    # CHANGES.md and ROADMAP.md cite these rows, so a format change to the
    # tool must keep reading every file they come from
    block = json.loads(path.read_text(encoding="utf-8"))["pairs"]
    cells = [(workload, metric)
             for workload, record in block["workloads"].items()
             for metric in record["metrics"]]
    cells += [("startup", label) for label in block.get("startup", {})]
    rows = bench_snapshot.table_rows(path)
    assert len(rows) == len(cells) >= 1
    for row, (workload, metric) in zip(rows, cells):
        assert row.startswith(f"| `{path.name}` | ")
        assert f" | {workload}, " in row
        assert f" | {metric} | " in row
        assert row.endswith((" | resolved better |", " | resolved worse |",
                             " | not resolved |", " | — |"))
