"""Smoke tests of the evidence scripts under ``tools/``, so that a change to
the package cannot leave them broken unnoticed."""
import importlib.util
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
