"""Tests of the benchmark itself: seeded inputs, metric names and units, the
output checks, and outputs left bit-identical by the tracing wrappers.

Run from the repository root: ``python -m pytest perfbench``.
"""
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pytest  # noqa: E402

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hfpa import calibrate, measure, pamodel  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
OPS = {"calibrate": 2, "controller": 60, "imd": 4}
USED_LAYERS = {
    "calibrate": ("calibrate.default_init", "calibrate.fit",
                  "calibrate.objective", "measure.sweep_bias",
                  "measure.drive_for_pout", "measure.simulate_cw",
                  "pamodel.simulate", "kernels.pa_pipeline"),
    "controller": ("signalgen.generate", "biasctl.BiasController.process",
                   "biasctl.classify_envelope", "biasctl.command_for_mode",
                   "psusim.encode", "psusim.decode",
                   "psusim.PsuSim.handle_wire"),
    "imd": ("signalgen.generate", "pamodel.simulate", "kernels.pa_pipeline",
            "measure.measure_imd"),
}


def run_ops(name, seed=5):
    workload = workloads.WORKLOADS[name]
    session = workload.session()
    inputs = list(itertools.islice(workload.inputs(seed), OPS[name]))
    return inputs, [workload.op(session, inp) for inp in inputs]


@pytest.fixture(scope="module")
def plain_runs():
    return {name: run_ops(name) for name in workloads.WORKLOADS}


def bench_run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "2", "--seconds", "0.3", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_lists_every_workload():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    def first(seed):
        return repr(list(itertools.islice(
            workloads.WORKLOADS[name].inputs(seed), 40)))
    assert first(3) == first(3)
    assert first(3) != first(4)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_operation_count_follows_seconds_not_the_clock(name):
    workload = workloads.WORKLOADS[name]
    assert run.op_count(workload, 20.0) == run.op_count(workload, 20.0)
    assert run.op_count(workload, 40.0) >= 2 * run.op_count(workload, 20.0) - 1
    assert run.op_count(workload, 1e-9) == 1


def test_speed_probe_is_independent_of_the_package():
    assert not any(getattr(v, "__name__", "").startswith("hfpa")
                   for v in vars(speed).values())
    probe = speed.SpeedProbe()
    unit_s = probe.probe()
    assert unit_s > 0.0 and probe.probes == [unit_s]
    nominal = speed.NOMINAL_UNIT_S
    assert probe.scale(nominal, nominal) == 1.0
    assert probe.scale(2 * nominal, 2 * nominal) == 0.5


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_reported_with_its_unit(trace, key):
    proc = bench_run("controller", trace)
    assert proc.returncode == 0, proc.stderr
    report, result = (json.loads(line)
                      for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in BENCH[key]}
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    assert report["environment"]["fit_budget"] == workloads.FIT_BUDGET
    if trace:
        assert report["tracing"]["absent_layers"] == []


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_run("imd", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_leaves_outputs_bit_identical(name, plain_runs):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, traced = run_ops(name)
    finally:
        tracer.uninstall()
    assert repr(traced) == repr(plain_runs[name][1])
    assert tracer.absent == []
    for layer in USED_LAYERS[name]:
        assert tracer.calls[layer] > 0, layer
        assert 0.0 <= tracer.self_time[layer] <= tracer.busy[layer]
    assert not hasattr(pamodel.simulate, "__wrapped__")
    assert measure.simulate is pamodel.simulate


def check_all(name, inputs, digests):
    checker = workloads.WORKLOADS[name].checker()
    statuses = [checker.check(inp, d) for inp, d in zip(inputs, digests)]
    for i, status in checker.finish().items():
        statuses[i] = status
    return statuses


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checks_pass_real_outputs(name, plain_runs):
    statuses = check_all(name, *plain_runs[name])
    assert statuses[0] == "pass"
    assert set(statuses) <= {"pass", "miss"}


def tampered(digest, index, value):
    return digest[:index] + (value,) + digest[index + 1:]


@pytest.mark.parametrize("name, index, value", [
    ("calibrate", 2, ((0.0, 0.0),) * 3),     # per-anchor errors
    ("controller", 3, "Compression"),         # mode in the first window
    ("controller", 5, 0.5),                   # linear idq
    ("imd", 2, 1.5),                          # efficiency
    ("imd", 6, 3.0),                          # IMD3 above the carrier
])
def test_checks_flag_a_wrong_output(name, index, value, plain_runs):
    inputs, digests = plain_runs[name]
    bad = [tampered(digests[0], index, value)] + digests[1:]
    assert check_all(name, inputs, bad)[0].startswith("wrong")


def test_imd_check_flags_imd3_falling_with_drive():
    inputs = [(58.0, 2.0, -20.0), (58.0, 2.0, -3.0)]
    digests = [(0.0, 1.0, 0.5, 0.5, 30.0, (), -60.0),
               (0.0, 1.0, 0.5, 0.5, 30.0, (), -61.0)]
    assert check_all("imd", inputs, digests)[1].startswith("wrong")


def test_frozen_params_reproduce_the_reference_table():
    errs = workloads._anchor_errors(workloads.fitted_params(),
                                    calibrate.REFERENCE_ANCHORS)
    assert all(abs(g) <= workloads.GAIN_TOL_DB and abs(e) <= workloads.EFF_TOL_PP
               for g, e in errs)
