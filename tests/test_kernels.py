"""The two-thread split of long blocks (``kernels.halves``): the same bits as
one pass, the caller's floating-point error handling in the worker, a joined
worker on every exit, and a fresh worker after ``os.fork``; and a two-tone
``simulate`` whose bits do not depend on the BLAS build."""
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import hfpa
from hfpa import kernels
from hfpa.measure import measure_imd
from hfpa.pamodel import BiasPoint, PaParams, saturated_swing, simulate
from hfpa.signalgen import IqBlock, Kind, WaveformSpec, generate

FS = 1.0e6
BIAS = BiasPoint(vdd=58.0, idq=2.0)
PARAMS = PaParams(g0=40.0, rload=0.4, shape_beta=3.0, shape_exp=8.0,
                  shape_sat=20.0)
SPLIT_MIN = kernels.SPLIT_MIN
#: Below, at and above ``SPLIT_MIN``; 131073 splits unevenly and is past
#: ``signalgen.CACHE_MAX_SAMPLES``.
LENGTHS = (SPLIT_MIN - 1, SPLIT_MIN, 131072, 131073)


def two_tone(n, amplitude):
    return generate(WaveformSpec(kind=Kind.TWO_TONE, amplitude=amplitude,
                                 duration_s=n / FS, f1_hz=-1000.0,
                                 f2_hz=1000.0), FS)


def point_bits(block):
    """``simulate`` then ``measure_imd``: output bytes and every float's hex."""
    out, stats = simulate(block, BIAS, PARAMS)
    levels = [p.level_dbc for p in measure_imd(out, -1000.0, 1000.0).products]
    fields = (stats.pout_w, stats.pdc_w, stats.eff, stats.pdiss_w,
              stats.gain_db)
    return out.samples.tobytes(), [v.hex() for v in fields + tuple(levels)]


@pytest.fixture
def two_cpus(monkeypatch):
    """Split as on a multi-core host, and count the worker's halves."""
    monkeypatch.setattr(kernels, "_cpu_count", lambda: 2)
    worker_halves = []
    in_errstate = kernels._in_errstate

    def counted(*args):
        worker_halves.append(threading.current_thread().name)
        in_errstate(*args)

    monkeypatch.setattr(kernels, "_in_errstate", counted)
    return worker_halves


@pytest.mark.parametrize("n", LENGTHS)
def test_split_and_serial_give_the_same_bits(n, two_cpus, monkeypatch):
    # never split, split as shipped, and split at every length
    for amplitude in (0.3, 1.2):
        block = two_tone(n, amplitude)
        got = {}
        for split_min in (n + 1, SPLIT_MIN, 2):
            monkeypatch.setattr(kernels, "SPLIT_MIN", split_min)
            del two_cpus[:]
            got[split_min] = point_bits(block)
            # simulate's three passes and measure_imd's two
            assert len(two_cpus) == (5 if n >= split_min else 0)
        assert got[SPLIT_MIN] == got[n + 1]
        assert got[2] == got[n + 1]


def test_the_worker_is_one_thread_of_its_own(two_cpus):
    point_bits(two_tone(131072, 0.5))
    assert len(set(two_cpus)) == 1
    assert two_cpus[0] != threading.current_thread().name


def test_one_cpu_runs_serially(monkeypatch):
    monkeypatch.setattr(kernels, "_cpu_count", lambda: 1)
    calls = []
    monkeypatch.setattr(kernels, "_in_errstate",
                        lambda *args: calls.append(args))
    point_bits(two_tone(131072, 0.5))
    assert calls == []


@pytest.mark.parametrize("varying", [False, True])
def test_an_overflowing_block_saturates_without_a_warning(varying, two_cpus):
    # g*|x| overflows; the worker's halves must ignore it as simulate's
    # caller does, or the error filter would raise it. A constant block's law
    # is evaluated once, so only its |x| and output passes split.
    n = 131072
    x = np.full(n, 1e307 + 0j)
    if varying:
        x[::2] = 5e306
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, stats = simulate(IqBlock(x, FS), BIAS, PaParams(g0=40.0))
    a_sat = saturated_swing(BIAS, PaParams(g0=40.0))
    assert len(two_cpus) == (3 if varying else 2)
    assert np.all(np.isfinite(out.samples))
    np.testing.assert_allclose(out.samples, a_sat, rtol=1e-15)
    assert stats.gain_db is None


def test_the_caller_errstate_reaches_the_worker(two_cpus):
    # only the worker's half overflows; under the default errstate it would
    # warn instead of raising, and warn where the caller ignores
    row = np.ones(SPLIT_MIN)
    row[SPLIT_MIN // 2:] = 1e300
    out = np.empty_like(row)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                kernels.halves(np.multiply, (row, row, out))
        with np.errstate(over="ignore"):
            kernels.halves(np.multiply, (row, row, out))
    assert np.all(out[:SPLIT_MIN // 2] == 1.0)
    assert np.all(out[SPLIT_MIN // 2:] == np.inf)
    assert len(two_cpus) == 2


def test_the_worker_has_finished_when_the_caller_raises(two_cpus):
    caller = threading.current_thread()
    finished = []

    def fn(row):
        if threading.current_thread() is caller:
            raise ValueError("caller's half")
        time.sleep(0.2)
        row[:] = 1.0
        finished.append(True)

    row = np.zeros(SPLIT_MIN)
    with pytest.raises(ValueError, match="caller's half"):
        kernels.halves(fn, (row,))
    assert finished == [True]
    assert np.all(row[SPLIT_MIN // 2:] == 1.0)


def test_the_worker_exception_surfaces(two_cpus):
    caller = threading.current_thread()

    def fn(row):
        if threading.current_thread() is not caller:
            raise KeyError("worker's half")
        row[:] = 2.0

    row = np.zeros(SPLIT_MIN)
    with pytest.raises(KeyError, match="worker's half"):
        kernels.halves(fn, (row,))
    assert np.all(row[:SPLIT_MIN // 2] == 2.0)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_completes_a_large_simulate(two_cpus):
    block = two_tone(131072, 0.8)
    want = point_bits(block)  # the parent's worker now runs
    assert kernels._worker[0] == os.getpid()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report, then leave without pytest's teardown
        status = 1
        try:
            ok = (point_bits(block) == want
                  and kernels._worker[0] == os.getpid() and len(two_cpus) > 5)
            os.write(write, b"ok" if ok else b"differs")
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    deadline = time.monotonic() + 60.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung")
        time.sleep(0.05)
    with os.fdopen(read, "rb") as fh:
        assert fh.read() == b"ok"
    assert os.waitstatus_to_exitcode(status) == 0


def child_env(**extra):
    src = str(Path(hfpa.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for key in ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE",
                "OPENBLAS_VERBOSE"):
        env.pop(key, None)
    env.update(extra, OPENBLAS_VERBOSE="2")
    return env


CHILD_STATS = """\
from hfpa.pamodel import BiasPoint, PaParams, simulate
from hfpa.signalgen import Kind, WaveformSpec, generate
block = generate(WaveformSpec(kind=Kind.TWO_TONE, amplitude=0.8,
                              duration_s=0.131072, f1_hz=-1000.0,
                              f2_hz=1000.0), 1e6)
_, s = simulate(block, BiasPoint(vdd=58.0, idq=2.0),
                PaParams(g0=40.0, rload=0.4, shape_beta=3.0, shape_exp=8.0,
                         shape_sat=20.0))
print(*(v.hex() for v in (s.pout_w, s.pdc_w, s.eff, s.pdiss_w, s.gain_db)))
"""


def run_child(**extra):
    """The child's ``PaStats`` as hex, and OpenBLAS's core line or None."""
    done = subprocess.run([sys.executable, "-c", CHILD_STATS], check=True,
                          env=child_env(**extra), capture_output=True,
                          text=True, timeout=120)
    core = [line for line in done.stderr.splitlines()
            if line.startswith("Core:")]
    return done.stdout.split(), core[0] if core else None


@pytest.mark.parametrize("setting", [{"OPENBLAS_NUM_THREADS": "1"},
                                     {"OPENBLAS_CORETYPE": "Prescott"}])
def test_two_tone_stats_do_not_depend_on_the_blas_build(setting):
    want, default_core = run_child()
    got, core = run_child(**setting)
    if core is None:
        pytest.skip("numpy's BLAS is not OpenBLAS, or does not say its core")
    if "OPENBLAS_CORETYPE" in setting and core == default_core:
        pytest.skip("this OpenBLAS build ignores OPENBLAS_CORETYPE")
    assert got == want
    # and the parent's bits, from this process's default setting
    _, stats = simulate(two_tone(131072, 0.8), BIAS, PARAMS)
    assert want == [v.hex() for v in (stats.pout_w, stats.pdc_w, stats.eff,
                                      stats.pdiss_w, stats.gain_db)]


def test_import_starts_no_thread():
    code = ("import sys, threading, hfpa; "
            "print('concurrent.futures' in sys.modules, "
            "threading.active_count())")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         env=child_env(), capture_output=True, text=True,
                         timeout=120).stdout
    assert out.split() == ["False", "1"]
