"""The two-thread split of long blocks (``kernels.halves``): the same bits as
one pass, part sums that join to the bits of one reduction, the caller's
floating-point error handling in the worker, a joined worker on every exit,
a second caller's part queued behind the first's, no view of the rows kept
after a split, and a fresh worker after ``os.fork``; a two-tone
``simulate`` whose bits do not depend on the BLAS build; the retention
rule of ``kernels.workspace``; and the one-pass Rapp limiter, with the bits
of the trap-and-redo form it replaced."""
import json
import os
import subprocess
import sys
import threading
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import hfpa
from hfpa import kernels, measure
from hfpa.measure import measure_imd
from hfpa.pamodel import (BiasPoint, PaParams, gain_and_swing,
                          saturated_swing, simulate)
from hfpa.signalgen import (CACHE_MAX_SAMPLES, IqBlock, Kind, WaveformSpec,
                            generate)

FS = 1.0e6
BIAS = BiasPoint(vdd=58.0, idq=2.0)
PARAMS = PaParams(g0=40.0, rload=0.4, shape_beta=3.0, shape_exp=8.0,
                  shape_sat=20.0)
SPLIT_MIN = kernels.SPLIT_MIN
#: Below, at and above ``SPLIT_MIN``; 131073 splits unevenly and is past
#: ``signalgen.CACHE_MAX_SAMPLES``. 100000 has 125 DFT columns, so its
#: column halves are uneven (62/63); 65537 is prime: one column, which
#: ``halves`` does not split.
LENGTHS = (SPLIT_MIN - 1, SPLIT_MIN, 65537, 100000, 131072, 131073)


def two_tone(n, amplitude):
    return generate(WaveformSpec(kind=Kind.TWO_TONE, amplitude=amplitude,
                                 duration_s=n / FS, f1_hz=-1000.0,
                                 f2_hz=1000.0), FS)


def dft_columns(n):
    """``m``, the column count of ``measure._dft_bins`` at ``n`` samples."""
    return max(d for d in range(1, measure.DFT_COLUMNS + 1) if n % d == 0)


def point_bits(block):
    """``simulate`` then ``measure_imd``: output bytes and every float's hex."""
    out, stats = simulate(block, BIAS, PARAMS)
    levels = [p.level_dbc for p in measure_imd(out, -1000.0, 1000.0).products]
    fields = (stats.pout_w, stats.pdc_w, stats.eff, stats.pdiss_w,
              stats.gain_db)
    return out.samples.tobytes(), [v.hex() for v in fields + tuple(levels)]


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
            # pa_pipeline's law with |x| and the block sums, and
            # measure_imd's |x|^2 with its sum, its noise and window pass
            # and its column FFT, unless there is one column
            split = 4 if dft_columns(n) > 1 else 3
            assert len(two_cpus) == (split if n >= split_min else 0)
        assert got[SPLIT_MIN] == got[n + 1]
        assert got[2] == got[n + 1]


@pytest.mark.parametrize("n", [131072, 100000, 131071])  # m = 128, 125, 1
def test_split_column_fft_is_the_serial_in_place_fft(n, two_cpus):
    rng = np.random.default_rng(n)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    m = dft_columns(n)
    ks = np.array([0, 1, 999, n // 3, n - 1])
    cols = z.copy().reshape(n // m, m)
    np.fft.fft(cols, axis=0, out=cols)
    tw = np.exp(-2j * np.pi * ((ks[:, None] * np.arange(m)) % n) / n)
    want = np.add.reduce(cols[ks % (n // m)] * tw, axis=1)
    got = measure._dft_bins(z, ks)
    assert z.tobytes() == cols.tobytes()  # the column spectrum, in place
    assert got.tobytes() == want.tobytes()
    # one column is not split
    assert len(two_cpus) == (1 if m > 1 else 0)


#: ``n//2`` is not a multiple of 8 at these lengths, as it is at ``LENGTHS``.
UNALIGNED_HALVES = (65548, 131071)


@pytest.mark.parametrize("n", LENGTHS + UNALIGNED_HALVES)
def test_joined_part_sums_are_the_full_sum(n, two_cpus):
    # halves splits 1-D rows at numpy's pairwise point, so the parts' sums
    # add to the bits of one reduction; split at n//2, most rows of the
    # unaligned lengths differ
    rng = np.random.default_rng(n)
    for _ in range(20):
        row = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
        parts = kernels.halves(np.add.reduce, (row,))
        assert len(parts) == (2 if n >= SPLIT_MIN else 1)
        assert kernels.joined(parts) == np.add.reduce(row)
    assert len(two_cpus) == (20 if n >= SPLIT_MIN else 0)


def serial_bits(block, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(kernels, "SPLIT_MIN", len(block) + 1)
        return point_bits(block)


@pytest.mark.parametrize("kind", ["two_tone", "equal_endpoints", "constant"])
def test_long_blocks_split_and_give_the_serial_bits(kind, two_cpus,
                                                    monkeypatch):
    # from SPLIT_MIN samples up, the length alone picks the split law, with
    # |x| in the halves: a constant block too, and one whose endpoint
    # envelopes are equal
    n = 131072
    x = two_tone(n, 0.8).samples.copy()
    if kind == "constant":
        x[:] = 0.5 - 0.25j
    elif kind == "equal_endpoints":
        x[-1] = x[0]
    block = IqBlock(x, FS)
    want = serial_bits(block, monkeypatch)
    del two_cpus[:]
    simulate(block, BIAS, PARAMS)
    assert len(two_cpus) == 1
    assert point_bits(block) == want


def test_two_callers_at_once_give_the_serial_bits(two_cpus, monkeypatch):
    # more callers than the host's two cores, switching often: their parts
    # queue for the one worker thread and each gets the serial bits
    blocks = [two_tone(131072, a) for a in (0.4, 0.9, 1.3)]
    want = [serial_bits(b, monkeypatch) for b in blocks]
    point_bits(blocks[0])  # makes the pool
    del two_cpus[:]
    got = [[] for _ in blocks]
    start = threading.Barrier(len(blocks))

    def run(i):
        start.wait()
        for _ in range(4):
            got[i].append(point_bits(blocks[i]))

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(len(blocks))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w] * 4 for w in want]
    # every long block split (4 handoffs a point), and one thread ran all
    # the worker's parts
    assert len(two_cpus) == 3 * 4 * 4
    pool_threads = [t.name for t in threading.enumerate()
                    if t.name.startswith("hfpa-halves")]
    assert len(pool_threads) == 1 and set(two_cpus) == set(pool_threads)


def test_a_second_caller_hands_over_its_part_while_the_worker_is_busy(
        two_cpus):
    # A's worker part blocks until B's own part runs: B's worker part queues
    # behind A's, and B still gets two parts and the serial bits
    busy, release = threading.Event(), threading.Event()
    caller = threading.current_thread()

    def hold(row):
        if threading.current_thread() is not first:
            busy.set()
            assert release.wait(60)
        row[:] = 1.0

    def squares(x, out):
        if threading.current_thread() is caller:
            release.set()
        return np.add.reduce(np.multiply(x, x, out))

    held = np.zeros(SPLIT_MIN)
    x = np.random.default_rng(7).standard_normal(SPLIT_MIN + 5)
    out = np.empty_like(x)
    first = threading.Thread(target=kernels.halves, args=(hold, (held,)))
    first.start()
    try:
        assert busy.wait(60)
        parts = kernels.halves(squares, (x, out))
    finally:
        release.set()
        first.join(timeout=60)
    assert not first.is_alive()
    assert len(parts) == 2 and len(two_cpus) == 2
    assert kernels.joined(parts).hex() == np.add.reduce(x * x).hex()
    assert out.tobytes() == (x * x).tobytes()
    assert np.all(held == 1.0)


@pytest.mark.parametrize("raiser", [None, "caller", "worker"])
def test_a_split_keeps_no_view_of_its_rows(raiser, two_cpus):
    # a view kept past the call would hold the block into the next one
    caller = threading.current_thread()

    def fn(row):
        part = "caller" if threading.current_thread() is caller else "worker"
        if part == raiser:
            raise ValueError(part)
        row[:] = 1.0
        return float(row[0])

    base = np.zeros(2 * SPLIT_MIN)
    ref = weakref.ref(base)
    raised = []
    try:
        parts = kernels.halves(fn, (base[::2],))
    except ValueError as exc:
        raised.append(str(exc))
    else:
        assert parts == [1.0, 1.0]
    assert raised == ([] if raiser is None else [raiser])
    assert len(two_cpus) == 1
    del base
    assert ref() is None


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
    # caller does, or the error filter would raise it. A long block splits
    # whether it is constant or not.
    n = 131072
    x = np.full(n, 1e307 + 0j)
    if varying:
        x[::2] = 5e306
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, stats = simulate(IqBlock(x, FS), BIAS, PaParams(g0=40.0))
    a_sat = saturated_swing(BIAS, PaParams(g0=40.0))
    assert len(two_cpus) == 1
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
    want = point_bits(block)  # the parent's pool now runs
    assert kernels._pool[0] == os.getpid()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report, then leave without pytest's teardown
        status = 1
        try:
            ok = (point_bits(block) == want
                  and kernels._pool[0] == os.getpid() and len(two_cpus) > 2)
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
    for key in ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE"):
        env.pop(key, None)
    env.update(extra)
    return env


#: The child's core comes from the golden check's host key.
CHILD_STATS = f"""\
import json, sys
sys.path.insert(0, {str(Path(__file__).resolve().parent.parent / "tools")!r})
from cli_artifacts import host_key
from hfpa.pamodel import BiasPoint, PaParams, simulate
from hfpa.signalgen import Kind, WaveformSpec, generate
block = generate(WaveformSpec(kind=Kind.TWO_TONE, amplitude=0.8,
                              duration_s=0.131072, f1_hz=-1000.0,
                              f2_hz=1000.0), 1e6)
_, s = simulate(block, BiasPoint(vdd=58.0, idq=2.0),
                PaParams(g0=40.0, rload=0.4, shape_beta=3.0, shape_exp=8.0,
                         shape_sat=20.0))
print(*(v.hex() for v in (s.pout_w, s.pdc_w, s.eff, s.pdiss_w, s.gain_db)))
print(json.dumps(host_key()["openblas_core"]))
"""


def run_child(**extra):
    """The child's ``PaStats`` as hex, and OpenBLAS's core name or None."""
    done = subprocess.run([sys.executable, "-c", CHILD_STATS], check=True,
                          env=child_env(**extra), capture_output=True,
                          text=True, timeout=120)
    stats, core = done.stdout.splitlines()
    return stats.split(), json.loads(core)


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
    code = ("import sys, threading, hfpa.biasctl, hfpa.calibrate; "
            "print('concurrent.futures' in sys.modules, "
            "threading.active_count())")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         env=child_env(), capture_output=True, text=True,
                         timeout=120).stdout
    assert out.split() == ["False", "1"]


@pytest.mark.parametrize("n", [1, 64, CACHE_MAX_SAMPLES])
def test_workspace_keeps_the_rows_of_a_cached_length(n):
    rows = kernels.workspace(n)
    assert len(rows) == 3 and all(row.shape == (n,) for row in rows)
    assert rows[0].base.flags.c_contiguous and rows[0].base.shape == (3, n)
    assert kernels.workspace(n) is rows


def test_a_long_block_gets_fresh_rows_on_every_call():
    first = kernels.workspace(CACHE_MAX_SAMPLES + 1)
    second = kernels.workspace(CACHE_MAX_SAMPLES + 1)
    assert not np.shares_memory(first[0].base, second[0].base)


def test_a_long_blocks_rows_are_freed_with_their_last_view():
    rows = kernels.workspace(CACHE_MAX_SAMPLES + 1)
    base = weakref.ref(rows[0].base)
    del rows
    assert base() is None


def _rapp_den(u, a_sat, s2, out):
    den = np.divide(u, a_sat, out)
    den **= s2
    den += 1.0
    den **= 1.0 / s2
    return den


def trap_and_redo_rapp(u, a_sat, smooth, out=None):
    """``kernels.rapp`` before its one pass, kept as its oracle: the block
    runs with overflow raising, and one that raises is redone with it
    ignored and ``a_sat`` copied over its saturated samples."""
    s2 = 2.0 * smooth
    try:
        with np.errstate(over="raise", invalid="raise"):
            return np.divide(u, _rapp_den(u, a_sat, s2, out), out)
    except FloatingPointError:
        with np.errstate(over="ignore", invalid="ignore"):
            den = np.asarray(_rapp_den(u, a_sat, s2, out))
            saturated = np.isinf(den)
            a = np.divide(u, den, den)
        np.copyto(a, a_sat, where=saturated)
        return a


@pytest.mark.parametrize("smooth", [0.5, 1.0, 3.7, 8.73, 20.0])
def test_one_pass_rapp_has_the_trap_and_redo_bits(smooth):
    # levels on both sides of the saturation edge: (u/a_sat)^(2s) near
    # 10^308.25, and at the float range's own edge, where the power
    # overflows on one side only
    a_sat = saturated_swing(BIAS, PARAMS)
    near = a_sat * 10.0 ** (308.25 / (2.0 * smooth))
    edge = a_sat * sys.float_info.max ** (1.0 / (2.0 * smooth))
    u = np.array([0.0, 5e-324, 1.0, near * (1.0 - 1e-12),
                  near * (1.0 + 1e-12), edge * (1.0 - 1e-12),
                  edge * (1.0 + 1e-12), 1e308, np.inf])
    want = trap_and_redo_rapp(u, a_sat, smooth).tobytes()
    out = np.empty_like(u)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernels.rapp(u, a_sat, smooth, out) is out
    assert out.tobytes() == want
    with pytest.raises(TypeError):
        kernels.rapp(u, a_sat, smooth)  # out is required


def test_a_block_whose_worker_half_saturates_has_the_trap_and_redo_bits(
        two_cpus, monkeypatch):
    # the caller's half stays in range; in the worker's the trap-and-redo
    # form raised and redid its part
    n = 131072
    x = two_tone(n, 0.5).samples.copy()
    x[n // 2:] *= 1e300
    g, a_sat = gain_and_swing(BIAS, PARAMS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kernels.pa_pipeline(x, g, a_sat, BIAS.idq, PARAMS)
        monkeypatch.setattr(kernels, "rapp", trap_and_redo_rapp)
        want = kernels.pa_pipeline(x, g, a_sat, BIAS.idq, PARAMS)
    assert len(two_cpus) == 2
    swing = np.abs(got[0])
    assert swing[:n // 2].max() < 0.99 * a_sat
    assert np.mean(np.isclose(swing[n // 2:], a_sat, rtol=1e-12)) > 0.9
    assert got[0].tobytes() == want[0].tobytes()
    assert [v.hex() for v in got[1:]] == [v.hex() for v in want[1:]]
