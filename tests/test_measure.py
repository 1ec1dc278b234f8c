"""Measurement-harness tests: IMD against the trigonometric oracle, the
P1dB query, and the bias/band sweeps."""
import copy
import dataclasses
import math
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import hfpa
from hfpa import bands, biasctl, kernels, measure, pamodel
from hfpa.bands import UnknownBand
from hfpa.biasctl import classify_envelope, compression_drive, equalize_gains
from hfpa.measure import (CSV_HEADER, MeasRow, TargetUnreachable,
                          TonesUnresolvable, drive_for_pout,
                          flattop, freq_response, measure_imd, simulate_cw,
                          sweep_bias, write_csv, write_rows_csv)
from hfpa.pamodel import (BiasPoint, PaParams, bisect, fundamental_pout,
                          gain_and_swing, saturated_swing, simulate,
                          small_signal_gain_db)
from hfpa.signalgen import IqBlock, Kind, WaveformSpec, generate
from test_pamodel import am_am, bias_st, cw_gain_db, params_st, traced_peak
from test_signalgen import ORACLE_LENGTHS

FS = 1.0e6


def two_tone(amplitude=1.0, duration=0.131072, spacing=2000.0):
    return generate(WaveformSpec(kind=Kind.TWO_TONE, amplitude=amplitude,
                                 duration_s=duration, f1_hz=-spacing / 2,
                                 f2_hz=spacing / 2), FS)


def test_noise_and_window_pass_keeps_the_complex_forms_bits():
    n = 4096
    win, unit = measure._analysis_constants(n)
    rng = np.random.default_rng(25)
    for scale in (1e-150, 1e-3, 1.0, 1e150):
        x = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        z = np.empty(n, dtype=complex)
        for floor in (0.0, scale * 1e-6):
            measure._noisy_windowed(x, unit, win, z, floor)
            noisy = x + floor * unit / math.sqrt(2)
            assert z.tobytes() == (noisy * win).tobytes()
    # the floor term underflows to zeros of both signs, and x holds them
    # too: only the sign of an exactly zero component may differ
    x = np.resize(np.array([complex(re, im) for re in (0.0, -0.0)
                            for im in (0.0, -0.0)]), n)
    x[::5] = 1e-320 - 2e-320j
    tiny = math.ulp(0.0)
    measure._noisy_windowed(x, unit, win, z, tiny)
    want = ((x + tiny * unit / math.sqrt(2)) * win).view(np.float64)
    got = z.view(np.float64)
    assert np.count_nonzero(want == 0.0) > n  # of 2n components
    assert np.array_equal(got, want)  # -0.0 == 0.0
    assert got[want != 0].tobytes() == want[want != 0].tobytes()
    assert np.abs(z).tobytes() == np.abs(want.view(complex)).tobytes()


@pytest.mark.parametrize("amplitude", [1e154, 1e155])
def test_a_block_whose_power_overflows_is_refused_before_the_noise_pass(
        amplitude, monkeypatch):
    # finite samples whose mean |x|^2 is not: at 1e154 each |x|^2 is finite
    # and their sum overflows, at 1e155 the square does. The analysis warned
    # and reported nan levels; RuntimeWarning is an error in this suite
    block = two_tone(amplitude=amplitude)
    assert np.isfinite(block.samples).all()
    monkeypatch.setattr(measure, "_noisy_windowed", None)  # never reached
    with pytest.raises(ValueError, match=r"^block power mean\(\|x\|\^2\) "
                       r"= inf is past the float range$"):
        measure_imd(block, -1000.0, 1000.0)


def test_a_block_of_large_finite_power_gives_finite_levels():
    imd = measure_imd(two_tone(amplitude=1e150), -1000.0, 1000.0)
    assert all(math.isfinite(p.level_dbc) for p in imd.products)
    assert imd.worst(3) < -100.0


def test_the_twiddle_block_is_cached_read_only_with_the_fresh_bits():
    measure._twiddles.cache_clear()
    n, m, ks = 131072, 128, (0, 1, 999, 43690, 131071)
    fresh = np.exp(-2j * np.pi * ((np.array(ks)[:, None] * np.arange(m)) % n)
                   / n)
    for _ in range(2):
        tw = measure._twiddles(n, m, ks)
        assert not tw.flags.writeable
        assert ([v.hex() for v in tw.view(np.float64).ravel().tolist()]
                == [v.hex() for v in fresh.view(np.float64).ravel().tolist()])
    info = measure._twiddles.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    # a sweep's second analysis of one length and pair of tones reuses it
    block = two_tone(amplitude=0.5)
    measure_imd(block, -1000.0, 1000.0)
    measure_imd(block, -1000.0, 1000.0)
    assert measure._twiddles.cache_info().hits == 2


def reference_windowed(block):
    """The noisy, windowed block ``measure_imd`` analyses, from a fresh
    window and a fresh noise draw."""
    n, x = len(block), block.samples
    rms = math.sqrt(float(np.mean(np.abs(x) ** 2)))
    rng = np.random.default_rng(0x1D5EED)
    floor = rms * 10.0 ** (measure.NOISE_FLOOR_DBC / 20.0)
    x = x + floor * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
    return x * flattop(n)


def levels_from_bins(bins, block, f1, f2):
    """The four IMD levels in dBc, ``bins(ks)`` giving the DFT bins ``ks``
    of the windowed block."""
    fs, n = block.sample_rate, len(block)

    def peak_at(freq):
        k = int(round(freq / fs * n))
        return float(np.max(np.abs(bins(np.arange(k - 1, k + 2) % n))))

    fund = 0.5 * (peak_at(f1) + peak_at(f2))
    return [20.0 * math.log10(max(peak_at(f), 1e-300) / fund)
            for f in (2 * f1 - f2, 2 * f2 - f1, 3 * f1 - 2 * f2, 3 * f2 - 2 * f1)]


def reference_imd_levels(block, f1, f2):
    """``measure_imd``'s levels from fresh arrays: the column DFT of its
    docstring, ``n = l*m`` with m the largest divisor of n up to
    ``DFT_COLUMNS``, then one twiddled sum per bin."""
    z = reference_windowed(block)
    n = len(z)
    m = max(d for d in range(1, measure.DFT_COLUMNS + 1) if n % d == 0)
    cols = np.fft.fft(z.reshape(n // m, m), axis=0)

    def bins(ks):
        tw = np.exp(-2j * np.pi * ((ks[:, None] * np.arange(m)) % n) / n)
        return np.add.reduce(cols[ks % (n // m)] * tw, axis=1)

    return levels_from_bins(bins, block, f1, f2)


def full_fft_imd_levels(block, f1, f2):
    """The same levels read from the full n-point FFT of the windowed block."""
    spec = np.fft.fft(reference_windowed(block))
    return levels_from_bins(lambda ks: spec[ks], block, f1, f2)


def test_imd_analysis_constants_cache_keeps_the_bits():
    measure._analysis_constants.cache_clear()
    f1, f2 = -1000.0, 1000.0
    for n in (131072, 65536, 131072):
        for amplitude in (0.3, 1.0):
            block = two_tone(amplitude=amplitude, duration=n / FS)
            y = IqBlock(block.samples
                        - 0.05 * block.samples * np.abs(block.samples) ** 2, FS)
            got = [p.level_dbc for p in measure_imd(y, f1, f2).products]
            want = reference_imd_levels(y, f1, f2)
            assert [v.hex() for v in got] == [v.hex() for v in want]
        win, unit = measure._analysis_constants(n)
        assert not win.flags.writeable and not unit.flags.writeable
        assert measure._analysis_constants.cache_info().currsize <= 1


def test_imd_analysis_keeps_nothing_of_a_block_past_the_cache_limit():
    measure._analysis_constants.cache_clear()
    measure._twiddles.cache_clear()
    cached = two_tone(amplitude=0.5)
    measure_imd(cached, -1000.0, 1000.0)
    long_block = two_tone(amplitude=0.5, duration=2 * 131072 / FS)
    tracemalloc.start()
    try:
        measure_imd(long_block, -1000.0, 1000.0)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # 6.04 MiB when the window and noise draw of 262144 samples were cached
    assert kept < 0.1 * 2 ** 20
    info = measure._analysis_constants.cache_info()
    measure_imd(cached, -1000.0, 1000.0)
    assert measure._analysis_constants.cache_info().hits == info.hits + 1


#: ``measure_imd``'s levels of a 131072-sample two-tone block at amplitudes
#: whose power underflows to zero (1e-170) or nearly so, as an analysis that
#: skips the noise pass of a zero-power block gives them (numpy 2.4.6).
ZERO_FLOOR_LEVELS = {
    1e-170: ["-0x1.04149b1475ff7p+7", "-0x1.04149b1475ff7p+7",
             "-0x1.134d90a5f7f3ap+7", "-0x1.134d90a5fac8cp+7"],
    1e-160: ["-0x1.03fad2f1443a7p+7", "-0x1.03ecbec69859ap+7",
             "-0x1.11f66034d33dap+7", "-0x1.12ea71ad9953fp+7"],
    3e-162: ["-0x1.03f996dbae9a4p+7", "-0x1.03e9cf1bbf973p+7",
             "-0x1.11e69ac8d3c74p+7", "-0x1.12e54574a2f16p+7"],
}


@pytest.mark.parametrize("amplitude", sorted(ZERO_FLOOR_LEVELS))
def test_a_zero_power_block_gets_a_zero_floor_with_the_same_levels(amplitude):
    block = two_tone(amplitude=amplitude)
    got = [p.level_dbc.hex() for p in measure_imd(block, -1000.0, 1000.0)
           .products]
    assert got == ZERO_FLOOR_LEVELS[amplitude]
    assert got == [v.hex() for v in reference_imd_levels(block, -1000.0,
                                                         1000.0)]


def test_an_all_zero_block_has_no_fundamental():
    block = IqBlock(np.zeros(131072, dtype=complex), FS)
    with pytest.raises(ValueError, match=(
            "^no fundamental energy at the stated tone offsets$")):
        measure_imd(block, -1000.0, 1000.0)


WS_BIAS = BiasPoint(vdd=58.0, idq=2.0)
WS_PARAMS = PaParams(g0=40.0, rload=0.4, shape_beta=3.0, shape_exp=8.0,
                     shape_sat=20.0)


def two_tone_point(block):
    """``simulate`` then ``measure_imd``: the output block, stats and levels."""
    out, stats = simulate(block, WS_BIAS, WS_PARAMS)
    imd = measure_imd(out, -1000.0, 1000.0)
    return out, stats, [p.level_dbc for p in imd.products]


class TestWorkspaceSharing:
    """``kernels.workspace`` is per thread, and no result is a view of it."""

    def test_two_threads_get_the_sequential_results(self):
        # cached lengths and one past signalgen.CACHE_MAX_SAMPLES, linear to
        # saturated drive, so each thread's workspace keeps changing length
        blocks = [two_tone(amplitude=a, duration=n / FS) for n, a in
                  ((131072, 0.3), (16384, 2.0), (131073, 0.8), (65536, 1.2))]
        want = []
        for block in blocks:
            out, stats, levels = two_tone_point(block)
            assert ([v.hex() for v in levels] == [
                v.hex() for v in reference_imd_levels(out, -1000.0, 1000.0)])
            want.append((out.samples.tobytes(), stats, levels))
        start = threading.Barrier(2)

        def run(order):
            start.wait()
            got = []
            for _ in range(5):
                for i in order:
                    out, stats, levels = two_tone_point(blocks[i])
                    got.append((i, (out.samples.tobytes(), stats, levels)))
            return got

        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = [pool.submit(run, order) for order in ([0, 1, 2, 3],
                                                          [3, 2, 1, 0])]
            for fut in runs:
                for i, result in fut.result():
                    assert result == want[i]

    def test_results_survive_the_next_call_and_inputs_stay_unwritten(self):
        g, a_sat = gain_and_swing(WS_BIAS, WS_PARAMS)
        first, second = two_tone(amplitude=0.5), two_tone(amplitude=1.5)
        for block in (first, second):
            block.samples.flags.writeable = False  # a write would raise
        kept_input = first.samples.copy()
        out, _, levels = two_tone_point(first)
        scaled = kernels.pa_pipeline(first.samples, g, a_sat, WS_BIAS.idq,
                                     WS_PARAMS)[0]
        kept = (out.samples.copy(), scaled.copy(), list(levels))
        # the same length again: the same workspace, overwritten
        two_tone_point(second)
        kernels.pa_pipeline(second.samples, g, a_sat, WS_BIAS.idq, WS_PARAMS)
        assert out.samples.tobytes() == kept[0].tobytes()
        assert scaled.tobytes() == kept[1].tobytes()
        assert levels == kept[2]
        assert first.samples.tobytes() == kept_input.tobytes()
        base = kernels.workspace(len(first))[0].base
        for result in (out.samples, scaled):
            assert not np.shares_memory(result, base)

    def test_classify_leaves_the_model_rows_in_place(self):
        # a 10000-sample window in the thread that holds the 131072-sample
        # rows; were they dropped, the next simulate would map 3 MiB again
        rows = kernels.workspace(131072)
        classify_envelope(generate(WaveformSpec(kind=Kind.AM,
                                                duration_s=0.01), FS), 0.01)
        assert kernels.workspace(131072) is rows

    def test_classify_and_simulate_interleave_in_two_threads(self,
                                                             monkeypatch):
        # classify_envelope works on its own arrays, between simulate calls
        # that reuse one workspace at 64 and at 10000 samples; interleaved
        # in threads, each call still gets its sequential bits
        calls = []
        for n in (64, 10000):
            for kind, amplitude in ((Kind.AM, 0.8), (Kind.TWO_TONE, 1.5),
                                    (Kind.FM, 1.2)):
                block = generate(WaveformSpec(kind=kind, amplitude=amplitude,
                                              duration_s=n / FS), FS)
                calls += [("simulate", block), ("classify", block)]
        # 131072-sample blocks, whose two split passes every thread hands to
        # the process's one worker
        monkeypatch.setattr(kernels, "_cpu_count", lambda: 2)
        for amplitude in (0.3, 1.5):
            block = two_tone(amplitude=amplitude)
            calls += [("imd", block),
                      ("imd", simulate(block, WS_BIAS, WS_PARAMS)[0])]

        def call(i):
            what, block = calls[i]
            if what == "classify":
                cls = classify_envelope(block, len(block) / FS)
                return cls.kind, cls.papr_db.hex(), cls.ripple_ratio.hex()
            if what == "imd":
                imd = measure_imd(block, -1000.0, 1000.0)
                return tuple(p.level_dbc.hex() for p in imd.products)
            out, stats = simulate(block, WS_BIAS, WS_PARAMS)
            return out, stats

        def key(result):
            if isinstance(result[0], IqBlock):  # simulate's (out, stats)
                return result[0].samples.tobytes(), result[1]
            return result

        want = [key(call(i)) for i in range(len(calls))]
        forward = list(range(len(calls)))
        # more threads than cores, each in its own order, switching often
        orders = [forward, forward[::-1], forward[5:] + forward[:5],
                  forward[7::-1] + forward[8:]]
        start = threading.Barrier(len(orders))

        def run(order):
            start.wait(timeout=60)
            got = []
            for _ in range(5):
                got += [(i, call(i)) for i in order]
            return [(i, key(result)) for i, result in got]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(orders)) as pool:
                runs = [pool.submit(run, order) for order in orders]
                # key() reads every simulate output after the thread's last
                # call, so a later call that wrote into one would show here
                results = [fut.result(timeout=120) for fut in runs]
        finally:
            sys.setswitchinterval(interval)
        for got in results:
            assert len(got) == 5 * len(calls)
            for i, result in got:
                assert result == want[i]


def test_warm_large_block_imd_allocates_only_the_spectrum():
    # with the workspace at this length and the twiddle block cached, the
    # peak is numpy's 128 KiB cast buffer of the window's complex-by-float
    # multiply, 0.13 arrays of the block's length (measured); the 18 rows of
    # the column spectrum that the bins read and their twiddled products
    # take 0.07, and a fresh (l, m) column spectrum would add two arrays
    n = 1 << 17
    out, _ = simulate(two_tone(amplitude=0.5, duration=n / FS), WS_BIAS,
                      WS_PARAMS)
    measure_imd(out, -1000.0, 1000.0)
    assert traced_peak(lambda: measure_imd(out, -1000.0, 1000.0)) <= 0.5 * n * 8


@pytest.mark.parametrize("n", [131072, 65536, 131073])
@pytest.mark.parametrize("spacing", [2000.0, 4000.0])
def test_imd_levels_match_the_full_fft(n, spacing):
    f1, f2 = -spacing / 2, spacing / 2
    for amplitude in (0.05, 0.5, 1.4, 4.0):  # linear to deep saturation
        out, _ = simulate(two_tone(amplitude=amplitude, duration=n / FS,
                                   spacing=spacing), WS_BIAS, WS_PARAMS)
        got = [p.level_dbc for p in measure_imd(out, f1, f2).products]
        want = full_fft_imd_levels(out, f1, f2)
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-8


def test_imd_levels_of_a_prime_length_are_the_full_ffts_bits():
    # m = 1: the column FFT is the full FFT, and every twiddle is 1
    n = 131071
    out, _ = simulate(two_tone(amplitude=1.4, duration=n / FS), WS_BIAS,
                      WS_PARAMS)
    got = [p.level_dbc for p in measure_imd(out, -1000.0, 1000.0).products]
    want = full_fft_imd_levels(out, -1000.0, 1000.0)
    assert [v.hex() for v in got] == [v.hex() for v in want]


def reference_flattop(n):
    """``flattop`` as a chain of fresh temporaries, its earlier form."""
    if n <= 1:
        return np.ones(n)
    fac = np.linspace(-np.pi, np.pi, n + 1)
    w = np.zeros(n + 1)
    for k, a in enumerate(measure._FLATTOP):
        w += a * np.cos(k * fac)
    return w[:-1]


def reference_analysis_constants(n):
    """``_analysis_constants`` as fresh temporaries, its earlier form."""
    rng = np.random.default_rng(0x1D5EED)
    unit = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return reference_flattop(n), unit


class TestFlattop:
    @pytest.mark.parametrize("n", [1, 64, 1000, 131071, 131072])
    def test_matches_scipy_bit_for_bit(self, n):
        signal = pytest.importorskip("scipy.signal")
        assert np.array_equal(flattop(n),
                              signal.windows.flattop(n, sym=False))

    @pytest.mark.parametrize("n", [0, 2] + ORACLE_LENGTHS)
    def test_matches_its_temporaries_form(self, n):
        assert flattop(n).tobytes() == reference_flattop(n).tobytes()

    def test_construction_peak(self):
        # the phases, the sum and one reused term row, each n + 1 samples:
        # 3.0 times the result (4.0 when each term made fresh temporaries)
        n = 131072
        assert traced_peak(lambda: flattop(n)) < 3.5 * n * 8


class TestAnalysisConstants:
    @pytest.mark.parametrize("n", ORACLE_LENGTHS)
    def test_match_their_temporaries_form(self, n):
        got = measure._analysis_constants.__wrapped__(n)
        want = reference_analysis_constants(n)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()

    def test_construction_peak(self):
        # the window is built before the noise row, whose parts are drawn
        # straight into it: the window, the complex row and one float draw,
        # 1.33 times the results (2.0 when the draw came first, as fresh
        # temporaries). The first call warms numpy.random's lazy import
        n = 131072
        measure._analysis_constants.__wrapped__(64)
        peak = traced_peak(lambda: measure._analysis_constants.__wrapped__(n))
        assert peak < 1.5 * (n * 8 + n * 16)


def test_import_leaves_scipy_unloaded():
    src = str(Path(hfpa.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, hfpa.biasctl, hfpa.calibrate; "
            "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


class TestMeasureImd:
    def test_linear_passthrough_products_at_noise_floor(self):
        res = measure_imd(two_tone(), -1000.0, 1000.0)
        assert res.worst(3) <= -100.0
        assert res.worst(5) <= -100.0

    def test_cubic_oracle_minus_20_3_dbc(self):
        # Real passband two-tone through y = x - 0.1 x^3. Trig expansion:
        # fundamental 1 - 0.1*(9/4) = 0.775, product 0.1*(3/4) = 0.075,
        # 20*log10(0.075/0.775) = -20.29 dBc.
        n = 1 << 17
        t = np.arange(n) / FS
        f1, f2 = 99_000.0, 101_000.0
        x = np.cos(2 * np.pi * f1 * t) + np.cos(2 * np.pi * f2 * t)
        y = x - 0.1 * x ** 3
        res = measure_imd(IqBlock(y.astype(complex), FS), f1, f2)
        assert res.worst(3) == pytest.approx(-20.29, abs=0.3)

    def test_product_offsets_follow_tone_arithmetic(self):
        f1, f2 = -1000.0, 1000.0
        res = measure_imd(two_tone(), f1, f2)
        offs = {p.order: set() for p in res.products}
        for p in res.products:
            offs[p.order].add(p.offset_hz)
        assert offs[3] == {2 * f1 - f2, 2 * f2 - f1}
        assert offs[5] == {3 * f1 - 2 * f2, 3 * f2 - 2 * f1}

    def test_rapp_imd_worsens_with_drive(self, fitted_params):
        bias = BiasPoint(vdd=58.0, idq=2.0)
        from hfpa.pamodel import saturated_swing, small_signal_gain_db
        a_sat = saturated_swing(bias, fitted_params)
        g = 10.0 ** (small_signal_gain_db(bias, fitted_params) / 20.0)
        levels = []
        for back_db in (-10.0, -1.0):
            peak = (a_sat / g) * 10.0 ** (back_db / 20.0)
            out, _ = simulate(two_tone(amplitude=peak), bias, fitted_params)
            levels.append(measure_imd(out, -1000.0, 1000.0).worst(3))
        assert levels[1] > levels[0] + 3.0  # strictly worse when driven harder

    def test_monotone_over_20_db_sweep(self, fitted_params):
        bias = BiasPoint(vdd=58.0, idq=2.0)
        from hfpa.pamodel import saturated_swing, small_signal_gain_db
        a_sat = saturated_swing(bias, fitted_params)
        g = 10.0 ** (small_signal_gain_db(bias, fitted_params) / 20.0)
        prev = -np.inf
        for back_db in np.linspace(-20.0, -0.5, 9):
            peak = (a_sat / g) * 10.0 ** (back_db / 20.0)
            out, _ = simulate(two_tone(amplitude=peak), bias, fitted_params)
            level = measure_imd(out, -1000.0, 1000.0).worst(3)
            assert level >= prev - 0.5  # nondecreasing within floor jitter
            prev = level

    def test_bin_location_fuzz(self):
        # random tone spacings >= 20 bins, the least measure_imd resolves,
        # never misidentify the products
        rng = np.random.default_rng(99)
        n = 1 << 14
        bin_hz = FS / n
        for _ in range(25):
            spacing = float(rng.integers(20, 400)) * bin_hz
            f1, f2 = -spacing / 2, spacing / 2
            block = generate(WaveformSpec(kind=Kind.TWO_TONE, amplitude=1.0,
                                          duration_s=n / FS, f1_hz=f1,
                                          f2_hz=f2), FS)
            y = block.samples - 0.05 * block.samples * np.abs(block.samples) ** 2
            res = measure_imd(IqBlock(y, FS), f1, f2)
            # baseband cubic on 0.5-amplitude tones: product eps*a^3 = 0.00625,
            # fundamental a*(1 - eps*3a^2) = 0.48125 -> -37.73 dBc
            assert res.worst(3) == pytest.approx(-37.73, abs=1.0)

    @pytest.mark.parametrize("f1, f2, bad", [
        (math.inf, 1000.0, "f1"), (-1000.0, math.nan, "f2"),
        (600e3, 1000.0, "f1"), (-1000.0, -500e3, "f2")])
    def test_rejects_a_tone_not_finite_or_not_below_nyquist(
            self, monkeypatch, f1, f2, bad):
        block = two_tone()
        calls = []
        monkeypatch.setattr(measure, "_analysis_constants", calls.append)
        with pytest.raises(ValueError, match=(
                f"^tone {bad} = .* Hz must be finite and below Nyquist "
                f"500000.0 Hz$")):
            measure_imd(block, f1, f2)
        assert calls == []

    def test_unresolvable_spacing_raises(self):
        with pytest.raises(TonesUnresolvable):
            measure_imd(two_tone(duration=0.002), -1000.0, 1000.0)
        # 4 Hz on 131072 samples is 0.52 bins: the block spans 0.52 beat
        # periods, so the 20-period rule trips here too
        block = two_tone(duration=0.131072, spacing=4.0)
        with pytest.raises(TonesUnresolvable, match="spans 0.5 beat periods"):
            measure_imd(block, -2.0, 2.0)
        with pytest.raises(ValueError, match="^tones must differ$"):
            measure_imd(block, 1000.0, 1000.0)


CLASS_A_BIAS = BiasPoint(vdd=58.0, idq=3.0)


class TestFindP1db:
    """P1dB is the one compression query at 1 dB: ``compression_drive``."""

    def test_hard_limiter_output_power_near_saturation(self):
        # class-A current region keeps the closed-form pout = a_out^2/(2 R)
        p = PaParams(g0=40.0, kv=0.0, rload=20.0, vknee=4.0, smoothness=20.0)
        level = compression_drive(CLASS_A_BIAS, p, 1.0)
        stats = simulate_cw(level, CLASS_A_BIAS, p)
        a_sat = 54.0
        p_sat = a_sat ** 2 / (2.0 * p.rload)
        assert abs(10 * math.log10(stats.pout_w / p_sat)) < 1.0

    def test_doubling_a_sat_moves_p1db_6_db(self):
        p = PaParams(g0=10.0, kv=0.0, rload=20.0, vknee=4.0, smoothness=3.0)
        lo = compression_drive(BiasPoint(vdd=31.0, idq=3.0), p, 1.0)  # a_sat 27
        hi = compression_drive(BiasPoint(vdd=58.0, idq=3.0), p, 1.0)  # a_sat 54
        assert 20.0 * math.log10(hi / lo) == pytest.approx(6.02, abs=0.1)

    def test_gain_at_p1db_is_1_db_down(self):
        p = PaParams(g0=40.0, kv=0.0, rload=0.4, vknee=4.0, smoothness=2.0)
        level = compression_drive(CLASS_A_BIAS, p, 1.0)
        g_ss = small_signal_gain_db(CLASS_A_BIAS, p)
        assert cw_gain_db(level, CLASS_A_BIAS, p) == pytest.approx(
            g_ss - 1.0, abs=0.01)

    def test_no_compression_for_degenerate_gain(self):
        # gain so low the limiter is never approached within the drive cap:
        # 1 dB of compression needs about 875*a_sat, past the 50*a_sat cap
        p = PaParams(g0=0.001, kv=0.0, rload=1.0, vknee=4.0, smoothness=2.0)
        with pytest.raises(ValueError, match="cannot reach"):
            compression_drive(CLASS_A_BIAS, p, 1.0)


class TestSweepBias:
    def test_reference_rows(self, fitted_params):
        rows = sweep_bias([58.0, 53.0, 48.0], 2.0, 1000.0, fitted_params)
        gains = [r.gain_db for r in rows]
        effs = [r.eff_pct for r in rows]
        for got, want in zip(gains, (32.0, 30.0, 28.0)):
            assert got == pytest.approx(want, abs=0.5)
        for got, want in zip(effs, (60.0, 68.0, 77.0)):
            assert got == pytest.approx(want, abs=2.0)

    def test_rows_satisfy_dissipation_identity(self, fitted_params):
        for r in sweep_bias([58.0, 48.0, 38.0], 2.0, 500.0, fitted_params):
            implied = r.pout_w * (100.0 / r.eff_pct - 1.0)
            assert r.pdiss_w == pytest.approx(implied, rel=1e-6)

    def test_zero_target_records_quiescent_dissipation(self, fitted_params):
        rows = sweep_bias([58.0, 48.0], 2.0, 0.0, fitted_params)
        for r, vdd in zip(rows, (58.0, 48.0)):
            assert r.pout_w == 0.0
            assert r.gain_db is None
            assert r.eff_pct is None
            assert r.pdiss_w == pytest.approx(vdd * 2.0, rel=1e-9)

    def test_unreachable_target(self, fitted_params):
        with pytest.raises(TargetUnreachable) as err:
            sweep_bias([30.0], 2.0, 1000.0, fitted_params)
        assert err.value.max_pout_w > 0

    def test_drive_search_hits_tolerance(self, fitted_params):
        bias = BiasPoint(vdd=58.0, idq=2.0)
        level = drive_for_pout(750.0, bias, fitted_params)
        assert simulate_cw(level, bias, fitted_params).pout_w == pytest.approx(
            750.0, rel=1e-3)


@pytest.mark.parametrize("clone", [lambda e: pickle.loads(pickle.dumps(e)),
                                   copy.copy], ids=["pickle", "copy"])
def test_target_unreachable_survives_pickle_and_copy(clone):
    # both rebuild the exception from args, (message,) alone, then restore
    # max_pout_w from its __dict__: the default is what lets them call it
    back = clone(TargetUnreachable("m", max_pout_w=5.0))
    assert type(back) is TargetUnreachable
    assert back.args == ("m",)
    assert back.max_pout_w == 5.0


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
def test_drive_for_pout_rejects_non_finite_target(monkeypatch, target):
    calls = []
    monkeypatch.setattr(measure, "simulate_cw",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match="must be finite and > 0, got"):
        drive_for_pout(target, BiasPoint(vdd=58.0, idq=2.0), PaParams(g0=40.0))
    assert calls == []


def drive_ceiling(bias, params):
    """The drive solve's ceiling ``10*a_sat/g``, as ``drive_for_pout`` forms it."""
    g, a_sat = gain_and_swing(bias, params)
    return 10.0 * a_sat / g


@pytest.mark.parametrize("target", [math.nan, -5.0, 0.0, math.inf])
def test_drive_cap_rejects_a_target_that_is_not_finite_and_positive(
        monkeypatch, fitted_params, target):
    calls = []
    monkeypatch.setattr(measure, "simulate_cw",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match="must be finite and > 0, got"):
        measure.drive_cap(target, BiasPoint(vdd=58.0, idq=2.0), fitted_params)
    assert calls == []


def exact_drive_for_pout(target, bias, params):
    """``drive_for_pout`` with the saturation test and every bisection step
    on ``simulate_cw``."""
    hi = drive_ceiling(bias, params)
    p_hi = simulate_cw(hi, bias, params).pout_w
    if p_hi < target:
        raise TargetUnreachable(
            f"saturated output {p_hi:.1f} W below target {target:.1f} W "
            f"at vdd {bias.vdd} V", max_pout_w=p_hi)
    level = bisect(
        lambda a: simulate_cw(a, bias, params).pout_w - target,
        0.0, hi, tol=measure.DRIVE_REL_TOL * target,
        max_iter=measure.DRIVE_MAX_ITER)
    if level is None:
        raise TargetUnreachable(
            f"bisection failed to reach {target} W within "
            f"{measure.DRIVE_MAX_ITER} steps", max_pout_w=p_hi)
    return level


def solve_outcome(solve, target, bias, params):
    """The solve's result as bits, or its exception's type, text and bits."""
    try:
        return float.hex(solve(target, bias, params))
    except TargetUnreachable as exc:
        return type(exc), str(exc), exc.max_pout_w.hex()


def saturation_drive(bias, params):
    g = 10.0 ** (small_signal_gain_db(bias, params) / 20.0)
    return saturated_swing(bias, params) / g


#: Targets: log-uniform watts; the power at an output swing 1 +- delta times
#: the clipping onset idq*rload; a fraction just below the drive cap's power,
#: deep in compression; the cap's power itself and a fraction above it,
#: where the saturation test decides.
target_st = st.one_of(
    st.tuples(st.just("watts"), st.floats(math.log(1e-3), math.log(3e3))),
    st.tuples(st.just("onset"), st.floats(-1e-3, 1e-3)),
    st.tuples(st.just("deep"), st.floats(0.0, 0.02)),
    st.tuples(st.just("cap"), st.floats(0.0, 0.02)))


@settings(deadline=None, max_examples=200)
@given(params_st, bias_st, target_st)
def test_certified_drive_solve_matches_exact_bisection(params, bias, tgt):
    kind, x = tgt
    if kind == "watts":
        target = math.exp(x)
    elif kind == "onset":
        onset = bias.idq * params.rload
        target = fundamental_pout(onset * (1.0 + x), bias.idq, params.rload)
    else:
        cap = simulate_cw(drive_ceiling(bias, params), bias, params).pout_w
        target = cap * (1.0 - x) if kind == "deep" else cap * (1.0 + x)
    assert (solve_outcome(drive_for_pout, target, bias, params)
            == solve_outcome(exact_drive_for_pout, target, bias, params))


def onset_drive(bias, params, delta):
    """The drive whose output swing is ``1 + delta`` times the clipping onset
    ``idq*rload``, through the exact Rapp inverse; only onsets below
    ``a_sat`` are reachable."""
    g, a_sat = gain_and_swing(bias, params)
    r = bias.idq * params.rload * (1.0 + delta) / a_sat
    assume(0.0 < r < 1.0)
    s2 = 2.0 * params.smoothness
    return a_sat / g * r / (1.0 - r ** s2) ** (1.0 / s2)


#: Drives: uniform up to 10x saturation, the drive solve's ceiling, and
#: within 1e-3 of the clipping onset, where the law's gap was largest.
drive_st = st.one_of(
    st.tuples(st.just("saturation"), st.floats(0.0, 10.0)),
    st.tuples(st.just("ceiling"), st.just(None)),
    st.tuples(st.just("onset"), st.floats(-1e-3, 1e-3)))


@settings(deadline=None)
@given(params_st, bias_st, drive_st)
# a subnormal swing: -idq/ipk overflows, silently on Python floats only
@example(PaParams(g0=1.0, rload=0.5, vknee=0.0, smoothness=1.0),
         BiasPoint(vdd=30.0, idq=1.0), ("saturation", 2.225073858507e-311))
def test_scalar_cw_law_is_within_the_margin(params, bias, drive):
    # a thousandth of the margin: the certified solve's error bound holds
    # with room to spare, for kernels.rapp's numpy law and the math law alike;
    # the scalar law takes Python floats, as its program callers pass
    kind, x = drive
    if kind == "ceiling":
        a = drive_ceiling(bias, params)
    elif kind == "onset":
        a = onset_drive(bias, params, x)
    else:
        a = x * saturation_drive(bias, params)
    exact = simulate_cw(a, bias, params).pout_w
    bound = 1e-3 * measure.DRIVE_PREDICT_MARGIN
    for pred in (fundamental_pout(float(am_am([a], bias, params)[0]),
                                  bias.idq, params.rload),
                 measure._cw_pout_law(bias, params)[1](a)):
        assert abs(pred - exact) <= bound * pred


def two_call_cw_pout(a, bias, params):
    """The oracle of ``_cw_pout_law``'s power: the retired two-call form,
    the ``math`` Rapp limiter (its ``OverflowError`` gives ``a_sat``) fed
    to ``pamodel.fundamental_pout``."""
    g, a_sat = gain_and_swing(bias, params)
    u, s2 = g * a, 2.0 * params.smoothness
    try:
        a_out = u / (1.0 + (u / a_sat) ** s2) ** (1.0 / s2)
    except OverflowError:
        a_out = a_sat
    return fundamental_pout(a_out, bias.idq, params.rload)


@settings(deadline=None)
@given(params_st, bias_st, drive_st)
def test_one_frame_cw_law_has_the_two_call_bits(params, bias, drive):
    # the drive solve's decisions follow from these values, so any bit
    # moved could move a bisection step or the saturation test
    kind, x = drive
    if kind == "ceiling":
        a = drive_ceiling(bias, params)
    elif kind == "onset":
        a = onset_drive(bias, params, x)
    else:
        a = x * saturation_drive(bias, params)
    law = measure._cw_pout_law(bias, params)[1]
    assert law(a).hex() == two_call_cw_pout(a, bias, params).hex()


ONE_FRAME_CASES = [
    (PaParams(g0=40.0), BiasPoint(vdd=58.0, idq=2.0)),
    (PaParams(g0=5.0, rload=0.9, smoothness=20.0), BiasPoint(vdd=30.0,
                                                             idq=0.1)),
    (PaParams(g0=900.0, rload=0.05, smoothness=0.5), BiasPoint(vdd=44.0,
                                                               idq=3.0)),
]


@pytest.mark.parametrize("params, bias", ONE_FRAME_CASES)
def test_one_frame_cw_law_on_each_branch(params, bias):
    g, a_sat = gain_and_swing(bias, params)
    s2 = 2.0 * params.smoothness
    law = measure._cw_pout_law(bias, params)[1]

    def onset_x(delta):
        # the drive at 1 + delta times the clipping onset, and its
        # -idq/ipk on the math limiter's swing
        r = bias.idq * params.rload * (1.0 + delta) / a_sat
        assert 0.0 < r < 1.0
        a = a_sat / g * r / (1.0 - r ** s2) ** (1.0 / s2)
        a_out = g * a / (1.0 + (g * a / a_sat) ** s2) ** (1.0 / s2)
        return a, -bias.idq / (a_out / params.rload), a_out

    for delta in (-0.9, -0.5, -1e-6, 1e-6, 1e-3, 0.5):
        a, x, a_out = onset_x(delta)
        assert (x <= -1.0) == (delta < 0)  # never clips below the onset
        assert law(a).hex() == two_call_cw_pout(a, bias, params).hex()
        if delta < 0:  # the fundamental is the whole demand a_out/rload
            assert law(a) == a_out * (a_out / params.rload) / 2.0
    for delta in (-1e-15, 0.0, 1e-15):  # either branch, by rounding
        a = onset_x(delta)[0]
        assert law(a).hex() == two_call_cw_pout(a, bias, params).hex()
    hi = drive_ceiling(bias, params)
    assert law(hi).hex() == two_call_cw_pout(hi, bias, params).hex()
    # zero drive: ipk <= 0, with the sign of the zero kept
    assert law(0.0).hex() == two_call_cw_pout(0.0, bias, params).hex() == (
        "0x0.0p+0")
    assert law(-0.0).hex() == two_call_cw_pout(-0.0, bias, params).hex() == (
        "-0x0.0p+0")


@pytest.mark.parametrize("u", [1e9, 1e300])
def test_one_frame_cw_law_saturates_past_the_float_range(u):
    # (u/a_sat)^40 overflows here; the limit is a_sat, as kernels.rapp's
    # (tests/test_pamodel.py::test_rapp_saturates_past_the_float_range)
    params, bias = ONE_FRAME_CASES[1]
    g, a_sat = gain_and_swing(bias, params)
    a = u * a_sat / g
    with pytest.raises(OverflowError):
        (g * a / a_sat) ** (2.0 * params.smoothness)
    law = measure._cw_pout_law(bias, params)[1]
    assert law(a) == fundamental_pout(a_sat, bias.idq, params.rload)
    assert law(a).hex() == two_call_cw_pout(a, bias, params).hex()
    assert law(0.0) == 0.0


def count_simulate_cw(monkeypatch):
    calls = []
    exact = measure.simulate_cw

    def counted(*args):
        calls.append(args[0])
        return exact(*args)

    monkeypatch.setattr(measure, "simulate_cw", counted)
    return calls


class TestCertifiedFallback:
    BIAS = BiasPoint(vdd=58.0, idq=2.0)

    def test_all_exact_steps_give_the_same_results(self, monkeypatch,
                                                   fitted_params):
        targets = (1e-3, 0.5, 100.0, 750.0, 1000.0, 1300.0, 5000.0)
        want = [solve_outcome(drive_for_pout, t, self.BIAS, fitted_params)
                for t in targets]
        calls = count_simulate_cw(monkeypatch)
        monkeypatch.setattr(measure, "DRIVE_PREDICT_MARGIN", math.inf)
        got = [solve_outcome(drive_for_pout, t, self.BIAS, fitted_params)
               for t in targets]
        assert got == want
        assert len(calls) > 3 * len(targets)  # every step ran the block

    def test_one_kilowatt_solve_is_no_block_evaluation(self, monkeypatch,
                                                        fitted_params):
        calls = count_simulate_cw(monkeypatch)
        drive_for_pout(1000.0, self.BIAS, fitted_params)
        assert len(calls) == 0

    def test_a_step_on_the_tolerance_edge_runs_the_block(self, monkeypatch,
                                                         fitted_params):
        # the first midpoint's predicted power sits exactly on the edge
        # |pred - target| = tol, so that step cannot be decided from it
        mid = 0.5 * measure.drive_cap(1.0, self.BIAS, fitted_params)
        pred = measure._cw_pout_law(self.BIAS, fitted_params)[1](mid)
        target = pred / (1.0 + measure.DRIVE_REL_TOL)
        calls = count_simulate_cw(monkeypatch)
        got = solve_outcome(drive_for_pout, target, self.BIAS, fitted_params)
        assert mid in calls
        monkeypatch.undo()
        assert got == solve_outcome(exact_drive_for_pout, target, self.BIAS,
                                    fitted_params)

    def test_a_cap_on_the_margin_edge_runs_the_block(self, monkeypatch,
                                                     fitted_params):
        # the ceiling's predicted power exceeds the target by exactly the
        # margin, so the saturation test cannot be decided from it; one ulp
        # lower the law decides it
        hi = drive_ceiling(self.BIAS, fitted_params)
        pred = measure._cw_pout_law(self.BIAS, fitted_params)[1](hi)
        margin = measure.DRIVE_PREDICT_MARGIN * pred
        target = pred - margin
        while pred - target > margin:
            target = math.nextafter(target, math.inf)
        calls = count_simulate_cw(monkeypatch)
        assert measure.drive_cap(target, self.BIAS, fitted_params) == hi
        assert calls == [hi]
        calls.clear()
        below = math.nextafter(target, -math.inf)
        assert measure.drive_cap(below, self.BIAS, fitted_params) == hi
        assert calls == []
        monkeypatch.undo()
        for t in (target, below):
            assert (solve_outcome(drive_for_pout, t, self.BIAS, fitted_params)
                    == solve_outcome(exact_drive_for_pout, t, self.BIAS,
                                     fitted_params))

    def test_an_unreachable_target_is_one_block_evaluation(self, monkeypatch,
                                                           fitted_params):
        hi = drive_ceiling(self.BIAS, fitted_params)
        p_hi = simulate_cw(hi, self.BIAS, fitted_params).pout_w
        calls = count_simulate_cw(monkeypatch)
        with pytest.raises(TargetUnreachable) as err:
            drive_for_pout(5000.0, self.BIAS, fitted_params)
        assert calls == [hi]
        assert err.value.max_pout_w == p_hi
        assert str(err.value) == (f"saturated output {p_hi:.1f} W below "
                                  f"target 5000.0 W at vdd 58.0 V")


    def test_a_drive_solve_forms_the_gain_law_once(self, monkeypatch,
                                                   fitted_params):
        # drive_cap's saturation test and the bisection share one law
        calls = []
        law = measure.gain_and_swing

        def counted(*args):
            calls.append(args)
            return law(*args)

        monkeypatch.setattr(measure, "gain_and_swing", counted)
        drive_for_pout(1000.0, self.BIAS, fitted_params)
        assert len(calls) == 1

class TestSimulateCwLevel:
    BIAS = BiasPoint(vdd=58.0, idq=2.0)

    @pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_a_negative_or_non_finite_level(self, level,
                                                    monkeypatch):
        built = []
        monkeypatch.setattr(measure, "simulate",
                            lambda *args: built.append(args))
        with pytest.raises(ValueError,
                           match="CW level must be finite and >= 0"):
            simulate_cw(level, self.BIAS, PaParams(g0=40.0))
        assert built == []

    @pytest.mark.parametrize("level", [0.0, -0.0, 1e-3, 0.05, 10.0, 1e307])
    def test_a_valid_level_has_the_checked_blocks_stats(self, level,
                                                        fitted_params):
        # the CW block of a checked IqBlock, as every level was built
        # before the scalar check
        block = IqBlock(np.full(64, level, dtype=np.complex128), 1e6)
        _, want = simulate(block, self.BIAS, fitted_params, "40M")
        got = simulate_cw(level, self.BIAS, fitted_params, "40M")
        assert [repr(v) if v is None else v.hex()
                for v in dataclasses.astuple(got)] == [
            repr(v) if v is None else v.hex()
            for v in dataclasses.astuple(want)]


BAND_BIAS = BiasPoint(vdd=58.0, idq=2.0)
BAND_PARAMS = PaParams(g0=40.0, rload=0.4, ripple={"40M": 3.0})

#: Every public call that takes a band, as a function of the band.
BAND_CALLS = {
    "ripple_db": BAND_PARAMS.ripple_db,
    "small_signal_gain_db": lambda b: small_signal_gain_db(BAND_BIAS,
                                                           BAND_PARAMS, b),
    "gain_and_swing": lambda b: gain_and_swing(BAND_BIAS, BAND_PARAMS, b),
    "simulate": lambda b: simulate(
        IqBlock(np.full(64, 0.01, np.complex128), 1e6), BAND_BIAS,
        BAND_PARAMS, b),
    "simulate_cw": lambda b: simulate_cw(0.01, BAND_BIAS, BAND_PARAMS, b),
    "freq_response": lambda b: freq_response(["40M", b], 0.01, BAND_BIAS,
                                             BAND_PARAMS),
    "equalize_gains": lambda b: equalize_gains(BAND_PARAMS, ["40M", b], 30.0,
                                               2.0),
}


def test_unknown_band_has_one_definition():
    # each module that raises it: bands defines it, pamodel and biasctl
    # import it
    assert bands.UnknownBand is pamodel.UnknownBand is biasctl.UnknownBand


@pytest.mark.parametrize("band", ["40m", "41M", ""])
@pytest.mark.parametrize("call", list(BAND_CALLS))
def test_every_band_taking_call_rejects_an_unknown_band(call, band):
    # the gain law's ripple lookup is the one check: a near miss such as
    # "40m" once gave the ripple-free gain and a row for a band that does
    # not exist
    BAND_CALLS[call]("40M")
    with pytest.raises(UnknownBand, match=f"unknown band '{band}'"):
        BAND_CALLS[call](band)


class TestFreqResponse:
    def test_zero_ripple_is_flat(self, fitted_params):
        bias = BiasPoint(vdd=58.0, idq=2.0)
        pts = freq_response(["160M", "40M", "10M"], 0.05, bias, fitted_params)
        pouts = [p for _, p in pts]
        assert max(pouts) - min(pouts) <= 1e-9 * max(pouts)

    def test_one_db_ripple_scales_power(self):
        p = PaParams(g0=40.0, kv=0.0, rload=0.4, vknee=4.0, smoothness=2.0,
                     ripple={"10M": 1.0})
        bias = BiasPoint(vdd=58.0, idq=2.0)
        pts = dict(freq_response(["40M", "10M"], 1e-3, bias, p))
        assert pts["10M"] / pts["40M"] == pytest.approx(10 ** 0.1, rel=1e-6)

    def test_unknown_band(self, fitted_params):
        bias = BiasPoint(vdd=58.0, idq=2.0)
        with pytest.raises(UnknownBand):
            freq_response(["11M"], 0.05, bias, fitted_params)

    @pytest.mark.parametrize("drive", [-1.0, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_drive(self, drive):
        with pytest.raises(ValueError, match="drive must be finite"):
            freq_response(["40M"], drive, BiasPoint(vdd=58.0, idq=2.0),
                          PaParams(g0=40.0))


class TestCsv:
    def test_schema_and_empty_fields(self, tmp_path):
        rows = [MeasRow(vdd_v=58.0, idq_a=2.0, pout_w=1000.0, gain_db=32.0,
                        eff_pct=60.0, pdiss_w=666.0),
                MeasRow(vdd_v=48.0, idq_a=2.0, pout_w=0.0, pdiss_w=96.0,
                        band="40M")]
        path = tmp_path / "rows.csv"
        write_rows_csv(rows, path)
        text = path.read_bytes().decode("utf-8")
        lines = text.split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[1] == "58,2,,1000,32,60,666,,"
        assert lines[2] == "48,2,40M,0,,,96,,"
        assert "\r" not in text

    @pytest.mark.parametrize("cell, text", [
        (None, ""),                    # not measured
        ("40M", "40M"),                # str as is
        (58.0, "58"),
        (1234567.0, "1.23457e+06"),    # .6g
        (math.inf, "inf"),
    ])
    def test_write_csv_cell_rules(self, tmp_path, cell, text):
        path = tmp_path / "cells.csv"
        write_csv(path, "name,cell", [("x", cell)])
        assert path.read_bytes() == f"name,cell\nx,{text}\n".encode("utf-8")


def test_simulate_cw_has_no_gain_where_the_output_power_underflows():
    stats = simulate_cw(2e-162, BiasPoint(58.0, 2.0),
                        PaParams(g0=0.5, rload=0.4))
    assert stats.gain_db is None
    assert stats.pout_w == 0.0
