"""Work counts: deterministic tallies of what an operation does.

Wall time is too noisy on a shared host to gate on, but most speed-ups keep
the bits and do less work, and the work can be counted exactly. Each test
here pins one count at its measured value, so a change that brings the work
back fails here. When a change lowers a count, the bound goes down with it.
"""
import dataclasses
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from hfpa import calibrate, kernels, measure, signalgen
from hfpa.biasctl import BiasController, default_band_table
from hfpa.calibrate import REFERENCE_ANCHORS, default_init, fit
from hfpa.pamodel import BiasPoint, PaParams, simulate
from hfpa.signalgen import IqBlock, Kind, WaveformSpec, generate

PARAMS = PaParams(g0=39.77, kv=0.39, rload=0.4, vknee=4.1, smoothness=8.0,
                  shape_beta=3.82, shape_exp=8.16, shape_sat=20.6)
BIAS = BiasPoint(53.0, 2.0)


@pytest.fixture
def errstate_entries(monkeypatch):
    """Count every ``np.errstate`` scope entered, numpy's own included."""
    entered = []

    class CountingErrstate(np.errstate):
        def __enter__(self):
            entered.append(self)
            return super().__enter__()

    monkeypatch.setattr(np, "errstate", CountingErrstate)
    return entered


@pytest.mark.parametrize("level", [0.0, 0.05, 0.8, 1e300])
def test_a_cw_evaluation_enters_one_errstate(level, errstate_entries):
    # kernels.pa_pipeline holds the overflow policy for both its paths;
    # neither pamodel.simulate nor the constant path opens a scope, so the
    # 64-sample CW block enters exactly one, from the zero drive to a level
    # whose amplified envelope overflows
    stats = measure.simulate_cw(level, BIAS, PARAMS)
    assert len(errstate_entries) == 1
    assert np.isfinite(stats.pout_w)


@pytest.mark.parametrize("amplitude", [0.5, 1e300])
@pytest.mark.parametrize("n, scopes", [(1000, 2), (1 << 17, 4)])
def test_a_varying_block_enters_as_many_errstates_saturated_or_not(
        n, scopes, amplitude, two_cpus, errstate_entries):
    # pa_pipeline's scope and rapp's one pass, plus the worker's copy of the
    # caller's state and its half's rapp on a split block; at 1e300 every
    # sample's Rapp denominator passes the float range. The trap-and-redo
    # limiter entered one more scope per part that saturated.
    ramp = np.linspace(0.1, 1.0, n)
    x = amplitude * ramp * np.exp(1j * 40.0 * ramp)
    _, stats = simulate(IqBlock(x, 1e6), BIAS, PARAMS)
    assert len(errstate_entries) == scopes
    assert len(two_cpus) == (n >= kernels.SPLIT_MIN)
    assert np.isfinite(stats.pout_w)


def test_fit_builds_its_params_without_replace():
    # each evaluation builds PaParams directly from its clamped point; the
    # dataclasses.replace form cost about 5 us per evaluation. The profile
    # hook sees a call under any name the function is bound to
    init = default_init(REFERENCE_ANCHORS)
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is dataclasses.replace.__code__:
            calls.append(frame.f_back.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        report = fit(REFERENCE_ANCHORS, init, budget=40)
    finally:
        sys.setprofile(previous)
    assert report.evaluations == 40
    assert calls == []


def overflowing_blocks(n):
    """A constant block whose amplified envelope overflows, and a varying
    one with such a sample and an envelope that itself overflows."""
    constant = np.full(n, 1e300 + 0j)
    varying = np.full(n, 0.5 + 0.25j)
    varying[::3] = 1e300
    varying[1::7] = 1.5e308 + 1.5e308j
    return constant, varying


@pytest.mark.parametrize("n", [64, kernels.SPLIT_MIN])
def test_overflow_saturates_under_a_raising_caller(n, monkeypatch):
    # a caller that raises on overflow and turns warnings into errors still
    # gets saturated samples: pa_pipeline's one scope covers both paths,
    # and from SPLIT_MIN the worker's half runs under it too
    monkeypatch.setattr(kernels, "_cpu_count", lambda: 2)
    g, a_sat = 1e3, BIAS.vdd - PARAMS.vknee
    for x in overflowing_blocks(n):
        with warnings.catch_warnings(), np.errstate(over="raise"):
            warnings.simplefilter("error")
            out, *sums = kernels.pa_pipeline(x, g, a_sat, BIAS.idq, PARAMS)
            block, stats = simulate(IqBlock(x, 1e6), BIAS, PARAMS)
        assert np.isfinite(out).all()
        assert np.abs(out).max() <= a_sat * (1.0 + 1e-12)
        assert np.isfinite(sums[:3]).all() and sums[3] == np.inf
        assert np.isfinite(block.samples).all()
        assert np.isfinite(stats.pout_w) and stats.gain_db is None


def test_worker_handoffs_per_call(two_cpus):
    # a handoff costs 22-33 us on a 2-core VM (kernels.SPLIT_MIN): a long
    # varying simulate hands over 1 (|x|, law and sums in one split), a CW
    # row none, and a two-tone point at 131072 samples 4: simulate's, and
    # measure_imd's |x|^2, noise and window pass and column FFT
    n = 1 << 17
    block = generate(WaveformSpec(kind=Kind.TWO_TONE, amplitude=0.8,
                                  duration_s=n / 1e6, f1_hz=-1000.0,
                                  f2_hz=1000.0), 1e6)
    out, _ = simulate(block, BIAS, PARAMS)
    assert len(two_cpus) == 1
    measure.simulate_cw(0.8, BIAS, PARAMS)
    assert len(two_cpus) == 1
    measure.measure_imd(out, -1000.0, 1000.0)
    assert len(two_cpus) == 4


def logged_calls(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper; return the list it appends
    each call's arguments to."""
    calls = []
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_drive_solves_decide_from_the_scalar_law(monkeypatch):
    # the scalar CW law filters every bisection step and saturation test
    # (measure.DRIVE_PREDICT_MARGIN); a 64-sample simulate_cw block runs
    # only near an edge. Measured: 95 scalar-law calls and 6 simulate_cw
    # calls, one per recorded row, for the six rows of the 1 kW sweep at
    # 2 A and the 5 W sweep at 0.25 A near the clipping onset
    law = logged_calls(monkeypatch, measure, "_rapp_scalar")
    blocks = logged_calls(monkeypatch, measure, "simulate_cw")
    rows = (measure.sweep_bias([58.0, 53.0, 48.0], 2.0, 1000.0, PARAMS)
            + measure.sweep_bias([58.0, 44.0, 30.0], 0.25, 5.0, PARAMS))
    assert len(rows) == 6
    assert len(law) <= 95
    assert len(blocks) <= 6


#: The 900 W equal-power table of ``tools/cli_artifacts.py``, whose
#: ``calibrate_anchors`` step runs ``default_init``'s pre-solve on it.
ANCHORS_900W = (calibrate.AnchorRow(58.0, 32.0, 58.0, 900.0, 651.7),
                calibrate.AnchorRow(53.0, 30.0, 66.0, 900.0, 463.6),
                calibrate.AnchorRow(48.0, 28.0, 75.0, 900.0, 300.0))


@pytest.mark.parametrize("anchors, sweeps", [(REFERENCE_ANCHORS, 234),
                                             (ANCHORS_900W, 252)])
def test_default_init_sweeps_each_distinct_row_once(anchors, sweeps,
                                                    monkeypatch):
    # the scout's gain refinements and scoring share one table of the rows
    # swept in the call. Measured: 234 and 252 sweeps; without the table,
    # 273 and 318, with the same params
    calls = logged_calls(monkeypatch, calibrate, "sweep_bias")
    default_init(anchors)
    assert len(calls) == sweeps
    assert len({(tuple(vdds), pout, repr(params))
                for vdds, _, pout, params in calls}) == sweeps


@pytest.mark.parametrize("kind", list(Kind))
def test_a_warm_controller_window_allocates_its_envelope_and_sorted_copy(
        kind):
    # classify_envelope allocates two float rows, the window's envelope and
    # its sorted copy, and else only Python objects. Measured: a tracemalloc
    # peak of 162856 bytes per 10000-sample window, two 80000-byte rows
    ctl = BiasController(params=PARAMS, table=default_band_table(),
                         window_s=0.01)
    block = generate(WaveformSpec(kind=kind, duration_s=0.01), 1e6)
    ctl.process(block, "20M", 500.0)
    tracemalloc.start()
    try:
        ctl.process(block, "20M", 500.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(block) * 8 + 4096


def two_tone_point(n):
    """One two-tone point on ``n`` samples: ``generate``, ``simulate`` and
    ``measure_imd``, as the ``imd`` benchmark runs it."""
    spec = WaveformSpec(kind=Kind.TWO_TONE, amplitude=0.05, duration_s=n / 1e6)
    out, _ = simulate(generate(spec, 1e6), BIAS, PARAMS)
    measure.measure_imd(out, spec.f1_hz, spec.f2_hz)


def test_a_warm_two_tone_point_allocates_only_its_results():
    # generate, simulate and measure_imd on a 131072-sample two-tone block
    # whose unit waveform, window, noise draw and workspace rows are cached:
    # the block, the output block and the float swing row, 5 float rows,
    # and small change below half a row (numpy's 128 KiB cast buffer of the
    # output multiply). Measured: 5 rows and 136 KB
    n = 131072
    two_tone_point(n)
    tracemalloc.start()
    try:
        two_tone_point(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * n * 8


def test_two_cold_two_tone_points_peak_under_thirteen_and_a_half_rows():
    # every cache cold: the unit waveform, the analysis constants and the
    # twiddle block cleared, and the workspace moved to another length.
    # numpy.random and numpy.fft are imported first, so the figure does not
    # depend on the order the tests run in. Held after the points: the
    # workspace's 3 rows, the unit waveform's 2 and the window and noise
    # draw's 3. The high-water is a point's own 5 rows on top of those, and
    # numpy's cast buffers. Measured: 13.30 rows; 15.3 with a five-row
    # workspace
    import numpy.fft  # noqa: F401
    import numpy.random  # noqa: F401

    n = 131072
    signalgen._cached_unit_waveform.cache_clear()
    measure._analysis_constants.cache_clear()
    measure._twiddles.cache_clear()
    kernels.workspace(64)
    tracemalloc.start()
    try:
        two_tone_point(n)
        two_tone_point(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13.5 * n * 8
