"""Generator tests: envelope contracts per emission kind, determinism,
the unit-waveform cache and spec validation."""
import dataclasses
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from test_pamodel import traced_peak

from hfpa import signalgen
from hfpa.signalgen import (CACHE_MAX_SAMPLES, CACHE_SIZE, MAX_SAMPLES,
                            InvalidSpec, IqBlock, Kind, WaveformSpec, _pn_bits,
                            generate)

FS = 1.0e6


def test_cw_block_shape_and_envelope():
    spec = WaveformSpec(kind=Kind.CW, amplitude=1.0, duration_s=1e-3)
    block = generate(spec, FS)
    assert len(block) == 1000
    env = np.abs(block.samples)
    assert np.all(env == 1.0)


def test_am_zero_index_degenerates_to_carrier():
    am = generate(WaveformSpec(kind=Kind.AM, amplitude=1.0, am_index=0.0,
                               duration_s=1e-3), FS)
    cw = generate(WaveformSpec(kind=Kind.CW, amplitude=1.0, duration_s=1e-3,
                               tone_hz=0.0), FS)
    np.testing.assert_allclose(np.abs(am.samples), np.abs(cw.samples),
                               rtol=0, atol=1e-15)


def test_am_envelope_law():
    m, f = 0.5, 1000.0
    spec = WaveformSpec(kind=Kind.AM, amplitude=2.0, am_index=m, am_rate_hz=f,
                        duration_s=5e-3)
    block = generate(spec, FS)
    t = np.arange(len(block)) / FS
    expected = 2.0 * (1.0 + m * np.cos(2 * np.pi * f * t)) / (1.0 + m)
    np.testing.assert_allclose(np.abs(block.samples), expected, rtol=1e-12)


def test_two_tone_papr_is_3_01_db():
    # brute-force peak/mean over >= 10 whole beat periods
    spec = WaveformSpec(kind=Kind.TWO_TONE, amplitude=1.0,
                        f1_hz=-1000.0, f2_hz=1000.0, duration_s=10e-3)
    env = np.abs(generate(spec, FS).samples)
    papr_db = 10.0 * math.log10(np.max(env) ** 2 / np.mean(env ** 2))
    # 10*log10(2) for two equal tones; sampling lands exactly on the peaks
    assert papr_db == pytest.approx(3.0103, abs=0.02)
    assert papr_db == pytest.approx(3.01, abs=0.01)


def test_two_tone_envelope_touches_zero_each_beat():
    spec = WaveformSpec(kind=Kind.TWO_TONE, amplitude=1.0,
                        f1_hz=-1000.0, f2_hz=1000.0, duration_s=10e-3)
    env = np.abs(generate(spec, FS).samples)
    assert np.min(env) < 1e-2  # |cos| shape scanned over a beat period


@pytest.mark.parametrize("spec", [
    WaveformSpec(kind=Kind.CW, amplitude=0.7, duration_s=2e-3),
    WaveformSpec(kind=Kind.FM, amplitude=0.7, fm_dev_hz=5000.0,
                 fm_rate_hz=1000.0, duration_s=2e-3),
    WaveformSpec(kind=Kind.PSK, amplitude=0.7, psk_rate_hz=10e3,
                 psk_order=2, duration_s=2e-3),
    WaveformSpec(kind=Kind.PSK, amplitude=0.7, psk_rate_hz=10e3,
                 psk_order=4, duration_s=2e-3),
])
def test_constant_envelope_kinds_hold_amplitude_exactly(spec):
    env = np.abs(generate(spec, FS).samples)
    assert np.max(env) - np.min(env) <= 1e-9 * spec.amplitude
    np.testing.assert_allclose(env, spec.amplitude, rtol=1e-12)


def test_fm_magnitude_exact_at_every_sample():
    spec = WaveformSpec(kind=Kind.FM, amplitude=1.3, fm_dev_hz=12e3,
                        fm_rate_hz=3e3, duration_s=3e-3)
    env = np.abs(generate(spec, FS).samples)
    assert np.all(np.abs(env - 1.3) <= 1e-12)


@pytest.mark.parametrize("kind", list(Kind))
def test_peak_never_exceeds_amplitude(kind):
    spec = WaveformSpec(kind=kind, amplitude=2.5, duration_s=4e-3)
    env = np.abs(generate(spec, FS).samples)
    assert np.max(env) <= 2.5 * (1.0 + 1e-9)


@pytest.mark.parametrize("kind", list(Kind))
def test_generate_is_pure(kind):
    spec = WaveformSpec(kind=kind, amplitude=1.0, duration_s=2e-3)
    a = generate(spec, FS)
    b = generate(spec, FS)
    assert a.samples.tobytes() == b.samples.tobytes()
    assert a.sample_rate == b.sample_rate


def reference_waveform(spec, fs):
    """The generators with the amplitude inside each formula, no cache."""
    n = int(round(spec.duration_s * fs))
    t = np.arange(n) / fs
    a = spec.amplitude
    if spec.kind is Kind.CW:
        return a * np.exp(2j * np.pi * spec.tone_hz * t)
    if spec.kind is Kind.TWO_TONE:
        return (a / 2.0) * (np.exp(2j * np.pi * spec.f1_hz * t)
                            + np.exp(2j * np.pi * spec.f2_hz * t))
    if spec.kind is Kind.FM:
        beta = spec.fm_dev_hz / spec.fm_rate_hz
        return a * np.exp(1j * beta * np.sin(2 * np.pi * spec.fm_rate_hz * t))
    if spec.kind is Kind.AM:
        m = spec.am_index
        env = a * (1.0 + m * np.cos(2 * np.pi * spec.am_rate_hz * t)) / (1.0 + m)
        return env.astype(np.complex128)
    sps = max(1, int(round(fs / spec.psk_rate_hz)))
    nsym = -(-n // sps)
    if spec.psk_order == 2:
        phases = np.pi * reference_pn9(nsym)
    else:
        b = reference_pn9(2 * nsym)
        phases = np.pi / 4.0 + (2 * b[0::2] + b[1::2]) * (np.pi / 2.0)
    return a * np.exp(1j * np.repeat(phases, sps))[:n]


#: A 20 ms block at FS.
N_BLOCK = 20000


@pytest.mark.parametrize("psk_order", [2, 4])
@pytest.mark.parametrize("psk_rate_hz", [
    FS / N_BLOCK,          # a symbol of exactly the block
    FS / (1.5 * N_BLOCK),  # a symbol of 1.5 blocks
    1e-3, 1e-9, 1e-300,    # 1e9 samples and more per symbol
    5e-324,                # an infinite samples-per-symbol ratio
])
def test_psk_symbol_longer_than_the_block_is_one_symbol(psk_order,
                                                        psk_rate_hz):
    # the symbol is clamped to the block: the block is the first symbol, as
    # the unclamped form gives it for 1.5 blocks (not run at the low rates,
    # where it would allocate the whole symbol), and the traced peak stays
    # within a few blocks (2.5 measured: the cached unit waveform, the
    # block, and the phases)
    spec = WaveformSpec(kind=Kind.PSK, amplitude=0.7, psk_order=psk_order,
                        psk_rate_hz=psk_rate_hz, duration_s=N_BLOCK / FS)
    want = reference_waveform(
        dataclasses.replace(spec, psk_rate_hz=FS / (1.5 * N_BLOCK)), FS)
    signalgen._cached_unit_waveform.cache_clear()
    tracemalloc.start()
    try:
        got = generate(spec, FS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.samples.tobytes() == want.tobytes()
    assert np.all(got.samples == got.samples[0])
    assert peak <= 4 * got.samples.nbytes


CACHE_SPECS = [
    WaveformSpec(kind=Kind.CW, tone_hz=0.0, duration_s=1e-3),
    WaveformSpec(kind=Kind.CW, tone_hz=-0.0, duration_s=1e-3),
    WaveformSpec(kind=Kind.CW, tone_hz=12.5e3, duration_s=1e-3),
    WaveformSpec(kind=Kind.TWO_TONE, duration_s=1e-3),
    WaveformSpec(kind=Kind.TWO_TONE, f1_hz=-0.0, f2_hz=3e3, duration_s=1e-3),
    WaveformSpec(kind=Kind.FM, duration_s=1e-3),
    WaveformSpec(kind=Kind.FM, fm_dev_hz=-0.0, duration_s=1e-3),
    WaveformSpec(kind=Kind.FM, fm_dev_hz=0.0, duration_s=1e-3),
    WaveformSpec(kind=Kind.AM, duration_s=1e-3),
    WaveformSpec(kind=Kind.AM, am_index=1.0, am_rate_hz=-0.0, duration_s=1e-3),
    WaveformSpec(kind=Kind.PSK, duration_s=1e-3),
    WaveformSpec(kind=Kind.PSK, psk_order=4, psk_rate_hz=3e3, duration_s=1e-3),
]


class TestUnitWaveformCache:
    @pytest.fixture(autouse=True)
    def empty_cache(self):
        signalgen._cached_unit_waveform.cache_clear()

    def test_cached_and_uncached_calls_give_the_same_bytes(self):
        # every spec twice at each amplitude; FM at fm_dev_hz 0.0 hits the
        # entry of its -0.0 twin, whose unit waveform has -0.0 zeros that
        # only the amplitude multiply turns into +0.0
        for _ in range(2):
            for spec in CACHE_SPECS:
                for amplitude in (1.0, 0.3, 7.25):
                    spec_a = dataclasses.replace(spec, amplitude=amplitude)
                    got = generate(spec_a, FS).samples
                    want = reference_waveform(spec_a, FS)
                    assert got.dtype == want.dtype == np.complex128
                    assert got.tobytes() == want.tobytes(), spec_a
        info = signalgen._cached_unit_waveform.cache_info()
        assert info.hits > 0
        assert info.currsize <= CACHE_SIZE

    def test_cached_arrays_are_read_only(self):
        spec = WaveformSpec(kind=Kind.TWO_TONE, duration_s=1e-3)
        generate(spec, FS).samples[:] = 0.0  # the caller's block is its own
        assert (generate(spec, FS).samples.tobytes()
                == reference_waveform(spec, FS).tobytes())
        key = (spec.kind, spec.psk_order, signalgen._shape(spec), FS, 1000)
        entry = signalgen._cached_unit_waveform(*key)
        assert entry is signalgen._cached_unit_waveform(*key)
        unit, peak = entry
        assert peak == np.max(np.abs(unit.view(np.float64))) == 2.0
        assert not unit.flags.writeable
        with pytest.raises(ValueError):
            unit[0] = 0.0

    def test_blocks_over_the_limit_are_not_cached(self):
        spec = WaveformSpec(kind=Kind.TWO_TONE, amplitude=0.5,
                            duration_s=(CACHE_MAX_SAMPLES + 1) / FS)
        got = generate(spec, FS).samples
        assert len(got) == CACHE_MAX_SAMPLES + 1
        assert signalgen._cached_unit_waveform.cache_info().currsize == 0
        assert got.tobytes() == reference_waveform(spec, FS).tobytes()
        at_limit = dataclasses.replace(spec, duration_s=CACHE_MAX_SAMPLES / FS)
        generate(at_limit, FS)
        assert signalgen._cached_unit_waveform.cache_info().currsize == 1

    def test_cache_stays_within_its_bound(self):
        for i in range(3 * CACHE_SIZE):
            generate(WaveformSpec(kind=Kind.CW, tone_hz=100.0 * i,
                                  duration_s=1e-4), FS)
            assert (signalgen._cached_unit_waveform.cache_info().currsize
                    <= CACHE_SIZE)


def reference_unit_waveform(spec, fs, n):
    """``_unit_waveform`` as chains of fresh temporaries, its earlier form."""
    t = np.arange(n) / fs
    if spec.kind is Kind.CW:
        return np.exp(2j * np.pi * spec.tone_hz * t)
    if spec.kind is Kind.TWO_TONE:
        return (np.exp(2j * np.pi * spec.f1_hz * t)
                + np.exp(2j * np.pi * spec.f2_hz * t))
    if spec.kind is Kind.FM:
        beta = spec.fm_dev_hz / spec.fm_rate_hz
        return np.exp(1j * beta * np.sin(2 * np.pi * spec.fm_rate_hz * t))
    if spec.kind is Kind.AM:
        return 1.0 + spec.am_index * np.cos(2 * np.pi * spec.am_rate_hz * t)
    ratio = fs / spec.psk_rate_hz
    sps = n if ratio >= n else max(1, int(round(ratio)))
    nsym = -(-n // sps)
    if spec.psk_order == 2:
        phases = np.pi * _pn_bits(nsym)
    else:
        b = _pn_bits(2 * nsym)
        phases = np.pi / 4.0 + (2 * b[0::2] + b[1::2]) * (np.pi / 2.0)
    return np.exp(1j * np.repeat(phases, sps))[:n]


#: Lengths of the construction oracle: a single sample, a short odd block,
#: a controller window, the cached IMD block and an uncached one.
ORACLE_LENGTHS = [1, 7, 10000, CACHE_MAX_SAMPLES, 2 * CACHE_MAX_SAMPLES]


@pytest.mark.parametrize("n", ORACLE_LENGTHS)
@pytest.mark.parametrize("fs", [FS, 12345.6])
@pytest.mark.parametrize("spec", [
    WaveformSpec(kind=Kind.CW, tone_hz=12.5e3),
    WaveformSpec(kind=Kind.CW, tone_hz=-0.0),
    WaveformSpec(kind=Kind.TWO_TONE),
    WaveformSpec(kind=Kind.TWO_TONE, f1_hz=-0.0, f2_hz=3e3),
    WaveformSpec(kind=Kind.FM), WaveformSpec(kind=Kind.AM),
    WaveformSpec(kind=Kind.PSK), WaveformSpec(kind=Kind.PSK, psk_order=4)],
    ids=["cw", "cw-zero", "two_tone", "two_tone-zero", "fm", "am", "bpsk",
         "qpsk"])
def test_unit_waveform_matches_its_temporaries_form(spec, fs, n):
    # built in place, every ufunc and operand order kept: the same bytes,
    # signed zeros included
    got = signalgen._unit_waveform(spec, fs, n)
    want = reference_unit_waveform(spec, fs, n)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_two_tone_unit_construction_peak():
    # the time row and the two tone rows, plus numpy's 128 KiB cast buffer
    # of the complex-by-float multiply: 2.56 times the result (3.50 when
    # each step made a fresh temporary)
    n = CACHE_MAX_SAMPLES
    spec = WaveformSpec(kind=Kind.TWO_TONE)
    signalgen._unit_waveform(spec, FS, n)
    assert traced_peak(lambda: signalgen._unit_waveform(spec, FS, n)) < (
        3 * n * 16)


def reference_pn9(n):
    """PN9 (x^9 + x^5 + 1, seed 0x1FF) straight from the LFSR, n bits."""
    state, bits = 0x1FF, []
    for _ in range(n):
        bits.append(state & 1)
        fb = (state ^ (state >> 4)) & 1
        state = (state >> 1) | (fb << 8)
    return np.array(bits)


@pytest.mark.parametrize("n", [1, 511, 512, 2000])
def test_pn_bits_follow_the_lfsr(n):
    assert np.array_equal(_pn_bits(n), reference_pn9(n))


class TestValidation:
    def test_rejects_frequency_at_or_above_nyquist(self):
        with pytest.raises(InvalidSpec):
            generate(WaveformSpec(kind=Kind.CW, tone_hz=FS / 2), FS)
        with pytest.raises(InvalidSpec):
            generate(WaveformSpec(kind=Kind.TWO_TONE, f2_hz=FS), FS)

    def test_rejects_bad_am_index(self):
        with pytest.raises(InvalidSpec):
            generate(WaveformSpec(kind=Kind.AM, am_index=1.5), FS)

    @pytest.mark.parametrize("kind", ["cw", None, 0])
    def test_rejects_a_kind_that_is_not_a_kind(self, kind):
        # "cw" ended in a bare KeyError from the band-edge table
        msg = (r"^kind must be one of Kind.CW, Kind.FM, Kind.PSK, Kind.AM, "
               rf"Kind.TWO_TONE, got {re.escape(repr(kind))}$")
        with pytest.raises(InvalidSpec, match=msg):
            generate(WaveformSpec(kind=kind), FS)

    def test_rejects_bad_psk_order(self):
        with pytest.raises(InvalidSpec):
            generate(WaveformSpec(kind=Kind.PSK, psk_order=8), FS)

    def test_rejects_zero_fm_rate(self):
        with pytest.raises(InvalidSpec, match="FM"):
            generate(WaveformSpec(kind=Kind.FM, fm_rate_hz=0.0), FS)

    def test_rejects_equal_tones(self):
        with pytest.raises(InvalidSpec):
            generate(WaveformSpec(kind=Kind.TWO_TONE, f1_hz=100.0,
                                  f2_hz=100.0), FS)

    def test_rejects_nonpositive_amplitude_or_duration(self):
        with pytest.raises(InvalidSpec):
            generate(WaveformSpec(kind=Kind.CW, amplitude=0.0), FS)
        with pytest.raises(InvalidSpec):
            generate(WaveformSpec(kind=Kind.CW, duration_s=0.0), FS)

    @pytest.mark.parametrize("duration, rate, count", [
        (1e12, FS, "1e+18"),     # numpy: MemoryError
        (4e12, FS, "4e+18"),     # numpy: ValueError, array is too big
        (0.01, 1e300, "1e+298"),  # numpy: ValueError, size exceeded
        (9.3e12, FS, "9.3e+18"),  # past the int64 index range
        (1e200, 1e200, "inf"),   # the product overflows
    ])
    def test_rejects_a_sample_count_numpy_refuses(self, duration, rate,
                                                  count):
        # every size here is refused before any allocation
        spec = WaveformSpec(kind=Kind.CW, duration_s=duration)
        with pytest.raises(InvalidSpec) as err:
            generate(spec, rate)
        assert str(err.value) == (f"duration {duration:g} s at {rate:g} S/s "
                                  f"needs {count} samples, more than "
                                  f"MAX_SAMPLES ({MAX_SAMPLES})")

    def test_rejects_more_than_max_samples(self):
        duration = (MAX_SAMPLES + 1) / FS
        with pytest.raises(InvalidSpec,
                           match=r"more than MAX_SAMPLES \(16777216\)"):
            generate(WaveformSpec(kind=Kind.CW, duration_s=duration), FS)

    def test_block_invariants(self):
        with pytest.raises(InvalidSpec):
            IqBlock(np.array([], dtype=complex), FS)
        with pytest.raises(InvalidSpec):
            IqBlock(np.ones(4, dtype=complex), 0.0)


class TestNonFinite:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                       complex(0.0, math.nan)])
    def test_block_rejects_non_finite_samples(self, value):
        samples = np.ones(8, dtype=complex)
        samples[3] = value
        with pytest.raises(InvalidSpec, match="finite"):
            IqBlock(samples, FS)

    def test_block_accepts_finite_samples_whose_power_overflows(self):
        block = IqBlock(np.array([1e200, -1e200j, 1.0]), FS)
        assert np.all(np.isfinite(block.samples))

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_block_rejects_non_finite_rate(self, rate):
        with pytest.raises(InvalidSpec):
            IqBlock(np.ones(4, dtype=complex), rate)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind, field", [
        (Kind.CW, "amplitude"), (Kind.CW, "duration_s"), (Kind.CW, "tone_hz"),
        (Kind.TWO_TONE, "f1_hz"), (Kind.TWO_TONE, "f2_hz"),
        (Kind.FM, "fm_dev_hz"), (Kind.FM, "fm_rate_hz"),
        (Kind.AM, "am_index"), (Kind.AM, "am_rate_hz"),
        (Kind.PSK, "psk_rate_hz")])
    def test_spec_rejects_non_finite_fields(self, kind, field, value):
        spec = WaveformSpec(kind=kind, **{field: value})
        with pytest.raises(InvalidSpec):
            spec.validate(FS)
        with pytest.raises(InvalidSpec):
            generate(spec, FS)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_spec_rejects_non_finite_sample_rate(self, rate):
        with pytest.raises(InvalidSpec):
            generate(WaveformSpec(kind=Kind.CW), rate)

    @pytest.mark.parametrize("rate", [5e-324, 1e-320])
    def test_spec_rejects_an_fm_index_past_the_float_range(self, rate):
        # 5 kHz / rate is inf: the waveform would be NaN, and numpy would
        # warn on it (an error in this suite) before any finite check
        spec = WaveformSpec(kind=Kind.FM, fm_rate_hz=rate)
        msg = (f"^FM index fm_dev_hz / fm_rate_hz must be finite, "
               f"got 5000.0 / {rate}$")
        with pytest.raises(InvalidSpec, match=msg):
            spec.validate(FS)
        with pytest.raises(InvalidSpec, match=msg):
            generate(spec, FS)

    def test_spec_accepts_a_tiny_fm_rate_with_a_finite_index(self):
        spec = WaveformSpec(kind=Kind.FM, fm_dev_hz=0.0, fm_rate_hz=5e-324)
        assert generate(spec, FS).samples.tobytes() == generate(
            WaveformSpec(kind=Kind.CW), FS).samples.tobytes()


def reference_generate(spec, fs):
    """``generate`` without the cache or the peak bound: the unit waveform,
    the amplitude multiply, and ``IqBlock``'s own check of every sample."""
    n = int(round(spec.duration_s * fs))
    u = signalgen._unit_waveform(spec, fs, n)
    a = spec.amplitude
    if spec.kind is Kind.TWO_TONE:
        x = (a / 2.0) * u
    elif spec.kind is Kind.AM:
        x = ((a * u) / (1.0 + spec.am_index)).astype(np.complex128)
    else:
        x = a * u
    return IqBlock(x, fs)


MAX = sys.float_info.max


def ulps_from(base, k):
    """``base`` moved ``k`` floats up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        base = math.nextafter(base, math.inf if k > 0 else 0.0)
    return base


#: Amplitudes on both sides of the overflow edges: the two-tone's peak unit
#: component is 2 (scaled by a/2), AM's is 1 + m (scaled by a before the
#: division), everything else's is 1.
AMPLITUDES = st.one_of(
    st.floats(min_value=5e-324, max_value=MAX),
    st.builds(ulps_from, st.sampled_from([MAX, MAX / 2, MAX / 1.5, 1.0]),
              st.integers(-3, 3)).filter(lambda a: 0 < a <= MAX))


class TestPeakBoundFiniteCheck:
    """``generate``'s one-scalar finite check accepts and rejects exactly the
    blocks ``IqBlock``'s per-sample check does."""

    @settings(deadline=None, max_examples=300)
    @given(kind=st.sampled_from(list(Kind)), amplitude=AMPLITUDES,
           am_index=st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                              st.floats(0.0, 1.0)),
           fm_rate_hz=st.sampled_from([1000.0, 3.0, 1e-300, 1e-320, 5e-324]),
           psk_order=st.sampled_from([2, 4]))
    @example(kind=Kind.TWO_TONE, amplitude=MAX, am_index=0.5,
             fm_rate_hz=1000.0, psk_order=2)
    @example(kind=Kind.AM, amplitude=MAX / 2, am_index=1.0,
             fm_rate_hz=1000.0, psk_order=2)
    @example(kind=Kind.AM, amplitude=math.nextafter(MAX / 2, math.inf),
             am_index=1.0, fm_rate_hz=1000.0, psk_order=2)
    @example(kind=Kind.FM, amplitude=1.0, am_index=0.5, fm_rate_hz=5e-324,
             psk_order=2)
    def test_same_verdict_and_bits_as_the_per_sample_check(
            self, kind, amplitude, am_index, fm_rate_hz, psk_order):
        spec = WaveformSpec(kind=kind, amplitude=amplitude, duration_s=2e-4,
                            am_index=am_index, fm_rate_hz=fm_rate_hz,
                            psk_order=psk_order)
        if kind is Kind.FM and math.isinf(spec.fm_dev_hz / fm_rate_hz):
            # validate refuses the spec before any sample is made
            with pytest.raises(InvalidSpec, match="^FM index"):
                generate(spec, FS)
            return
        # numpy's overflow warnings are errors in this suite, and the
        # reference's multiply overflows where generate refuses the amplitude
        with np.errstate(over="ignore"):
            try:
                want = reference_generate(spec, FS)
            except InvalidSpec as exc:
                want = exc
        for _ in range(2):  # a cache miss, then a hit
            if isinstance(want, InvalidSpec):
                with pytest.raises(InvalidSpec,
                                   match="^samples must be finite$"):
                    generate(spec, FS)
                continue
            got = generate(spec, FS)
            assert got.sample_rate == FS
            assert got.samples.dtype == np.complex128
            assert got.samples.tobytes() == want.samples.tobytes()
            assert np.isfinite(got.samples).all()

    @pytest.mark.parametrize("amplitude, finite", [
        (MAX / 2, True),                            # a * (1 + m) is MAX
        (math.nextafter(MAX / 2, math.inf), False),  # a * (1 + m) overflows
    ])
    def test_uncached_blocks_take_the_same_check(self, amplitude, finite):
        spec = WaveformSpec(kind=Kind.AM, amplitude=amplitude, am_index=1.0,
                            duration_s=(CACHE_MAX_SAMPLES + 1) / FS)
        signalgen._cached_unit_waveform.cache_clear()
        if finite:
            assert (generate(spec, FS).samples.tobytes()
                    == reference_generate(spec, FS).samples.tobytes())
        else:
            with np.errstate(over="ignore"), pytest.raises(InvalidSpec):
                reference_generate(spec, FS)
            with pytest.raises(InvalidSpec, match="^samples must be finite$"):
                generate(spec, FS)
        assert signalgen._cached_unit_waveform.cache_info().currsize == 0
