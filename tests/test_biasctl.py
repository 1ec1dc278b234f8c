"""Controller tests: envelope classification, bias decisions, drain tracking,
gate ladder, gain equalization, and switch hysteresis."""
import dataclasses
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hfpa import biasctl, measure, pamodel
from hfpa.biasctl import (BandEntry, BiasController, EnvKind, EnvelopeClass, Mode,
                          SetpointUnreachable, WindowTooShort,
                          classify_envelope, command_for_mode,
                          compression_drive, decide_bias, default_band_table,
                          equalize_gains, predict_peak_envelope,
                          HYSTERESIS_WINDOWS)
from hfpa.bands import BANDS, UnknownBand
from hfpa.measure import simulate_cw
from hfpa.pamodel import (GATE_STEP_IDQ, VDD_MAX, VDD_MIN, BiasPoint,
                          PaParams, gain_and_swing, gate_step_for,
                          saturated_swing, small_signal_gain_db, with_ripple)
from hfpa.signalgen import IqBlock, Kind, WaveformSpec, generate
from test_pamodel import bias_st, cw_gain_db, params_st

FS = 1.0e6
WINDOW = 0.01


def block_of(kind, amplitude=1.0, **kw):
    spec = WaveformSpec(kind=kind, amplitude=amplitude, duration_s=2 * WINDOW,
                        **kw)
    return generate(spec, FS)


class TestClassify:
    def test_cw_is_constant(self):
        cls = classify_envelope(block_of(Kind.CW), WINDOW)
        assert cls.kind is EnvKind.CONSTANT
        assert cls.papr_db == pytest.approx(0.0, abs=1e-9)

    def test_two_tone_is_varying(self):
        cls = classify_envelope(block_of(Kind.TWO_TONE), WINDOW)
        assert cls.kind is EnvKind.VARYING
        assert cls.papr_db > 2.5

    @pytest.mark.parametrize("dev", [1e3, 5e3, 25e3])
    def test_fm_any_deviation_is_constant(self, dev):
        blk = block_of(Kind.FM, fm_dev_hz=dev, fm_rate_hz=1e3)
        assert classify_envelope(blk, WINDOW).kind is EnvKind.CONSTANT

    @pytest.mark.parametrize("order", [2, 4])
    def test_hard_keyed_psk_is_constant(self, order):
        blk = block_of(Kind.PSK, psk_order=order, psk_rate_hz=1e4)
        assert classify_envelope(blk, WINDOW).kind is EnvKind.CONSTANT

    @pytest.mark.parametrize("m", [0.3, 0.5, 1.0])
    def test_am_is_varying(self, m):
        blk = block_of(Kind.AM, am_index=m, am_rate_hz=1e3)
        assert classify_envelope(blk, WINDOW).kind is EnvKind.VARYING

    @pytest.mark.parametrize("scale", [0.01, 1.0, 100.0])
    def test_scale_invariance(self, scale):
        for kind, expected in ((Kind.CW, EnvKind.CONSTANT),
                               (Kind.AM, EnvKind.VARYING),
                               (Kind.TWO_TONE, EnvKind.VARYING)):
            blk = block_of(kind)
            scaled = IqBlock(blk.samples * scale, FS)
            assert classify_envelope(scaled, WINDOW).kind is expected

    @pytest.mark.parametrize("scale", [1e300, 1e155, 1e-300])
    def test_verdict_past_the_float_range_is_the_unit_peak_verdict(self, scale):
        # the squares (or their sum) leave the float range; no warning either
        for kind in Kind:
            blk = block_of(kind)
            scaled = IqBlock(blk.samples * scale, FS)
            assert (classify_envelope(scaled, WINDOW).kind
                    is classify_envelope(blk, WINDOW).kind)

    def test_window_too_short(self):
        with pytest.raises(WindowTooShort):
            classify_envelope(block_of(Kind.CW), window_s=1.0)

    @pytest.mark.parametrize("rate", [22050.0, 33333.0, 44100.0, 12345.6])
    def test_a_window_of_the_generated_length_is_long_enough(self, rate):
        # generate rounds the sample count to the nearest, so a 10 ms block
        # may span a little less than 10 ms (220 samples at 22050 Hz); the
        # window's count is rounded the same way, so it is the block's
        blk = generate(WaveformSpec(kind=Kind.AM, duration_s=WINDOW), rate)
        assert len(blk) == max(1, round(WINDOW * rate))
        assert len(blk) / blk.sample_rate <= WINDOW
        assert classify_envelope(blk, WINDOW).kind is EnvKind.VARYING

    @pytest.mark.parametrize("duration", [0.0123454, WINDOW, 1.0 / FS])
    def test_a_window_of_the_block_duration_is_long_enough(self, duration):
        blk = generate(WaveformSpec(kind=Kind.CW, duration_s=duration), FS)
        assert classify_envelope(blk, duration).kind is EnvKind.CONSTANT
        # one sample more than the block's is too long
        n = len(blk)
        window = (n + 1) / FS
        with pytest.raises(WindowTooShort, match=re.escape(
                f"block spans {n} < {n + 1} window samples ({window:g} s)")):
            classify_envelope(blk, window)

    @pytest.mark.parametrize("window", [1e300, 1.7e308])
    def test_a_window_past_the_float_range_is_too_short(self, window):
        # window*rate is past the float range at 1.7e308 s: no OverflowError;
        # the count reads in g form, not as a 303-digit integer at 1e300 s
        with pytest.raises(WindowTooShort) as err:
            classify_envelope(block_of(Kind.CW), window_s=window)
        assert len(str(err.value)) < 100
        assert not re.search(r"\d{20}", str(err.value))

    @pytest.mark.parametrize("window", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_non_positive_or_non_finite_window(self, window):
        with pytest.raises(ValueError, match="window_s must be finite"):
            classify_envelope(block_of(Kind.CW), window_s=window)

    def test_silence_counts_as_constant(self):
        blk = IqBlock(np.zeros(20000, dtype=complex), FS)
        assert classify_envelope(blk, WINDOW).kind is EnvKind.CONSTANT

    def test_a_zero_median_gives_an_infinite_ripple(self):
        # a silent majority with a keyed minority: no division by zero
        env = np.array([0.0] * 60 + [1.0] * 40)
        cls = classify_envelope(IqBlock(env.astype(complex), FS), 100 / FS)
        assert cls.kind is EnvKind.VARYING
        assert cls.ripple_ratio == math.inf

    def test_a_ripple_of_exactly_the_limit_is_varying(self):
        # p1 19.5, median 20 and p99 20.5: the ripple rounds to exactly
        # RIPPLE_LIMIT, while the PAPR sits far under its own limit
        env = np.array([19.5] * 2 + [20.0] * 97 + [20.5] * 2)
        cls = classify_envelope(IqBlock(env.astype(complex), FS), 101 / FS)
        assert cls.ripple_ratio == biasctl.RIPPLE_LIMIT
        assert cls.papr_db < biasctl.PAPR_LIMIT_DB
        assert cls.kind is EnvKind.VARYING

    def test_a_peak_squaring_to_the_smallest_normal_is_not_rescaled(self):
        # peak**2 is the smallest normal float, inside the range the squares
        # are kept in, so papr_db is the plain form's; 0.7*peak squares to a
        # subnormal, so the unit-peak form has other bits
        peak = 2.0 ** -511
        assert peak * peak == biasctl._SQUARE_MIN
        unit_env = np.array([1.0, 0.7])
        env = unit_env * peak
        cls = classify_envelope(IqBlock(env.astype(complex), FS), 2 / FS)
        plain = 10.0 * math.log10(peak ** 2 / float(np.mean(env ** 2)))
        unit = 10.0 * math.log10(1.0 / float(np.mean(unit_env ** 2)))
        assert plain != unit
        assert cls.papr_db == plain


def hexes(values):
    return [float(v).hex() for v in values]


#: Envelopes: 1-3 samples of any value up to 1e6, or up to 20000 samples
#: drawn from a few levels (ties; one level is a constant envelope) or
#: uniformly at scales 1, 1e-300 and 1e300.
envelopes = st.one_of(
    st.integers(1, 3).flatmap(lambda n: st.lists(
        st.floats(0.0, 1e6), min_size=n, max_size=n)),
    st.tuples(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4),
              st.integers(1, 20000), st.integers(0, 2 ** 32 - 1)).map(
        lambda t: list(np.random.default_rng(t[2]).choice(t[0], t[1]))),
    st.tuples(st.integers(1, 20000), st.integers(0, 2 ** 32 - 1),
              st.sampled_from([1.0, 1e-300, 1e300])).map(
        lambda t: list(t[2] * np.random.default_rng(t[1]).random(t[0]))),
)


#: The 10 ms envelope at 1 MS/s of each waveform kind.
KIND_ENVELOPES = {kind: np.abs(block_of(kind).samples[:int(WINDOW * FS)])
                  for kind in Kind}


def _with_kind_envelopes(test):
    for env in KIND_ENVELOPES.values():
        test = example(env=list(env))(test)
    return test


@settings(max_examples=300, deadline=None)
@given(env=envelopes)
@example(env=[0.7])
@example(env=[0.7, 0.2])
@example(env=[0.3, 1.0])  # median at t = 0.5, where numpy's two lerps differ
@example(env=[3.0, 1.0, 2.0])
@example(env=[0.5] * 10000)
@example(env=list(np.linspace(0.0, 1.0, 10000)))   # ascending ramp
@example(env=list(np.linspace(1.0, 0.0, 10000)))   # descending ramp
@_with_kind_envelopes
def test_percentiles_match_numpy_bit_for_bit(env):
    # a numpy whose percentile interpolates differently fails here
    env = np.array(env, dtype=float)
    assert hexes(biasctl._percentiles(np.sort(env))) == hexes(
        np.percentile(env, [1.0, 50.0, 99.0]))


def reference_metrics(env):
    """(papr_db, ripple_ratio) from np.max and np.percentile on the window,
    which is first divided by its peak where the squares leave the normal
    float range: the peak's square under the smallest normal, or the sum
    of the squares possibly past the largest float."""
    peak = float(np.max(env))
    if not sys.float_info.min <= peak * peak <= sys.float_info.max / env.size:
        env, peak = env / peak, 1.0
    p1, med, p99 = (float(p) for p in np.percentile(env, [1.0, 50.0, 99.0]))
    papr_db = 10.0 * math.log10(peak ** 2 / float(np.mean(env ** 2)))
    return papr_db, (p99 - p1) / med


@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e-152, 1e300])
@pytest.mark.parametrize("kind", list(Kind))
def test_classify_metrics_match_the_percentile_reference(kind, scale):
    blk = block_of(kind)
    cls = classify_envelope(IqBlock(blk.samples * scale, FS), WINDOW)
    assert hexes((cls.papr_db, cls.ripple_ratio)) == hexes(
        reference_metrics(np.abs(blk.samples[:int(WINDOW * FS)] * scale)))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 20000), tied=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([1.0, 1e-300, 1e-152, 1e300]),
       frac=st.floats(0.0, 1.0))
@example(n=20000, tied=True, seed=0, scale=1e300, frac=1.0)
@example(n=1, tied=False, seed=0, scale=1e-300, frac=1.0)
def test_classify_metrics_match_the_reference_on_random_blocks(
        n, tied, seed, scale, frac):
    # the verdict must be the plain form's, and at 1e-300 and 1e300 the
    # envelope and its sorted copy are rescaled in place
    rng = np.random.default_rng(seed)
    if tied:  # a few complex levels: ties in the envelope, or a constant one
        k = int(rng.integers(1, 5))
        levels = rng.uniform(0.01, 2.0, k) * np.exp(2j * np.pi * rng.random(k))
        samples = rng.choice(levels, n)
    else:
        samples = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
    samples *= scale
    samples.flags.writeable = False  # a write to the block would raise
    w = max(1, int(frac * n))  # window samples, at most the block's
    cls = classify_envelope(IqBlock(samples, FS), w / FS)
    assert hexes((cls.papr_db, cls.ripple_ratio)) == hexes(
        reference_metrics(np.abs(samples[:w])))


class TestGateSteps:
    def test_table_entries(self):
        assert gate_step_for(0.5) == 1
        assert gate_step_for(2.0) == 4
        assert gate_step_for(0.25) == 0

    def test_tie_resolves_to_lower_step(self):
        assert gate_step_for(0.75) == 1   # between 0.5 and 1.0
        assert gate_step_for(1.25) == 2   # between 1.0 and 1.5

    def test_nearest(self):
        assert gate_step_for(1.9) == 4
        assert gate_step_for(0.1) == 0
        assert gate_step_for(pamodel.IDQ_MAX) == 4   # 10 A

    @pytest.mark.parametrize("idq", [math.nan, math.inf, 1e17, 10.000001,
                                     0.0, -1.0])
    def test_rejects_target_outside_bias_range(self, idq):
        # from about 1e16 up every step's error rounds to a tie
        with pytest.raises(ValueError, match="idq_target"):
            gate_step_for(idq)


class TestTrackDrain:
    """The drain a compression command tracks: ``peak*(1 + DRAIN_MARGIN) +
    vknee`` over the predicted envelope peak, clamped into [VDD_MIN,
    VDD_MAX]."""

    @pytest.fixture(autouse=True)
    def _setup(self, fitted_params):
        self.params = fitted_params
        self.p_sat = full_supply_saturated_pout(fitted_params)

    def vdd(self, setpoint):
        return command_for_mode(
            Mode.COMPRESSION, EnvelopeClass(EnvKind.CONSTANT, 0.0, 0.0),
            setpoint, "40M", self.params, default_band_table()).target.vdd

    def test_floor_clamp(self):
        assert self.vdd(1.0) == 30.0

    def test_ceiling_clamp(self):
        assert self.vdd(0.95 * self.p_sat) == 58.0

    def vdd_at_peak(self, peak, vknee):
        """Drain commanded for the setpoint whose envelope peak is ``peak``."""
        self.params = dataclasses.replace(self.params, vknee=vknee)
        setpoint = pamodel.fundamental_pout(peak, biasctl.IDQ_COMPRESSION,
                                            self.params.rload)
        return self.vdd(setpoint)

    def test_arithmetic(self):
        assert self.vdd_at_peak(45.0, vknee=4.0) == pytest.approx(53.5)

    def test_example_peak_40(self):
        for vknee in (0.0, 4.0):
            assert self.vdd_at_peak(40.0, vknee=vknee) == pytest.approx(
                min(44.0 + vknee, 58.0))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(1e-6, 1.0), st.floats(1e-6, 1.0))
    def test_drain_follows_the_peak_and_never_falls(self, u, v):
        lo, hi = sorted((u * self.p_sat, v * self.p_sat))
        drains = []
        for setpoint in (lo, hi):
            peak = pamodel.swing_for_pout(setpoint, biasctl.IDQ_COMPRESSION,
                                          self.params.rload)
            want = min(max(peak * (1.0 + biasctl.DRAIN_MARGIN)
                           + self.params.vknee, VDD_MIN), VDD_MAX)
            vdd = self.vdd(setpoint)
            assert vdd.hex() == want.hex()
            assert VDD_MIN <= vdd <= VDD_MAX
            drains.append(vdd)
        assert drains[0] <= drains[1]


class TestDecideBias:
    @pytest.fixture(autouse=True)
    def _setup(self, fitted_params):
        self.params = fitted_params
        self.table = default_band_table()
        self.constant = EnvelopeClass(EnvKind.CONSTANT, 0.0, 0.0)
        self.varying = EnvelopeClass(EnvKind.VARYING, 3.0, 1.4)

    def test_constant_goes_compression(self):
        cmd = decide_bias(self.constant, 1000.0, "40M", self.params, self.table)
        assert cmd.mode is Mode.COMPRESSION
        assert cmd.target.idq == 0.5
        assert cmd.target.gate_step == 1

    def test_varying_goes_linear(self):
        cmd = decide_bias(self.varying, 1000.0, "40M", self.params, self.table)
        assert cmd.mode is Mode.LINEAR
        assert cmd.target.idq == 2.0
        assert cmd.target.vdd == self.table["40M"].eq_vdd
        assert cmd.target.gate_step == 4

    def test_commands_stay_in_range(self):
        for setpoint in (50.0, 300.0, 900.0, 1100.0):
            for cls in (self.constant, self.varying):
                cmd = decide_bias(cls, setpoint, "20M", self.params, self.table)
                assert 30.0 <= cmd.target.vdd <= 58.0
                assert cmd.target.idq in GATE_STEP_IDQ

    def test_mode_mapping_is_total(self):
        for cls, mode in ((self.constant, Mode.COMPRESSION),
                          (self.varying, Mode.LINEAR)):
            assert decide_bias(cls, 500.0, "40M", self.params,
                               self.table).mode is mode

    def test_unknown_band(self):
        with pytest.raises(UnknownBand):
            decide_bias(self.constant, 500.0, "23cm", self.params, self.table)

    def test_unreachable_setpoint(self):
        with pytest.raises(SetpointUnreachable):
            decide_bias(self.constant, 1e7, "40M", self.params, self.table)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_zero_setpoint_rejected(self, mode):
        # linear mode asks the model nothing, so the check is its only guard
        with pytest.raises(ValueError, match="> 0, got 0.0"):
            command_for_mode(mode, self.varying, 0.0, "40M", self.params,
                             self.table)

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("setpoint", [math.nan, math.inf, -math.inf])
    def test_non_finite_setpoint_rejected(self, mode, setpoint):
        with pytest.raises(ValueError, match="finite"):
            command_for_mode(mode, self.constant, setpoint, "40M", self.params,
                             self.table)

    def test_reachability_check_is_no_cw_evaluation(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return simulate_cw(*args, **kwargs)

        monkeypatch.setattr(measure, "simulate_cw", counting)
        cmd = command_for_mode(Mode.COMPRESSION, self.constant, 1000.0, "40M",
                               self.params, self.table)
        assert cmd.mode is Mode.COMPRESSION
        assert len(calls) == 0  # the scalar CW law decides a reachable setpoint

    def test_setpoint_past_full_supply_saturation_is_unreachable(self):
        p_sat = full_supply_saturated_pout(self.params)
        assert p_sat < 2000.0
        with pytest.raises(SetpointUnreachable) as err:
            command_for_mode(Mode.COMPRESSION, self.constant, 2000.0, "40M",
                             self.params, self.table)
        assert str(err.value) == full_supply_message(2000.0, p_sat)

    def test_tracked_drain_sits_just_above_envelope(self):
        cmd = decide_bias(self.constant, 1000.0, "40M", self.params, self.table)
        peak = predict_peak_envelope(1000.0, self.params)
        assert cmd.target.vdd == pytest.approx(
            min(58.0, peak * 1.1 + self.params.vknee), rel=1e-9)


def full_supply_saturated_pout(params):
    """CW output at the drive ceiling of the 58 V compression bias."""
    bias = BiasPoint(vdd=58.0, idq=0.5)
    g = 10.0 ** (small_signal_gain_db(bias, params) / 20.0)
    return simulate_cw(10.0 * saturated_swing(bias, params) / g, bias,
                       params).pout_w


def full_supply_message(setpoint, p_sat):
    return (f"setpoint {setpoint} W unreachable: saturated output "
            f"{p_sat:.1f} W below target {setpoint:.1f} W at vdd 58.0 V")


def test_predict_peak_envelope_refuses_a_setpoint_past_full_supply():
    # reachability is decided once, at full supply, whoever asks
    params = PaParams(g0=40.0)
    p_sat = full_supply_saturated_pout(params)
    assert predict_peak_envelope(p_sat, params) > 0
    with pytest.raises(SetpointUnreachable) as err:
        predict_peak_envelope(math.nextafter(p_sat, math.inf), params)
    assert str(err.value) == full_supply_message(
        math.nextafter(p_sat, math.inf), p_sat)


@pytest.mark.parametrize("setpoint", [math.nan, math.inf, -math.inf])
def test_predict_peak_envelope_rejects_non_finite_setpoint(monkeypatch,
                                                           setpoint):
    calls = []
    for module, name in ((biasctl, "swing_for_pout"),
                         (measure, "_cw_pout_law"), (measure, "simulate_cw")):
        monkeypatch.setattr(module, name, lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="must be finite and > 0, got"):
        predict_peak_envelope(setpoint, PaParams(g0=40.0))
    assert calls == []


class TestCompressionDrive:
    def test_reaches_requested_depth(self, fitted_params):
        bias = BiasPoint(vdd=48.0, idq=0.5)
        for depth in (2.0, 2.5, 3.0):
            level = compression_drive(bias, fitted_params, depth_db=depth)
            g_ss = small_signal_gain_db(bias, fitted_params)
            assert cw_gain_db(level, bias, fitted_params) == pytest.approx(
                g_ss - depth, abs=0.01)

    @settings(deadline=None)
    @given(params_st, bias_st, st.floats(0.01, 200.0))
    # g = 1 and s = 0.5: the closed form is exactly 50*a_sat = 2700 V here
    @example(PaParams(g0=1.0, smoothness=0.5), BiasPoint(vdd=58.0, idq=2.0),
             float.fromhex("0x1.1136130cba7eep+5"))
    def test_is_the_rapp_inverse_up_to_fifty_times_a_sat(self, params, bias,
                                                         depth):
        # the closed form (a_sat/g) * (10^(2s*d/20) - 1)^(1/(2s)) (Rapp 1991)
        g, a_sat = gain_and_swing(bias, params)
        s2 = 2.0 * params.smoothness
        try:
            closed = a_sat / g * math.expm1(
                s2 * depth / 20.0 * math.log(10.0)) ** (1.0 / s2)
        except OverflowError:
            closed = math.inf
        if closed > 50.0 * a_sat:
            with pytest.raises(ValueError, match="cannot reach"):
                compression_drive(bias, params, depth)
            return
        level = compression_drive(bias, params, depth)
        assert level == closed
        assert cw_gain_db(level, bias, params) == pytest.approx(
            small_signal_gain_db(bias, params) - depth, abs=1e-9)

    def test_a_depth_past_the_float_range_cannot_be_reached(self):
        with pytest.raises(ValueError, match="cannot reach 1000000.0 dB"):
            compression_drive(BiasPoint(vdd=58.0, idq=2.0),
                              PaParams(g0=40.0), 1e6)

    @pytest.mark.parametrize("depth", [0.0, -2.5, math.nan, 1e4])
    def test_rejects_unreachable_or_non_positive_depth(self, fitted_params,
                                                       depth):
        with pytest.raises(ValueError):
            compression_drive(BiasPoint(vdd=48.0, idq=0.5), fitted_params,
                              depth_db=depth)


class TestModeBenefit:
    def test_compression_beats_linear_at_same_pout(self, fitted_params):
        # same-output-power comparison (the matched-carrier variant lives in
        # the acceptance suite)
        from hfpa.measure import drive_for_pout
        table = default_band_table()
        comp_cmd = command_for_mode(
            Mode.COMPRESSION, EnvelopeClass(EnvKind.CONSTANT, 0.0, 0.0),
            1000.0, "40M", fitted_params, table)
        level_c = compression_drive(comp_cmd.target, fitted_params, 2.5)
        comp = simulate_cw(level_c, comp_cmd.target, fitted_params)
        lin_bias = BiasPoint(vdd=58.0, idq=2.0)
        level_l = drive_for_pout(comp.pout_w, lin_bias, fitted_params)
        lin = simulate_cw(level_l, lin_bias, fitted_params)
        assert 100.0 * (comp.eff - lin.eff) >= 10.0


class TestBandEntry:
    @pytest.mark.parametrize("vdd", [
        math.nan, math.inf, -math.inf,
        math.nextafter(pamodel.VDD_MIN, 0.0),
        math.nextafter(pamodel.VDD_MAX, math.inf)])
    def test_rejects_an_eq_vdd_outside_the_supply_window(self, vdd):
        with pytest.raises(pamodel.InvalidBias, match="eq_vdd"):
            BandEntry(eq_vdd=vdd, ripple_db=0.0)

    @pytest.mark.parametrize("vdd", [pamodel.VDD_MIN, pamodel.VDD_MAX])
    def test_accepts_the_window_edges(self, vdd):
        assert BandEntry(eq_vdd=vdd, ripple_db=0.0).eq_vdd == vdd


class TestEqualizeGains:
    def test_zero_ripple_gives_identical_vdd(self, fitted_params):
        target = small_signal_gain_db(BiasPoint(vdd=44.0, idq=2.0),
                                      fitted_params)
        table = equalize_gains(fitted_params, BANDS, target, idq=2.0)
        vdds = [table[b].eq_vdd for b in BANDS]
        assert max(vdds) - min(vdds) < 1e-6

    def test_positive_ripple_band_gets_lower_vdd(self, fitted_params):
        assert fitted_params.kv > 0
        rippled = with_ripple(fitted_params, {"10M": 1.0})
        target = small_signal_gain_db(BiasPoint(vdd=44.0, idq=2.0),
                                      fitted_params)
        table = equalize_gains(rippled, BANDS, target, idq=2.0)
        assert table["10M"].eq_vdd < table["40M"].eq_vdd

    def test_closed_loop_spread_under_half_db(self, fitted_params):
        rng = np.random.default_rng(11)
        ripple = {b: float(r) for b, r in
                  zip(BANDS, rng.uniform(-1.5, 1.5, len(BANDS)))}
        rippled = with_ripple(fitted_params, ripple)
        target = small_signal_gain_db(BiasPoint(vdd=44.0, idq=2.0),
                                      fitted_params)
        table = equalize_gains(rippled, BANDS, target, idq=2.0)
        gains = []
        for b in BANDS:
            bias = BiasPoint(vdd=table[b].eq_vdd, idq=2.0)
            stats = simulate_cw(0.001, bias, rippled, band=b)
            gains.append(stats.gain_db)
        assert max(gains) - min(gains) < 0.5

    def test_out_of_range_band_is_pinned_at_an_endpoint(self, fitted_params):
        rippled = with_ripple(fitted_params, {"10M": 40.0})
        target = small_signal_gain_db(BiasPoint(vdd=44.0, idq=2.0),
                                      fitted_params)
        table = equalize_gains(rippled, BANDS, target, idq=2.0)
        assert table["10M"].eq_vdd in (30.0, 58.0)

    @pytest.mark.parametrize("kv", [0.03, -0.03])
    @pytest.mark.parametrize("vdd", [VDD_MIN, VDD_MAX])
    def test_a_target_on_an_end_gain_gets_that_end(self, kv, vdd):
        # solved from the gain law, the VDD_MIN end reads 30.000000000000004
        params = PaParams(g0=10.0, kv=kv)
        target = small_signal_gain_db(BiasPoint(vdd=vdd, idq=2.0), params)
        table = equalize_gains(params, ["40M"], target, idq=2.0)
        assert table["40M"].eq_vdd == vdd

    @pytest.mark.parametrize("offset,vdd", [(-1.0, VDD_MIN), (0.0, VDD_MIN),
                                            (1.0, VDD_MAX)])
    def test_a_flat_gain_law_pins_at_vdd_min_unless_the_target_is_above(
            self, offset, vdd):
        # kv == 0: both ends give one gain, so "the nearer endpoint" names
        # neither; the rule is the unswapped endpoints'
        params = PaParams(g0=10.0, kv=0.0)
        gain = small_signal_gain_db(BiasPoint(vdd=44.0, idq=2.0), params)
        table = equalize_gains(params, ["40M"], gain + offset, idq=2.0)
        assert table["40M"].eq_vdd == vdd

    @pytest.mark.parametrize("kv", [0.0, 0.3])
    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_target(self, kv, target):
        # nan fails both endpoint comparisons and would reach the solve
        with pytest.raises(ValueError, match="target gain"):
            equalize_gains(PaParams(g0=40.0, kv=kv), BANDS, target, idq=2.0)


@settings(deadline=None)
@given(kv=st.floats(-1.0, 1.0).filter(lambda kv: abs(kv) > 1e-6),
       g0=st.floats(0.5, 1000.0), idq=st.floats(0.1, 3.0),
       ripple=st.lists(st.floats(-3.0, 3.0), min_size=len(BANDS),
                       max_size=len(BANDS)),
       target_vdd=st.floats(30.0, 58.0))
def test_unclamped_bands_land_on_target(kv, g0, idq, ripple, target_vdd):
    params = PaParams(g0=g0, kv=kv, ripple=dict(zip(BANDS, ripple)))
    target = small_signal_gain_db(BiasPoint(vdd=target_vdd, idq=idq), params)
    table = equalize_gains(params, BANDS, target, idq=idq)
    for band in BANDS:
        g30, g58 = (small_signal_gain_db(BiasPoint(vdd=v, idq=idq), params, band)
                    for v in (30.0, 58.0))
        if min(g30, g58) < target < max(g30, g58):
            gain = small_signal_gain_db(
                BiasPoint(vdd=table[band].eq_vdd, idq=idq), params, band)
            assert gain == pytest.approx(target, abs=1e-9)


class TestControllerHysteresis:
    def make_controller(self, fitted_params):
        return BiasController(params=fitted_params,
                              table=default_band_table(), window_s=WINDOW)

    def test_switch_requires_three_consecutive_windows(self, fitted_params):
        ctl = self.make_controller(fitted_params)
        assert ctl.mode is Mode.LINEAR
        cw = block_of(Kind.CW)
        modes = [ctl.process(cw, "40M", 800.0).mode for _ in range(4)]
        assert modes == [Mode.LINEAR, Mode.LINEAR, Mode.COMPRESSION,
                         Mode.COMPRESSION]

    def test_alternation_never_switches(self, fitted_params):
        ctl = self.make_controller(fitted_params)
        cw, am = block_of(Kind.CW), block_of(Kind.AM)
        for blk in (cw, am, cw, am, cw, am):
            assert ctl.process(blk, "40M", 800.0).mode is Mode.LINEAR

    def test_switch_back_needs_three_windows_too(self, fitted_params):
        ctl = self.make_controller(fitted_params)
        cw, am = block_of(Kind.CW), block_of(Kind.AM)
        for _ in range(3):
            ctl.process(cw, "40M", 800.0)
        assert ctl.mode is Mode.COMPRESSION
        modes = [ctl.process(am, "40M", 800.0).mode for _ in range(3)]
        assert modes == [Mode.COMPRESSION, Mode.COMPRESSION, Mode.LINEAR]

    @pytest.mark.parametrize("window", [math.nan, math.inf, -1.0, 0.0])
    def test_bad_window_rejected_at_construction(self, window):
        with pytest.raises(ValueError,
                           match="window_s must be finite and > 0"):
            BiasController(params=PaParams(g0=40.0),
                           table=default_band_table(), window_s=window)

    # nor is the mode: every controller starts linear
    @pytest.mark.parametrize("private", [{"_pending_mode": Mode.COMPRESSION},
                                         {"_pending_count": 2},
                                         {"mode": Mode.COMPRESSION}])
    def test_pending_state_is_not_a_constructor_argument(self, private):
        with pytest.raises(TypeError):
            BiasController(params=PaParams(g0=40.0),
                           table=default_band_table(), window_s=WINDOW,
                           **private)

    def test_one_swing_solve_per_setpoint(self, fitted_params):
        ctl = BiasController(params=fitted_params, table=default_band_table(),
                             window_s=WINDOW)
        ctl.mode = Mode.COMPRESSION
        cw = block_of(Kind.CW)
        pamodel.swing_for_pout.cache_clear()
        for _ in range(20):
            assert ctl.process(cw, "40M", 800.0).mode is Mode.COMPRESSION
        info = pamodel.swing_for_pout.cache_info()
        assert (info.misses, info.hits) == (1, 19)

    def test_command_reports_reason_metrics(self, fitted_params):
        ctl = self.make_controller(fitted_params)
        cmd = ctl.process(block_of(Kind.AM), "40M", 500.0)
        assert cmd.reason.kind is EnvKind.VARYING
        assert cmd.reason.papr_db > 0


@pytest.fixture(scope="module")
def cw_am_blocks():
    return {True: block_of(Kind.CW), False: block_of(Kind.AM)}


@settings(deadline=None, max_examples=60)
@given(st.lists(st.booleans(), min_size=1, max_size=20))
def test_hysteresis_rule(fitted_params, cw_am_blocks, windows):
    """Controller modes match an independent model of the switching rule.

    The model: a mode switch happens at the window that completes a run of
    HYSTERESIS_WINDOWS consecutive windows asking for the other mode.
    """
    ctl = BiasController(params=fitted_params, table=default_band_table(),
                         window_s=WINDOW)
    mode, run, prev = Mode.LINEAR, 0, None
    for constant in windows:
        run = run + 1 if constant == prev else 1
        prev = constant
        if run >= HYSTERESIS_WINDOWS:
            mode = Mode.COMPRESSION if constant else Mode.LINEAR
        cmd = ctl.process(cw_am_blocks[constant], "40M", 800.0)
        assert cmd.reason.kind is (EnvKind.CONSTANT if constant
                                   else EnvKind.VARYING)
        assert cmd.mode is mode
        assert cmd.target.idq == (0.5 if mode is Mode.COMPRESSION else 2.0)
