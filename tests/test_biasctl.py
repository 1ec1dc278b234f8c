"""Controller tests: envelope classification, bias decisions, drain tracking,
gate ladder, gain equalization, and switch hysteresis."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hfpa import measure
from hfpa.biasctl import (BiasController, EnvKind, EnvelopeClass, Mode,
                          SetpointUnreachable, WindowTooShort,
                          classify_envelope, command_for_mode,
                          compression_drive, decide_bias, default_band_table,
                          equalize_gains, gate_step_for, predict_peak_envelope,
                          track_drain, GATE_STEP_IDQ, HYSTERESIS_WINDOWS)
from hfpa.bands import BANDS
from hfpa.measure import UnknownBand, simulate_cw
from hfpa.pamodel import (SWING_MAX, BiasPoint, PaParams, fundamental_pout,
                          saturated_swing, small_signal_gain_db, with_ripple)
from hfpa.signalgen import IqBlock, Kind, WaveformSpec, generate

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

    def test_window_too_short(self):
        with pytest.raises(WindowTooShort):
            classify_envelope(block_of(Kind.CW), window_s=1.0)

    def test_silence_counts_as_constant(self):
        blk = IqBlock(np.zeros(20000, dtype=complex), FS)
        assert classify_envelope(blk, WINDOW).kind is EnvKind.CONSTANT


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


class TestTrackDrain:
    def test_floor_clamp(self):
        assert track_drain(0.0) == 30.0

    def test_ceiling_clamp(self):
        assert track_drain(70.0) == 58.0

    def test_arithmetic(self):
        assert track_drain(45.0, vknee=4.0) == pytest.approx(53.5)

    def test_example_peak_40(self):
        for vknee in (0.0, 4.0):
            assert track_drain(40.0, vknee=vknee) == pytest.approx(
                min(44.0 + vknee, 58.0))


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
    @pytest.mark.parametrize("setpoint", [math.nan, math.inf, -math.inf])
    def test_non_finite_setpoint_rejected(self, mode, setpoint):
        with pytest.raises(ValueError, match="finite"):
            command_for_mode(mode, self.constant, setpoint, "40M", self.params,
                             self.table)

    def test_reachability_check_is_one_cw_evaluation(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return simulate_cw(*args, **kwargs)

        monkeypatch.setattr(measure, "simulate_cw", counting)
        cmd = command_for_mode(Mode.COMPRESSION, self.constant, 1000.0, "40M",
                               self.params, self.table)
        assert cmd.mode is Mode.COMPRESSION
        assert len(calls) == 1

    def test_setpoint_past_full_supply_saturation_is_unreachable(self):
        # 2000 W lies above the 58 V saturated output but below what the
        # conduction model's widest swing would deliver, so only the
        # full-supply saturation test can reject it
        bias = BiasPoint(vdd=58.0, idq=0.5)
        g = 10.0 ** (small_signal_gain_db(bias, self.params) / 20.0)
        p_sat = simulate_cw(10.0 * saturated_swing(bias, self.params) / g,
                            bias, self.params).pout_w
        assert p_sat < 2000.0 < fundamental_pout(SWING_MAX, 0.5,
                                                 self.params.rload)
        message = (f"setpoint 2000.0 W unreachable: saturated output "
                   f"{p_sat:.1f} W below target 2000.0 W at vdd 58.0 V")
        with pytest.raises(SetpointUnreachable) as err:
            command_for_mode(Mode.COMPRESSION, self.constant, 2000.0, "40M",
                             self.params, self.table)
        assert str(err.value) == message

    def test_tracked_drain_sits_just_above_envelope(self):
        cmd = decide_bias(self.constant, 1000.0, "40M", self.params, self.table)
        peak = predict_peak_envelope(1000.0, 0.5, self.params)
        assert cmd.target.vdd == pytest.approx(
            min(58.0, peak * 1.1 + self.params.vknee), rel=1e-9)


class TestCompressionDrive:
    def test_reaches_requested_depth(self, fitted_params):
        bias = BiasPoint(vdd=48.0, idq=0.5)
        for depth in (2.0, 2.5, 3.0):
            level = compression_drive(bias, fitted_params, depth_db=depth)
            from hfpa.measure import gain_at_drive
            g_ss = small_signal_gain_db(bias, fitted_params)
            assert gain_at_drive(level, bias, fitted_params) == pytest.approx(
                g_ss - depth, abs=0.01)


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
        assert not any(table[b].clamped for b in BANDS)

    def test_out_of_range_band_is_flagged(self, fitted_params):
        rippled = with_ripple(fitted_params, {"10M": 40.0})
        target = small_signal_gain_db(BiasPoint(vdd=44.0, idq=2.0),
                                      fitted_params)
        table = equalize_gains(rippled, BANDS, target, idq=2.0)
        assert table["10M"].clamped
        assert table["10M"].eq_vdd in (30.0, 58.0)


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
            assert not table[band].clamped
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
