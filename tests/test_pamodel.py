"""Amplifier-model tests: conduction currents against a numerical-integration
oracle, the Rapp envelope law, and steady-state power bookkeeping."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import romb

from hfpa import kernels
from hfpa.measure import gain_at_drive
from hfpa.pamodel import (BiasPoint, InvalidBias, NonPositiveIdq,
                          OutOfRangeAlpha, PaParams, _fourier_clipped, am_am,
                          bisect, compression_level, conduction_currents,
                          efficiency_curve, load_params, saturated_swing,
                          save_params, simulate, small_signal_gain_db,
                          swing_for_pout)
from hfpa.signalgen import IqBlock

TWO_PI = 2.0 * math.pi


def oracle_currents(idq, ipk, k=12):
    """Trapezoid-with-Richardson integration of max(0, idq + ipk*cos th).

    Integrates over the conduction interval only (the integrand is smooth
    there), which keeps the extrapolated trapezoid rule at ~1e-13 relative.
    Independent of the closed form under test.
    """
    if ipk <= 0:
        return max(idq, 0.0), 0.0
    x = min(max(-idq / ipk, -1.0), 1.0)
    thc = math.acos(x)
    if thc == 0.0:
        return 0.0, 0.0
    th = np.linspace(-thc, thc, 2 ** k + 1)
    w = idq + ipk * np.cos(th)
    dx = th[1] - th[0]
    idc = romb(w, dx=dx) / TWO_PI
    i1 = romb(w * np.cos(th), dx=dx) / math.pi
    return idc, i1


class TestConductionCurrents:
    def test_no_drive_is_pure_dc(self):
        assert conduction_currents(1.0, 0.0) == (TWO_PI, 1.0, 0.0)

    def test_unclipped_class_a_region(self):
        alpha, idc, i1 = conduction_currents(2.0, 1.0)
        assert alpha == TWO_PI
        assert idc == 2.0
        assert i1 == 1.0

    def test_class_b_limit(self):
        # idq -> 0+ with unit drive: alpha -> pi, idc -> 1/pi, i1 -> 1/2
        alpha, idc, i1 = conduction_currents(1e-12, 1.0)
        assert alpha == pytest.approx(math.pi, rel=1e-9)
        idc_o, i1_o = oracle_currents(1e-12, 1.0)
        assert idc == pytest.approx(idc_o, rel=1e-9)
        assert i1 == pytest.approx(i1_o, rel=1e-9)
        assert idc == pytest.approx(1.0 / math.pi, rel=1e-6)
        assert i1 == pytest.approx(0.5, rel=1e-6)

    def test_matches_integration_oracle_on_random_points(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            idq = float(rng.uniform(0.01, 3.0))
            ipk = float(rng.uniform(0.0, 120.0))
            _, idc, i1 = conduction_currents(idq, ipk)
            idc_o, i1_o = oracle_currents(idq, ipk)
            assert idc == pytest.approx(idc_o, rel=1e-9)
            assert i1 == pytest.approx(i1_o, rel=1e-9, abs=1e-12)

    def test_rejects_nonpositive_idq(self):
        with pytest.raises(NonPositiveIdq):
            conduction_currents(0.0, 1.0)
        with pytest.raises(NonPositiveIdq):
            conduction_currents(-1.0, 1.0)


class TestEfficiencyCurve:
    def test_class_a_and_class_b_points(self):
        (_, eta_a), (_, eta_b) = efficiency_curve([TWO_PI, math.pi])
        assert eta_a == pytest.approx(0.5, abs=1e-6)
        assert eta_b == pytest.approx(math.pi / 4.0, abs=1e-6)

    def test_matches_oracle(self):
        for alpha in np.linspace(0.2, TWO_PI, 40):
            (_, eta), = efficiency_curve([alpha])
            idq = -math.cos(alpha / 2.0)
            idc_o, i1_o = oracle_currents(idq, 1.0)
            assert eta == pytest.approx(0.5 * i1_o / idc_o, rel=1e-6)

    def test_class_c_limit_approaches_unity(self):
        (_, eta), = efficiency_curve([0.1])
        assert eta > 0.99

    def test_strictly_decreasing_in_alpha(self):
        alphas = np.linspace(0.2, TWO_PI, 200)
        etas = [eta for _, eta in efficiency_curve(alphas)]
        assert all(a > b for a, b in zip(etas, etas[1:]))

    def test_fundamental_to_dc_ratio_grows_as_angle_shrinks(self):
        ratios = []
        for alpha in np.linspace(TWO_PI, 0.2, 50):
            idq = -math.cos(alpha / 2.0)
            _, idc, i1 = _fourier_clipped(idq, 1.0)
            ratios.append(i1 / idc)
        assert all(b > a - 1e-12 for a, b in zip(ratios, ratios[1:]))

    def test_rejects_out_of_range_alpha(self):
        with pytest.raises(OutOfRangeAlpha):
            efficiency_curve([0.0])
        with pytest.raises(OutOfRangeAlpha):
            efficiency_curve([TWO_PI + 0.1])


REF_BIAS = BiasPoint(vdd=58.0, idq=2.0)


def make_params(**kw):
    defaults = dict(g0=40.0, kv=0.4, rload=0.4, vknee=4.0, smoothness=2.0)
    defaults.update(kw)
    return PaParams(**defaults)


class TestAmAm:
    def test_small_signal_linearity(self):
        p = make_params()
        a_sat = REF_BIAS.vdd - p.vknee
        g = 10.0 ** (small_signal_gain_db(REF_BIAS, p) / 20.0)
        a_in = 0.01 * a_sat / g
        assert am_am(a_in, REF_BIAS, p) == pytest.approx(g * a_in, rel=1e-4)

    def test_hard_limiter_asymptote(self):
        p = make_params(smoothness=20.0)
        a_sat = REF_BIAS.vdd - p.vknee
        g = 10.0 ** (small_signal_gain_db(REF_BIAS, p) / 20.0)
        a_in = 2.0 * a_sat / g
        assert am_am(a_in, REF_BIAS, p) == pytest.approx(a_sat, rel=1e-3)

    def test_closed_form_point(self):
        # g = 10, a_sat = 1, s = 1, a_in = 0.1 -> 1/sqrt(2)
        bias = BiasPoint(vdd=31.0, idq=2.0)
        p = PaParams(g0=10.0, kv=0.0, rload=1.0, vknee=30.0 - 1e-9,
                     smoothness=1.0)
        # a_sat = 31 - vknee = 1 + 1e-9
        out = am_am(0.1, bias, p)
        assert out == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-6)

    def test_monotone_and_slope_bounded_by_gain(self):
        p = make_params(smoothness=1.3)
        g = 10.0 ** (small_signal_gain_db(REF_BIAS, p) / 20.0)
        a = np.linspace(0.0, 10.0, 4000)
        out = am_am(a, REF_BIAS, p)
        d = np.diff(out)
        assert np.all(d >= -1e-12)
        assert np.max(d / np.diff(a)) <= g * (1.0 + 1e-9)
        assert np.all(out < REF_BIAS.vdd - p.vknee)


class TestSimulate:
    def test_zero_input_draws_quiescent_power(self):
        p = make_params()
        block = IqBlock(np.zeros(64, dtype=complex), 1e6)
        out, stats = simulate(block, REF_BIAS, p)
        assert stats.pout_w == 0.0
        assert stats.pdc_w == pytest.approx(REF_BIAS.vdd * REF_BIAS.idq, rel=1e-12)
        assert stats.gain_db is None
        assert np.all(out.samples == 0)

    def test_dissipation_identity_exact(self):
        p = make_params(shape_beta=3.0, shape_exp=8.0, shape_sat=20.0)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(0, 0.3, 256) + 1j * rng.normal(0, 0.3, 256)
            _, stats = simulate(IqBlock(x, 1e6), REF_BIAS, p)
            assert stats.pdiss_w == stats.pdc_w - stats.pout_w
            assert stats.pdc_w >= stats.pout_w
            assert 0 < stats.eff <= 1.0
            assert stats.pdiss_w == pytest.approx(
                stats.pout_w * (1.0 / stats.eff - 1.0), rel=1e-9, abs=1e-9)

    def test_phase_preserved(self):
        p = make_params()
        rng = np.random.default_rng(4)
        x = rng.normal(0, 0.4, 128) + 1j * rng.normal(0, 0.4, 128)
        out, _ = simulate(IqBlock(x, 1e6), REF_BIAS, p)
        mask = np.abs(x) > 0
        np.testing.assert_allclose(np.angle(out.samples[mask]),
                                   np.angle(x[mask]), atol=1e-12)

    def test_calibrated_small_signal_gain_at_58v(self, fitted_params):
        g = small_signal_gain_db(BiasPoint(vdd=58.0, idq=2.0), fitted_params)
        assert g == pytest.approx(32.0, abs=0.5)

    def test_efficiency_rises_as_vdd_falls_at_fixed_pout(self, fitted_params):
        from hfpa.measure import drive_for_pout, simulate_cw
        effs = []
        for vdd in (58.0, 53.0, 48.0, 43.0, 38.0):
            bias = BiasPoint(vdd=vdd, idq=2.0)
            level = drive_for_pout(600.0, bias, fitted_params)
            effs.append(simulate_cw(level, bias, fitted_params).eff)
        assert all(b > a for a, b in zip(effs, effs[1:]))

    def test_band_ripple_shifts_gain(self):
        p = make_params(ripple={"10M": 1.0})
        block = IqBlock(np.full(64, 0.001 + 0j), 1e6)
        _, flat = simulate(block, REF_BIAS, p)
        _, bumped = simulate(block, REF_BIAS, p, band="10M")
        assert bumped.gain_db - flat.gain_db == pytest.approx(1.0, abs=1e-9)

    def test_rejects_non_bias(self):
        p = make_params()
        with pytest.raises(InvalidBias):
            simulate(IqBlock(np.ones(8, dtype=complex), 1e6), None, p)


def test_pipeline_zero_drive_semantics():
    env = np.zeros(8)
    aout = np.empty(8)
    sum_a2, sum_vi1, sum_idc = kernels.pa_pipeline(
        env, 40.0, 54.0, 2.0, 0.4, 2.0, 3.0, 8.0, 20.0, aout)
    assert sum_a2 == 0.0
    assert sum_vi1 == 0.0
    assert sum_idc == pytest.approx(8 * 2.0, rel=1e-15)  # quiescent only
    assert np.all(aout == 0.0)


class TestParamsConfig:
    def test_round_trip(self, tmp_path):
        p = make_params(ki=0.3, shape_beta=3.84, shape_exp=8.16,
                        shape_sat=20.7, ripple={"40M": -0.5, "10M": 1.5})
        path = tmp_path / "pa.cfg"
        save_params(p, path)
        q = load_params(path)
        for k in ("g0", "kv", "ki", "rload", "vknee", "smoothness",
                  "shape_beta", "shape_exp", "shape_sat"):
            assert getattr(q, k) == pytest.approx(getattr(p, k), rel=1e-12)
        assert q.ripple == p.ripple

    def test_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("g0 = 40\nbogus = 1\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_params(path)

    def test_validation(self):
        with pytest.raises(ValueError):
            PaParams(g0=-1.0)
        with pytest.raises(ValueError):
            PaParams(g0=10.0, vknee=30.0)
        with pytest.raises(ValueError):
            PaParams(g0=10.0, smoothness=0.4)
        with pytest.raises(InvalidBias):
            BiasPoint(vdd=29.0, idq=2.0)
        with pytest.raises(InvalidBias):
            BiasPoint(vdd=58.0, idq=2.0, gate_step=5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["g0", "kv", "ki", "rload", "vknee",
                                     "smoothness", "shape_beta", "shape_exp",
                                     "shape_sat", "ripple.40M"])
    def test_rejects_non_finite_params(self, tmp_path, key, value):
        path = tmp_path / "pa.cfg"
        save_params(make_params(), path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{key} = {value}\n")
        with pytest.raises(ValueError, match="finite"):
            load_params(path)
        if key.startswith("ripple."):
            kwargs = {"ripple": {key[len("ripple."):]: value}}
        else:
            kwargs = {key: value}
        with pytest.raises(ValueError, match="finite"):
            make_params(**kwargs)

    @pytest.mark.parametrize("vdd, idq", [
        (48.0, math.nan), (48.0, math.inf), (math.nan, 2.0), (math.inf, 2.0)])
    def test_bias_rejects_non_finite(self, vdd, idq):
        with pytest.raises(InvalidBias):
            BiasPoint(vdd=vdd, idq=idq)


# --- closed-form inverses and the shared root helper ------------------------

params_st = st.builds(
    PaParams, g0=st.floats(0.5, 1000.0), kv=st.floats(-1.0, 1.0),
    ki=st.floats(-10.0, 10.0), rload=st.floats(0.05, 0.95),
    vknee=st.floats(0.0, 29.0), smoothness=st.floats(0.5, 20.0),
    ripple=st.fixed_dictionaries({"40M": st.floats(-3.0, 3.0)}))
bias_st = st.builds(BiasPoint, vdd=st.floats(30.0, 58.0),
                    idq=st.floats(0.1, 3.0))


@settings(deadline=None)
@given(params_st, bias_st, st.sampled_from([None, "40M"]),
       st.floats(0.01, 30.0))
def test_compression_level_inverts_the_gain_law(params, bias, band, depth):
    level = compression_level(bias, params, depth, band)
    g_ss = small_signal_gain_db(bias, params, band)
    assert gain_at_drive(level, bias, params, band) == pytest.approx(
        g_ss - depth, abs=1e-9)


@pytest.mark.parametrize("depth", [0.0, -1.0, math.nan])
def test_compression_level_rejects_non_positive_depth(depth):
    with pytest.raises(ValueError, match="depth"):
        compression_level(REF_BIAS, make_params(), depth)


def test_compression_level_beyond_float_range_is_infinite():
    assert compression_level(REF_BIAS, make_params(), 1e6) == math.inf


@settings(deadline=None)
@given(params_st, bias_st,
       st.lists(st.one_of(st.floats(0.0, 10.0), st.floats(0.0, 1000.0),
                          st.floats(0.0, 1e250)),
                min_size=2, max_size=64))
def test_am_am_monotone_and_below_a_sat(params, bias, drives):
    # drives in units of the input level where g*a_in reaches a_sat, up to
    # far past the point where (u/a_sat)^(2s) leaves the float range
    a_sat = saturated_swing(bias, params)
    g = 10.0 ** (small_signal_gain_db(bias, params) / 20.0)
    drives = np.sort(drives)
    out = am_am(drives * (a_sat / g), bias, params)
    # deep in saturation u / (1 + r^(2s))^(1/(2s)) rounds either way by a
    # few ulp of a_sat; past 1000x the rounded exponent 1/(2s) adds up to
    # ln(r)/2 ulp, so each drive's allowance grows by ln(drive/1000) there
    tol = (8.0 + np.log(np.maximum(drives, 1000.0) / 1000.0)) * (
        np.finfo(np.float64).eps * a_sat)
    # a pair is held to the allowance of its larger (later) drive
    assert np.all(np.diff(out) >= -tol[1:])
    assert np.all(out <= a_sat + tol)
    assert np.all(out[drives <= 1.0] < a_sat)


@pytest.mark.parametrize("u", [1e9, 1e300])
def test_rapp_saturates_past_the_float_range(u):
    # (u/a_sat)^40 overflows here; the limit is a_sat, with no warning
    out = np.empty(3)
    res = kernels.rapp(np.array([u, 0.5, 0.0]), 1.0, 20.0, out=out)
    assert res is out
    assert out.tolist() == [1.0, kernels.rapp(np.array([0.5]), 1.0, 20.0)[0],
                            0.0]
    assert kernels.rapp(np.asarray(u), 1.0, 20.0) == 1.0


def reference_swing(pout, idq, rload):
    """The 200-step loop that ``swing_for_pout`` replaced, kept as its oracle."""
    lo, hi = 1e-6, 400.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        _, _, i1 = _fourier_clipped(idq, mid / rload)
        if mid * i1 / 2.0 < pout:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@settings(deadline=None)
@given(st.floats(1e-15, 1e5), st.floats(0.05, 3.0), st.floats(0.05, 0.95))
def test_swing_for_pout_matches_the_200_step_loop(pout, idq, rload):
    assert (swing_for_pout(pout, idq, rload).hex()
            == reference_swing(pout, idq, rload).hex())


def test_bisect_stops_at_the_float_fixed_point():
    calls = []
    root = bisect(lambda x: calls.append(x) or x - 0.1, 0.0, 1.0)
    assert abs(root - 0.1) <= math.ulp(0.1)
    assert len(calls) < 70


def test_bisect_tolerance_exit():
    # midpoints 0.5 (f = 0.2) then 0.25 (f = -0.05, within tol)
    assert bisect(lambda x: x - 0.3, 0.0, 1.0, tol=0.1) == 0.25
    assert bisect(lambda x: x - 0.3, 0.0, 1.0, tol=1e-30, max_iter=5) is None
