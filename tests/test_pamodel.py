"""Amplifier-model tests: conduction currents against a numerical-integration
oracle, the Rapp envelope law, and steady-state power bookkeeping."""
import math
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import romb

from hfpa import kernels
from hfpa.bands import UnknownBand
from hfpa.pamodel import (GAIN_DB_MAX, GATE_STEP_IDQ, IDQ_MAX, IDQ_REF,
                          PARAM_RULES, BiasPoint, GainOutOfRange, InvalidBias,
                          NonPositiveIdq, OutOfRangeAlpha, PaParams,
                          _fourier_clipped, _rapp_scalar, bisect,
                          conduction_currents,
                          efficiency_curve, fundamental_pout, gain_and_swing,
                          gate_step_for, load_params, saturated_swing,
                          save_params, simulate, small_signal_gain_db,
                          swing_for_pout, with_ripple)
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

    @pytest.mark.parametrize("ipk", [-1.0, -5e-324, -math.inf])
    def test_rejects_negative_drive(self, ipk):
        with pytest.raises(ValueError, match="^ipk must be >= 0, got"):
            conduction_currents(1.0, ipk)

    @pytest.mark.parametrize("idq, ipk", [
        (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)])
    def test_rejects_non_finite_currents(self, idq, ipk):
        with pytest.raises(ValueError, match="finite"):
            conduction_currents(idq, ipk)


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


def am_am(levels, bias, params):
    """The AM/AM law on an array of drive levels: ``kernels.rapp`` on
    ``g*a``, as ``kernels.pa_pipeline`` applies it to each envelope sample;
    ``g*a`` past the float range is ``inf``."""
    g, a_sat = gain_and_swing(bias, params)
    with np.errstate(over="ignore"):
        u = g * np.asarray(levels, dtype=np.float64)
    return kernels.rapp(u, a_sat, params.smoothness, np.empty_like(u))


class TestAmAm:
    def test_small_signal_linearity(self):
        p = make_params()
        a_sat = REF_BIAS.vdd - p.vknee
        g = 10.0 ** (small_signal_gain_db(REF_BIAS, p) / 20.0)
        a_in = 0.01 * a_sat / g
        assert am_am([a_in], REF_BIAS, p)[0] == pytest.approx(g * a_in,
                                                            rel=1e-4)

    def test_hard_limiter_asymptote(self):
        p = make_params(smoothness=20.0)
        a_sat = REF_BIAS.vdd - p.vknee
        g = 10.0 ** (small_signal_gain_db(REF_BIAS, p) / 20.0)
        a_in = 2.0 * a_sat / g
        assert am_am([a_in], REF_BIAS, p)[0] == pytest.approx(a_sat, rel=1e-3)

    def test_closed_form_point(self):
        # g = 10, a_sat = 1, s = 1, a_in = 0.1 -> 1/sqrt(2)
        bias = BiasPoint(vdd=31.0, idq=2.0)
        p = PaParams(g0=10.0, kv=0.0, rload=1.0, vknee=30.0 - 1e-9,
                     smoothness=1.0)
        # a_sat = 31 - vknee = 1 + 1e-9
        out = am_am([0.1], bias, p)[0]
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

    def test_drive_whose_amplified_level_overflows_gives_a_sat(self):
        # g*a_in is inf at 1e307 and g0 40: the limit, with no warning
        p = PaParams(g0=40.0)
        a_sat = saturated_swing(REF_BIAS, p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert am_am([1e307, 0.0], REF_BIAS, p).tolist() == [a_sat, 0.0]


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

    def test_gain_undefined_when_input_power_overflows(self):
        # finite samples whose squares overflow: no warning, saturated output
        p = make_params()
        _, stats = simulate(IqBlock(np.full(64, 1e200 + 0j), 1e6), REF_BIAS, p)
        assert stats.gain_db is None
        assert stats.pout_w == pytest.approx(
            fundamental_pout(saturated_swing(REF_BIAS, p), 2.0, p.rload))

    def test_gain_undefined_when_output_power_underflows(self):
        # |x|^2 = 4e-324 is a subnormal, but (g*|x|)^2 = 1e-324 rounds to 0
        bias, p = BiasPoint(vdd=58.0, idq=2.0), PaParams(g0=0.5, rload=0.4)
        _, stats = simulate(IqBlock(np.full(64, 2e-162 + 0j), 1e6), bias, p)
        assert stats.gain_db is None
        assert stats.pout_w == 0.0

    def test_amplified_envelope_past_the_float_range_saturates(self):
        # g*|x| overflows to inf at 1e307 and g0 40; the limiter gives a_sat,
        # with no warning, and the output block stays finite
        bias, p = BiasPoint(vdd=58.0, idq=2.0), PaParams(g0=40.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, stats = simulate(IqBlock(np.full(64, 1e307 + 0j), 1e6),
                                  bias, p)
        a_sat = saturated_swing(bias, p)
        assert np.all(np.isfinite(out.samples))
        np.testing.assert_allclose(out.samples, a_sat, rtol=1e-15)
        assert stats.gain_db is None
        assert stats.pout_w == pytest.approx(
            fundamental_pout(a_sat, bias.idq, p.rload))

    def test_rejects_non_bias(self):
        p = make_params()
        with pytest.raises(InvalidBias):
            simulate(IqBlock(np.ones(8, dtype=complex), 1e6), None, p)


def test_pipeline_zero_drive_semantics():
    x = np.zeros(8, dtype=complex)
    p = PaParams(g0=40.0, rload=0.4, smoothness=2.0, shape_beta=3.0,
                 shape_exp=8.0, shape_sat=20.0)
    out, sum_a2, sum_vi1, sum_idc, sum_e2 = kernels.pa_pipeline(
        x, 40.0, 54.0, 2.0, p)
    assert sum_a2 == 0.0
    assert sum_e2 == 0.0
    assert sum_vi1 == 0.0
    assert sum_idc == pytest.approx(8 * 2.0, rel=1e-15)  # quiescent only
    assert np.all(out == 0.0)


def reference_pipeline(x, g, a_sat, idq, params):
    """``kernels.pa_pipeline`` as plain expressions on fresh temporaries:
    the oracle that its workspace form must match bit for bit.

    The output is ``x * (aout/max(env, tiny))``, ``tiny`` the smallest
    subnormal. The ``env^2`` sum is a dot product for a constant envelope
    (every sample has the first one's bits) shorter than
    ``kernels.SPLIT_MIN``, and numpy's reduction for every other block."""
    env = np.abs(x)
    aout = kernels.rapp(g * env, a_sat, params.smoothness, np.empty_like(env))
    ipk = aout / params.rload
    cos_thc = -idq / np.maximum(ipk, idq)
    thc = np.arccos(cos_thc)
    sin_thc = np.sqrt(1.0 - cos_thc * cos_thc)
    idc = (idq * thc + ipk * sin_thc) / np.pi
    i1 = (2.0 * idq * sin_thc + ipk * (thc + sin_thc * cos_thc)) / np.pi
    r = aout / a_sat
    rp = r ** params.shape_exp
    shape = 1.0 - params.shape_beta * rp / (1.0 + params.shape_sat * rp)
    constant = (x.size < kernels.SPLIT_MIN
                and np.unique(env.view(np.uint64)).size == 1)
    return (x * (aout / np.maximum(env, math.ulp(0.0))),
            float(np.sum(aout * aout)),
            float(np.sum(aout * i1)),
            float(np.sum(idc * shape)),
            float(np.dot(env, env) if constant else np.add.reduce(env * env)))


def reference_gain_db(sum_a2, sum_e2):
    """``simulate``'s ``gain_db`` from the oracle's sums."""
    return (10.0 * math.log10(sum_a2 / sum_e2)
            if 0.0 < sum_e2 < math.inf else None)


#: Block lengths in an order that switches the workspace's length on every
#: call; 131073 is past ``signalgen.CACHE_MAX_SAMPLES``, the uncached path.
#: 65535 is one sample short of ``kernels.SPLIT_MIN``, and 65537 and 131071
#: split into uneven halves, so the output block's halves that the law
#: borrows as scratch rows have odd lengths.
PARITY_LENGTHS = (131072, 1, 131073, 64, 65535, 10000, 65536, 1, 65537,
                  131071, 64, 131072, 10000, 131073, 64)


def parity_case(rng, n, zero):
    """Random params, bias point and an ``n``-sample envelope that mixes
    the clipping onset ``a_out = idq*rload``, a spread of levels and deep
    saturation, up to where the limiter's power overflows; all zero when
    ``zero``."""
    params = PaParams(
        g0=rng.uniform(0.5, 1000.0), kv=rng.uniform(-1.0, 1.0),
        ki=rng.uniform(-10.0, 10.0), rload=rng.uniform(0.05, 0.95),
        vknee=rng.uniform(0.0, 29.0), smoothness=rng.uniform(0.5, 20.0),
        shape_beta=rng.choice([0.0, rng.uniform(0.0, 5.0)]),
        shape_exp=rng.choice([0.5, 1.0, 2.0, rng.uniform(0.1, 10.0)]),
        shape_sat=rng.uniform(0.0, 30.0))
    bias = BiasPoint(vdd=rng.uniform(30.0, 58.0), idq=rng.uniform(0.1, 3.0))
    g, a_sat = gain_and_swing(bias, params)
    if zero:
        return params, bias, np.zeros(n)
    onset = bias.idq * params.rload / g * (1.0 + rng.uniform(-1e-3, 1e-3, n))
    levels = np.stack([np.zeros(n), onset, rng.uniform(0.0, 2.0, n) * a_sat / g,
                       10.0 ** rng.uniform(1.0, 20.0, n) * a_sat / g])
    return params, bias, levels[rng.integers(0, 4, n), np.arange(n)]


def test_workspace_pipeline_matches_the_plain_expressions(two_cpus):
    rng = np.random.default_rng(14)
    for case, n in enumerate(PARITY_LENGTHS * 2):
        params, bias, env = parity_case(rng, n, zero=case % 7 == 0)
        g, a_sat = gain_and_swing(bias, params)
        # zero levels give samples of every zero sign
        x = env * np.exp(1j * rng.uniform(-3.0, 3.0, n))
        x.flags.writeable = False  # a write would raise
        want = reference_pipeline(x, g, a_sat, bias.idq, params)
        out, *sums = kernels.pa_pipeline(x, g, a_sat, bias.idq, params)
        assert out.tobytes() == want[0].tobytes()
        assert [v.hex() for v in sums] == [v.hex() for v in want[1:]]
        base = kernels.workspace(n)[0].base
        assert base.shape == (3, n)
        assert not np.shares_memory(out, base)
        # and simulate's output block against an oracle that scales a zero
        # envelope by g
        out, stats = simulate(IqBlock(x, 1e6), bias, params)
        assert not np.shares_memory(out.samples, base)
        env_x = np.abs(x)
        aout = kernels.rapp(g * env_x, a_sat, params.smoothness,
                            np.empty_like(env_x))
        _, sum_a2, sum_vi1, _, sum_e2 = want
        scale = np.divide(aout, env_x, out=np.full_like(env_x, g),
                          where=env_x > 0)
        assert out.samples.tobytes() == (x * scale).tobytes()
        assert stats.pout_w.hex() == (sum_vi1 / (2.0 * n)).hex()
        assert stats.gain_db == reference_gain_db(sum_a2, sum_e2)


#: Constant-envelope block lengths, at each of which the ``(3, n)`` row
#: reduction must give the bits of the 1-D sums: every length to 300 (numpy's
#: pairwise sum runs in sequence under 8 terms, in 8 accumulators to 128 and
#: in halves above), halves equal (4096) or not (10000, 10001, 65535), the
#: 64-sample CW block and the longest block that is evaluated once, one
#: sample below ``kernels.SPLIT_MIN``.
CONSTANT_LENGTHS = tuple(range(1, 301)) + (1000, 4096, 10000, 10001, 65535)

#: Smoothness 1 (exponent 2, numpy's square) and 0.5; shape_exp 0.5
#: (numpy's sqrt), 1, 2 and neither.
CONSTANT_PARAMS = (
    make_params(smoothness=1.0, shape_beta=0.5, shape_exp=2.0, shape_sat=3.0),
    make_params(g0=5.0, smoothness=0.5, shape_beta=2.0, shape_exp=0.5,
                shape_sat=10.0),
    make_params(g0=900.0, rload=0.9, smoothness=3.7, shape_beta=1.0,
                shape_exp=1.0),
    make_params(g0=12.0, rload=0.05, smoothness=20.0, shape_beta=3.84,
                shape_exp=8.16, shape_sat=20.7),
)


def constant_levels(params, bias=REF_BIAS):
    """Zero drive, the clipping onset a_out ~ idq*rload, deep saturation
    and 1e307, where g*level or the limiter's power leaves the float range."""
    g, a_sat = gain_and_swing(bias, params)
    return (0.0, bias.idq * params.rload / g, 1e6 * a_sat / g, 1e307)


CONSTANT_CASES = [(params, level) for params in CONSTANT_PARAMS
                  for level in constant_levels(params)]


def count_constant_evaluations(monkeypatch):
    calls = []
    constant = kernels._constant_pipeline

    def counted(*args):
        calls.append(args)
        return constant(*args)

    monkeypatch.setattr(kernels, "_constant_pipeline", counted)
    return calls


def assert_pipeline_matches_reference(x, params, bias=REF_BIAS):
    g, a_sat = gain_and_swing(bias, params)
    # as simulate calls it: an envelope past the float range saturates
    with np.errstate(over="ignore"):
        want = reference_pipeline(x, g, a_sat, bias.idq, params)
        out, *sums = kernels.pa_pipeline(x, g, a_sat, bias.idq, params)
    assert out.tobytes() == want[0].tobytes()
    assert [v.hex() for v in sums] == [v.hex() for v in want[1:]]


#: A sample phase of no special form, so that both output components are
#: rounded.
PHASE = complex(math.cos(0.7), math.sin(0.7))


@pytest.mark.parametrize("n", CONSTANT_LENGTHS)
def test_constant_envelope_is_evaluated_once_bit_for_bit(n, monkeypatch):
    evaluated = count_constant_evaluations(monkeypatch)
    for params, level in CONSTANT_CASES:
        assert_pipeline_matches_reference(np.full(n, level * PHASE), params)
    assert len(evaluated) == len(CONSTANT_CASES)


@pytest.mark.parametrize("n", (64, 10000))
def test_a_zero_envelope_keeps_the_signs_of_its_zero_samples(n, monkeypatch):
    # every sample's envelope is +0, so the law runs once; the output's
    # zeros take their signs from each sample, as the block form's do
    evaluated = count_constant_evaluations(monkeypatch)
    signs = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
    x = np.resize(np.array(signs), n)
    for params in CONSTANT_PARAMS:
        assert_pipeline_matches_reference(x, params)
    assert len(evaluated) == len(CONSTANT_PARAMS)


def test_random_constant_blocks_match_the_plain_expressions(monkeypatch):
    # numpy's pow and arccos differ from libm's in the last bits for a few
    # percent of arguments, so a law moved to ``math`` shows only in random
    # cases; a random shape exponent and a strong shaping term let the
    # shaping power reach the sums
    evaluated = count_constant_evaluations(monkeypatch)
    rng = np.random.default_rng(15)
    for _ in range(2000):
        params, bias, env = parity_case(rng, 1, zero=False)
        params = replace(params, shape_exp=rng.uniform(0.1, 10.0),
                         shape_beta=10.0 ** rng.uniform(-1.0, 3.0))
        assert_pipeline_matches_reference(np.full(64, env[0] * PHASE), params,
                                          bias)
    assert len(evaluated) == 2000


def test_cw_block_simulate_matches_the_plain_expressions(monkeypatch):
    evaluated = count_constant_evaluations(monkeypatch)
    for params, level in CONSTANT_CASES:
        g, a_sat = gain_and_swing(REF_BIAS, params)
        block = IqBlock(np.full(64, level, np.complex128), 1e6)
        out, stats = simulate(block, REF_BIAS, params)
        env = np.abs(block.samples)
        with np.errstate(over="ignore"):
            aout = kernels.rapp(g * env, a_sat, params.smoothness,
                                np.empty_like(env))
            _, sum_a2, sum_vi1, _, sum_e2 = reference_pipeline(
                block.samples, g, a_sat, REF_BIAS.idq, params)
        scale = np.divide(aout, env, out=np.full_like(env, g), where=env > 0)
        assert out.samples.tobytes() == (block.samples * scale).tobytes()
        assert stats.pout_w.hex() == (sum_vi1 / (2.0 * len(block))).hex()
        assert stats.gain_db == reference_gain_db(sum_a2, sum_e2)
    assert len(evaluated) == len(CONSTANT_CASES)


@pytest.mark.parametrize("n", (64, 10000))
def test_a_block_constant_but_for_one_sample_takes_the_array_path(
        n, monkeypatch):
    # both lengths are compared as bytes; the one sample that differs sits
    # in the middle of the block or at its end
    evaluated = count_constant_evaluations(monkeypatch)
    params = CONSTANT_PARAMS[0]
    for level in constant_levels(params)[:3]:
        for where in (n // 2, n - 1):
            x = np.full(n, complex(level))
            x[where] = math.nextafter(level, math.inf)
            assert_pipeline_matches_reference(x, params)
    assert evaluated == []
    # a -0.0 among 0.0s compares equal as a float but not as bits
    env = np.zeros(n)
    env[n // 2] = -0.0
    assert not kernels._is_constant(env)


#: Both sides of ``kernels.SPLIT_MIN`` (65536): the 64-sample CW block, a
#: byte compare of up to 65535 samples, and blocks that split.
SIZE_RULE_LENGTHS = (64, 4096, 4097, 10000, 65535, 65536, 131072)


@pytest.mark.parametrize("n", SIZE_RULE_LENGTHS)
@pytest.mark.parametrize("kind", ["constant", "varying"])
def test_the_block_length_alone_picks_the_path(kind, n, monkeypatch):
    # below SPLIT_MIN a constant block is evaluated once and takes its env^2
    # sum from np.dot; from SPLIT_MIN up every block runs the split law, so
    # a long constant block's gain_db comes from the reduction. Everything
    # else keeps the bits of the earlier rule, which sent a constant block of
    # any length to the once-evaluated path.
    evaluated = count_constant_evaluations(monkeypatch)
    params = CONSTANT_PARAMS[3]
    g, a_sat = gain_and_swing(REF_BIAS, params)
    short = n < kernels.SPLIT_MIN
    for level in constant_levels(params)[1:]:
        x = np.full(n, level * PHASE)
        if kind == "varying":
            x *= 0.5 + 0.5 * (np.arange(n) % 3)
        out, stats = simulate(IqBlock(x, 1e6), REF_BIAS, params)
        with np.errstate(over="ignore"):
            _, sum_a2, sum_vi1, sum_idc, sum_e2 = want = reference_pipeline(
                x, g, a_sat, REF_BIAS.idq, params)
            env = np.abs(x)
            earlier_e2 = (float(np.dot(env, env)) if kind == "constant"
                          else float(np.add.reduce(env * env)))
        pout = sum_vi1 / (2.0 * n)
        assert out.samples.tobytes() == want[0].tobytes()
        assert stats.pout_w.hex() == pout.hex()
        assert stats.pdc_w.hex() == max(REF_BIAS.vdd * sum_idc / n,
                                        pout).hex()
        assert stats.gain_db == reference_gain_db(sum_a2, sum_e2)
        if short or kind == "varying":
            assert sum_e2 == earlier_e2
    assert len(evaluated) == (3 if short and kind == "constant" else 0)


def large_two_tone_block(n=1 << 17):
    t = np.arange(n) / 1e6
    return IqBlock(0.05 * (np.exp(-2j * np.pi * 1000.0 * t)
                           + np.exp(2j * np.pi * 1000.0 * t)), 1e6)


def traced_peak(call):
    """Peak bytes that numpy buffers reach during ``call()``; numpy reports
    its buffers to tracemalloc, so the figure is exact."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_large_block_simulate_peak_memory():
    # a cold call, once a 64-sample block has moved the workspace to another
    # length: its three rows, the output swing, the complex output block
    # (two rows, the law's last scratch rows) and numpy's 128 KiB cast
    # buffer of the complex-by-float output multiply in each thread's half.
    # Measured: 6.13 arrays of the block's length, whether or not this call
    # also starts the worker thread of ``kernels.halves``
    n = 1 << 17
    block = large_two_tone_block(n)
    bias, p = BiasPoint(vdd=58.0, idq=2.0), make_params(shape_beta=0.2)
    simulate(IqBlock(np.ones(64, dtype=complex), 1e6), bias, p)
    assert traced_peak(lambda: simulate(block, bias, p)) <= 6.5 * n * 8


def test_warm_large_block_simulate_allocates_only_its_results():
    # with the workspace at this length, what remains is the output swing,
    # the complex output block and numpy's 128 KiB cast buffer of the
    # complex-by-float output multiply in each thread's half, 3.3 arrays
    n = 1 << 17
    block = large_two_tone_block(n)
    bias, p = BiasPoint(vdd=58.0, idq=2.0), make_params(shape_beta=0.2)
    simulate(block, bias, p)
    assert traced_peak(lambda: simulate(block, bias, p)) <= 4.5 * n * 8


def rule_values(field):
    """Values on each finite end of ``field``'s rule, one ulp either side of
    it, and any finite float."""
    _, low, high, _, _ = next(r for r in PARAM_RULES if r[0] == field)
    edges = [0.0] + [math.nextafter(end, toward) for end in (low, high)
                     if math.isfinite(end)
                     for toward in (-math.inf, end, math.inf)]
    return st.one_of(st.sampled_from(edges),
                     st.floats(allow_nan=False, allow_infinity=False))


@settings(deadline=None)
@given(data=st.data())
def test_the_constructor_and_the_reader_share_each_rule(tmp_path_factory,
                                                        data):
    """``PaParams(g0=40, field=v)`` and the two-line file that sets ``v``
    on its second line both accept, or both reject with one message, the
    file's after ``path:2:``."""
    field = data.draw(st.sampled_from([r[0] for r in PARAM_RULES]))
    value = data.draw(rule_values(field))
    path = tmp_path_factory.getbasetemp() / "rules.cfg"
    first = "kv = 0" if field == "g0" else "g0 = 40"
    path.write_text(f"{first}\n{field} = {value!r}\n")
    try:
        built = PaParams(**{"g0": 40.0, field: value})
    except ValueError as exc:
        with pytest.raises(type(exc)) as err:
            load_params(path)
        assert str(err.value) == f"{path}:2: {exc}"
        assert str(exc).startswith(f"{field} must be ")
    else:
        assert load_params(path) == built


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

    def test_blank_and_comment_lines_are_skipped(self, tmp_path, fitted_params):
        plain, commented = tmp_path / "plain.cfg", tmp_path / "commented.cfg"
        save_params(fitted_params, plain)
        lines = plain.read_text().splitlines()
        commented.write_text("# fitted\n\n" + "\n  \n# next\n".join(lines)
                             + "\n")
        assert load_params(commented) == load_params(plain)

    def test_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("g0 = 40\nbogus = 1\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_params(path)

    def test_ripple_keys_are_bands(self):
        with pytest.raises(UnknownBand, match="unknown band '41M'"):
            PaParams(g0=40.0, ripple={"41M": 1.0})
        with pytest.raises(UnknownBand, match="unknown band '41M'"):
            with_ripple(make_params(), {"41M": 1.0})

    def test_load_rejects_a_ripple_for_an_unknown_band(self, tmp_path):
        path = tmp_path / "pa.cfg"
        path.write_text("g0 = 40\nripple.41M = 1\n")
        # the constructor's error and type, at the line that holds it
        with pytest.raises(UnknownBand) as err:
            load_params(path)
        assert str(err.value) == f"{path}:2: unknown band '41M' in ripple"

    def test_validation(self):
        with pytest.raises(ValueError):
            PaParams(g0=-1.0)
        with pytest.raises(ValueError):
            PaParams(g0=10.0, vknee=30.0)
        with pytest.raises(ValueError):
            PaParams(g0=10.0, smoothness=0.4)
        with pytest.raises(ValueError, match="^rload must be > 0, got 0$"):
            PaParams(g0=10.0, rload=0)
        for shape in ("shape_beta", "shape_exp", "shape_sat"):
            with pytest.raises(ValueError, match=f"^{shape} must be"):
                PaParams(g0=10.0, **{shape: -1.0})
        with pytest.raises(InvalidBias):
            BiasPoint(vdd=29.0, idq=2.0)
        with pytest.raises(TypeError):  # the step follows from idq
            BiasPoint(vdd=58.0, idq=2.0, gate_step=4)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["g0", "kv", "ki", "rload", "vknee",
                                     "smoothness", "shape_beta", "shape_exp",
                                     "shape_sat", "ripple.40M"])
    def test_rejects_non_finite_params(self, tmp_path, key, value):
        path = tmp_path / "pa.cfg"
        save_params(make_params(), path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{key} = {value}\n")
        with pytest.raises(ValueError, match=r":\d+: bad number"):
            load_params(path)
        if key.startswith("ripple."):
            kwargs = {"ripple": {key[len("ripple."):]: value}}
        else:
            kwargs = {key: value}
        with pytest.raises(ValueError, match="finite"):
            make_params(**kwargs)

    def test_bias_idq_ceiling(self):
        assert BiasPoint(vdd=58.0, idq=IDQ_MAX).idq == IDQ_MAX
        for idq in (math.nextafter(IDQ_MAX, math.inf), 1e4, 1e305):
            with pytest.raises(InvalidBias, match="idq must be in"):
                BiasPoint(vdd=58.0, idq=idq)

    @pytest.mark.parametrize("vdd, idq", [
        (48.0, math.nan), (48.0, math.inf), (math.nan, 2.0), (math.inf, 2.0)])
    def test_bias_rejects_non_finite(self, vdd, idq):
        with pytest.raises(InvalidBias):
            BiasPoint(vdd=vdd, idq=idq)


@given(vdd=st.floats(30.0, 58.0),
       idq=st.floats(0.0, IDQ_MAX, exclude_min=True))
def test_the_gate_step_is_the_ladder_step_of_idq(vdd, idq):
    step = BiasPoint(vdd=vdd, idq=idq).gate_step
    assert step == gate_step_for(idq)
    assert abs(GATE_STEP_IDQ[step] - idq) == min(abs(preset - idq)
                                                  for preset in GATE_STEP_IDQ)


# --- closed-form inverses and the shared root helper ------------------------

params_st = st.builds(
    PaParams, g0=st.floats(0.5, 1000.0), kv=st.floats(-1.0, 1.0),
    ki=st.floats(-10.0, 10.0), rload=st.floats(0.05, 0.95),
    vknee=st.floats(0.0, 29.0), smoothness=st.floats(0.5, 20.0),
    ripple=st.fixed_dictionaries({"40M": st.floats(-3.0, 3.0)}))
bias_st = st.builds(BiasPoint, vdd=st.floats(30.0, 58.0),
                    idq=st.floats(0.1, 3.0))


def cw_gain_db(a_in, bias, params):
    """CW gain in dB at input envelope level ``a_in``, from ``am_am``."""
    return 20.0 * math.log10(am_am([a_in], bias, params)[0] / a_in)


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


def assert_power_bookkeeping(stats):
    assert stats.pout_w >= 0.0
    assert stats.pdc_w >= stats.pout_w
    assert stats.pdiss_w >= 0.0


# drives in units of the input level where g*a_in reaches a_sat, bounded
# as in the AM/AM property so that the input power stays in float range
drive_st = st.one_of(st.floats(0.0, 10.0), st.floats(0.0, 1000.0))


@settings(deadline=None)
@given(params_st, bias_st, drive_st)
def test_cw_dissipation_is_non_negative(params, bias, drive):
    a_sat = saturated_swing(bias, params)
    g = 10.0 ** (small_signal_gain_db(bias, params) / 20.0)
    block = IqBlock(np.full(64, drive * a_sat / g, dtype=np.complex128), 1e6)
    _, stats = simulate(block, bias, params)
    assert_power_bookkeeping(stats)


part_st = st.one_of(st.floats(-10.0, 10.0), st.floats(-1000.0, 1000.0))


@settings(deadline=None)
@given(params_st, bias_st, st.lists(st.tuples(part_st, part_st),
                                    min_size=1, max_size=64))
def test_block_dissipation_is_non_negative(params, bias, parts):
    a_sat = saturated_swing(bias, params)
    g = 10.0 ** (small_signal_gain_db(bias, params) / 20.0)
    samples = np.array([complex(re, im) for re, im in parts]) * (a_sat / g)
    _, stats = simulate(IqBlock(samples, 1e6), bias, params)
    assert_power_bookkeeping(stats)


#: Every finite float (subnormals and both zeros among them), the edges of
#: the float range, and drives near saturation.
finite_part_st = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, math.ulp(0.0), -math.ulp(0.0),
                     sys.float_info.min, 1e307, -1e307, sys.float_info.max,
                     -sys.float_info.max]),
    st.floats(-10.0, 10.0))
finite_pair_st = st.tuples(finite_part_st, finite_part_st)
shaped_params_st = st.builds(
    replace, params_st, shape_beta=st.floats(0.0, 40.0),
    shape_exp=st.floats(0.5, 30.0), shape_sat=st.floats(0.0, 400.0))


@settings(deadline=None, max_examples=300)
@given(shaped_params_st, bias_st, st.sampled_from([None, "40M"]),
       st.one_of(st.lists(finite_pair_st, min_size=1, max_size=64),
                 st.tuples(finite_pair_st, st.integers(1, 64)).map(
                     lambda t: [t[0]] * t[1])))
def test_simulate_output_block_is_finite(params, bias, band, parts):
    # ``simulate`` builds its output block unchecked (``IqBlock._unchecked``)
    # on this property: any finite input gives finite output samples
    samples = np.array([complex(re, im) for re, im in parts])
    out, _ = simulate(IqBlock(samples, 1e6), bias, params, band)
    assert out.samples.dtype == np.complex128
    assert out.samples.shape == samples.shape
    assert np.isfinite(out.samples).all()
    assert IqBlock(out.samples, out.sample_rate).samples is out.samples


@pytest.mark.parametrize("u", [1e9, 1e300])
def test_rapp_saturates_past_the_float_range(u):
    # (u/a_sat)^40 overflows here; the limit is a_sat, with no warning
    out = kernels.rapp(np.array([u, 0.5, 0.0]), 1.0, 20.0, np.empty(3))
    assert out.tolist() == [
        1.0, kernels.rapp(np.array([0.5]), 1.0, 20.0, np.empty(1))[0], 0.0]
    assert _rapp_scalar(u, 1.0, 20.0) == 1.0  # the same limit
    assert _rapp_scalar(0.0, 1.0, 20.0) == 0.0


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


@settings(deadline=None)
@given(st.floats(1e-15, 1e5), st.floats(0.05, 3.0), st.floats(0.05, 0.95))
def test_memoized_swing_for_pout_matches_the_uncached_solve(pout, idq, rload):
    for _ in range(2):  # the second call is served from the cache
        assert (swing_for_pout(pout, idq, rload).hex()
                == swing_for_pout.__wrapped__(pout, idq, rload).hex())


def test_bisect_stops_at_the_float_fixed_point():
    calls = []
    root = bisect(lambda x: calls.append(x) or x - 0.1, 0.0, 1.0)
    assert abs(root - 0.1) <= math.ulp(0.1)
    assert len(calls) < 70


def test_bisect_tolerance_exit():
    # midpoints 0.5 (f = 0.2) then 0.25 (f = -0.05, within tol)
    assert bisect(lambda x: x - 0.3, 0.0, 1.0, tol=0.1) == 0.25
    assert bisect(lambda x: x - 0.3, 0.0, 1.0, tol=1e-30, max_iter=5) is None


@pytest.mark.parametrize("kv", [-1.0, 1.0])
def test_gain_and_swing_takes_the_gain_law_to_its_bounds(kv):
    # g0 = 1 is 0 dB, so at 30 V the law is the kv term, -28*kv dB
    bias = BiasPoint(vdd=30.0, idq=IDQ_REF)
    g, a_sat = gain_and_swing(bias, PaParams(g0=1.0, kv=GAIN_DB_MAX / 28 * kv))
    assert g == 10.0 ** (-kv * GAIN_DB_MAX / 20.0)
    assert math.isfinite((10.0 * a_sat / g) ** 2)  # drive_cap's ceiling
    past = PaParams(g0=1.0, kv=kv * (GAIN_DB_MAX + 1.0) / 28)
    with pytest.raises(GainOutOfRange, match=(
            rf"^small-signal gain {-kv * (GAIN_DB_MAX + 1.0):.1f} dB is "
            rf"outside \+/-3000 dB$")):
        gain_and_swing(bias, past)


@pytest.mark.parametrize("fields, band, idq, gain", [
    (dict(g0=1e308, kv=-1.0), None, 2.0, "6188.0"),  # 10^(dB/20) overflows
    (dict(g0=1e-320), None, 2.0, "-6400.0"),  # 10*a_sat/g overflows
    (dict(g0=1.0, ripple={"40M": -3000.5}), "40M", 2.0, "-3000.5"),
    (dict(g0=1.0, kv=1e308), None, 2.0, "-inf"),
    (dict(g0=1.0, kv=-1e308, ki=1e308), None, 1e-300, "nan"),  # inf - inf
])
def test_gain_and_swing_rejects_a_gain_law_out_of_range(fields, band, idq,
                                                        gain):
    bias = BiasPoint(vdd=30.0, idq=idq)
    with pytest.raises(GainOutOfRange, match=f"^small-signal gain {gain} dB"):
        gain_and_swing(bias, PaParams(rload=0.4, **fields), band)
