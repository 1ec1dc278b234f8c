"""Calibration tests: objective self-consistency, penalty paths, and
round-trip parameter recovery."""
import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from hfpa import calibrate
from hfpa.calibrate import (ANCHOR_HEADER, AnchorRow, FitReport,
                            REFERENCE_ANCHORS, default_init, fit, objective,
                            read_anchors_csv, write_report_csv)
from hfpa.measure import sweep_bias, write_csv
from hfpa.pamodel import (_SCALAR_KEYS, IDQ_REF, PARAM_RULES, PaParams,
                          conduction_currents, fundamental_pout,
                          swing_for_pout)
from test_tools import cli_artifacts

TRUE_PARAMS = PaParams(g0=39.77, kv=0.39, rload=0.4, vknee=4.1,
                       smoothness=8.0, shape_beta=3.82, shape_exp=8.16,
                       shape_sat=20.6)


def synthetic_anchors(params, vdds=(58.0, 53.0, 48.0), pout=1000.0, idq=2.0):
    anchors = []
    for vdd in vdds:
        row = sweep_bias([vdd], idq, pout, params)[0]
        anchors.append(AnchorRow(vdd=vdd, gain_db=row.gain_db,
                                 eff_pct=row.eff_pct, pout_w=pout,
                                 pdiss_w=row.pdiss_w))
    return anchors


#: (vdd, gain dB, eff %) at 1 kW: the reference table moved by at most
#: 0.3 dB and 1.5 pp, as the benchmark perturbs it.
OUT_OF_BOX_TABLE = ((58.0, 32.27, 58.52), (53.0, 30.17, 68.96),
                    (48.0, 28.23, 77.72))


#: ``default_init(OUT_OF_BOX_TABLE)`` as it was before every start was
#: clamped into ``_SPACE``: a pre-solve candidate with shape_beta 337.82 and
#: shape_sat 1549.91, past the box's 40 and 400. A user's ``--init`` can
#: still lie there.
OUT_OF_BOX_INIT = PaParams(**{k: float.fromhex(h) for k, h in zip(
    _SCALAR_KEYS, ("0x1.4767cccf5cff0p+5", "0x1.99654c0a9697fp-2", "0x0.0p+0",
                   "0x1.70a3d70a3d70bp-2", "0x1.0000000000000p+2",
                   "0x1.0000000000000p+3", "0x1.51d120b3ce77dp+8",
                   "0x1.2ab480fe6ccb8p+4", "0x1.837a3f2ed5855p+10"))})

#: ``default_init``'s base point as it was with the class-A load line
#: vdd^2/(2*pout) clamped to 0.95 ohm: no anchor at 1 kW is reachable.
CLASS_A_BASE = PaParams(g0=10.0 ** (30.0 / 20.0), rload=0.95)


def perturbed_table(seed):
    """The reference table with each row moved by up to 0.3 dB and 1.5 pp,
    at 1 kW, its dissipation from the efficiency."""
    rng = np.random.default_rng(seed)
    rows = []
    for ref in REFERENCE_ANCHORS:
        gain = ref.gain_db + rng.uniform(-0.3, 0.3)
        eff = ref.eff_pct + rng.uniform(-1.5, 1.5)
        rows.append(AnchorRow(ref.vdd, gain, eff, 1000.0,
                              1000.0 * (100.0 / eff - 1.0)))
    return tuple(rows)


# --- the array form of fit's search, the reference for its float form -------

def reference_params_to_vec(p):
    return np.array([20.0 * math.log10(p.g0), p.kv, p.rload, p.vknee,
                     p.smoothness, p.shape_beta, p.shape_exp, p.shape_sat])


def reference_clamp_vec(vec):
    out = vec.copy()
    for i, (_, lo, hi, _) in enumerate(calibrate._SPACE):
        out[i] = min(max(out[i], lo), hi)
    depth = out[5] / (1.0 + out[7])
    if depth > calibrate._MAX_SHAPE_DEPTH:
        out[5] = calibrate._MAX_SHAPE_DEPTH * (1.0 + out[7])
    return out


def reference_vec_to_params(vec, template):
    v = [float(x) for x in reference_clamp_vec(vec)]
    return dataclasses.replace(
        template, g0=10.0 ** (v[0] / 20.0), kv=v[1], rload=v[2], vknee=v[3],
        smoothness=v[4], shape_beta=v[5], shape_exp=v[6], shape_sat=v[7])


def reference_fit(anchors, init, budget):
    """``fit``'s bounded Nelder-Mead on numpy arrays, as it was written
    before the search moved to Python floats."""
    evals = 0

    def f(vec):
        nonlocal evals
        evals += 1
        return objective(reference_vec_to_params(vec, init), anchors)

    if budget <= 0:
        return FitReport(init, *calibrate._score(init, anchors), 0)
    vec = reference_params_to_vec(init)
    x0 = reference_clamp_vec(vec)
    init_score = (None if np.array_equal(x0, vec)
                  else calibrate._score(init, anchors))
    best_vec = x0.copy()
    best_val = objective(reference_vec_to_params(x0, init), anchors)
    ndim = len(calibrate._SPACE)
    steps = np.array([s[3] for s in calibrate._SPACE])
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    scale = 1.0
    while evals < budget:
        simplex = [best_vec.copy()]
        values = [best_val]
        for i in range(ndim):
            v = best_vec.copy()
            v[i] += steps[i] * scale
            simplex.append(reference_clamp_vec(v))
            values.append(f(simplex[-1]))
            if evals >= budget:
                break
        while evals < budget and len(simplex) == ndim + 1:
            order = np.argsort(values)
            simplex = [simplex[i] for i in order]
            values = [values[i] for i in order]
            if values[0] < best_val:
                best_val, best_vec = values[0], simplex[0].copy()
            spread = values[-1] - values[0]
            if spread < 1e-12 * (1.0 + abs(values[0])):
                break
            centroid = np.mean(simplex[:-1], axis=0)
            xr = reference_clamp_vec(centroid + alpha * (centroid - simplex[-1]))
            fr = f(xr)
            if fr < values[0]:
                xe = reference_clamp_vec(
                    centroid + gamma * (centroid - simplex[-1]))
                fe = f(xe) if evals < budget else fr
                if fe < fr:
                    simplex[-1], values[-1] = xe, fe
                else:
                    simplex[-1], values[-1] = xr, fr
            elif fr < values[-2]:
                simplex[-1], values[-1] = xr, fr
            else:
                xc = reference_clamp_vec(
                    centroid + rho * (simplex[-1] - centroid))
                fc = f(xc) if evals < budget else fr
                if fc < values[-1]:
                    simplex[-1], values[-1] = xc, fc
                else:
                    for i in range(1, ndim + 1):
                        if evals >= budget:
                            break
                        simplex[i] = reference_clamp_vec(
                            simplex[0] + sigma * (simplex[i] - simplex[0]))
                        values[i] = f(simplex[i])
        scale *= 0.25
    params = reference_vec_to_params(best_vec, init)
    residual, errs = calibrate._score(params, anchors)
    if init_score is not None and residual > init_score[0]:
        return FitReport(init, *init_score, evals)
    return FitReport(params, residual, errs, evals)


def report_bits(report):
    """A FitReport with every float as ``float.hex``."""
    return ([getattr(report.params, k).hex() for k in _SCALAR_KEYS],
            report.residual.hex(),
            [(g.hex(), e.hex()) for g, e in report.per_anchor],
            report.evaluations)


ORACLE_TABLES = {
    "reference": REFERENCE_ANCHORS,
    "out_of_box": tuple(AnchorRow(vdd, gain, eff, 1000.0,
                                  1000.0 * (100.0 / eff - 1.0))
                        for vdd, gain, eff in OUT_OF_BOX_TABLE),
    **{f"perturbed_{seed}": perturbed_table(seed) for seed in range(6)},
}


@pytest.fixture(scope="module")
def oracle_inits():
    # two starts that default_init no longer makes, as it made them
    inits = {name: default_init(t) for name, t in ORACLE_TABLES.items()}
    inits.update(out_of_box=OUT_OF_BOX_INIT, perturbed_4=CLASS_A_BASE)
    return inits


def test_oracle_tables_cover_the_clamped_start_and_the_fallback(
        oracle_inits):
    inits = list(oracle_inits.values())
    # a start past the box, and a fallback base on the penalty plateau,
    # whose equal values put ties into np.argsort
    assert any(p.shape_beta > calibrate._SPACE[5][2] for p in inits)
    assert any(p.shape_beta == 0.0 and objective(p, t) >= 3e6
               for p, t in zip(inits, ORACLE_TABLES.values()))


@pytest.mark.parametrize("budget", [0, 1, 40, 150])
@pytest.mark.parametrize("name", list(ORACLE_TABLES))
def test_float_search_has_the_array_search_bits(name, budget, oracle_inits):
    anchors, init = ORACLE_TABLES[name], oracle_inits[name]
    assert report_bits(fit(anchors, init, budget)) == report_bits(
        reference_fit(anchors, init, budget))


def test_each_search_box_lies_inside_its_field_rule():
    """Each ``_SPACE`` box, ``g0`` through its dB form, lies inside its
    field's ``PARAM_RULES`` range, so no clamped search point can raise;
    ``ki``, which the search leaves out, is the only field without a box."""
    rules = {rule[0]: rule[1:] for rule in PARAM_RULES}
    fields = []
    for name, lo, hi, _ in calibrate._SPACE:
        field, ends = name, (lo, hi)
        if name == "g0_db":
            field, ends = "g0", (10.0 ** (lo / 20.0), 10.0 ** (hi / 20.0))
        low, high, low_open, high_open = rules[field]
        for end in ends:
            assert (low < end if low_open else low <= end), (field, end)
            assert (end < high if high_open else end <= high), (field, end)
        fields.append(field)
    assert sorted(fields + ["ki"]) == sorted(_SCALAR_KEYS)


# --- fit's points are clamped once: the clamp is idempotent bit for bit ------

def box_corners():
    """The 256 corners of ``_SPACE``."""
    return [[(lo, hi)[(k >> i) & 1]
             for i, (_, lo, hi, _) in enumerate(calibrate._SPACE)]
            for k in range(2 ** len(calibrate._SPACE))]


def clamp_cases():
    """The corners, random vectors reaching past every bound, and vectors
    whose shaping depth ``beta/(1 + c)`` passes ``_MAX_SHAPE_DEPTH``."""
    rng = np.random.default_rng(26)
    lo, hi = (np.array([s[k] for s in calibrate._SPACE]) for k in (1, 2))
    cases = box_corners()
    cases += (rng.uniform(lo - (hi - lo), hi + (hi - lo), (500, 8))).tolist()
    cases += rng.uniform(lo, hi, (200, 8)).tolist()
    cap = calibrate._MAX_SHAPE_DEPTH
    for c in rng.uniform(0.0, 40.0 / cap - 1.0, 200).tolist():
        v = rng.uniform(lo, hi).tolist()
        v[5], v[7] = rng.uniform(cap * (1.0 + c), 40.0), c
        cases.append(v)
    # a depth one ulp past the cap, and a beta past the box as well
    cases.append([30.0, 0.0, 0.5, 4.0, 2.0,
                  math.nextafter(cap * 11.0, math.inf), 4.0, 10.0])
    cases.append([30.0, 0.0, 0.5, 4.0, 2.0, 1e3, 4.0, 10.0])
    return cases


def vec_hex(vec):
    return [float(x).hex() for x in vec]


def test_clamp_cases_trip_the_depth_cap():
    cap = calibrate._MAX_SHAPE_DEPTH
    outs = [calibrate._clamp_vec(v) for v in clamp_cases()]
    assert sum(o[5] == cap * (1.0 + o[7]) for o in outs) >= 200


def test_clamping_a_clamped_point_changes_no_bit():
    for vec in clamp_cases():
        once = calibrate._clamp_vec(vec)
        assert vec_hex(calibrate._clamp_vec(once)) == vec_hex(once)


def replace_form_vec_to_params(vec, template):
    """``_vec_to_params`` as it was written before it took clamped points:
    clamp again, then ``dataclasses.replace`` on the template."""
    v = calibrate._clamp_vec(vec)
    return dataclasses.replace(
        template, g0=10.0 ** (v[0] / 20.0), kv=v[1], rload=v[2], vknee=v[3],
        smoothness=v[4], shape_beta=v[5], shape_exp=v[6], shape_sat=v[7])


def test_params_of_a_clamped_point_are_the_replace_forms():
    # ki and ripple come from the template; every point is a clamped one,
    # as fit passes it, and the checked constructor accepts each corner
    template = dataclasses.replace(TRUE_PARAMS, ki=0.7,
                                   ripple={"40M": 0.3, "20M": -0.25})
    for vec in clamp_cases():
        point = calibrate._clamp_vec(vec)
        got = calibrate._vec_to_params(point, template)
        want = replace_form_vec_to_params(point, template)
        for f in dataclasses.fields(PaParams):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if f.name == "ripple":
                assert a == b and a is not template.ripple
            else:
                assert a.hex() == b.hex(), f.name


class TestObjective:
    def test_self_consistency_is_zero(self):
        anchors = synthetic_anchors(TRUE_PARAMS)
        assert objective(TRUE_PARAMS, anchors) <= 1e-9

    def test_one_db_gain_perturbation_costs_at_least_four(self):
        anchors = synthetic_anchors(TRUE_PARAMS)
        bumped = dataclasses.replace(TRUE_PARAMS,
                                     g0=TRUE_PARAMS.g0 * 10 ** (1.0 / 20.0))
        assert objective(bumped, anchors) >= 4.0

    def test_unreachable_target_penalized_finite(self):
        anchors = [AnchorRow(vdd=58.0, gain_db=32.0, eff_pct=60.0,
                             pout_w=1000.0, pdiss_w=666.0)]
        cramped = PaParams(g0=40.0, kv=0.0, rload=0.9, vknee=25.0,
                           smoothness=2.0)  # a_sat 33 V cannot make 1 kW
        value = objective(cramped, anchors)
        assert 1e6 <= value < 1e7
        assert np.isfinite(value)

    def test_invariant_under_anchor_reordering(self):
        anchors = synthetic_anchors(TRUE_PARAMS)
        perturbed = dataclasses.replace(TRUE_PARAMS, kv=0.35)
        assert objective(perturbed, anchors) == pytest.approx(
            objective(perturbed, list(reversed(anchors))), rel=1e-12)


class TestFit:
    def test_budget_zero_returns_init(self):
        anchors = synthetic_anchors(TRUE_PARAMS)
        init = dataclasses.replace(TRUE_PARAMS, kv=0.3)
        report = fit(anchors, init, budget=0)
        assert report.params == init
        assert report.residual == pytest.approx(objective(init, anchors))
        assert report.evaluations == 0

    def test_round_trip_recovery(self):
        anchors = synthetic_anchors(TRUE_PARAMS)
        init = PaParams(g0=TRUE_PARAMS.g0 * 0.9, kv=TRUE_PARAMS.kv * 1.1,
                        rload=TRUE_PARAMS.rload * 1.1,
                        vknee=TRUE_PARAMS.vknee * 0.9,
                        smoothness=TRUE_PARAMS.smoothness * 1.1,
                        shape_beta=TRUE_PARAMS.shape_beta * 0.9,
                        shape_exp=TRUE_PARAMS.shape_exp * 1.1,
                        shape_sat=TRUE_PARAMS.shape_sat * 0.9)
        report = fit(anchors, init, budget=1200)
        assert report.residual <= objective(init, anchors)
        for gain_err, _ in report.per_anchor:
            assert abs(gain_err) < 0.1

    def test_never_worse_than_init(self):
        anchors = synthetic_anchors(TRUE_PARAMS)
        init = dataclasses.replace(TRUE_PARAMS, g0=30.0, kv=0.0)
        report = fit(anchors, init, budget=150)
        assert report.residual <= objective(init, anchors) + 1e-12

    @pytest.mark.parametrize("budget", [0, 40, 150])
    def test_out_of_box_start_is_never_made_worse(self, budget):
        # the unclamped shaping pre-solve of this near-reference table:
        # clamped into the box the start scores 58.8 against init's 0.024,
        # and the search, which never gets back under 0.024, hands back init
        anchors = [AnchorRow(vdd, gain, eff, 1000.0,
                             1000.0 * (100.0 / eff - 1.0))
                   for vdd, gain, eff in OUT_OF_BOX_TABLE]
        init = OUT_OF_BOX_INIT
        assert init.shape_beta > calibrate._SPACE[5][2]
        report = fit(anchors, init, budget=budget)
        assert report.params == init
        assert report.residual == objective(init, anchors)
        assert report.per_anchor == fit(anchors, init, budget=0).per_anchor
        assert report.evaluations == budget

    def test_residual_matches_recomputed_objective(self):
        anchors = synthetic_anchors(TRUE_PARAMS)
        init = dataclasses.replace(TRUE_PARAMS, kv=0.35)
        report = fit(anchors, init, budget=100)
        assert report.residual == pytest.approx(
            objective(report.params, anchors), abs=1e-12)

    def test_deterministic(self):
        anchors = synthetic_anchors(TRUE_PARAMS)
        init = dataclasses.replace(TRUE_PARAMS, kv=0.3)
        a = fit(anchors, init, budget=120)
        b = fit(anchors, init, budget=120)
        assert a.params == b.params
        assert a.residual == b.residual

    @pytest.mark.parametrize("budget", [0, 1, 40])
    def test_each_evaluation_sweeps_the_anchors_once(self, monkeypatch,
                                                     budget):
        # one sweep per anchor for the initial point, each evaluation and
        # the closing report, which also gives the per-anchor errors
        anchors = synthetic_anchors(TRUE_PARAMS)
        init = dataclasses.replace(TRUE_PARAMS, kv=0.3)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return sweep_bias(*args, **kwargs)

        monkeypatch.setattr(calibrate, "sweep_bias", counting)
        report = fit(anchors, init, budget=budget)
        assert report.evaluations == budget
        expected = 3 if budget == 0 else 3 * (budget + 2)
        assert len(calls) == expected

    def test_per_anchor_errors_match_a_fresh_sweep(self):
        anchors = synthetic_anchors(TRUE_PARAMS)
        report = fit(anchors, dataclasses.replace(TRUE_PARAMS, kv=0.3),
                     budget=20)
        for a, (gain_err, eff_err) in zip(anchors, report.per_anchor):
            row = sweep_bias([a.vdd], 2.0, a.pout_w, report.params)[0]
            assert gain_err == row.gain_db - a.gain_db
            assert eff_err == row.eff_pct - a.eff_pct

    def test_unreachable_anchor_reports_infinite_errors(self):
        anchors = [AnchorRow(vdd=58.0, gain_db=32.0, eff_pct=60.0,
                             pout_w=1000.0, pdiss_w=666.0)]
        cramped = PaParams(g0=40.0, kv=0.0, rload=0.9, vknee=25.0,
                           smoothness=2.0)
        report = fit(anchors, cramped, budget=0)
        assert report.per_anchor == ((math.inf, math.inf),)
        assert report.residual == objective(cramped, anchors)

    def test_fitted_params_respect_invariants(self, fitted):
        report, _ = fitted
        p = report.params
        assert p.g0 > 0 and p.rload > 0
        assert 0.0 <= p.vknee < 30.0
        assert 0.5 <= p.smoothness <= 20.0


#: ``default_init(REFERENCE_ANCHORS)``'s ``g0`` and ``kv`` per OpenBLAS core
#: (``host_key()["openblas_core"]``): the gain refinements' ``lstsq`` and
#: ``dot`` follow the core in their last bits. A core not listed takes
#: SkylakeX's, the default's.
REFERENCE_START_G0_KV = {
    "SkylakeX": ("0x1.3e2ac58146ccep+5", "0x1.8f2eed0134d36p-2"),
    "Haswell": ("0x1.3e2ac58146ccep+5", "0x1.8f2eed0134d36p-2"),
    "Nehalem": ("0x1.3e2ac58146cdcp+5", "0x1.8f2eed0134d3ep-2"),
    "Katmai": ("0x1.3e2ac58146cdcp+5", "0x1.8f2eed0134d3ep-2")}


class TestDefaultInit:
    def test_reference_warm_start_is_reasonable(self):
        init = default_init(REFERENCE_ANCHORS)
        assert objective(init, REFERENCE_ANCHORS) < 10.0

    def test_swing_memo_holds_one_tables_load_lines(self):
        swing_for_pout.cache_clear()
        default_init(REFERENCE_ANCHORS)
        default_init(REFERENCE_ANCHORS)
        info = swing_for_pout.cache_info()
        assert (info.misses, info.hits) == (12, 12)

    def test_each_distinct_row_is_swept_once_per_call(self, monkeypatch):
        calls = []

        def counting(vdd_list, idq, pout, params, *args, **kwargs):
            calls.append((tuple(vdd_list),
                          tuple(getattr(params, k) for k in _SCALAR_KEYS)))
            return sweep_bias(vdd_list, idq, pout, params, *args, **kwargs)

        monkeypatch.setattr(calibrate, "sweep_bias", counting)
        first = default_init(REFERENCE_ANCHORS)
        once = len(calls)
        assert max(Counter(calls).values()) == 1
        # nothing is kept between calls
        assert default_init(REFERENCE_ANCHORS) == first
        assert len(calls) == 2 * once

    def test_reference_start_keeps_its_bits(self):
        # its best candidate lies in the box, so clamping changes no bit
        init = default_init(REFERENCE_ANCHORS)
        g0_kv = REFERENCE_START_G0_KV.get(cli_artifacts.host_key()[
            "openblas_core"], REFERENCE_START_G0_KV["SkylakeX"])
        assert [getattr(init, k).hex() for k in _SCALAR_KEYS] == [
            *g0_kv, "0x0.0p+0",
            "0x1.999999999999bp-2", "0x1.0000000000000p+2",
            "0x1.0000000000000p+3", "0x1.e914ef988f4f3p+1",
            "0x1.050d51be46a22p+3", "0x1.490c14f507ca3p+4"]

    def test_a_missing_dissipation_takes_dc_power_from_the_efficiency(self):
        # a dissipation of 0 means "not given": the pre-solve takes DC power
        # as pout*100/eff, so the start is the one of the table that gives
        # the implied dissipation, not the base start
        given = [dataclasses.replace(a, pdiss_w=a.pout_w
                                     * (100.0 / a.eff_pct - 1.0))
                 for a in REFERENCE_ANCHORS]
        missing = [dataclasses.replace(a, pdiss_w=0.0)
                   for a in REFERENCE_ANCHORS]
        start, expected = default_init(missing), default_init(given)
        for key in _SCALAR_KEYS:
            assert getattr(start, key) == pytest.approx(
                getattr(expected, key), rel=1e-9, abs=0.0), key
        assert objective(start, missing) < 0.01

    def test_generic_anchors_fall_back_to_base(self):
        anchors = synthetic_anchors(TRUE_PARAMS, vdds=(58.0, 50.0),
                                    pout=800.0)
        init = default_init(anchors)
        # the class-AB load line (0.9*(50 - 4))^2 / (4*800)
        assert init.rload == pytest.approx(0.5356125)
        assert init.smoothness == 2.0

    def test_a_gain_refinement_with_an_unreachable_row_gives_none(self):
        # a point in the box whose 48 V row cannot reach 1 kW: rload at the
        # top of its range and the knee at 10 V leave a 38 V swing, 760 W
        vec = [30.0, 0.0, 0.95, 10.0, 2.0, 0.0, 4.0, 0.0]
        assert calibrate._clamp_vec(vec) == vec
        assert calibrate._gain_lstsq(REFERENCE_ANCHORS, vec,
                                     PaParams(g0=1.0), {}) is None

    def test_candidates_without_a_gain_refinement_are_skipped(
            self, monkeypatch):
        # no table of the benchmark's seeds makes a candidate unreachable,
        # so the refinement is stubbed: with none, the scout keeps the base
        # start, which a fourth anchor row also gets (no pre-solve)
        monkeypatch.setattr(calibrate, "_gain_lstsq", lambda *args: None)
        assert default_init(REFERENCE_ANCHORS) == default_init(
            REFERENCE_ANCHORS + REFERENCE_ANCHORS[:1])

    def test_a_candidate_past_the_drive_ceiling_is_skipped(self, monkeypatch):
        # an equal-power table from the model, shape (beta, p, c) = (3, 8,
        # 20): at rload 0.30 its 48 V row needs a swing of 0.99999 of a_sat,
        # past the 10/(1 + 10^4)^(1/4) = 0.999975 that the drive ceiling
        # 10*a_sat/g allows at smoothness 2; smoothness 3 reaches it
        rload, vknee = 0.30, 4.0
        a_out = 0.99999 * (48.0 - vknee)
        pout = fundamental_pout(a_out, IDQ_REF, rload)
        _, idc, _ = conduction_currents(IDQ_REF, a_out / rload)
        anchors = []
        for vdd, gain in ((58.0, 32.0), (53.0, 30.0), (48.0, 28.0)):
            rp = (a_out / (vdd - vknee)) ** 8.0
            pdc = vdd * idc * (1.0 - 3.0 * rp / (1.0 + 20.0 * rp))
            anchors.append(AnchorRow(vdd, gain, 100.0 * pout / pdc, pout,
                                     pdc - pout))
        assert pout == pytest.approx(1641.31, abs=0.01)
        assert [round(a.eff_pct, 3) for a in anchors] == [67.377, 74.997,
                                                          83.652]
        refine, calls = calibrate._gain_lstsq, []

        def recorded(anchors, vec, *args):
            out = refine(anchors, vec, *args)
            calls.append((vec[2], vec[4], out is None))
            return out

        monkeypatch.setattr(calibrate, "_gain_lstsq", recorded)
        init = default_init(anchors)
        assert len(calls) == 9
        assert [(r, s) for r, s, unreachable in calls if unreachable] == [
            (rload, 2.0)]
        assert (init.rload, init.smoothness) == (rload, 3.0)


#: Tables as the benchmark perturbs the reference one, from fixed seeds. With
#: the class-A base and unclamped pre-solve candidates, 4 of them started
#: outside the box and 9 where some anchor was unreachable.
START_TABLES = {seed: perturbed_table(seed) for seed in range(20)}


@pytest.fixture(scope="module")
def starts():
    return {seed: default_init(t) for seed, t in START_TABLES.items()}


class TestStarts:
    def test_every_start_lies_in_the_box(self, starts):
        # fit's own test: clamping the start's vector moves nothing
        for seed, init in starts.items():
            vec = calibrate._params_to_vec(init)
            assert calibrate._clamp_vec(vec) == vec, seed

    def test_every_start_reaches_every_anchor(self, starts):
        for seed, init in starts.items():
            for a in START_TABLES[seed]:
                row = calibrate._sweep(a, init, None)
                assert isinstance(row, calibrate.MeasRow), (seed, a.vdd)

    @pytest.mark.parametrize("budget", [0, 40, 150])
    def test_fit_ends_no_worse_than_its_start(self, starts, budget):
        for seed, init in starts.items():
            anchors = START_TABLES[seed]
            report = fit(anchors, init, budget)
            assert report.residual <= objective(init, anchors), seed


class TestAnchorIo:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "anchors.csv"
        write_csv(path, ANCHOR_HEADER,
                  ((a.vdd, a.gain_db, a.eff_pct, a.pout_w, a.pdiss_w)
                   for a in REFERENCE_ANCHORS))
        assert path.read_text().splitlines()[0] == ANCHOR_HEADER
        back = read_anchors_csv(path)
        assert back == list(REFERENCE_ANCHORS)

    def test_report_csv(self, tmp_path, fitted):
        report, _ = fitted
        path = tmp_path / "report.csv"
        write_report_csv(report, REFERENCE_ANCHORS, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "vdd_V,gain_err_dB,eff_err_pp,residual,evaluations"
        assert len(lines) == 1 + len(REFERENCE_ANCHORS)

    def test_report_csv_writes_evaluations_as_an_integer(self, tmp_path):
        report = FitReport(params=PaParams(g0=40.0), residual=0.5,
                           per_anchor=((0.25, -1.5),), evaluations=1000000)
        path = tmp_path / "report.csv"
        write_report_csv(report, REFERENCE_ANCHORS[:1], path)
        assert path.read_text().splitlines()[1] == "58,0.25,-1.5,0.5,1000000"

    def test_anchor_consistency_validated(self):
        with pytest.raises(ValueError, match="inconsistent"):
            AnchorRow(vdd=58.0, gain_db=32.0, eff_pct=60.0, pout_w=1000.0,
                      pdiss_w=400.0)

    @pytest.mark.parametrize("name", ["vdd", "gain_db", "eff_pct", "pout_w",
                                      "pdiss_w"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_anchor_rejects_non_finite_fields(self, name, value):
        fields = dataclasses.asdict(REFERENCE_ANCHORS[0])
        fields[name] = value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            AnchorRow(**fields)

    @pytest.mark.parametrize("name", ["vdd", "pout_w"])
    @pytest.mark.parametrize("value", [0.0, -1000.0])
    def test_anchor_rejects_non_positive_vdd_or_power(self, name, value):
        fields = dataclasses.asdict(REFERENCE_ANCHORS[0])
        fields.update({name: value, "pdiss_w": 0.0})
        with pytest.raises(ValueError, match="must be > 0"):
            AnchorRow(**fields)

    def test_anchor_rejects_negative_dissipation(self):
        fields = dataclasses.asdict(REFERENCE_ANCHORS[0])
        assert AnchorRow(**{**fields, "pdiss_w": 0.0}).pdiss_w == 0.0
        with pytest.raises(ValueError, match="pdiss_w must be >= 0"):
            AnchorRow(**{**fields, "pdiss_w": -5.0})

    def test_blank_and_comment_lines_are_skipped(self, tmp_path):
        # the artifacts' 900 W table, with blank and # lines before its
        # header and between its rows
        plain, commented = tmp_path / "plain.csv", tmp_path / "commented.csv"
        plain.write_text(cli_artifacts.ANCHORS_CSV)
        header, *rows = cli_artifacts.ANCHORS_CSV.splitlines()
        commented.write_text("# bench table\n\n" + header + "\n  \n"
                             + "\n# next row\n".join(rows) + "\n\n")
        assert read_anchors_csv(commented) == read_anchors_csv(plain)
        assert len(read_anchors_csv(plain)) == 3

    def test_short_row_reports_its_line(self, tmp_path):
        path = tmp_path / "anchors.csv"
        path.write_text(ANCHOR_HEADER + "\n58,32,60,1000,666\n\n53,30\n")
        with pytest.raises(ValueError, match=f"^{path}:4: expected 5 fields"):
            read_anchors_csv(path)
