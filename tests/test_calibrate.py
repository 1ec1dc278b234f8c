"""Calibration tests: objective self-consistency, penalty paths, and
round-trip parameter recovery."""
import dataclasses
import math

import numpy as np
import pytest

from hfpa.calibrate import (ANCHOR_HEADER, AnchorRow, REFERENCE_ANCHORS,
                            default_init, fit, objective, read_anchors_csv,
                            write_anchors_csv, write_report_csv)
from hfpa.measure import sweep_bias
from hfpa.pamodel import PaParams

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

    def test_fitted_params_respect_invariants(self, fitted):
        report, _ = fitted
        p = report.params
        assert p.g0 > 0 and p.rload > 0
        assert 0.0 <= p.vknee < 30.0
        assert 0.5 <= p.smoothness <= 20.0


class TestDefaultInit:
    def test_reference_warm_start_is_reasonable(self):
        init = default_init(REFERENCE_ANCHORS)
        assert objective(init, REFERENCE_ANCHORS) < 10.0

    def test_generic_anchors_fall_back_to_base(self):
        anchors = synthetic_anchors(TRUE_PARAMS, vdds=(58.0, 50.0),
                                    pout=800.0)
        init = default_init(anchors)
        assert init.rload == pytest.approx(0.95)  # clamped load-line estimate
        assert init.smoothness == 2.0


class TestAnchorIo:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "anchors.csv"
        write_anchors_csv(REFERENCE_ANCHORS, path)
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

    def test_short_row_reports_its_line(self, tmp_path):
        path = tmp_path / "anchors.csv"
        path.write_text(ANCHOR_HEADER + "\n58,32,60,1000,666\n\n53,30\n")
        with pytest.raises(ValueError, match=f"^{path}:4: expected 5 fields"):
            read_anchors_csv(path)
