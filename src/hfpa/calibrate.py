"""Fit amplifier parameters to bench-measured CW reference rows.

The anchor set is the measured drain-bias table (gain, efficiency, output
power, dissipation at 58/53/48 V, all driven to 1 kW CW). ``fit`` runs a
deterministic bounded Nelder-Mead over the behavioral parameters;
``default_init`` builds the documented starting point, warm-started by an
algebraic pre-solve of the overdrive-shaping subsystem when the anchor set
has the standard equal-power three-row form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .measure import TargetUnreachable, sweep_bias
from .pamodel import PaParams, _fourier_clipped, bisect, swing_for_pout


class Diverged(RuntimeError):
    """Objective produced a non-finite value."""


@dataclass(frozen=True)
class AnchorRow:
    """One measured reference row: vdd, gain, efficiency, power, dissipation."""

    vdd: float
    gain_db: float
    eff_pct: float
    pout_w: float
    pdiss_w: float

    def __post_init__(self):
        for name in ("vdd", "gain_db", "eff_pct", "pout_w", "pdiss_w"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.vdd <= 0 or self.pout_w <= 0:
            raise ValueError(
                f"vdd and pout_w must be > 0, got {self.vdd}, {self.pout_w}")
        if not 0 < self.eff_pct <= 100:
            raise ValueError(f"eff_pct must be in (0, 100], got {self.eff_pct}")
        implied = self.pout_w * (100.0 / self.eff_pct - 1.0)
        if self.pdiss_w > 0 and abs(implied - self.pdiss_w) > 0.01 * self.pdiss_w:
            raise ValueError(
                f"dissipation {self.pdiss_w} W inconsistent with "
                f"pout*(100/eff-1) = {implied:.1f} W")


#: Measured bench table: drain V, gain dB, eff %, output W, dissipation W.
REFERENCE_ANCHORS = (
    AnchorRow(58.0, 32.0, 60.0, 1000.0, 666.0),
    AnchorRow(53.0, 30.0, 68.0, 1000.0, 470.0),
    AnchorRow(48.0, 28.0, 77.0, 1000.0, 298.0),
)


@dataclass(frozen=True)
class FitReport:
    params: PaParams
    residual: float
    per_anchor: Tuple[Tuple[float, float], ...]  # (gain err dB, eff err pp)
    evaluations: int


def objective(params: PaParams, anchors: Sequence[AnchorRow],
              idq: float = 2.0) -> float:
    """Sum of squared normalized anchor errors.

    Per anchor: drive to the row's output power at its vdd and accumulate
    ((gain error)/0.5 dB)^2 + ((efficiency error)/2 pp)^2. An unreachable
    target contributes a large finite penalty that grows with the shortfall,
    so the search can climb out of infeasible regions.
    """
    total = 0.0
    for a in anchors:
        try:
            row = sweep_bias([a.vdd], idq, a.pout_w, params)[0]
        except TargetUnreachable as exc:
            shortfall = max(0.0, 1.0 - exc.max_pout_w / a.pout_w)
            total += 1.0e6 * (1.0 + shortfall)
            continue
        total += ((row.gain_db - a.gain_db) / 0.5) ** 2
        total += ((row.eff_pct - a.eff_pct) / 2.0) ** 2
    return total


def anchor_errors(params: PaParams, anchors: Sequence[AnchorRow],
                  idq: float = 2.0):
    """(gain err dB, eff err pp) per anchor; (inf, inf) when unreachable."""
    errs = []
    for a in anchors:
        try:
            row = sweep_bias([a.vdd], idq, a.pout_w, params)[0]
            errs.append((row.gain_db - a.gain_db, row.eff_pct - a.eff_pct))
        except TargetUnreachable:
            errs.append((math.inf, math.inf))
    return tuple(errs)


# Search space: (name, lower, upper, initial simplex step).
# g0 is searched in dB for conditioning. ki is excluded: the reference table
# is taken at a single idq, which leaves the objective flat along ki.
_SPACE = (
    ("g0_db", 0.0, 60.0, 0.5),
    ("kv", -1.0, 1.0, 0.05),
    ("rload", 0.05, 0.95, 0.05),
    ("vknee", 1.0, 10.0, 0.5),
    ("smoothness", 1.0, 12.0, 0.5),
    ("shape_beta", 0.0, 40.0, 0.5),
    ("shape_exp", 0.5, 30.0, 1.0),
    ("shape_sat", 0.0, 400.0, 2.0),
)
_MAX_SHAPE_DEPTH = 0.22  # cap on beta/(1+c): keeps efficiency physical


def _params_to_vec(p: PaParams) -> np.ndarray:
    return np.array([20.0 * math.log10(p.g0), p.kv, p.rload, p.vknee,
                     p.smoothness, p.shape_beta, p.shape_exp, p.shape_sat])


def _clamp_vec(vec: np.ndarray) -> np.ndarray:
    out = vec.copy()
    for i, (_, lo, hi, _) in enumerate(_SPACE):
        out[i] = min(max(out[i], lo), hi)
    depth = out[5] / (1.0 + out[7])
    if depth > _MAX_SHAPE_DEPTH:
        out[5] = _MAX_SHAPE_DEPTH * (1.0 + out[7])
    return out


def _vec_to_params(vec: np.ndarray, template: PaParams) -> PaParams:
    v = [float(x) for x in _clamp_vec(vec)]
    return PaParams(g0=10.0 ** (v[0] / 20.0), kv=v[1], ki=template.ki,
                    rload=v[2], vknee=v[3], smoothness=v[4],
                    shape_beta=v[5], shape_exp=v[6], shape_sat=v[7],
                    ripple=template.ripple)


def fit(anchors: Sequence[AnchorRow], init: PaParams,
        budget: int = 3000, idq: float = 2.0) -> FitReport:
    """Bounded Nelder-Mead descent from ``init``.

    Deterministic: fixed reflection/expansion/contraction/shrink coefficients
    (1, 2, 0.5, 0.5), a fixed initial simplex built from per-dimension steps,
    and a stall-triggered restart with quartered steps. The returned residual
    never exceeds the initial one; ``budget`` caps objective evaluations
    (budget 0 returns ``init`` unchanged with its residual).
    """
    evals = 0

    def f(vec: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        value = objective(_vec_to_params(vec, init), anchors, idq)
        if not math.isfinite(value):
            raise Diverged(f"non-finite objective at {vec}")
        return value

    if budget <= 0:
        residual = objective(init, anchors, idq)
        if not math.isfinite(residual):
            raise Diverged("non-finite objective at init")
        return FitReport(init, residual, anchor_errors(init, anchors, idq), 0)

    x0 = _clamp_vec(_params_to_vec(init))
    best_vec = x0.copy()
    best_val = objective(_vec_to_params(x0, init), anchors, idq)
    if not math.isfinite(best_val):
        raise Diverged("non-finite objective at init")

    ndim = len(_SPACE)
    steps = np.array([s[3] for s in _SPACE])
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    scale = 1.0

    while evals < budget:
        # fresh simplex around the incumbent
        simplex = [best_vec.copy()]
        values = [best_val]
        for i in range(ndim):
            v = best_vec.copy()
            v[i] += steps[i] * scale
            simplex.append(_clamp_vec(v))
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
                break  # stalled: restart with a tighter simplex

            centroid = np.mean(simplex[:-1], axis=0)
            xr = _clamp_vec(centroid + alpha * (centroid - simplex[-1]))
            fr = f(xr)
            if fr < values[0]:
                xe = _clamp_vec(centroid + gamma * (centroid - simplex[-1]))
                fe = f(xe) if evals < budget else fr
                if fe < fr:
                    simplex[-1], values[-1] = xe, fe
                else:
                    simplex[-1], values[-1] = xr, fr
            elif fr < values[-2]:
                simplex[-1], values[-1] = xr, fr
            else:
                xc = _clamp_vec(centroid + rho * (simplex[-1] - centroid))
                fc = f(xc) if evals < budget else fr
                if fc < values[-1]:
                    simplex[-1], values[-1] = xc, fc
                else:  # shrink toward the best vertex
                    for i in range(1, ndim + 1):
                        if evals >= budget:
                            break
                        simplex[i] = _clamp_vec(
                            simplex[0] + sigma * (simplex[i] - simplex[0]))
                        values[i] = f(simplex[i])
        scale *= 0.25  # restart ladder

    params = _vec_to_params(best_vec, init)
    residual = objective(params, anchors, idq)
    errs = anchor_errors(params, anchors, idq)
    return FitReport(params=params, residual=residual, per_anchor=errs,
                     evaluations=evals)


# --- default starting point -------------------------------------------------

def _shape_presolve(anchors: Sequence[AnchorRow], rload: float, vknee: float,
                    idq: float):
    """Exact overdrive-shaping parameters through three equal-power anchors.

    At fixed output power the quasi-sine DC draw is the same at every vdd, so
    the measured efficiencies pin the per-row shaping factors; a saturating
    power law 1/(A*r^-p + B) is fitted through the three implied deficits.
    Returns (shape_beta, shape_exp, shape_sat, a_out) or None when infeasible.
    """
    a_out = swing_for_pout(anchors[0].pout_w, idq, rload)
    _, idc, _ = _fourier_clipped(idq, a_out / rload)

    ys, rs = [], []
    for a in anchors:
        pdc = a.pout_w + a.pdiss_w
        y = 1.0 - pdc / (a.vdd * idc)
        r = a_out / (a.vdd - vknee)
        if y <= 0.0 or not 0.0 < r < 1.0:
            return None
        ys.append(y)
        rs.append(r)
    iy = [1.0 / y for y in ys]

    def mismatch(p: float):
        x = [r ** (-p) for r in rs]
        a_coef = (iy[0] - iy[2]) / (x[0] - x[2])
        b_coef = iy[0] - a_coef * x[0]
        return iy[1] - (a_coef * x[1] + b_coef), a_coef, b_coef

    p_lo, p_hi = 0.5, 30.0
    f_lo = mismatch(p_lo)[0]
    f_hi = mismatch(p_hi)[0]
    if not (math.isfinite(f_lo) and math.isfinite(f_hi)) or f_lo * f_hi > 0:
        return None
    # -1 on p_lo's side of the sign change, whichever sign that side has
    lo_negative = f_lo < 0
    p = bisect(lambda q: -1.0 if (mismatch(q)[0] < 0) == lo_negative else 1.0,
               p_lo, p_hi, max_iter=100)
    _, a_coef, b_coef = mismatch(p)
    if a_coef <= 0 or b_coef < 0:
        return None
    beta, sat = 1.0 / a_coef, b_coef / a_coef
    if beta / (1.0 + sat) > _MAX_SHAPE_DEPTH:
        return None
    return beta, p, sat, a_out


def _gain_lstsq(anchors: Sequence[AnchorRow], params: PaParams,
                idq: float) -> Optional[PaParams]:
    """Closed-form least-squares (g0, kv) against the measured gain rows."""
    rows = []
    try:
        for a in anchors:
            row = sweep_bias([a.vdd], idq, a.pout_w, params)[0]
            rows.append(row.gain_db)
    except TargetUnreachable:
        return None
    g0_db = 20.0 * math.log10(params.g0)
    # measured gain = g0_db + kv*(vdd-58) + compression(vdd); solve the
    # linear part against targets with the current compression offsets
    comp = [m - (g0_db + params.kv * (a.vdd - 58.0))
            for m, a in zip(rows, anchors)]
    A = np.array([[1.0, a.vdd - 58.0] for a in anchors])
    b = np.array([a.gain_db - c for a, c in zip(anchors, comp)])
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    new_g0_db = float(min(max(sol[0], _SPACE[0][1]), _SPACE[0][2]))
    new_kv = float(min(max(sol[1], _SPACE[1][1]), _SPACE[1][2]))
    return PaParams(g0=10.0 ** (new_g0_db / 20.0), kv=new_kv, ki=params.ki,
                    rload=params.rload, vknee=params.vknee,
                    smoothness=params.smoothness,
                    shape_beta=params.shape_beta, shape_exp=params.shape_exp,
                    shape_sat=params.shape_sat, ripple=params.ripple)


def default_init(anchors: Sequence[AnchorRow] = REFERENCE_ANCHORS,
                 idq: float = 2.0) -> PaParams:
    """Documented default starting point for ``fit``.

    Base values: g0 at 30 dB, kv = ki = 0, vknee 4 V, smoothness 2, rload
    from the load-line estimate vdd^2/(2*pout) at the highest-vdd row
    (clamped into the search bounds). When the anchor set is the standard
    three-row equal-power table, a deterministic scout refines rload and the
    shaping parameters by the algebraic pre-solve and a small fixed ladder of
    knee sharpness values, keeping whichever candidate scores best.
    """
    top = max(anchors, key=lambda a: a.vdd)
    rload_est = top.vdd ** 2 / (2.0 * top.pout_w)
    rload0 = min(max(rload_est, _SPACE[2][1]), _SPACE[2][2])
    base = PaParams(g0=10.0 ** (30.0 / 20.0), kv=0.0, ki=0.0, rload=rload0,
                    vknee=4.0, smoothness=2.0)

    equal_power = (len(anchors) == 3
                   and len({a.pout_w for a in anchors}) == 1
                   and len({a.vdd for a in anchors}) == 3)
    if not equal_power:
        return base

    best = (objective(base, anchors, idq), base)
    for rload in np.arange(0.30, 0.521, 0.02):
        pre = _shape_presolve(anchors, float(rload), base.vknee, idq)
        if pre is None:
            continue
        beta, p, sat, _ = pre
        for s in (2.0, 3.0, 4.0, 6.0, 8.0):
            cand = PaParams(g0=base.g0, kv=0.0, ki=0.0, rload=float(rload),
                            vknee=base.vknee, smoothness=s, shape_beta=beta,
                            shape_exp=p, shape_sat=sat)
            refined = _gain_lstsq(anchors, cand, idq)
            if refined is None:
                continue
            refined = _gain_lstsq(anchors, refined, idq) or refined
            score = objective(refined, anchors, idq)
            if score < best[0]:
                best = (score, refined)
    return best[1]


# --- anchor/report CSV ------------------------------------------------------

ANCHOR_HEADER = "vdd_V,gain_dB,eff_pct,pout_W,pdiss_W"


def read_anchors_csv(path) -> List[AnchorRow]:
    anchors = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != ANCHOR_HEADER:
            raise ValueError(f"expected header {ANCHOR_HEADER!r}, got {header!r}")
        for lineno, line in enumerate(fh, 2):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 5:
                raise ValueError(f"{path}:{lineno}: expected 5 fields "
                                 f"({ANCHOR_HEADER}), got {len(fields)}")
            try:
                anchors.append(AnchorRow(*(float(x) for x in fields)))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    if not anchors:
        raise ValueError(f"{path}: no anchor rows")
    return anchors


def write_anchors_csv(anchors: Sequence[AnchorRow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(ANCHOR_HEADER + "\n")
        for a in anchors:
            fh.write(f"{a.vdd:.6g},{a.gain_db:.6g},{a.eff_pct:.6g},"
                     f"{a.pout_w:.6g},{a.pdiss_w:.6g}\n")


def write_report_csv(report: FitReport, anchors: Sequence[AnchorRow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("vdd_V,gain_err_dB,eff_err_pp,residual,evaluations\n")
        for a, (ge, ee) in zip(anchors, report.per_anchor):
            fh.write(f"{a.vdd:.6g},{ge:.6g},{ee:.6g},"
                     f"{report.residual:.6g},{report.evaluations}\n")
