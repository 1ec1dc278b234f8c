"""Fit amplifier parameters to bench-measured CW reference rows.

The anchor set is the measured drain-bias table (gain, efficiency, output
power, dissipation at 58/53/48 V and ``IDQ_REF``, driven to 1 kW CW). ``fit``
runs a deterministic bounded Nelder-Mead over the behavioral parameters;
``default_init`` builds the documented starting point, warm-started by an
algebraic pre-solve of the overdrive-shaping subsystem when the anchor set
has the standard equal-power three-row form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .measure import MeasRow, TargetUnreachable, sweep_bias, write_csv
from .pamodel import (_SCALAR_KEYS, IDQ_REF, VDD_REF, BiasPoint, PaParams,
                      bisect, conduction_currents, small_signal_gain_db,
                      swing_for_pout)
from .spec import number, records


class Diverged(RuntimeError):
    """Objective produced a non-finite value."""


@dataclass(frozen=True)
class AnchorRow:
    """One measured reference row: vdd, gain, efficiency, power, dissipation.

    A dissipation of 0 means not given; a positive one must match
    ``pout*(100/eff - 1)`` within 1%.
    """

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
        if self.pdiss_w < 0:
            raise ValueError(f"pdiss_w must be >= 0, got {self.pdiss_w}")
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


def _sweep(a: AnchorRow, params: PaParams,
           rows: Optional[dict]) -> Union[MeasRow, float]:
    """``a``'s row swept under ``params``, or the ``max_pout_w`` of the
    TargetUnreachable that the sweep raised.

    ``rows``, when not None, holds the outcomes already swept, keyed by the
    anchor's vdd and power and the nine scalar params; a repeated key is
    not swept again.
    """
    key = (None if rows is None else
           (a.vdd, a.pout_w, *(getattr(params, k) for k in _SCALAR_KEYS)))
    if key is not None and key in rows:
        return rows[key]
    try:
        out = sweep_bias([a.vdd], IDQ_REF, a.pout_w, params)[0]
    except TargetUnreachable as exc:
        out = exc.max_pout_w
    if key is not None:
        rows[key] = out
    return out


def _score(params: PaParams, anchors: Sequence[AnchorRow],
           rows: Optional[dict] = None):
    """(residual, per-anchor errors) from one sweep of each anchor
    (``_sweep``, which may take it from ``rows``).

    Per anchor: drive to the row's output power at its vdd and accumulate
    ((gain error)/0.5 dB)^2 + ((efficiency error)/2 pp)^2; the error pair is
    (gain err dB, eff err pp). An unreachable target contributes a large
    finite penalty that grows with the shortfall, so the search can climb
    out of infeasible regions, and reports (inf, inf).
    """
    total = 0.0
    errs = []
    for a in anchors:
        row = _sweep(a, params, rows)
        if not isinstance(row, MeasRow):
            shortfall = max(0.0, 1.0 - row / a.pout_w)
            total += 1.0e6 * (1.0 + shortfall)
            errs.append((math.inf, math.inf))
            continue
        gain_err, eff_err = row.gain_db - a.gain_db, row.eff_pct - a.eff_pct
        total += (gain_err / 0.5) ** 2  # two additions: the fit's bits
        total += (eff_err / 2.0) ** 2   # depend on this order
        errs.append((gain_err, eff_err))
    return total, tuple(errs)


def objective(params: PaParams, anchors: Sequence[AnchorRow]) -> float:
    """Sum of squared normalized anchor errors (``_score``'s residual)."""
    return _score(params, anchors)[0]


# Search space: (name, lower, upper, initial simplex step).
# g0 is searched in dB for conditioning. ki is excluded: the reference table
# is taken at IDQ_REF, where the ki term is zero and the objective flat.
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


def _params_to_vec(p: PaParams) -> List[float]:
    return [20.0 * math.log10(p.g0), float(p.kv), float(p.rload),
            float(p.vknee), float(p.smoothness), float(p.shape_beta),
            float(p.shape_exp), float(p.shape_sat)]


def _clamp_vec(vec: Sequence[float]) -> List[float]:
    out = [min(max(x, lo), hi) for x, (_, lo, hi, _) in zip(vec, _SPACE)]
    depth = out[5] / (1.0 + out[7])
    if depth > _MAX_SHAPE_DEPTH:
        out[5] = _MAX_SHAPE_DEPTH * (1.0 + out[7])
    return out


def _vec_to_params(v: Sequence[float], template: PaParams) -> PaParams:
    """The params at search point ``v``, with ``ki`` and ``ripple`` from
    ``template``.

    ``v`` must already lie in ``_SPACE``: every point that ``fit`` and
    ``default_init`` pass is a ``_clamp_vec`` result, and clamping one
    again changes no bit. Each box of ``_SPACE`` lies inside its field's
    ``pamodel.PARAM_RULES`` range (``g0`` through its dB form), which
    ``tests/test_calibrate.py`` checks.
    """
    return PaParams(g0=10.0 ** (v[0] / 20.0), kv=v[1], ki=template.ki,
                    rload=v[2], vknee=v[3], smoothness=v[4],
                    shape_beta=v[5], shape_exp=v[6], shape_sat=v[7],
                    ripple=template.ripple)


def fit(anchors: Sequence[AnchorRow], init: PaParams,
        budget: int) -> FitReport:
    """Bounded Nelder-Mead descent from ``init``.

    Deterministic: fixed reflection/expansion/contraction/shrink coefficients
    (1, 2, 0.5, 0.5), a fixed initial simplex built from per-dimension steps,
    and a stall-triggered restart with quartered steps. The returned residual
    never exceeds the initial one; ``budget`` caps objective evaluations
    (budget 0 returns ``init`` unchanged with its residual). The search
    starts from ``init`` clamped into ``_SPACE``; when that moved it and the
    search ends worse than ``init`` scores, ``init`` is returned instead.

    The search runs on lists of Python floats, not numpy arrays: an
    8-element array operation costs more than the arithmetic in it. Each
    update keeps its operand order, and the centroid is the vertices added
    row by row from 0.0, then divided by ``ndim``, the order of numpy's
    axis-0 ``np.mean``, so every point has the bits of the array form. The
    vertices are still ranked by ``np.argsort``: numpy's sort of 9 values
    may order ties differently from Python's stable sort.
    """
    evals = 0

    def f(vec: List[float]) -> float:
        nonlocal evals
        evals += 1
        value = objective(_vec_to_params(vec, init), anchors)
        if not math.isfinite(value):
            raise Diverged(f"non-finite objective at {vec}")
        return value

    if budget <= 0:
        residual, errs = _score(init, anchors)
        if not math.isfinite(residual):
            raise Diverged("non-finite objective at init")
        return FitReport(init, residual, errs, 0)

    vec = _params_to_vec(init)
    x0 = _clamp_vec(vec)
    # a start clamped into the box may score worse than init itself
    init_score = None if x0 == vec else _score(init, anchors)
    best_vec = x0
    best_val = objective(_vec_to_params(x0, init), anchors)
    if not math.isfinite(best_val):
        raise Diverged("non-finite objective at init")

    ndim = len(_SPACE)
    steps = [s[3] for s in _SPACE]
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    scale = 1.0

    while evals < budget:
        # fresh simplex around the incumbent
        simplex = [best_vec]
        values = [best_val]
        for i in range(ndim):
            v = list(best_vec)
            v[i] += steps[i] * scale
            simplex.append(_clamp_vec(v))
            values.append(f(simplex[-1]))
            if evals >= budget:
                break

        while evals < budget and len(simplex) == ndim + 1:
            order = np.argsort(values).tolist()
            simplex = [simplex[i] for i in order]
            values = [values[i] for i in order]
            if values[0] < best_val:
                best_val, best_vec = values[0], simplex[0]
            spread = values[-1] - values[0]
            if spread < 1e-12 * (1.0 + abs(values[0])):
                break  # stalled: restart with a tighter simplex

            centroid = [0.0] * ndim
            for v in simplex[:-1]:
                centroid = [c + x for c, x in zip(centroid, v)]
            centroid = [c / ndim for c in centroid]
            worst = simplex[-1]
            xr = _clamp_vec([c + alpha * (c - w)
                             for c, w in zip(centroid, worst)])
            fr = f(xr)
            if fr < values[0]:
                xe = _clamp_vec([c + gamma * (c - w)
                                 for c, w in zip(centroid, worst)])
                fe = f(xe) if evals < budget else fr
                if fe < fr:
                    simplex[-1], values[-1] = xe, fe
                else:
                    simplex[-1], values[-1] = xr, fr
            elif fr < values[-2]:
                simplex[-1], values[-1] = xr, fr
            else:
                xc = _clamp_vec([c + rho * (w - c)
                                 for c, w in zip(centroid, worst)])
                fc = f(xc) if evals < budget else fr
                if fc < values[-1]:
                    simplex[-1], values[-1] = xc, fc
                else:  # shrink toward the best vertex
                    best = simplex[0]
                    for i in range(1, ndim + 1):
                        if evals >= budget:
                            break
                        simplex[i] = _clamp_vec(
                            [b + sigma * (x - b)
                             for b, x in zip(best, simplex[i])])
                        values[i] = f(simplex[i])
        scale *= 0.25  # restart ladder

    params = _vec_to_params(best_vec, init)
    residual, errs = _score(params, anchors)
    if init_score is not None and residual > init_score[0]:
        return FitReport(init, *init_score, evals)
    return FitReport(params=params, residual=residual, per_anchor=errs,
                     evaluations=evals)


# --- default starting point -------------------------------------------------

def _shape_presolve(anchors: Sequence[AnchorRow], rload: float, vknee: float):
    """Exact overdrive-shaping parameters through three equal-power anchors.

    At fixed output power the quasi-sine DC draw is the same at every vdd, so
    the measured efficiencies pin the per-row shaping factors; a saturating
    power law 1/(A*r^-p + B) is fitted through the three implied deficits.
    Returns (shape_beta, shape_exp, shape_sat) or None when infeasible.
    """
    a_out = swing_for_pout(anchors[0].pout_w, IDQ_REF, rload)
    _, idc, _ = conduction_currents(IDQ_REF, a_out / rload)

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
               p_lo, p_hi)
    _, a_coef, b_coef = mismatch(p)
    if a_coef <= 0 or b_coef < 0:
        return None
    beta, sat = 1.0 / a_coef, b_coef / a_coef
    if beta / (1.0 + sat) > _MAX_SHAPE_DEPTH:
        return None
    return beta, p, sat


def _gain_lstsq(anchors: Sequence[AnchorRow], vec: List[float],
                template: PaParams, rows: dict) -> Optional[List[float]]:
    """``vec`` with (g0 dB, kv) replaced by their closed-form least squares
    against the measured gain rows, clamped into ``_SPACE``."""
    params = _vec_to_params(vec, template)
    measured = []
    for a in anchors:
        row = _sweep(a, params, rows)
        if not isinstance(row, MeasRow):
            # reachable: the drive ceiling 10*a_sat/g caps the swing at
            # 10/(1 + 10^(2s))^(1/(2s)) of a_sat (0.999975 at s = 2, within
            # 2e-7 of a_sat from s = 3); a pre-solve may need any swing < a_sat
            return None
        measured.append(row.gain_db)
    # measured gain = g0_db + kv*(vdd - VDD_REF) + compression(vdd); solve
    # the linear part against targets with the current compression offsets
    comp = [m - small_signal_gain_db(BiasPoint(a.vdd, IDQ_REF), params)
            for m, a in zip(measured, anchors)]
    A = np.array([[1.0, a.vdd - VDD_REF] for a in anchors])
    b = np.array([a.gain_db - c for a, c in zip(anchors, comp)])
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    return _clamp_vec([float(sol[0]), float(sol[1]), *vec[2:]])


def default_init(anchors: Sequence[AnchorRow]) -> PaParams:
    """Documented default starting point for ``fit``.

    Base values: g0 at 30 dB, kv = ki = 0, vknee 4 V, smoothness 2, no
    shaping, and rload from the class-AB load line a^2/(4*pout) with
    a = 0.9*(vdd - vknee), at the lowest anchor vdd and the highest anchor
    power. When the anchor set is the standard three-row equal-power table,
    a deterministic scout refines rload and the shaping parameters by the
    algebraic pre-solve and a small fixed ladder of knee sharpness values,
    refines each candidate's (g0, kv) twice by least squares, and keeps
    whichever scores best. Every start (base, candidate or refinement) is
    clamped into ``_SPACE`` by ``_clamp_vec``, as ``fit``'s points are.

    Each distinct row (anchor, params) is swept once per call: the scout's
    two gain refinements and its scoring share one call-local table of the
    rows swept so far, so a refinement that lands on the params it started
    from is not swept again. ``fit`` and ``objective`` keep no such table.
    """
    vdd, pout = min(a.vdd for a in anchors), max(a.pout_w for a in anchors)
    template = PaParams(g0=1.0)  # every start's ki = 0 and empty ripple
    base = _clamp_vec([30.0, 0.0, (0.9 * (vdd - 4.0)) ** 2 / (4.0 * pout),
                       4.0, 2.0, 0.0, 4.0, 0.0])

    equal_power = (len(anchors) == 3
                   and len({a.pout_w for a in anchors}) == 1
                   and len({a.vdd for a in anchors}) == 3)
    if not equal_power:
        return _vec_to_params(base, template)

    rows = {}  # every candidate's sweeps, for this call only
    best = (_score(_vec_to_params(base, template), anchors, rows)[0], base)
    for rload in np.arange(0.30, 0.521, 0.02):
        pre = _shape_presolve(anchors, float(rload), 4.0)
        if pre is None:
            continue
        beta, p, sat = pre
        for s in (2.0, 3.0, 4.0, 6.0, 8.0):
            cand = _clamp_vec([30.0, 0.0, float(rload), 4.0, s, beta, p, sat])
            refined = _gain_lstsq(anchors, cand, template, rows)
            if refined is None:
                continue
            refined = _gain_lstsq(anchors, refined, template, rows) or refined
            score = _score(_vec_to_params(refined, template), anchors, rows)[0]
            if score < best[0]:
                best = (score, refined)
    return _vec_to_params(best[1], template)


# --- anchor/report CSV ------------------------------------------------------

ANCHOR_HEADER = "vdd_V,gain_dB,eff_pct,pout_W,pdiss_W"


def read_anchors_csv(path) -> List[AnchorRow]:
    lines = records(path)
    where, header = next(lines, (path, ""))
    if header != ANCHOR_HEADER:
        raise ValueError(
            f"{where}: expected header {ANCHOR_HEADER!r}, got {header!r}")
    anchors = []
    for where, line in lines:
        fields = line.split(",")
        if len(fields) != 5:
            raise ValueError(f"{where}: expected 5 fields "
                             f"({ANCHOR_HEADER}), got {len(fields)}")
        values = [number(x, where) for x in fields]
        try:
            anchors.append(AnchorRow(*values))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
    if not anchors:
        raise ValueError(f"{path}: no anchor rows")
    return anchors


def write_report_csv(report: FitReport, anchors: Sequence[AnchorRow], path) -> None:
    # the count is an int cell: str() keeps 1000000 from reading 1e+06
    write_csv(path, "vdd_V,gain_err_dB,eff_err_pp,residual,evaluations",
              ((a.vdd, ge, ee, report.residual, str(report.evaluations))
               for a, (ge, ee) in zip(anchors, report.per_anchor)))
