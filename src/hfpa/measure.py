"""Experiment harness: two-tone IMD, the CW drive solve, bias/band sweeps.

IMD levels are reported in dBc relative to one of two equal fundamentals
(per-tone, not PEP) -- the CSV header states this to kill the classic 6 dB
ambiguity. A deterministic -120 dBc analysis noise floor keeps "no IMD"
cases finite.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import kernels
from .bands import BANDS
from .pamodel import (BiasPoint, PaParams, PaStats, _rapp_scalar, bisect,
                      fundamental_pout, gain_and_swing, simulate)
from .signalgen import IqBlock


class TonesUnresolvable(ValueError):
    """DFT bin spacing too coarse to separate the two tones."""


class TargetUnreachable(ValueError):
    """Output power saturates below the requested target."""

    def __init__(self, message: str, max_pout_w: float = 0.0):
        super().__init__(message)
        self.max_pout_w = max_pout_w


class UnknownBand(ValueError):
    """Band id not in the configured band table."""


#: Exact CSV schema for measurement records. Empty fields = not measured.
CSV_HEADER = "vdd_V,idq_A,band,pout_W,gain_dB,eff_pct,pdiss_W,imd3_dBc,imd5_dBc"


@dataclass(frozen=True)
class MeasRow:
    """One measurement record (a row of the results CSV)."""

    vdd_v: float
    idq_a: float
    pout_w: float
    gain_db: Optional[float] = None
    eff_pct: Optional[float] = None
    pdiss_w: float = 0.0
    imd3_dbc: Optional[float] = None
    imd5_dbc: Optional[float] = None
    band: Optional[str] = None


@dataclass(frozen=True)
class ImdProduct:
    order: int
    offset_hz: float
    level_dbc: float


@dataclass(frozen=True)
class ImdResult:
    """Per-product intermodulation levels from one two-tone measurement."""

    products: Tuple[ImdProduct, ...]

    def worst(self, order: int) -> Optional[float]:
        levels = [p.level_dbc for p in self.products if p.order == order]
        return max(levels) if levels else None


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return f"{value:.6g}"


def write_csv(path, header: str, rows: Iterable[Sequence]) -> None:
    """Write one CSV artifact: UTF-8, LF line ends, the header line, then
    one line per row.

    Cells: None is an empty field (not measured), a str is written as is,
    and a number as ``.6g``; a caller that needs another number format
    passes the formatted str.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(cell) for cell in row) + "\n")


def write_rows_csv(rows: Iterable[MeasRow], path) -> None:
    """Write measurement rows in the canonical schema (``write_csv``)."""
    write_csv(path, CSV_HEADER,
              ((r.vdd_v, r.idq_a, r.band, r.pout_w, r.gain_db, r.eff_pct,
                r.pdiss_w, r.imd3_dbc, r.imd5_dbc) for r in rows))


#: Flat-top cosine-sum coefficients (D'Antona & Ferrero, "Digital Signal
#: Processing for Measurement Systems", Springer 2006, p. 70).
_FLATTOP = (0.21557895, 0.41663158, 0.277263158, 0.083578947, 0.006947368)


def flattop(n: int) -> np.ndarray:
    """Periodic (DFT-even) flat-top window of length n.

    A symmetric (n + 1)-point cosine sum with its last point dropped,
    summed term by term in coefficient order; ``tests/test_measure.py``
    checks it bit for bit against the standard reference implementation.
    """
    if n <= 1:
        return np.ones(n)
    fac = np.linspace(-np.pi, np.pi, n + 1)
    w = np.zeros(n + 1)
    for k, a in enumerate(_FLATTOP):
        w += a * np.cos(k * fac)
    return w[:-1]


#: Level of the deterministic analysis noise added before the DFT, dBc.
NOISE_FLOOR_DBC = -120.0


@functools.lru_cache(maxsize=1)
def _analysis_constants(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``flattop(n)`` and the unit complex noise-floor draw, both read-only.

    Both depend on ``n`` alone; a drive sweep analyses one length many times.
    """
    rng = np.random.default_rng(0x1D5EED)  # fixed: analysis floor is deterministic
    unit = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    win = flattop(n)
    win.flags.writeable = False
    unit.flags.writeable = False
    return win, unit


def _power(x, mag2):
    np.abs(x, mag2)
    mag2 **= 2


def _noisy_windowed(x, unit, win, z, floor):
    """``z = (x + floor*unit/sqrt(2)) * win``; no noise when ``floor`` is
    None."""
    if floor is not None:
        x = np.add(x, np.divide(np.multiply(floor, unit, out=z), math.sqrt(2),
                                out=z), out=z)
    np.multiply(x, win, out=z)


def measure_imd(block: IqBlock, f1: float, f2: float) -> ImdResult:
    """Two-tone intermodulation analysis by windowed DFT.

    Locates the fundamentals and the order-3/5 products (2f1-f2, 2f2-f1,
    3f1-2f2, 3f2-2f1) within +/-1 bin and reports each in dBc below the mean
    fundamental. A flat-top window keeps scalloping loss negligible.

    The window and the unit noise draw of the most recent block length stay
    cached after the call: 24 bytes per sample, 3 MiB at 131072 samples.
    The analysis runs in the calling thread's ``kernels.workspace``, which
    ``pamodel.simulate`` shares and which adds 40 bytes per sample per
    thread, 5 MiB at 131072 samples (not kept above ``CACHE_MAX_SAMPLES``).
    The noise and window passes run as two halves on a long block
    (``kernels.halves``); the DFT runs in place in the workspace's complex
    row (``np.fft.fft(z, out=z)``, numpy >= 2.0), and only the bins around
    each tone are taken to magnitudes.
    """
    if f1 == f2:
        raise ValueError("tones must differ")
    fs = block.sample_rate
    n = len(block)
    beat = abs(f2 - f1)
    if n / fs < 20.0 / beat:
        raise TonesUnresolvable(
            f"block spans {n / fs * beat:.1f} beat periods; need >= 20")
    bin_hz = fs / n
    if beat < 10.0 * bin_hz:
        raise TonesUnresolvable(
            f"tone spacing {beat} Hz < 10 DFT bins ({10 * bin_hz:.1f} Hz)")

    win, unit = _analysis_constants(n)
    ws = kernels.workspace(n)
    x = block.samples
    mag2 = ws[2]
    kernels.halves(_power, (x, mag2))
    rms = math.sqrt(float(np.mean(mag2)))
    floor = rms * 10.0 ** (NOISE_FLOOR_DBC / 20.0) if rms > 0 else None
    # rows 0 and 1 are adjacent in the workspace: one complex128 row
    z = ws[0].base[:2].reshape(-1).view(np.complex128)
    kernels.halves(_noisy_windowed, (x, unit, win, z), floor)
    spec = np.fft.fft(z, out=z)

    def peak_at(freq: float) -> float:
        k = int(round(freq / fs * n)) % n
        window_bins = np.abs(spec.take(range(k - 1, k + 2), mode="wrap"))
        return float(np.max(window_bins))

    fund = 0.5 * (peak_at(f1) + peak_at(f2))
    if fund <= 0:
        raise ValueError("no fundamental energy at the stated tone offsets")

    offsets = {3: (2 * f1 - f2, 2 * f2 - f1),
               5: (3 * f1 - 2 * f2, 3 * f2 - 2 * f1)}
    products = []
    for order, freqs in offsets.items():
        for f in freqs:
            if abs(f) >= fs / 2:
                continue
            level = 20.0 * math.log10(max(peak_at(f), 1e-300) / fund)
            products.append(ImdProduct(order=order, offset_hz=f, level_dbc=level))
    return ImdResult(products=tuple(products))


_SWEEP_FS = 1.0e6
_SWEEP_N = 64


def _cw_block(level: float) -> IqBlock:
    return IqBlock(np.full(_SWEEP_N, level, dtype=np.complex128), _SWEEP_FS)


def simulate_cw(level: float, bias: BiasPoint, params: PaParams,
                band: Optional[str] = None) -> PaStats:
    """Steady-state stats for a CW drive at the given envelope level."""
    _, stats = simulate(_cw_block(level), bias, params, band)
    return stats


#: ``drive_for_pout`` stops within this fraction of the target power, and
#: gives up after this many bisection steps.
DRIVE_REL_TOL = 1e-3
DRIVE_MAX_ITER = 60

#: ``drive_for_pout`` decides a bisection step, and ``drive_cap`` its
#: saturation test, from the scalar CW law unless the predicted power lies
#: within this fraction of itself of the decision's edge. The law and
#: ``simulate_cw`` differed by at most 5.7e-14 of the power in four scans of
#: 40 000 cases (``tools/cw_law_scan.py``, seeds 1, 2, 3 and 7: random
#: params, bias points and bands; drives uniform up to 10x saturation, at the
#: clipping onset ``a_out ~ idq*rload``, where the worst case lies, and at
#: the ceiling ``10*a_sat/g``): a safety factor above 10^4.
DRIVE_PREDICT_MARGIN = 1e-9


def _cw_pout_law(bias: BiasPoint, params: PaParams,
                 band: Optional[str] = None,
                 gain: Optional[Tuple[float, float]] = None
                 ) -> Callable[[float], float]:
    """Scalar CW output power ``a -> fundamental_pout(am_am(a), idq, rload)``.

    ``am_am``'s law in ``math`` arithmetic (``pamodel._rapp_scalar``), with
    its gain and saturated swing computed once, or taken from ``gain``, the
    caller's ``gain_and_swing(bias, params, band)``. It filters decisions
    only: its value never reaches an output.
    """
    g, a_sat = gain_and_swing(bias, params, band) if gain is None else gain
    smooth, idq, rload = params.smoothness, bias.idq, params.rload

    def pout(a: float) -> float:
        return fundamental_pout(_rapp_scalar(g * a, a_sat, smooth), idq, rload)

    return pout


def _capped_law(target_pout_w: float, bias: BiasPoint, params: PaParams,
                band: Optional[str]) -> Tuple[float, Callable[[float], float]]:
    """``drive_cap``'s ceiling and the scalar CW law that decided it, both
    from one ``gain_and_swing`` call; ``drive_for_pout`` bisects with the
    same law."""
    gain = gain_and_swing(bias, params, band)
    predict = _cw_pout_law(bias, params, band, gain)
    g, a_sat = gain
    hi = 10.0 * a_sat / g
    pred = predict(hi)
    if pred - target_pout_w <= DRIVE_PREDICT_MARGIN * pred:
        p_hi = simulate_cw(hi, bias, params, band).pout_w
        if p_hi < target_pout_w:
            raise TargetUnreachable(
                f"saturated output {p_hi:.1f} W below target "
                f"{target_pout_w:.1f} W at vdd {bias.vdd} V", max_pout_w=p_hi)
    return hi, predict


def drive_cap(target_pout_w: float, bias: BiasPoint, params: PaParams,
              band: Optional[str] = None) -> float:
    """Drive ceiling ``hi = 10*a_sat/g``, once the target is known to be
    reachable there.

    The saturation test of ``drive_for_pout``, also the bias controller's
    reachability check. When the scalar CW law's power at ``hi`` exceeds
    the target by more than ``DRIVE_PREDICT_MARGIN`` of itself, the law
    decides it and no block runs. Otherwise one ``simulate_cw(hi)`` decides
    it, and TargetUnreachable carries that exact power when it falls short
    of the target. The scalar value decides only; it never reaches an output.
    """
    return _capped_law(target_pout_w, bias, params, band)[0]


def drive_for_pout(target_pout_w: float, bias: BiasPoint, params: PaParams,
                   band: Optional[str] = None) -> float:
    """CW input level that produces the target output power.

    Bisection (``pamodel.bisect``) on ``[0, drive_cap]`` to within
    ``tol = DRIVE_REL_TOL * target`` of the target, capped at
    ``DRIVE_MAX_ITER`` steps; raises TargetUnreachable when output saturates
    below target or the cap is hit (the exception carries the achievable
    maximum, from ``simulate_cw`` at the ceiling).

    Each decision is a filtered predicate (Shewchuk 1997) on the scalar CW
    law ``pred = fundamental_pout(am_am(a), idq, rload)``, whose estimate
    lies within ``DRIVE_PREDICT_MARGIN * pred`` of ``simulate_cw``'s power.
    A 64-sample ``simulate_cw`` block runs only:

    * in ``drive_cap``, when the ceiling's predicted power lies within the
      margin of the target, or the target is unreachable;
    * at a bisection step whose estimate ``est = pred - target`` has
      ``| |est| - tol | <= DRIVE_PREDICT_MARGIN * pred``;
    * when the bisection fails, for the power the exception carries.

    ``bisect`` uses a step's value only for the test ``|f| <= tol`` and for
    its sign, and returns the midpoint itself. Outside the margin the
    estimate and the exact value give the same decisions, so the result,
    or the exception with its text and power, is bit for bit the one of a
    bisection on ``simulate_cw`` alone; the scalar value never reaches an
    output.
    """
    if not (math.isfinite(target_pout_w) and target_pout_w > 0):
        raise ValueError(
            f"target power must be finite and > 0, got {target_pout_w}")
    hi, predict = _capped_law(target_pout_w, bias, params, band)
    tol = DRIVE_REL_TOL * target_pout_w

    def excess(a: float) -> float:
        pred = predict(a)
        est = pred - target_pout_w
        if abs(abs(est) - tol) > DRIVE_PREDICT_MARGIN * pred:
            return est
        return simulate_cw(a, bias, params, band).pout_w - target_pout_w

    level = bisect(excess, 0.0, hi, tol=tol, max_iter=DRIVE_MAX_ITER)
    if level is None:
        raise TargetUnreachable(
            f"bisection failed to reach {target_pout_w} W within "
            f"{DRIVE_MAX_ITER} steps",
            max_pout_w=simulate_cw(hi, bias, params, band).pout_w)
    return level


def sweep_bias(vdd_list: Sequence[float], idq: float, target_pout_w: float,
               params: PaParams, band: Optional[str] = None) -> List[MeasRow]:
    """CW drive each supply voltage to the target power and record a row.

    A zero-watt target records quiescent-only dissipation with gain and
    efficiency flagged undefined (empty CSV fields).
    """
    rows = []
    for vdd in vdd_list:
        bias = BiasPoint(vdd=vdd, idq=idq)
        if target_pout_w == 0.0:
            stats = simulate_cw(0.0, bias, params, band)
            rows.append(MeasRow(vdd_v=vdd, idq_a=idq, band=band, pout_w=0.0,
                                gain_db=None, eff_pct=None,
                                pdiss_w=stats.pdiss_w))
            continue
        level = drive_for_pout(target_pout_w, bias, params, band)
        stats = simulate_cw(level, bias, params, band)
        rows.append(MeasRow(vdd_v=vdd, idq_a=idq, band=band,
                            pout_w=stats.pout_w, gain_db=stats.gain_db,
                            eff_pct=100.0 * stats.eff, pdiss_w=stats.pdiss_w))
    return rows


def freq_response(band_list: Sequence[str], drive: float, bias: BiasPoint,
                  params: PaParams) -> List[Tuple[str, float]]:
    """Constant-drive CW output power per band with the ripple profile.

    ``drive`` is the input envelope level: finite and >= 0.
    """
    if not (math.isfinite(drive) and drive >= 0):
        raise ValueError(f"drive must be finite and >= 0, got {drive}")
    for band in band_list:
        if band not in BANDS:
            raise UnknownBand(f"unknown band {band!r}")
    return [(band, simulate_cw(drive, bias, params, band).pout_w)
            for band in band_list]
