"""Experiment harness: gain, P1dB, two-tone IMD, and the bias/band sweeps.

IMD levels are reported in dBc relative to one of two equal fundamentals
(per-tone, not PEP) -- the CSV header states this to kill the classic 6 dB
ambiguity. A deterministic -120 dBc analysis noise floor keeps "no IMD"
cases finite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .bands import BANDS
from .pamodel import (BiasPoint, PaParams, PaStats, bisect,
                      compression_level, saturated_swing, simulate,
                      small_signal_gain_db)
from .signalgen import IqBlock


class LengthMismatch(ValueError):
    """Input/output blocks differ in length or sample rate."""


class TonesUnresolvable(ValueError):
    """DFT bin spacing too coarse to separate the two tones."""


class NoCompression(ValueError):
    """Gain never drops 1 dB below small-signal within the drive cap."""


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


def write_rows_csv(rows: Iterable[MeasRow], path) -> None:
    """Write measurement rows in the canonical schema (UTF-8, LF)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fields = (r.vdd_v, r.idq_a, r.band, r.pout_w, r.gain_db,
                      r.eff_pct, r.pdiss_w, r.imd3_dbc, r.imd5_dbc)
            fh.write(",".join(_fmt(f) for f in fields) + "\n")


def measure_gain(inp: IqBlock, outp: IqBlock) -> float:
    """Block power gain 10*log10(mean|out|^2 / mean|in|^2) in dB."""
    if len(inp) != len(outp) or inp.sample_rate != outp.sample_rate:
        raise LengthMismatch(
            f"blocks differ: {len(inp)} @ {inp.sample_rate} vs "
            f"{len(outp)} @ {outp.sample_rate}")
    pin = float(np.mean(np.abs(inp.samples) ** 2))
    pout = float(np.mean(np.abs(outp.samples) ** 2))
    if pin <= 0 or pout <= 0:
        raise ValueError("gain undefined for zero-power block")
    return 10.0 * math.log10(pout / pin)


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


def measure_imd(block: IqBlock, f1: float, f2: float) -> ImdResult:
    """Two-tone intermodulation analysis by windowed DFT.

    Locates the fundamentals and the order-3/5 products (2f1-f2, 2f2-f1,
    3f1-2f2, 3f2-2f1) within +/-1 bin and reports each in dBc below the mean
    fundamental. A flat-top window keeps scalloping loss negligible.
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

    x = block.samples
    rms = math.sqrt(float(np.mean(np.abs(x) ** 2)))
    if rms > 0:
        rng = np.random.default_rng(0x1D5EED)  # fixed: analysis floor is deterministic
        floor = rms * 10.0 ** (NOISE_FLOOR_DBC / 20.0)
        x = x + floor * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)

    win = flattop(n)
    spec = np.abs(np.fft.fft(x * win))

    def peak_at(freq: float) -> float:
        k = int(round(freq / fs * n)) % n
        window_bins = spec.take(range(k - 1, k + 2), mode="wrap")
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


def gain_at_drive(a_in: float, bias: BiasPoint, params: PaParams,
                  band: Optional[str] = None) -> float:
    """CW gain in dB at a given input envelope level."""
    from .pamodel import am_am
    return 20.0 * math.log10(am_am(a_in, bias, params, band) / a_in)


def find_p1db(bias: BiasPoint, params: PaParams,
              band: Optional[str] = None) -> float:
    """Input envelope level where gain sits 1 dB below small-signal.

    The closed-form Rapp inverse ``compression_level``; raises NoCompression
    if the stage never compresses 1 dB within a 10*a_sat input drive.
    """
    level = compression_level(bias, params, 1.0, band)
    a_hi = 10.0 * saturated_swing(bias, params)
    if level > a_hi:
        raise NoCompression(
            f"1 dB compression needs drive {level:.3g} > cap {a_hi:.3g}")
    return level


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


def drive_cap(target_pout_w: float, bias: BiasPoint, params: PaParams,
              band: Optional[str] = None) -> Tuple[float, float]:
    """Drive ceiling ``10*a_sat/g`` and the CW output power it gives.

    Raises TargetUnreachable, carrying that power, when it falls short of
    the target. One ``simulate_cw`` call: the saturation test of
    ``drive_for_pout``, also the bias controller's reachability check.
    """
    a_sat = saturated_swing(bias, params)
    g = 10.0 ** (small_signal_gain_db(bias, params, band) / 20.0)
    hi = 10.0 * a_sat / g
    p_hi = simulate_cw(hi, bias, params, band).pout_w
    if p_hi < target_pout_w:
        raise TargetUnreachable(
            f"saturated output {p_hi:.1f} W below target {target_pout_w:.1f} W "
            f"at vdd {bias.vdd} V", max_pout_w=p_hi)
    return hi, p_hi


def drive_for_pout(target_pout_w: float, bias: BiasPoint, params: PaParams,
                   band: Optional[str] = None) -> float:
    """CW input level that produces the target output power.

    Bisection (``pamodel.bisect``) on ``[0, drive_cap]`` to within
    ``DRIVE_REL_TOL`` of the target, capped at ``DRIVE_MAX_ITER`` steps;
    raises TargetUnreachable when output saturates below target or the cap
    is hit (the exception carries the achievable maximum).
    """
    if target_pout_w <= 0:
        raise ValueError("target power must be > 0")
    hi, p_hi = drive_cap(target_pout_w, bias, params, band)
    level = bisect(
        lambda a: simulate_cw(a, bias, params, band).pout_w - target_pout_w,
        0.0, hi, tol=DRIVE_REL_TOL * target_pout_w, max_iter=DRIVE_MAX_ITER)
    if level is None:
        raise TargetUnreachable(
            f"bisection failed to reach {target_pout_w} W within "
            f"{DRIVE_MAX_ITER} steps", max_pout_w=p_hi)
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
    """Constant-drive CW output power per band with the ripple profile."""
    for band in band_list:
        if band not in BANDS:
            raise UnknownBand(f"unknown band {band!r}")
    return [(band, simulate_cw(drive, bias, params, band).pout_w)
            for band in band_list]
