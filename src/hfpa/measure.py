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
from .pamodel import (BiasPoint, PaParams, PaStats, _rapp_scalar, bisect,
                      fundamental_pout, gain_and_swing, simulate)
from .signalgen import CACHE_MAX_SAMPLES, IqBlock


class TonesUnresolvable(ValueError):
    """Block too short to separate the two tones: it spans fewer than 20
    periods of their beat, so their DFT bins lie fewer than 20 apart."""


class TargetUnreachable(ValueError):
    """Output power saturates below the requested target. ``max_pout_w``
    has a default: pickle and ``copy`` rebuild from ``args``, the message."""

    def __init__(self, message: str, max_pout_w: float = 0.0):
        super().__init__(message)
        self.max_pout_w = max_pout_w


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
    Each term ``a*cos(k*fac)`` is built in one reused ``(n + 1)`` row, so
    the construction peak is three such rows (the phases, the sum and the
    term), 3 times the result (4 times with fresh temporaries).
    """
    if n <= 1:
        return np.ones(n)
    fac = np.linspace(-np.pi, np.pi, n + 1)
    w = np.zeros(n + 1)
    term = np.empty(n + 1)
    for k, a in enumerate(_FLATTOP):
        np.multiply(k, fac, term)
        np.cos(term, term)
        np.multiply(a, term, term)
        w += term
    return w[:-1]


#: Level of the deterministic analysis noise added before the DFT, dBc.
NOISE_FLOOR_DBC = -120.0


@functools.lru_cache(maxsize=1)
def _analysis_constants(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``flattop(n)`` and the unit complex noise-floor draw, both read-only.

    Both depend on ``n`` alone; a drive sweep analyses one length many times.
    Past ``CACHE_MAX_SAMPLES`` samples ``measure_imd`` calls ``__wrapped__``.

    The window is built first, so that its construction rows never meet the
    noise row; the two parts of the draw then go straight into the complex
    row, real part first, which holds ``re + 1j*im`` bit for bit (a normal
    draw is never a signed zero). The construction peak is the window, the
    complex row and one float draw, 4/3 of the result (2 times with fresh
    temporaries).
    """
    win = flattop(n)
    rng = np.random.default_rng(0x1D5EED)  # fixed: analysis floor is deterministic
    unit = np.empty(n, np.complex128)
    unit.real = rng.standard_normal(n)
    unit.imag = rng.standard_normal(n)
    win.flags.writeable = False
    unit.flags.writeable = False
    return win, unit


def _pairs(c):
    """The complex row ``c`` as a ``(k, 2)`` float64 view of its memory."""
    return c[:, None].view(np.float64)


def _squared_sum(x, mag2):
    """``sum(|x|^2)``, ``|x|^2`` left in ``mag2``."""
    np.abs(x, mag2)
    mag2 **= 2
    return np.add.reduce(mag2)


def _noisy_windowed(x, unit, win, z, floor):
    """``z = (x + floor*unit/sqrt(2)) * win``, for any floor, 0.0 included.

    The steps run as real operations on ``(k, 2)`` float views of the
    complex rows, with no complex divide and no float-to-complex cast of the
    window (numpy's 128 KiB cast buffer). For ``a + bj``, numpy's complex
    divide by ``c + 0j`` computes ``((a + b*0) * (1/c), (b - a*0) * (1/c))``
    and its product with ``w + 0j`` computes ``(a*w - b*0, a*0 + b*w)``, so
    each component has the bits of the complex form wherever
    ``measure_imd``'s ``|x|^2`` stays finite, except that the sign of an
    exactly zero component can differ (as where a zero floor adds ``±0``),
    which no ``|bin|`` shows. The window multiplies each component's column
    on its own: numpy runs a broadcast of ``win[:, None]`` over the pairs
    with a buffered inner loop of two, as slow as the complex form.
    """
    zf = _pairs(z)
    np.multiply(_pairs(unit), floor, zf)
    zf *= 1.0 / math.sqrt(2)
    np.add(zf, _pairs(x), zf)
    for part in (0, 1):
        np.multiply(zf[:, part], win, zf[:, part])


#: Upper bound on the column count ``m`` of ``_dft_bins``' decimation. A
#: sweep of ``measure_imd`` on a warm 131072-sample two-tone block (200
#: interleaved calls per value, 2-core host, numpy 2.4.6) gave medians of
#: 4.5, 4.3, 4.3, 4.2, 4.4 and 5.0 ms at m = 32, 64, 128, 256, 512 and 1024,
#: against 9.4-12.1 ms with the full in-place FFT.
DFT_COLUMNS = 128


@functools.lru_cache(maxsize=1)
def _twiddles(n: int, m: int, ks: Tuple[int, ...]) -> np.ndarray:
    """The read-only ``(len(ks), m)`` twiddle block of ``_dft_bins``.

    It depends on ``n`` and the bins alone (``m`` follows from ``n``); a
    sweep analyses the same tones at one length many times.
    """
    k = np.array(ks)
    tw = np.exp(-2j * np.pi * ((k[:, None] * np.arange(m)) % n) / n)
    tw.flags.writeable = False
    return tw


def _fft_rows(rows: np.ndarray) -> None:
    """The in-place FFT of each row of ``rows``."""
    np.fft.fft(rows, axis=1, out=rows)


def _dft_bins(z: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """DFT bins ``ks`` (each in ``[0, n)``) of the complex row ``z``, which
    it overwrites.

    Four-step decimation (Gentleman & Sande 1966; Bailey 1990): with
    ``n = l*m``, ``m`` the largest divisor of ``n`` not above
    ``DFT_COLUMNS``, ``X[k] = sum_c W_n^(k*c) * F[k mod l, c]``, where ``F``
    holds the l-point DFTs of the m columns ``z[c::m]``. ``F`` is computed
    in place in ``z``. The columns transform independently, so on a long
    block the two halves of the columns run at once (``kernels.halves``,
    which splits columns at ``m//2``; timings at ``kernels.SPLIT_MIN``),
    with the bits of one pass. The twiddle phases are reduced mod n as
    integers before the division, and the twiddle block is cached
    (``_twiddles``).
    """
    n = len(z)
    m = max(d for d in range(1, min(DFT_COLUMNS, n) + 1) if n % d == 0)
    l = n // m
    cols = z.reshape(l, m)
    kernels.halves(_fft_rows, (cols.T,))
    tw = _twiddles(n, m, tuple(ks.tolist()))
    return np.add.reduce(cols[ks % l] * tw, axis=1)


def measure_imd(block: IqBlock, f1: float, f2: float) -> ImdResult:
    """Two-tone intermodulation analysis by windowed DFT.

    Locates the fundamentals and the order-3/5 products (2f1-f2, 2f2-f1,
    3f1-2f2, 3f2-2f1) within +/-1 bin and reports each in dBc below the mean
    fundamental. A flat-top window keeps scalloping loss negligible.

    The window and the unit noise draw of the most recent length up to
    ``CACHE_MAX_SAMPLES`` stay cached after the call, 24 bytes per sample
    (3 MiB at 131072 samples); so does the twiddle block of the most recent
    length and bins at any length, at most 18*128 complex values. Building
    them at a new length peaks at 32 bytes per sample (4 MiB at 131072
    samples, ``_analysis_constants``).
    The analysis runs in the calling thread's ``kernels.workspace``, shared
    with ``pamodel.simulate`` alone: 24 bytes per sample per thread, 3 MiB
    at 131072 samples (not kept above ``CACHE_MAX_SAMPLES``).
    On a long block its ``|x|^2`` pass with its sum, its noise and window
    pass and its column FFT each run as two halves (``kernels.halves``;
    ``kernels.SPLIT_MIN`` gives the timings); the halves' sums join to the
    bits of ``np.mean``'s sum (``kernels.joined``). A tone that is not
    finite, or not below Nyquist, raises ValueError.

    Only the three bins around each tone and product are computed, at most
    18 (``_dft_bins``): ``n = l*m`` with ``m`` the largest divisor of ``n``
    not above ``DFT_COLUMNS`` (128 at 131072 samples), one in-place l-point
    FFT of the m columns of the complex row (``np.fft.fft(..., out=)``,
    numpy >= 2.0), then one twiddled sum per bin, without BLAS. The levels
    lie within 1e-8 dB of those of the full n-point FFT (about 3e-15 of a
    bin's magnitude); for a prime ``n``, ``m`` is 1, the step is the full
    FFT, and the levels equal its bit for bit.
    """
    fs = block.sample_rate
    for name, f in (("f1", f1), ("f2", f2)):
        if not abs(f) < fs / 2.0:  # also false for nan and inf
            raise ValueError(f"tone {name} = {f} Hz must be finite and below "
                             f"Nyquist {fs / 2.0} Hz")
    if f1 == f2:
        raise ValueError("tones must differ")
    n = len(block)
    beat = abs(f2 - f1)
    if n / fs < 20.0 / beat:
        raise TonesUnresolvable(
            f"block spans {n / fs * beat:.1f} beat periods; need >= 20")

    win, unit = (_analysis_constants if n <= CACHE_MAX_SAMPLES
                 else _analysis_constants.__wrapped__)(n)
    ws = kernels.workspace(n)
    x = block.samples
    # the sum of np.mean, divided by n as np.mean divides it
    rms = math.sqrt(float(kernels.joined(
        kernels.halves(_squared_sum, (x, ws[2])))) / n)
    floor = rms * 10.0 ** (NOISE_FLOOR_DBC / 20.0)
    # rows 0 and 1 are adjacent in the workspace: one complex128 row
    z = ws[0].base[:2].reshape(-1).view(np.complex128)
    kernels.halves(_noisy_windowed, (x, unit, win, z), floor)

    offsets = {3: (2 * f1 - f2, 2 * f2 - f1),
               5: (3 * f1 - 2 * f2, 3 * f2 - 2 * f1)}
    products = [(order, f) for order, freqs in offsets.items()
                for f in freqs if abs(f) < fs / 2]
    freqs = [f1, f2] + [f for _, f in products]
    ks = np.array([int(round(f / fs * n)) + d for f in freqs
                   for d in (-1, 0, 1)]) % n
    peaks = np.abs(_dft_bins(z, ks)).reshape(-1, 3).max(axis=1).tolist()

    fund = 0.5 * (peaks[0] + peaks[1])
    if fund <= 0:
        raise ValueError("no fundamental energy at the stated tone offsets")
    return ImdResult(products=tuple(
        ImdProduct(order=order, offset_hz=f,
                   level_dbc=20.0 * math.log10(max(peak, 1e-300) / fund))
        for (order, f), peak in zip(products, peaks[2:])))


_SWEEP_FS = 1.0e6
_SWEEP_N = 64


def simulate_cw(level: float, bias: BiasPoint, params: PaParams,
                band: Optional[str] = None) -> PaStats:
    """Steady-state stats for a CW drive at the given envelope level.

    ``level`` must be finite and >= 0 (-0.0 included), else ValueError is
    raised before any block is built; that scalar check is the only one the
    block gets. The block is ``_SWEEP_N`` samples of ``level`` at
    ``_SWEEP_FS``, built unchecked: a finite level makes every sample
    finite. Its samples fill an ``np.empty`` block, with the bits of
    ``np.full(_SWEEP_N, level, np.complex128)`` (-0.0 kept, where
    ``level + 0j`` would give +0.0): 0.5 against 2.0 us by timeit on a
    2-core host.
    """
    if not (math.isfinite(level) and level >= 0):
        raise ValueError(f"CW level must be finite and >= 0, got {level}")
    samples = np.empty(_SWEEP_N, np.complex128)
    samples.fill(level)
    _, stats = simulate(IqBlock._unchecked(samples, _SWEEP_FS), bias, params,
                        band)
    return stats


#: ``drive_for_pout`` stops within this fraction of the target power, and
#: gives up after this many bisection steps.
DRIVE_REL_TOL = 1e-3
DRIVE_MAX_ITER = 60

#: ``drive_for_pout`` decides a bisection step, and ``drive_cap`` its
#: saturation test, from the scalar CW law unless the predicted power lies
#: within this fraction of itself of the decision's edge. The law and
#: ``simulate_cw`` differed by at most 5.7e-14 of the power in four scans of
#: 40 000 cases (random params, bias points and bands; drives uniform up to
#: 10x saturation, at the clipping onset ``a_out ~ idq*rload``, where the
#: worst case lies, and at the ceiling ``10*a_sat/g``): a safety factor
#: above 10^4. ``tests/test_measure.py::
#: test_scalar_cw_law_is_within_the_margin`` draws the same three kinds of
#: drive and holds the gap under a thousandth of the margin.
DRIVE_PREDICT_MARGIN = 1e-9


def _cw_pout_law(bias: BiasPoint, params: PaParams
                 ) -> Tuple[float, Callable[[float], float]]:
    """The drive ceiling ``10*a_sat/g`` and the scalar CW output power
    ``a -> fundamental_pout(rapp(g*a, a_sat, s), idq, rload)``, both from
    one ``gain_and_swing`` call.

    The limiter is ``pamodel._rapp_scalar``, ``kernels.rapp`` in ``math``
    arithmetic. It filters decisions only: its value never reaches an output.
    """
    g, a_sat = gain_and_swing(bias, params)
    smooth, idq, rload = params.smoothness, bias.idq, params.rload

    def pout(a: float) -> float:
        return fundamental_pout(_rapp_scalar(g * a, a_sat, smooth), idq, rload)

    return 10.0 * a_sat / g, pout


def _capped_law(target_pout_w: float, bias: BiasPoint, params: PaParams
                ) -> Tuple[float, Callable[[float], float]]:
    """``drive_cap``'s ceiling and the scalar CW law that decided it;
    ``drive_for_pout`` bisects with the same law."""
    if not (math.isfinite(target_pout_w) and target_pout_w > 0):
        raise ValueError(
            f"target power must be finite and > 0, got {target_pout_w}")
    hi, predict = _cw_pout_law(bias, params)
    pred = predict(hi)
    if pred - target_pout_w <= DRIVE_PREDICT_MARGIN * pred:
        p_hi = simulate_cw(hi, bias, params).pout_w
        if p_hi < target_pout_w:
            raise TargetUnreachable(
                f"saturated output {p_hi:.1f} W below target "
                f"{target_pout_w:.1f} W at vdd {bias.vdd} V", max_pout_w=p_hi)
    return hi, predict


def drive_cap(target_pout_w: float, bias: BiasPoint,
              params: PaParams) -> float:
    """Drive ceiling ``hi = 10*a_sat/g``, once the target is known to be
    reachable there.

    The saturation test of ``drive_for_pout``, also the bias controller's
    reachability check. When the scalar CW law's power at ``hi`` exceeds
    the target by more than ``DRIVE_PREDICT_MARGIN`` of itself, the law
    decides it and no block runs. Otherwise one ``simulate_cw(hi)`` decides
    it, and TargetUnreachable carries that exact power when it falls short
    of the target. The scalar value decides only; it never reaches an output.
    A target that is not finite and > 0 raises ValueError.
    """
    return _capped_law(target_pout_w, bias, params)[0]


def drive_for_pout(target_pout_w: float, bias: BiasPoint,
                   params: PaParams) -> float:
    """CW input level that produces the target output power.

    Bisection (``pamodel.bisect``) on ``[0, drive_cap]`` to within
    ``tol = DRIVE_REL_TOL * target`` of the target, capped at
    ``DRIVE_MAX_ITER`` steps; raises TargetUnreachable when output saturates
    below target or the cap is hit (the exception carries the achievable
    maximum, from ``simulate_cw`` at the ceiling).

    Each decision is a filtered predicate (Shewchuk 1997) on the scalar CW
    law ``pred = fundamental_pout(rapp(g*a, a_sat, s), idq, rload)``, whose
    estimate lies within ``DRIVE_PREDICT_MARGIN * pred`` of ``simulate_cw``'s
    power. A 64-sample ``simulate_cw`` block runs only:

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
    hi, predict = _capped_law(target_pout_w, bias, params)
    tol = DRIVE_REL_TOL * target_pout_w

    def excess(a: float) -> float:
        pred = predict(a)
        est = pred - target_pout_w
        if abs(abs(est) - tol) > DRIVE_PREDICT_MARGIN * pred:
            return est
        return simulate_cw(a, bias, params).pout_w - target_pout_w

    level = bisect(excess, 0.0, hi, tol=tol, max_iter=DRIVE_MAX_ITER)
    if level is None:
        raise TargetUnreachable(
            f"bisection failed to reach {target_pout_w} W within "
            f"{DRIVE_MAX_ITER} steps",
            max_pout_w=simulate_cw(hi, bias, params).pout_w)
    return level


def sweep_bias(vdd_list: Sequence[float], idq: float, target_pout_w: float,
               params: PaParams) -> List[MeasRow]:
    """CW drive each supply voltage to the target power and record a row.

    A zero-watt target records quiescent-only dissipation with gain and
    efficiency flagged undefined (empty CSV fields).
    """
    rows = []
    for vdd in vdd_list:
        bias = BiasPoint(vdd=vdd, idq=idq)
        if target_pout_w == 0.0:
            stats = simulate_cw(0.0, bias, params)
            rows.append(MeasRow(vdd_v=vdd, idq_a=idq, pout_w=0.0,
                                gain_db=None, eff_pct=None,
                                pdiss_w=stats.pdiss_w))
            continue
        level = drive_for_pout(target_pout_w, bias, params)
        stats = simulate_cw(level, bias, params)
        rows.append(MeasRow(vdd_v=vdd, idq_a=idq, pout_w=stats.pout_w,
                            gain_db=stats.gain_db, eff_pct=100.0 * stats.eff,
                            pdiss_w=stats.pdiss_w))
    return rows


def freq_response(band_list: Sequence[str], drive: float, bias: BiasPoint,
                  params: PaParams) -> List[Tuple[str, float]]:
    """Constant-drive CW output power per band with the ripple profile.

    ``drive`` is the input envelope level: finite and >= 0.
    """
    if not (math.isfinite(drive) and drive >= 0):
        raise ValueError(f"drive must be finite and >= 0, got {drive}")
    return [(band, simulate_cw(drive, bias, params, band).pout_w)
            for band in band_list]
