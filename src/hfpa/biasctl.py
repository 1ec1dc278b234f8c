"""Envelope-aware bias control.

Classifies the exciter signal's envelope as constant or varying, then
commands the operating point: constant-envelope traffic runs compressed
(500 mA quiescent current, drain supply tracked just above the output
envelope); varying-envelope traffic runs linear (2 A, high drain bias).
Also equalizes per-band gain through small drain-bias moves.
"""
from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from .bands import BANDS, UnknownBand
from .measure import TargetUnreachable, drive_cap
from .pamodel import (VDD_MAX, VDD_MIN, BiasPoint, InvalidBias, PaParams,
                      gain_and_swing, small_signal_gain_db, swing_for_pout)
from .signalgen import IqBlock


class WindowTooShort(ValueError):
    """Block does not span the requested classification window."""


class SetpointUnreachable(ValueError):
    """Requested output power beyond the model's reach at maximum bias."""


class EnvKind(enum.Enum):
    CONSTANT = "Constant"
    VARYING = "Varying"


class Mode(enum.Enum):
    COMPRESSION = "Compression"
    LINEAR = "Linear"


#: Constant envelope runs compressed, varying envelope runs linear.
MODE_FOR_KIND = {EnvKind.CONSTANT: Mode.COMPRESSION, EnvKind.VARYING: Mode.LINEAR}


IDQ_COMPRESSION = 0.5
IDQ_LINEAR = 2.0

#: Classification thresholds: far above numeric noise, far below AM/two-tone.
RIPPLE_LIMIT = 0.05
PAPR_LIMIT_DB = 0.5

#: Compression-mode drain headroom above the predicted envelope peak.
DRAIN_MARGIN = 0.1

#: Consecutive windows a new classification must persist to switch mode.
HYSTERESIS_WINDOWS = 3


@dataclass(frozen=True)
class EnvelopeClass:
    """Classification verdict plus the metrics that produced it."""

    kind: EnvKind
    papr_db: float
    ripple_ratio: float


@dataclass(frozen=True)
class BiasCommand:
    target: BiasPoint
    mode: Mode
    reason: EnvelopeClass


@dataclass(frozen=True)
class BandEntry:
    """A band's equalization drain voltage, finite and in
    [VDD_MIN, VDD_MAX] (else InvalidBias, as ``BiasPoint`` raises)."""

    eq_vdd: float
    ripple_db: float

    def __post_init__(self):
        if not (math.isfinite(self.eq_vdd) and VDD_MIN <= self.eq_vdd <= VDD_MAX):
            raise InvalidBias(f"eq_vdd must be finite and in [{VDD_MIN:g}, "
                              f"{VDD_MAX:g}] V, got {self.eq_vdd}")


BandTable = Dict[str, BandEntry]


def default_band_table(ripple: Optional[Mapping[str, float]] = None) -> BandTable:
    """All ten bands at the full 58 V supply as equalization voltage."""
    ripple = ripple or {}
    return {b: BandEntry(eq_vdd=VDD_MAX, ripple_db=float(ripple.get(b, 0.0)))
            for b in BANDS}


#: The normal float range that classify_envelope keeps the squares in.
_SQUARE_MIN = sys.float_info.min
_SQUARE_MAX = sys.float_info.max

#: classify_envelope's percentiles, as the fractions numpy's percentile
#: divides them to.
_QUANTILES = (1.0 / 100, 50.0 / 100, 99.0 / 100)


def _percentiles(sorted_env: np.ndarray):
    """``np.percentile(env, [1, 50, 99])`` from ``np.sort(env)``, bit for bit.

    numpy's default ``linear`` method (Hyndman & Fan 1996, definition 7):
    virtual index ``(n-1)*q``, its floor and floor + 1 as the bracketing
    order statistics (both -1, the largest, from index n-1 up), weight
    ``t`` = index - floor, and numpy's ``_lerp``: ``a + (b-a)*t``, or
    ``b - (b-a)*(1-t)`` where ``t >= 0.5``. The caller sorts once: numpy's
    vectorized sort is faster here than its scalar multi-``kth`` partition.
    """
    top = sorted_env.size - 1
    out = []
    for q in _QUANTILES:
        v = top * q
        lo = math.floor(v)
        hi = lo + 1
        if v >= top:
            lo = hi = -1
        t = v - lo
        a, b = float(sorted_env[lo]), float(sorted_env[hi])
        d = b - a
        out.append(b - d * (1 - t) if t >= 0.5 else a + d * t)
    return out


def _check_window(window_s: float) -> None:
    if not (math.isfinite(window_s) and window_s > 0):
        raise ValueError(f"window_s must be finite and > 0, got {window_s}")


def classify_envelope(block: IqBlock, window_s: float) -> EnvelopeClass:
    """Constant/varying verdict from envelope ripple and PAPR.

    ripple_ratio = (p99 - p1)/median of the envelope over the window;
    papr_db = peak-to-average power ratio. Constant iff both sit under their
    thresholds, RIPPLE_LIMIT and PAPR_LIMIT_DB. Scale-invariant: both
    metrics are ratios. ``window_s`` must be finite and > 0; the window is
    the block's first ``max(1, round(window_s * rate))`` samples.

    A window allocates two float rows, its envelope and its sorted copy.
    The rescale divides both in place by the peak as ``env / peak`` does,
    and the mean square is ``np.add.reduce`` of the squares over ``n``, the
    sum and division of ``np.mean(env ** 2)``, so every bit is the plain
    form's.
    """
    _check_window(window_s)
    span = window_s * block.sample_rate  # inf past the float range
    n = max(1, round(span)) if span < math.inf else math.inf
    if len(block) < n:
        raise WindowTooShort(f"block spans {len(block)} < {n:.15g} window "
                             f"samples ({window_s:g} s)")
    env = np.abs(block.samples[:n])
    ordered = np.sort(env)
    peak = float(ordered[-1])
    if peak == 0.0:
        return EnvelopeClass(EnvKind.CONSTANT, papr_db=0.0, ripple_ratio=0.0)
    if not _SQUARE_MIN <= peak * peak <= _SQUARE_MAX / n:
        # squares leave the normal float range; dividing by peak > 0 keeps
        # the order, so the sorted copy needs no second sort
        np.divide(env, peak, env)
        np.divide(ordered, peak, ordered)
        peak = 1.0
    p1, med, p99 = _percentiles(ordered)
    ripple_ratio = (p99 - p1) / med if med > 0 else math.inf
    # np.mean's sum and division; in sample order, not sorted: numpy's
    # pairwise sum depends on the order
    mean_sq = float(np.add.reduce(np.square(env, env))) / n
    papr_db = 10.0 * math.log10(peak ** 2 / mean_sq)
    constant = ripple_ratio < RIPPLE_LIMIT and papr_db < PAPR_LIMIT_DB
    return EnvelopeClass(EnvKind.CONSTANT if constant else EnvKind.VARYING,
                         papr_db=papr_db, ripple_ratio=ripple_ratio)


#: Compression bias at full supply, where a setpoint must be deliverable.
_FULL_SUPPLY_COMPRESSION = BiasPoint(vdd=VDD_MAX, idq=IDQ_COMPRESSION)


def predict_peak_envelope(setpoint_w: float, params: PaParams) -> float:
    """Output-envelope peak that delivers the setpoint in compression mode.

    The setpoint must be deliverable at full supply (``measure.drive_cap``
    at VDD_MAX and ``IDQ_COMPRESSION``), else SetpointUnreachable; the peak is
    then the CW swing whose fundamental delivers it, from the conduction
    model (``pamodel.swing_for_pout``).
    """
    try:
        drive_cap(setpoint_w, _FULL_SUPPLY_COMPRESSION, params)
    except TargetUnreachable as exc:
        raise SetpointUnreachable(
            f"setpoint {setpoint_w} W unreachable: {exc}") from exc
    return swing_for_pout(setpoint_w, IDQ_COMPRESSION, params.rload)


def command_for_mode(mode: Mode, reason: EnvelopeClass,
                     power_setpoint_w: float, band: str, params: PaParams,
                     table: BandTable) -> BiasCommand:
    """Operating point for an already-chosen mode.

    Linear: 2 A quiescent at the band's equalization voltage. Compression:
    500 mA quiescent, drain tracked just above the output envelope peak for
    the setpoint (``predict_peak_envelope``, which raises
    SetpointUnreachable), at ``peak*(1 + DRAIN_MARGIN) + vknee`` clamped
    into [VDD_MIN, VDD_MAX].
    """
    if not (math.isfinite(power_setpoint_w) and power_setpoint_w > 0):
        raise ValueError(
            f"power setpoint must be finite and > 0, got {power_setpoint_w}")
    if band not in table:
        raise UnknownBand(f"unknown band {band!r}")
    if mode is Mode.LINEAR:
        bias = BiasPoint(vdd=table[band].eq_vdd, idq=IDQ_LINEAR)
        return BiasCommand(target=bias, mode=Mode.LINEAR, reason=reason)
    peak = predict_peak_envelope(power_setpoint_w, params)
    vdd = min(max(peak * (1.0 + DRAIN_MARGIN) + params.vknee, VDD_MIN),
              VDD_MAX)
    bias = BiasPoint(vdd=vdd, idq=IDQ_COMPRESSION)
    return BiasCommand(target=bias, mode=Mode.COMPRESSION, reason=reason)


def decide_bias(cls: EnvelopeClass, power_setpoint_w: float, band: str,
                params: PaParams, table: BandTable) -> BiasCommand:
    """Map an envelope class to the operating point.

    Varying -> linear mode; Constant -> compression mode (``MODE_FOR_KIND``).
    Total and deterministic: every class yields exactly one mode.
    """
    return command_for_mode(MODE_FOR_KIND[cls.kind], cls, power_setpoint_w,
                            band, params, table)


def compression_drive(bias: BiasPoint, params: PaParams,
                      depth_db: float) -> float:
    """Input level that puts the stage depth_db into gain compression.

    The one compression query: depth in dB below small-signal gain (1.0
    gives P1dB; the acceptance gate asks 2.5), from the exact inverse of the
    Rapp law (Rapp 1991): ``(a_sat/g) * (10^(2s*d/20) - 1)^(1/(2s))``.
    Raises ValueError for a depth <= 0 dB or one that needs more than
    50*a_sat of input drive, a depth past the float range included.
    """
    if not depth_db > 0:
        raise ValueError(f"depth must be > 0 dB, got {depth_db}")
    g, a_sat = gain_and_swing(bias, params)
    s2 = 2.0 * params.smoothness
    try:
        excess = math.expm1(s2 * depth_db / 20.0 * math.log(10.0))
    except OverflowError:
        excess = math.inf
    level = a_sat / g * excess ** (1.0 / s2)
    if level > 50.0 * a_sat:
        raise ValueError(f"stage cannot reach {depth_db} dB compression")
    return level


def equalize_gains(params: PaParams, bands: Sequence[str],
                   target_gain_db: float, idq: float) -> BandTable:
    """Per-band drain voltage that levels small-signal gain at the target.

    The gain law plus the band's ripple is linear in vdd, so the voltage is
    solved directly within [VDD_MIN, VDD_MAX]; a band whose target lies
    outside the reachable range is pinned at the nearer endpoint. Where the
    law is flat in vdd (both ends give one gain, as with ``kv == 0``), a
    target at or below that gain pins at VDD_MIN and one above it at
    VDD_MAX. The target must be finite.
    """
    if not math.isfinite(target_gain_db):
        raise ValueError(f"target gain must be finite, got {target_gain_db}")
    table: BandTable = {}
    for band in bands:
        ripple = params.ripple_db(band)

        def gain_at(vdd: float) -> float:
            return small_signal_gain_db(BiasPoint(vdd=vdd, idq=idq), params, band)

        g_lo, g_hi = gain_at(VDD_MIN), gain_at(VDD_MAX)
        lo_v, hi_v = VDD_MIN, VDD_MAX
        if g_lo > g_hi:  # gain falls with vdd (kv < 0): swap the endpoints
            g_lo, g_hi = g_hi, g_lo
            lo_v, hi_v = VDD_MAX, VDD_MIN
        if target_gain_db <= g_lo:
            table[band] = BandEntry(lo_v, ripple)
            continue
        if target_gain_db >= g_hi:
            table[band] = BandEntry(hi_v, ripple)
            continue
        vdd = VDD_MAX + (target_gain_db - gain_at(VDD_MAX)) / params.kv
        table[band] = BandEntry(min(max(vdd, VDD_MIN), VDD_MAX), ripple)
    return table


@dataclass
class BiasController:
    """Two-state (linear/compression) controller with switch hysteresis.

    A mode change requires the new classification to persist for
    ``HYSTERESIS_WINDOWS`` consecutive windows, preventing chatter on
    boundary signals. Driven by a single sequential event loop; commands
    come out in call order. ``window_s`` must be finite and > 0.
    """

    params: PaParams
    table: BandTable
    window_s: float
    mode: Mode = field(default=Mode.LINEAR, init=False)
    _pending_mode: Optional[Mode] = field(default=None, init=False, repr=False)
    _pending_count: int = field(default=0, init=False, repr=False)

    def __post_init__(self):
        _check_window(self.window_s)

    def process(self, block: IqBlock, band: str,
                setpoint_w: float) -> BiasCommand:
        cls = classify_envelope(block, self.window_s)
        wanted = MODE_FOR_KIND[cls.kind]
        if wanted is self.mode:
            self._pending_mode, self._pending_count = None, 0
        elif wanted is self._pending_mode:
            self._pending_count += 1
            if self._pending_count >= HYSTERESIS_WINDOWS:
                self.mode = wanted
                self._pending_mode, self._pending_count = None, 0
        else:
            self._pending_mode, self._pending_count = wanted, 1
        return command_for_mode(self.mode, cls, setpoint_w, band,
                                self.params, self.table)
