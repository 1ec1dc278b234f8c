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
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from .bands import BAND_CENTER_HZ, BANDS
from .measure import TargetUnreachable, UnknownBand, drive_cap
from .pamodel import (SWING_MAX, BiasPoint, PaParams, compression_level,
                      fundamental_pout, small_signal_gain_db, swing_for_pout)
from .signalgen import IqBlock, envelope


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


#: Quiescent-current presets selectable by the 5-step gate bias ladder (A).
GATE_STEP_IDQ = (0.25, 0.5, 1.0, 1.5, 2.0)

IDQ_COMPRESSION = 0.5
IDQ_LINEAR = 2.0

#: Classification thresholds: far above numeric noise, far below AM/two-tone.
RIPPLE_LIMIT = 0.05
PAPR_LIMIT_DB = 0.5

#: Compression-mode drain headroom above the predicted envelope peak.
DRAIN_MARGIN = 0.1

#: Consecutive windows a new classification must persist to switch mode.
HYSTERESIS_WINDOWS = 3

#: An equalized band whose gain misses the target by more is flagged clamped.
EQ_TOL_DB = 0.1


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
    center_hz: float
    eq_vdd: float
    ripple_db: float = 0.0
    clamped: bool = False


BandTable = Dict[str, BandEntry]


def default_band_table(ripple: Optional[Mapping[str, float]] = None) -> BandTable:
    """All ten bands at the full 58 V supply as equalization voltage."""
    ripple = ripple or {}
    return {b: BandEntry(center_hz=BAND_CENTER_HZ[b], eq_vdd=58.0,
                         ripple_db=float(ripple.get(b, 0.0)))
            for b in BANDS}


def classify_envelope(block: IqBlock, window_s: float = 0.01) -> EnvelopeClass:
    """Constant/varying verdict from envelope ripple and PAPR.

    ripple_ratio = (p99 - p1)/median of the envelope over the window;
    papr_db = peak-to-average power ratio. Constant iff both sit under their
    thresholds, RIPPLE_LIMIT and PAPR_LIMIT_DB. Scale-invariant: both
    metrics are ratios.
    """
    if block.duration_s < window_s:
        raise WindowTooShort(
            f"block spans {block.duration_s:.4g} s < window {window_s:.4g} s")
    n = max(1, int(round(window_s * block.sample_rate)))
    env = envelope(block)[:n]
    peak = float(np.max(env))
    if peak == 0.0:
        return EnvelopeClass(EnvKind.CONSTANT, papr_db=0.0, ripple_ratio=0.0)
    p1, med, p99 = np.percentile(env, [1.0, 50.0, 99.0])
    ripple_ratio = float((p99 - p1) / med) if med > 0 else math.inf
    mean_sq = float(np.mean(env ** 2))
    papr_db = 10.0 * math.log10(peak ** 2 / mean_sq)
    constant = ripple_ratio < RIPPLE_LIMIT and papr_db < PAPR_LIMIT_DB
    return EnvelopeClass(EnvKind.CONSTANT if constant else EnvKind.VARYING,
                         papr_db=papr_db, ripple_ratio=ripple_ratio)


def gate_step_for(idq_target: float) -> int:
    """Nearest entry in the 5-step gate ladder; ties resolve to the lower step."""
    if idq_target <= 0:
        raise ValueError(f"idq_target must be > 0, got {idq_target}")
    best = 0
    best_err = abs(GATE_STEP_IDQ[0] - idq_target)
    for i, val in enumerate(GATE_STEP_IDQ[1:], start=1):
        err = abs(val - idq_target)
        if err < best_err:  # strict: equal error keeps the lower step
            best, best_err = i, err
    return best


def track_drain(peak_envelope_v: float, vknee: float = 0.0) -> float:
    """Drain voltage just above the output envelope.

    ``peak*(1 + DRAIN_MARGIN) + vknee``, clamped into [30, 58] V.
    """
    if peak_envelope_v < 0:
        raise ValueError("peak envelope must be >= 0")
    return min(max(peak_envelope_v * (1.0 + DRAIN_MARGIN) + vknee, 30.0), 58.0)


def predict_peak_envelope(setpoint_w: float, idq: float,
                          params: PaParams) -> float:
    """Output-envelope peak needed to deliver the setpoint.

    The CW swing whose fundamental delivers the setpoint, from the
    conduction model (``pamodel.swing_for_pout``).
    """
    if setpoint_w <= 0:
        raise ValueError("setpoint must be > 0")
    if fundamental_pout(SWING_MAX, idq, params.rload) < setpoint_w:
        raise SetpointUnreachable(f"setpoint {setpoint_w} W beyond model range")
    return swing_for_pout(setpoint_w, idq, params.rload)


def command_for_mode(mode: Mode, reason: EnvelopeClass,
                     power_setpoint_w: float, band: str, params: PaParams,
                     table: BandTable) -> BiasCommand:
    """Operating point for an already-chosen mode.

    Linear: 2 A quiescent at the band's equalization voltage. Compression:
    500 mA quiescent, drain tracked just above the predicted output envelope
    peak for the setpoint, which must be deliverable at full supply
    (SetpointUnreachable otherwise).
    """
    if not (math.isfinite(power_setpoint_w) and power_setpoint_w > 0):
        raise ValueError(
            f"power setpoint must be finite and > 0, got {power_setpoint_w}")
    if band not in table:
        raise UnknownBand(f"unknown band {band!r}")
    if mode is Mode.LINEAR:
        bias = BiasPoint(vdd=table[band].eq_vdd, idq=IDQ_LINEAR,
                         gate_step=gate_step_for(IDQ_LINEAR))
        return BiasCommand(target=bias, mode=Mode.LINEAR, reason=reason)
    try:  # the setpoint must be deliverable at full supply before tracking down
        drive_cap(power_setpoint_w, BiasPoint(vdd=58.0, idq=IDQ_COMPRESSION),
                  params)
    except TargetUnreachable as exc:
        raise SetpointUnreachable(
            f"setpoint {power_setpoint_w} W unreachable: {exc}") from exc
    peak = predict_peak_envelope(power_setpoint_w, IDQ_COMPRESSION, params)
    vdd = track_drain(peak, vknee=params.vknee)
    bias = BiasPoint(vdd=vdd, idq=IDQ_COMPRESSION,
                     gate_step=gate_step_for(IDQ_COMPRESSION))
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
                      depth_db: float = 2.5, band: Optional[str] = None) -> float:
    """Input level that puts the stage depth_db into gain compression.

    The closed-form Rapp inverse ``pamodel.compression_level``; raises
    ValueError for a depth <= 0 dB or one that needs more than 50*a_sat.
    """
    level = compression_level(bias, params, depth_db, band)
    if level > 50.0 * (bias.vdd - params.vknee):
        raise ValueError(f"stage cannot reach {depth_db} dB compression")
    return level


def equalize_gains(params: PaParams, bands: Sequence[str],
                   target_gain_db: float, idq: float) -> BandTable:
    """Per-band drain voltage that levels small-signal gain at the target.

    The gain law plus the band's ripple is linear in vdd, so the voltage is
    solved directly within [30, 58]; a band whose target lies outside the
    reachable range is pinned at the nearer endpoint, and flagged when it
    misses the target by more than EQ_TOL_DB.
    """
    table: BandTable = {}
    for band in bands:
        if band not in BANDS:
            raise UnknownBand(f"unknown band {band!r}")
        ripple = params.ripple_db(band)

        def gain_at(vdd: float) -> float:
            return small_signal_gain_db(BiasPoint(vdd=vdd, idq=idq), params) + ripple

        g_lo, g_hi = gain_at(30.0), gain_at(58.0)
        lo_v, hi_v = 30.0, 58.0
        if g_lo > g_hi:  # gain falls with vdd (kv < 0): swap the endpoints
            g_lo, g_hi = g_hi, g_lo
            lo_v, hi_v = 58.0, 30.0
        if target_gain_db <= g_lo:
            table[band] = BandEntry(BAND_CENTER_HZ[band], lo_v, ripple,
                                    clamped=abs(g_lo - target_gain_db) > EQ_TOL_DB)
            continue
        if target_gain_db >= g_hi:
            table[band] = BandEntry(BAND_CENTER_HZ[band], hi_v, ripple,
                                    clamped=abs(g_hi - target_gain_db) > EQ_TOL_DB)
            continue
        vdd = 58.0 + (target_gain_db - gain_at(58.0)) / params.kv
        table[band] = BandEntry(BAND_CENTER_HZ[band], min(max(vdd, 30.0), 58.0),
                                ripple)
    return table


@dataclass
class BiasController:
    """Two-state (linear/compression) controller with switch hysteresis.

    A mode change requires the new classification to persist for
    ``HYSTERESIS_WINDOWS`` consecutive windows, preventing chatter on
    boundary signals. Driven by a single sequential event loop; commands
    come out in call order.
    """

    params: PaParams
    table: BandTable
    window_s: float = 0.01
    mode: Mode = Mode.LINEAR
    _pending_mode: Optional[Mode] = field(default=None, repr=False)
    _pending_count: int = field(default=0, repr=False)

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
