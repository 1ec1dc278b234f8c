"""Behavioral class-AB amplifier model.

Envelope-domain AM/AM nonlinearity (Rapp-style soft limiter on the drain
voltage swing) combined with a conduction-angle drain-current model. The
drain current over one carrier cycle is taken as a clipped quasi-sine
``i(th) = max(0, idq + ipk*cos th)``; its Fourier DC and fundamental
components set DC draw and RF output power:

* ``pout = mean(a_out * i1) / 2``  (fundamental voltage times fundamental
  current; equals ``a_out^2 / (2*rload)`` while the current is unclipped)
* ``pdc  = vdd * mean(idc * shape)``

``shape`` is an overdrive waveform-shaping factor,
``1 - beta*r^p / (1 + c*r^p)`` with ``r = a_out/a_sat``: as the stage is
pushed toward saturation the drain waveforms square up and the DC draw per
watt falls. ``beta = 0`` (the default) disables it and leaves the pure
quasi-sine model. No AM/PM: phase is preserved, distortion is AM/AM only.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Mapping, Optional, Sequence, Tuple

from . import kernels
from .bands import BANDS, UnknownBand
from .signalgen import IqBlock
from .spec import IDQ_REF, VDD_MAX, VDD_MIN, VDD_REF, number, records

TWO_PI = 2.0 * math.pi


class NonPositiveIdq(ValueError):
    """Quiescent current must be positive."""


class InvalidBias(ValueError):
    """Bias point outside the supply voltage or quiescent-current range."""


class OutOfRangeAlpha(ValueError):
    """Conduction angle outside (0, 2*pi]."""


class GainOutOfRange(ValueError):
    """Small-signal gain beyond +/-``GAIN_DB_MAX`` dB."""


#: Largest quiescent current, amps. The gate ladder tops out at 2 A and the
#: model is also checked in class A at 3 A; 10 A at 58 V is 580 W of
#: quiescent dissipation, about what the 1 kW stage dissipates at full
#: output, so no bias point of this amplifier lies above it.
IDQ_MAX = 10.0

#: Quiescent-current presets selectable by the 5-step gate bias ladder (A).
GATE_STEP_IDQ = (0.25, 0.5, 1.0, 1.5, 2.0)


def gate_step_for(idq_target: float) -> int:
    """Nearest entry in the 5-step gate ladder; ties resolve to the lower step.

    ``idq_target`` must lie in (0, IDQ_MAX], the range ``BiasPoint`` takes.
    """
    if not 0 < idq_target <= IDQ_MAX:
        raise ValueError(
            f"idq_target must be in (0, {IDQ_MAX:g}] A, got {idq_target}")
    best = 0
    best_err = abs(GATE_STEP_IDQ[0] - idq_target)
    for i, val in enumerate(GATE_STEP_IDQ[1:], start=1):
        err = abs(val - idq_target)
        if err < best_err:  # strict: equal error keeps the lower step
            best, best_err = i, err
    return best


@dataclass(frozen=True)
class BiasPoint:
    """Drain supply voltage and quiescent current; the gate ladder step
    that sets the current follows from it."""

    vdd: float
    idq: float

    @property
    def gate_step(self) -> int:
        """The gate ladder step of ``idq`` (``gate_step_for``)."""
        return gate_step_for(self.idq)

    def __post_init__(self):
        if not (math.isfinite(self.vdd) and math.isfinite(self.idq)):
            raise InvalidBias(f"vdd and idq must be finite, got {self.vdd}, {self.idq}")
        if not VDD_MIN <= self.vdd <= VDD_MAX:
            raise InvalidBias(f"vdd must be in [{VDD_MIN:g}, {VDD_MAX:g}] V, "
                              f"got {self.vdd}")
        if not 0 < self.idq <= IDQ_MAX:
            raise InvalidBias(f"idq must be in (0, {IDQ_MAX:g}] A, "
                              f"got {self.idq}")


#: Each ``PaParams`` scalar field's rule, in config-file order, checked by
#: the constructor and line by line by ``load_params``: ``(field, low, high,
#: low_open, high_open)``, the value lying between ``low`` and ``high``, each
#: end open or closed. Every field must also be finite; each end at +/-inf
#: is open, so the comparisons alone reject inf and nan.
PARAM_RULES = (
    ("g0", 0.0, math.inf, True, True),
    ("kv", -math.inf, math.inf, True, True),
    ("ki", -math.inf, math.inf, True, True),
    ("rload", 0.0, math.inf, True, True),
    ("vknee", 0.0, VDD_MIN, False, True),  # a_sat = vdd - vknee stays > 0
    ("smoothness", 0.5, 20.0, False, False),
    ("shape_beta", 0.0, math.inf, False, True),
    ("shape_exp", 0.0, math.inf, True, True),
    ("shape_sat", 0.0, math.inf, False, True),
)

#: PaParams' scalar fields, in config-file order.
_SCALAR_KEYS = tuple(rule[0] for rule in PARAM_RULES)


def _check_fields(fields, prefix: str) -> None:
    """Raise for the first attribute of ``fields`` that breaks its rule: a
    scalar outside its ``PARAM_RULES`` range (ValueError), a ``ripple``
    band outside ``BANDS`` (UnknownBand) or a ripple value that is not
    finite (ValueError). The message names the field after ``prefix``. An
    attribute that ``fields`` lacks is not checked: ``PaParams`` passes
    itself, and ``load_params`` a namespace of one line's field."""
    for key, low, high, low_open, high_open in PARAM_RULES:
        try:
            value = getattr(fields, key)
        except AttributeError:
            continue
        if low < value < high or (value == low and not low_open
                                  or value == high and not high_open):
            continue
        if not math.isfinite(value):
            rule = "finite"
        elif high == math.inf:
            rule = f"{'>' if low_open else '>='} {low:g}"
        else:
            rule = (f"in {'(' if low_open else '['}{low:g}, "
                    f"{high:g}{')' if high_open else ']'}")
        raise ValueError(f"{prefix}{key} must be {rule}, got {value}")
    for band, db in getattr(fields, "ripple", {}).items():
        if band not in BANDS:
            raise UnknownBand(f"{prefix}unknown band {band!r} in ripple")
        if not math.isfinite(db):
            raise ValueError(f"{prefix}ripple.{band} must be finite, got {db}")


@dataclass(frozen=True)
class PaParams:
    """Amplifier behavioral parameters.

    g0         small-signal voltage gain (linear) at VDD_REF / IDQ_REF
    kv         gain slope vs drain voltage, dB per volt
    ki         gain slope vs quiescent current, dB per decade
    rload      effective load-line resistance, ohms
    vknee      knee voltage, volts; saturated swing is vdd - vknee
    smoothness Rapp knee sharpness s
    shape_beta, shape_exp, shape_sat
               overdrive shaping: DC draw scaled by
               1 - beta*r^p/(1 + c*r^p); beta = 0 disables
    ripple     per-band small-signal gain deviation in dB, keyed by BANDS

    Each scalar field must lie in its ``PARAM_RULES`` range, and every
    value must be finite; an error names the field.
    """

    g0: float
    kv: float = 0.0
    ki: float = 0.0
    rload: float = 1.0
    vknee: float = 4.0
    smoothness: float = 2.0
    shape_beta: float = 0.0
    shape_exp: float = 4.0
    shape_sat: float = 0.0
    ripple: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        _check_fields(self, "")
        object.__setattr__(self, "ripple", dict(self.ripple))

    def ripple_db(self, band: Optional[str]) -> float:
        """Ripple in dB (0 for None); a band not in BANDS raises UnknownBand."""
        if band is None:
            return 0.0
        if band not in BANDS:
            raise UnknownBand(f"unknown band {band!r}")
        return float(self.ripple.get(band, 0.0))


@dataclass(frozen=True)
class PaStats:
    """One steady-state simulation record."""

    pout_w: float
    pdc_w: float
    eff: float
    pdiss_w: float
    gain_db: Optional[float]


def _fourier_clipped(idq: float, ipk: float):
    """(alpha, idc, i1) of i(th) = max(0, idq + ipk*cos th), any real idq."""
    if ipk <= 0.0:
        return TWO_PI, max(idq, 0.0), 0.0
    x = -idq / ipk
    if x <= -1.0:  # never clips: pure class A
        return TWO_PI, idq, ipk
    if x >= 1.0:  # never conducts
        return 0.0, 0.0, 0.0
    thc = math.acos(x)
    sin_thc = math.sin(thc)
    idc = (idq * thc + ipk * sin_thc) / math.pi
    i1 = (2.0 * idq * sin_thc + ipk * (thc + sin_thc * math.cos(thc))) / math.pi
    return 2.0 * thc, idc, i1


def _rapp_scalar(u: float, a_sat: float, smooth: float) -> float:
    """``kernels.rapp`` on one Python float.

    It exists beside the numpy form only to filter decisions: the drive
    solve takes a step's direction from it thousands of times per fit, and
    a one-lane numpy call costs about 14x as much (5.0 vs 0.36 us).
    Its libm ``pow`` may differ from numpy's in the last bits, so its value
    never reaches an output. It keeps the law's one saturation rule (the
    ``kernels`` docstring): a denominator past the float range, here an
    ``OverflowError``, gives ``a_sat``.
    """
    s2 = 2.0 * smooth
    try:
        return u / (1.0 + (u / a_sat) ** s2) ** (1.0 / s2)
    except OverflowError:
        return a_sat


def conduction_currents(idq: float, ipk: float):
    """DC and fundamental components of the clipped drain-current quasi-sine.

    Returns (alpha, idc, i1): conduction angle in radians (2*pi when the
    waveform never clips), DC component, and fundamental cosine coefficient.
    """
    if idq <= 0:
        raise NonPositiveIdq(f"idq must be > 0, got {idq}")
    if ipk < 0:
        raise ValueError(f"ipk must be >= 0, got {ipk}")
    if not (math.isfinite(idq) and math.isfinite(ipk)):
        raise ValueError(f"idq and ipk must be finite, got {idq}, {ipk}")
    return _fourier_clipped(idq, ipk)


def bisect(f, lo: float, hi: float, tol: Optional[float] = None,
           max_iter: int = 200):
    """Root of ``f`` on a bracket where ``f < 0`` at ``lo`` and not at ``hi``.

    Each step keeps ``lo`` where ``f(mid) < 0`` and moves ``hi`` otherwise;
    it stops after ``max_iter`` steps or once ``mid`` is no longer strictly
    inside ``(lo, hi)``, the float fixed point, and returns the final
    midpoint. With ``tol`` it returns the first midpoint where
    ``|f(mid)| <= tol`` instead, and None when no step met it.
    """
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        f_mid = f(mid)
        if tol is not None and abs(f_mid) <= tol:
            return mid
        if f_mid < 0:
            lo = mid
        else:
            hi = mid
    return None if tol is not None else 0.5 * (lo + hi)


#: Output-swing bracket of ``swing_for_pout``, volts.
SWING_MIN, SWING_MAX = 1e-6, 400.0


def fundamental_pout(a_out: float, idq: float, rload: float) -> float:
    """CW output power ``a_out * i1 / 2`` at output swing ``a_out``."""
    return a_out * _fourier_clipped(idq, a_out / rload)[2] / 2.0


@functools.lru_cache(maxsize=16, typed=True)
def swing_for_pout(pout: float, idq: float, rload: float) -> float:
    """Output swing in ``[SWING_MIN, SWING_MAX]`` whose fundamental delivers pout.

    Converges on ``SWING_MAX`` when even that swing falls short. Memoized
    (an LRU of 16 argument triples): a controller setpoint holds for a run
    of windows, ``calibrate.default_init`` solves 12 load lines per anchor
    table, and each solve is about 56 bisection steps.
    """
    return bisect(lambda a: fundamental_pout(a, idq, rload) - pout,
                  SWING_MIN, SWING_MAX)


def small_signal_gain_db(bias: BiasPoint, params: PaParams,
                         band: Optional[str] = None) -> float:
    """Gain law: linear-in-dB vs vdd, vs log(idq), plus per-band ripple."""
    return (20.0 * math.log10(params.g0)
            + params.kv * (bias.vdd - VDD_REF)
            + params.ki * math.log10(bias.idq / IDQ_REF)
            + params.ripple_db(band))


def saturated_swing(bias: BiasPoint, params: PaParams) -> float:
    """Peak drain-voltage swing limit a_sat = vdd - vknee > 0 (vknee < VDD_MIN)."""
    return bias.vdd - params.vknee


#: Largest magnitude of the gain law, dB. Within it ``g`` lies in
#: [1e-150, 1e150], so the drive ceiling ``10*a_sat/g`` stays at most 5.8e152
#: and its square finite, and a 1 kW CW row keeps a defined gain.
GAIN_DB_MAX = 3000.0


def gain_and_swing(bias: BiasPoint, params: PaParams,
                   band: Optional[str] = None) -> Tuple[float, float]:
    """Linear small-signal gain ``10^(small_signal_gain_db/20)`` and a_sat.

    A gain law beyond +/-``GAIN_DB_MAX`` dB at this bias and band, or not
    finite, raises GainOutOfRange, which names the gain.
    """
    gain_db = small_signal_gain_db(bias, params, band)
    if not abs(gain_db) <= GAIN_DB_MAX:  # also true for nan
        raise GainOutOfRange(f"small-signal gain {gain_db:.1f} dB is outside "
                             f"+/-{GAIN_DB_MAX:g} dB")
    return 10.0 ** (gain_db / 20.0), saturated_swing(bias, params)


def simulate(block: IqBlock, bias: BiasPoint, params: PaParams,
             band: Optional[str] = None):
    """Amplify a block and report steady-state power statistics.

    Phase is preserved per sample; the envelope passes through the AM/AM
    law and each output-swing sample drives the conduction-current model.
    DC input power can never fall below RF output power (dissipation >= 0).
    ``gain_db`` is None when the input power is zero or overflows, and when
    the output power, or its ratio to the input power, underflows to zero.
    A Rapp denominator past the float range gives a_sat, the one saturation
    rule of every form of the law (the ``kernels`` docstring). The
    envelope, the output samples and every block sum, ``sum(|x|^2)``
    included, come from ``kernels.pa_pipeline``, which runs a long block's
    ``|x|``, law, output scale and sums as two halves, one handoff to the
    worker thread per call (``kernels.halves``; timings at
    ``kernels.SPLIT_MIN``). ``pa_pipeline`` also holds the overflow policy:
    it ignores overflow in its own one ``np.errstate``, so this function
    opens none, and a CW block enters one scope per call. Beyond the output
    block, a call allocates one float row, the swing, and works in the
    calling thread's three ``kernels.workspace`` rows, 24 bytes per sample
    kept up to ``signalgen.CACHE_MAX_SAMPLES``, which ``measure.measure_imd``
    alone shares; the law's other scratch rows are the output block's own
    memory.
    """
    if not isinstance(bias, BiasPoint):
        raise InvalidBias(f"expected BiasPoint, got {type(bias).__name__}")
    g, a_sat = gain_and_swing(bias, params, band)
    n = len(block)
    out, sum_aout2, sum_vi1, sum_idc, sum_env2 = kernels.pa_pipeline(
        block.samples, g, a_sat, bias.idq, params)
    pout = sum_vi1 / (2.0 * n)
    pdc = bias.vdd * sum_idc / n
    pdc = max(pdc, pout)  # waveform shaping never drives dissipation negative
    ratio = sum_aout2 / sum_env2 if 0.0 < sum_env2 < math.inf else 0.0
    gain_db = 10.0 * math.log10(ratio) if ratio > 0.0 else None
    # finite by construction, so not checked again: each sample is x times
    # aout/env, of magnitude about aout <= a_sat; an envelope that is zero
    # or overflowed to inf gets scale 0, and a finite x times 0 is 0
    out_block = IqBlock._unchecked(out, block.sample_rate)
    eff = pout / pdc if pdc > 0 else 0.0
    return out_block, PaStats(pout_w=pout, pdc_w=pdc, eff=eff,
                              pdiss_w=pdc - pout, gain_db=gain_db)


def efficiency_curve(alphas: Sequence[float]):
    """Ideal drain efficiency versus conduction angle at full swing.

    eta(alpha) = 0.5 * (i1/idc), where (idc, i1) belong to the clipped
    quasi-sine whose conduction angle is alpha (bias term idq = -cos(alpha/2)
    per unit drive), with the fundamental swinging the full drain voltage
    and no knee. Strictly decreasing in alpha.
    """
    out = []
    for alpha in alphas:
        if not 0.0 < alpha <= TWO_PI:
            raise OutOfRangeAlpha(f"alpha must be in (0, 2*pi], got {alpha}")
        idq = -math.cos(alpha / 2.0)
        _, idc, i1 = _fourier_clipped(idq, 1.0)
        out.append((alpha, 0.5 * (i1 / idc)))
    return out


# --- parameter config file: one `key = value` per line, ripple.<band> keys ---

def save_params(params: PaParams, path) -> None:
    lines = [f"{k} = {getattr(params, k):.12g}" for k in _SCALAR_KEYS]
    for band in BANDS:
        if band in params.ripple:
            lines.append(f"ripple.{band} = {params.ripple[band]:.12g}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_params(path) -> PaParams:
    """The params of a config file. Each line is checked through
    ``PARAM_RULES`` as it is read, so an error about a value, a key or a
    repeated key starts ``path:lineno:``; only a file without ``g0`` is
    named by its path alone."""
    scalars = {}
    ripple = {}
    first = {}  # each key's first line
    for where, line in records(path):
        if "=" not in line:
            raise ValueError(f"{where}: expected 'key = value'")
        key, _, value = (p.strip() for p in line.partition("="))
        num = number(value, where)
        if key in first:
            raise ValueError(f"{where}: repeated key {key!r}, first at "
                             f"{first[key]}")
        first[key] = where
        if key.startswith("ripple."):
            band = key[len("ripple."):]
            _check_fields(SimpleNamespace(ripple={band: num}), f"{where}: ")
            ripple[band] = num
        elif key in _SCALAR_KEYS:
            _check_fields(SimpleNamespace(**{key: num}), f"{where}: ")
            scalars[key] = num
        else:
            raise ValueError(f"{where}: unknown key {key!r}")
    if "g0" not in scalars:
        raise ValueError(f"{path}: missing required key 'g0'")
    return PaParams(ripple=ripple, **scalars)


def with_ripple(params: PaParams, ripple: Mapping[str, float]) -> PaParams:
    """Copy of params with the ripple profile replaced."""
    return replace(params, ripple=dict(ripple))
