"""Numpy-free definitions for the CLI parser and the supply: the waveform
spec, the supply window, the reference bias and the classification window,
and the line rule of the three input files (params config, anchor CSV,
scenario): ``records`` yields a file's lines without blanks and ``#``
comments, each with its ``path:lineno``, and ``number`` parses one finite
field or names it in a ``bad number`` error at that place."""
from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Tuple

#: Drain-supply window, volts: every bias point's vdd lies in it.
VDD_MIN, VDD_MAX = 30.0, 58.0

#: g0's reference bias, volts and amps: the gain law's kv and ki terms vanish.
VDD_REF, IDQ_REF = 58.0, 2.0

#: Default classification window, seconds.
WINDOW_S = 0.01


def records(path) -> Iterator[Tuple[str, str]]:
    """``(where, line)`` for each stripped line of the UTF-8 file ``path``
    that is neither blank nor a ``#`` comment; ``where`` is
    ``f"{path}:{lineno}"``, the prefix of every error about that line."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if line and not line.startswith("#"):
                yield f"{path}:{lineno}", line


def number(text: str, where: str) -> float:
    """``float(text)`` when that is finite, else ValueError
    ``f"{where}: bad number {text!r}"``: ``nan``, ``inf`` and values past
    the float range are bad numbers, as non-numbers are."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{where}: bad number {text!r}")
    return value


class InvalidSpec(ValueError):
    """Waveform spec violates its invariants (Nyquist, index range, ...)."""


class Kind(enum.Enum):
    CW = "cw"
    FM = "fm"
    PSK = "psk"
    AM = "am"
    TWO_TONE = "two_tone"


def _check_sample_rate(sample_rate: float) -> None:
    if not (math.isfinite(sample_rate) and sample_rate > 0):
        raise InvalidSpec(f"sample_rate must be finite and > 0, got {sample_rate}")


#: The float fields a unit waveform depends on, besides the sample rate.
#: Fields equal as numbers give equal blocks: a -0.0 field can flip the sign
#: of a zero in the unit waveform, but the amplitude multiply, done against
#: a + 0j, turns every such zero into +0.0.
_SHAPE_FIELDS = ("tone_hz", "f1_hz", "f2_hz", "fm_dev_hz", "fm_rate_hz",
                 "am_index", "am_rate_hz", "psk_rate_hz")
_shape = operator.attrgetter(*_SHAPE_FIELDS)

#: WaveformSpec's float fields; validate rejects a non-finite value in any.
_FLOAT_FIELDS = ("amplitude", "duration_s") + _SHAPE_FIELDS


@dataclass(frozen=True)
class WaveformSpec:
    """Generator parameters for one emission kind.

    Frequencies are baseband offsets in Hz; amplitude is the peak envelope.
    Only the fields relevant to ``kind`` shape the waveform, but ``validate``
    requires every float field to be finite.
    """

    kind: Kind
    amplitude: float = 1.0
    duration_s: float = 1e-3
    tone_hz: float = 0.0            # CW offset
    f1_hz: float = -1000.0          # two-tone offsets
    f2_hz: float = 1000.0
    fm_dev_hz: float = 5000.0       # FM peak deviation
    fm_rate_hz: float = 1000.0      # FM modulating tone
    am_index: float = 0.5           # AM modulation index m in [0, 1]
    am_rate_hz: float = 1000.0
    psk_rate_hz: float = 10_000.0   # symbol rate, hard keyed
    psk_order: int = 2              # 2 = BPSK, 4 = QPSK

    def validate(self, sample_rate: float) -> None:
        if not isinstance(self.kind, Kind):
            raise InvalidSpec(f"kind must be one of {', '.join(map(str, Kind))}, "
                              f"got {self.kind!r}")
        _check_sample_rate(sample_rate)
        for name in _FLOAT_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise InvalidSpec(f"{name} must be finite, got {getattr(self, name)}")
        if self.amplitude <= 0:
            raise InvalidSpec(f"amplitude must be > 0, got {self.amplitude}")
        if self.duration_s <= 0:
            raise InvalidSpec(f"duration_s must be > 0, got {self.duration_s}")
        nyq = sample_rate / 2.0
        for f in _BAND_EDGES[self.kind](self):
            if f >= nyq:
                raise InvalidSpec(f"frequency {f} Hz not below Nyquist {nyq} Hz")
        if self.kind is Kind.AM and not 0.0 <= self.am_index <= 1.0:
            raise InvalidSpec(f"AM index must be in [0, 1], got {self.am_index}")
        if self.kind is Kind.TWO_TONE and self.f1_hz == self.f2_hz:
            raise InvalidSpec("two-tone offsets must differ")
        if self.kind is Kind.FM:
            if self.fm_rate_hz == 0:
                raise InvalidSpec("FM modulating rate must be nonzero")
            if not math.isfinite(self.fm_dev_hz / self.fm_rate_hz):
                raise InvalidSpec(
                    f"FM index fm_dev_hz / fm_rate_hz must be finite, got "
                    f"{self.fm_dev_hz} / {self.fm_rate_hz}")
        if self.kind is Kind.PSK:
            if self.psk_order not in (2, 4):
                raise InvalidSpec(f"PSK order must be 2 or 4, got {self.psk_order}")
            if self.psk_rate_hz <= 0:
                raise InvalidSpec("PSK symbol rate must be > 0")


#: Per kind, the frequencies of a spec that must lie below Nyquist.
_BAND_EDGES = {
    Kind.CW: lambda s: (abs(s.tone_hz),),
    Kind.TWO_TONE: lambda s: (abs(s.f1_hz), abs(s.f2_hz)),
    Kind.FM: lambda s: (abs(s.fm_dev_hz) + abs(s.fm_rate_hz),),
    Kind.AM: lambda s: (abs(s.am_rate_hz),),
    Kind.PSK: lambda s: (s.psk_rate_hz,),
}
