"""Deterministic complex-baseband test-signal synthesis.

Covers the exciter emission modes the controller has to tell apart:
CW, FM and hard-keyed PSK (constant envelope) versus AM and the two-tone
SSB proxy (varying envelope). All generators are pure functions of their
spec: no RNG state, no dithering, byte-identical output on every call.

Every generator scales an amplitude-free unit waveform by the amplitude
last, so ``generate`` keeps the most recent unit waveforms in a small LRU
(``CACHE_SIZE`` entries of at most ``CACHE_MAX_SAMPLES`` samples, read-only)
and only multiplies on a hit. The multiply runs in the same order as an
uncached call, so cached and uncached outputs are byte-identical.
"""
from __future__ import annotations

import cmath
import enum
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np


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


#: Longest block whose finite check takes ``np.vdot``: OpenBLAS runs it on
#: one thread up to 10000 samples, and above wakes worker threads that spin
#: on the second core (CPU time twice the wall time from 10001 samples,
#: 2-core host).
_VDOT_MAX = 10000


def _sum_is_finite(samples) -> bool:
    """Whether a sum over ``samples`` is finite: only if every sample is.

    Cheap; a non-finite sample, or finite ones whose sum overflows, gives
    False. A short block takes ``np.vdot`` (1.4 us at 64 samples, against
    about 5 us for numpy's sum, whose overflow needs an ``errstate``); a
    long one numpy's sum, which leaves BLAS's threads asleep.
    """
    if samples.size <= _VDOT_MAX:
        return cmath.isfinite(np.vdot(samples, samples))
    with np.errstate(over="ignore", invalid="ignore"):
        return cmath.isfinite(np.add.reduce(samples))


@dataclass(frozen=True)
class IqBlock:
    """A finite block of complex baseband samples at a fixed sample rate."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        _check_sample_rate(self.sample_rate)
        samples = np.asarray(self.samples, dtype=np.complex128)
        if samples.ndim != 1 or samples.size == 0:
            raise InvalidSpec("samples must be a non-empty 1-D sequence")
        if not (_sum_is_finite(samples) or np.isfinite(samples).all()):
            raise InvalidSpec("samples must be finite")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate


#: WaveformSpec's float fields; validate rejects a non-finite value in any.
_FLOAT_FIELDS = ("amplitude", "duration_s", "tone_hz", "f1_hz", "f2_hz",
                 "fm_dev_hz", "fm_rate_hz", "am_index", "am_rate_hz",
                 "psk_rate_hz")


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
        _check_sample_rate(sample_rate)
        for name in _FLOAT_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise InvalidSpec(f"{name} must be finite, got {getattr(self, name)}")
        if self.amplitude <= 0:
            raise InvalidSpec(f"amplitude must be > 0, got {self.amplitude}")
        if self.duration_s <= 0:
            raise InvalidSpec(f"duration_s must be > 0, got {self.duration_s}")
        nyq = sample_rate / 2.0
        freqs = {
            Kind.CW: (abs(self.tone_hz),),
            Kind.TWO_TONE: (abs(self.f1_hz), abs(self.f2_hz)),
            Kind.FM: (abs(self.fm_dev_hz) + abs(self.fm_rate_hz),),
            Kind.AM: (abs(self.am_rate_hz),),
            Kind.PSK: (self.psk_rate_hz,),
        }[self.kind]
        for f in freqs:
            if f >= nyq:
                raise InvalidSpec(f"frequency {f} Hz not below Nyquist {nyq} Hz")
        if self.kind is Kind.AM and not 0.0 <= self.am_index <= 1.0:
            raise InvalidSpec(f"AM index must be in [0, 1], got {self.am_index}")
        if self.kind is Kind.TWO_TONE and self.f1_hz == self.f2_hz:
            raise InvalidSpec("two-tone offsets must differ")
        if self.kind is Kind.FM and self.fm_rate_hz == 0:
            raise InvalidSpec("FM modulating rate must be nonzero")
        if self.kind is Kind.PSK:
            if self.psk_order not in (2, 4):
                raise InvalidSpec(f"PSK order must be 2 or 4, got {self.psk_order}")
            if self.psk_rate_hz <= 0:
                raise InvalidSpec("PSK symbol rate must be > 0")


def _pn9() -> np.ndarray:
    """One period of PN9 (x^9 + x^5 + 1, seed 0x1FF), read-only."""
    state = 0x1FF
    bits = np.empty(511, dtype=np.int64)
    for i in range(511):
        bit = state & 1
        bits[i] = bit
        fb = ((state >> 0) ^ (state >> 4)) & 1
        state = (state >> 1) | (fb << 8)
    bits.flags.writeable = False
    return bits


_PN9 = _pn9()


def _pn_bits(n: int) -> np.ndarray:
    """Fixed PN9 sequence, cycled to length n."""
    reps = -(-n // _PN9.size)
    return np.tile(_PN9, reps)[:n]


#: Largest block ``generate`` makes: 2**24 samples, 16.8 s at 1 MS/s. The
#: largest artifact block is 131072 samples; a 2**24-sample block is 256 MiB
#: of complex samples, and simulating it holds several such arrays, so a
#: larger request is refused before anything is allocated instead of being
#: left to whatever memory the host has.
MAX_SAMPLES = 2 ** 24

#: Unit waveforms of at most this many samples (the 131072-sample two-tone
#: of the IMD measurement, 2 MiB) go through the cache; longer ones are
#: computed on every call.
CACHE_MAX_SAMPLES = 131072

#: Unit waveforms the cache holds: the five kinds of the controller windows,
#: with room for an IMD block beside them.
CACHE_SIZE = 8


def _too_many_samples(spec: WaveformSpec, sample_rate: float,
                      count: float) -> InvalidSpec:
    return InvalidSpec(
        f"duration {spec.duration_s:g} s at {sample_rate:g} S/s needs "
        f"{count:g} samples, more than MAX_SAMPLES ({MAX_SAMPLES})")


def _unit_waveform(spec: WaveformSpec, sample_rate: float,
                   n: int) -> np.ndarray:
    """The spec's n-sample waveform before the amplitude is applied.

    ``generate`` scales it: ``(a/2) * u`` for the two-tone, ``(a * u) /
    (1 + m)`` for AM (a real array), ``a * u`` for the others.
    """
    t = np.arange(n) / sample_rate
    if spec.kind is Kind.CW:
        return np.exp(2j * np.pi * spec.tone_hz * t)
    if spec.kind is Kind.TWO_TONE:
        return (np.exp(2j * np.pi * spec.f1_hz * t)
                + np.exp(2j * np.pi * spec.f2_hz * t))
    if spec.kind is Kind.FM:
        # modulating tone cos(2*pi*fm*t) -> instantaneous deviation dev*cos(...)
        beta = spec.fm_dev_hz / spec.fm_rate_hz
        return np.exp(1j * beta * np.sin(2 * np.pi * spec.fm_rate_hz * t))
    if spec.kind is Kind.AM:
        return 1.0 + spec.am_index * np.cos(2 * np.pi * spec.am_rate_hz * t)
    if spec.kind is Kind.PSK:
        sps = max(1, int(round(sample_rate / spec.psk_rate_hz)))
        nsym = -(-n // sps)
        if spec.psk_order == 2:
            phases = np.pi * _pn_bits(nsym)
        else:
            b = _pn_bits(2 * nsym)
            sym = 2 * b[0::2] + b[1::2]
            phases = np.pi / 4.0 + sym * (np.pi / 2.0)
        return np.exp(1j * np.repeat(phases, sps))[:n]
    raise InvalidSpec(f"unsupported kind {spec.kind}")  # pragma: no cover


#: The float fields a unit waveform depends on, besides the sample rate.
#: Fields equal as numbers give equal blocks: a -0.0 field can flip the sign
#: of a zero in the unit waveform, but the amplitude multiply, done against
#: a + 0j, turns every such zero into +0.0.
_SHAPE_FIELDS = ("tone_hz", "f1_hz", "f2_hz", "fm_dev_hz", "fm_rate_hz",
                 "am_index", "am_rate_hz", "psk_rate_hz")
_shape = operator.attrgetter(*_SHAPE_FIELDS)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _cached_unit_waveform(kind: Kind, psk_order: int, shape: tuple,
                          sample_rate: float, n: int) -> np.ndarray:
    """``_unit_waveform`` of the spec with these fields, read-only."""
    spec = WaveformSpec(kind=kind, psk_order=psk_order,
                        **dict(zip(_SHAPE_FIELDS, shape)))
    u = _unit_waveform(spec, sample_rate, n)
    u.flags.writeable = False
    return u


def generate(spec: WaveformSpec, sample_rate: float) -> IqBlock:
    """Synthesize the spec's waveform at the given sample rate.

    Deterministic: identical inputs give byte-identical blocks. Peak envelope
    never exceeds ``spec.amplitude``; constant-envelope kinds hold it exactly.
    Raises InvalidSpec for more than ``MAX_SAMPLES`` samples.
    """
    spec.validate(sample_rate)
    count = spec.duration_s * sample_rate
    if not count <= MAX_SAMPLES:  # inf included
        raise _too_many_samples(spec, sample_rate, count)
    n = int(round(count))
    if n < 1:
        raise InvalidSpec("duration too short for one sample")
    if n <= CACHE_MAX_SAMPLES:
        u = _cached_unit_waveform(spec.kind, spec.psk_order, _shape(spec),
                                  sample_rate, n)
    else:
        u = _unit_waveform(spec, sample_rate, n)
    a = spec.amplitude
    if spec.kind is Kind.TWO_TONE:
        x = (a / 2.0) * u
    elif spec.kind is Kind.AM:
        x = ((a * u) / (1.0 + spec.am_index)).astype(np.complex128)
    else:
        x = a * u
    return IqBlock(x, sample_rate)
