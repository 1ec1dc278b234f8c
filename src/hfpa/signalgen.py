"""Deterministic complex-baseband test-signal synthesis.

Covers the exciter emission modes the controller has to tell apart:
CW, FM and hard-keyed PSK (constant envelope) versus AM and the two-tone
SSB proxy (varying envelope). All generators are pure functions of their
spec: no RNG state, no dithering, byte-identical output on every call.

Every generator scales an amplitude-free unit waveform by the amplitude
last, so ``generate`` keeps the most recent unit waveforms in a small LRU
(``CACHE_SIZE`` entries of at most ``CACHE_MAX_SAMPLES`` samples, read-only,
each with its peak component magnitude) and only multiplies on a hit. A
longer unit waveform comes from the same function, called past its cache.
The multiply runs in the same order either way, so cached and uncached
outputs are byte-identical.
"""
from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass
from typing import Tuple

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


@dataclass(frozen=True)
class IqBlock:
    """A finite block of complex baseband samples at a fixed sample rate.

    Construction checks the rate, the shape and, with one
    ``np.isfinite(samples).all()``, that every sample is finite.
    ``_unchecked`` skips those checks, for three blocks whose
    samples are known finite without a pass over them:

    * ``pamodel.simulate``'s output block, finite by construction;
    * ``measure.simulate_cw``'s CW block, built after a check of its level;
    * ``generate``'s block, after the bound on its peak component (see
      ``generate``).
    """

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        _check_sample_rate(self.sample_rate)
        samples = np.asarray(self.samples, dtype=np.complex128)
        if samples.ndim != 1 or samples.size == 0:
            raise InvalidSpec("samples must be a non-empty 1-D sequence")
        if not np.isfinite(samples).all():
            raise InvalidSpec("samples must be finite")
        object.__setattr__(self, "samples", samples)

    @classmethod
    def _unchecked(cls, samples: np.ndarray, sample_rate: float) -> "IqBlock":
        """A block of ``samples``, which the caller guarantees to be a
        non-empty 1-D complex128 array of finite values, at a valid
        ``sample_rate``; nothing is checked."""
        block = object.__new__(cls)
        object.__setattr__(block, "samples", samples)
        object.__setattr__(block, "sample_rate", sample_rate)
        return block

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate


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


def _unit_waveform(spec: WaveformSpec, sample_rate: float,
                   n: int) -> np.ndarray:
    """The spec's n-sample waveform before the amplitude is applied.

    ``generate`` scales it: ``(a/2) * u`` for the two-tone, ``(a * u) /
    (1 + m)`` for AM (a real array), ``a * u`` for the others.

    The construction peak is 2.5 times the result (AM: 3 times). The
    two-tone reaches it by building each tone in place in its own complex
    row, beside the time row (3.5 times with fresh temporaries); its ufuncs
    and operand order are those of ``exp(2j*pi*f1*t) + exp(2j*pi*f2*t)``,
    so its bits are too.
    """
    t = np.arange(n, dtype=np.float64)
    t /= sample_rate
    if spec.kind is Kind.CW:
        return np.exp(2j * np.pi * spec.tone_hz * t)
    if spec.kind is Kind.TWO_TONE:
        u = np.multiply(2j * np.pi * spec.f1_hz, t)
        np.exp(u, u)
        v = np.multiply(2j * np.pi * spec.f2_hz, t)
        np.exp(v, v)
        u += v
        return u
    if spec.kind is Kind.FM:
        # modulating tone cos(2*pi*fm*t) -> instantaneous deviation dev*cos(...)
        beta = spec.fm_dev_hz / spec.fm_rate_hz
        return np.exp(1j * beta * np.sin(2 * np.pi * spec.fm_rate_hz * t))
    if spec.kind is Kind.AM:
        return 1.0 + spec.am_index * np.cos(2 * np.pi * spec.am_rate_hz * t)
    if spec.kind is Kind.PSK:
        # a symbol at least as long as the block is the block: repeating
        # the whole symbol would allocate past it (an infinite ratio too)
        ratio = sample_rate / spec.psk_rate_hz
        sps = n if ratio >= n else max(1, int(round(ratio)))
        nsym = -(-n // sps)
        if spec.psk_order == 2:
            phases = np.pi * _pn_bits(nsym)
        else:
            b = _pn_bits(2 * nsym)
            sym = 2 * b[0::2] + b[1::2]
            phases = np.pi / 4.0 + sym * (np.pi / 2.0)
        return np.exp(1j * np.repeat(phases, sps))[:n]
    raise InvalidSpec(f"unsupported kind {spec.kind}")  # pragma: no cover


@functools.lru_cache(maxsize=CACHE_SIZE)
def _cached_unit_waveform(kind: Kind, psk_order: int, shape: tuple,
                          sample_rate: float,
                          n: int) -> Tuple[np.ndarray, float]:
    """``_unit_waveform`` of the spec with these fields, read-only, and its
    largest component magnitude (NaN when a component is NaN)."""
    spec = WaveformSpec(kind=kind, psk_order=psk_order,
                        **dict(zip(_SHAPE_FIELDS, shape)))
    u = _unit_waveform(spec, sample_rate, n)
    u.flags.writeable = False
    return u, float(np.max(np.abs(u.view(np.float64))))


def generate(spec: WaveformSpec, sample_rate: float) -> IqBlock:
    """Synthesize the spec's waveform at the given sample rate.

    Deterministic: identical inputs give byte-identical blocks. Peak envelope
    never exceeds ``spec.amplitude``; constant-envelope kinds hold it exactly.
    Raises InvalidSpec for more than ``MAX_SAMPLES`` samples, and for a block
    with a non-finite sample.

    The unit waveform comes from ``_cached_unit_waveform``: through its LRU
    for at most ``CACHE_MAX_SAMPLES`` samples, through ``__wrapped__``, on
    every call, for more.

    The finite check reads one scalar, ``scale * peak``, with ``scale`` the
    factor the unit waveform ``u`` is multiplied by (``a/2`` for the
    two-tone, ``a`` otherwise) and ``peak`` the largest component magnitude
    of ``u``. Rounding is monotone, so no component of ``scale * u`` is
    larger than ``scale * peak``, and the peak component gives exactly that
    value. The complex multiply against ``scale + 0j`` adds only signed
    zeros, and AM's division by ``1 + m >= 1`` keeps a finite value finite
    and an inf infinite. So the block is finite exactly when ``scale *
    peak`` is, and a NaN in ``u`` makes the scalar NaN.
    """
    spec.validate(sample_rate)
    count = spec.duration_s * sample_rate
    if not count <= MAX_SAMPLES:  # inf included
        raise InvalidSpec(
            f"duration {spec.duration_s:g} s at {sample_rate:g} S/s needs "
            f"{count:g} samples, more than MAX_SAMPLES ({MAX_SAMPLES})")
    n = int(round(count))
    if n < 1:
        raise InvalidSpec("duration too short for one sample")
    unit = (_cached_unit_waveform if n <= CACHE_MAX_SAMPLES
            else _cached_unit_waveform.__wrapped__)
    u, peak = unit(spec.kind, spec.psk_order, _shape(spec), sample_rate, n)
    a = spec.amplitude
    scale = a / 2.0 if spec.kind is Kind.TWO_TONE else a
    if not math.isfinite(scale * peak):
        raise InvalidSpec("samples must be finite")
    x = scale * u
    if spec.kind is Kind.AM:
        x = (x / (1.0 + spec.am_index)).astype(np.complex128)
    return IqBlock._unchecked(x, sample_rate)
