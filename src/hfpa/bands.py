"""Amateur-band grid used for gain equalization and frequency-response sweeps."""

# Standard allocations, 1.8-30 MHz. Center frequencies in Hz.
BAND_CENTER_HZ = {
    "160M": 1.8e6,
    "80M": 3.5e6,
    "60M": 5.3e6,
    "40M": 7.0e6,
    "30M": 10.1e6,
    "20M": 14.0e6,
    "17M": 18.1e6,
    "15M": 21.0e6,
    "12M": 24.9e6,
    "10M": 28.0e6,
}

BANDS = tuple(BAND_CENTER_HZ)


class UnknownBand(ValueError):
    """Band id not in ``BANDS``."""
