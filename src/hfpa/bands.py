"""Amateur-band grid used for gain equalization and frequency-response sweeps."""

#: Standard allocations, 1.8-30 MHz, lowest first.
BANDS = ("160M", "80M", "60M", "40M", "30M", "20M", "17M", "15M", "12M",
         "10M")


class UnknownBand(ValueError):
    """Band id not in ``BANDS``."""
