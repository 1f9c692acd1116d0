"""Physical constants and airtime.

All simulator-internal quantities use SI base units: seconds, metres, bits,
bits-per-second, watts.
"""

from __future__ import annotations

__all__ = [
    "SPEED_OF_LIGHT",
    "airtime",
]

#: Speed of light in vacuum, m/s.
SPEED_OF_LIGHT = 299_792_458.0


def airtime(bits: int, rate_bps: float) -> float:
    """Transmission duration of ``bits`` at ``rate_bps`` (seconds).

    >>> airtime(8000, 2e6)
    0.004
    """
    if rate_bps <= 0:
        raise ValueError(f"rate must be positive, got {rate_bps!r}")
    if bits < 0:
        raise ValueError(f"bit count must be non-negative, got {bits}")
    return bits / rate_bps
