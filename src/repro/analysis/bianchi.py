"""Bianchi's analytical model of 802.11 DCF saturation throughput.

Bianchi (JSAC 2000) models each saturated station as a bidimensional
backoff Markov chain and derives, for ``n`` stations in one collision
domain under basic access:

* the per-slot transmission probability τ from the fixed point

  .. math::

      \\tau = \\frac{2(1-2p)}{(1-2p)(W+1) + pW(1-(2p)^m)},
      \\qquad p = 1-(1-\\tau)^{n-1}

  where ``W = CWmin+1`` and ``m`` is the number of backoff stages;

* and the saturation throughput

  .. math::

      S = \\frac{P_s P_{tr} E[P]}
               {(1-P_{tr})\\sigma + P_{tr}P_s T_s + P_{tr}(1-P_s) T_c}

  with σ the slot time and ``T_s``/``T_c`` the success/collision slot
  durations.

The MAC validation experiment compares this closed form against the
simulator's measured saturation throughput — substrate validation, ns-2
style.  Our MAC's always-backoff simplification matches Bianchi's chain
assumptions exactly, so agreement should be tight (a few percent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.mac.csma import MacConfig
from repro.phy.radio import PhyConfig

__all__ = ["BianchiTiming", "transmission_probability", "saturation_throughput_bps"]


@dataclass(frozen=True, slots=True)
class BianchiTiming:
    """Slot durations entering Bianchi's throughput formula (seconds)."""

    slot_s: float
    success_s: float
    collision_s: float
    payload_bits: int


def _stages(mac: MacConfig) -> tuple[int, int]:
    """(W, m): initial window size and number of doubling stages."""
    w = mac.cw_min + 1
    m = round(math.log2((mac.cw_max + 1) / w))
    return w, m


def transmission_probability(n: int, mac: MacConfig) -> tuple[float, float]:
    """Solve Bianchi's fixed point; returns (τ, p).

    Parameters
    ----------
    n:
        Number of saturated stations (≥ 2).
    mac:
        DCF parameters (CWmin/CWmax used).
    """
    if n < 2:
        raise ValueError(f"Bianchi's model needs ≥ 2 stations, got {n}")
    from scipy.optimize import brentq

    w, m = _stages(mac)

    def tau_of_p(p: float) -> float:
        if p >= 0.5:
            # closed form's (1-2p) pole; evaluate limit-safe expression
            p = min(p, 0.499999)
        num = 2.0 * (1.0 - 2.0 * p)
        den = (1.0 - 2.0 * p) * (w + 1) + p * w * (1.0 - (2.0 * p) ** m)
        return num / den

    def residual(tau: float) -> float:
        p = 1.0 - (1.0 - tau) ** (n - 1)
        return tau - tau_of_p(p)

    tau = float(brentq(residual, 1e-9, 0.999999, xtol=1e-12))
    p = 1.0 - (1.0 - tau) ** (n - 1)
    return tau, p


def timing_for(
    mac: MacConfig, phy: PhyConfig, payload_bytes: int
) -> BianchiTiming:
    """Success/collision slot durations for our frame format.

    Basic access: ``Ts = DIFS + T_DATA + SIFS + T_ACK``, ``Tc = DIFS +
    T_DATA`` (the collider waits out the longest colliding frame).
    Propagation delay is neglected (sub-µs at mesh ranges).
    """
    data_bits = (payload_bytes + 34) * 8  # MAC overhead as on the air
    t_data = phy.preamble_s + data_bits / phy.data_rate_bps
    t_ack = phy.preamble_s + (14 * 8) / phy.basic_rate_bps
    return BianchiTiming(
        slot_s=mac.slot_s,
        success_s=mac.difs_s + t_data + mac.sifs_s + t_ack,
        collision_s=mac.difs_s + t_data + mac.sifs_s + t_ack,
        payload_bits=payload_bytes * 8,
    )


def saturation_throughput_bps(
    n: int,
    mac: MacConfig | None = None,
    phy: PhyConfig | None = None,
    payload_bytes: int = 512,
) -> float:
    """Predicted aggregate saturation throughput (application bits/s).

    ``Tc`` is taken equal to ``Ts`` because our simulated stations, lacking
    NAV-less early abort, also wait out the ACK timeout after a collision —
    matching the simulator rather than Bianchi's slightly shorter
    theoretical ``Tc`` (the difference is ≈ the ACK airtime).

    >>> s2 = saturation_throughput_bps(2)
    >>> s20 = saturation_throughput_bps(20)
    >>> s2 > s20 > 0
    True
    """
    mac = mac or MacConfig()
    phy = phy or PhyConfig()
    t = timing_for(mac, phy, payload_bytes)
    tau, _p = transmission_probability(n, mac)
    p_tr = 1.0 - (1.0 - tau) ** n
    p_s = n * tau * (1.0 - tau) ** (n - 1) / p_tr
    denom = (
        (1.0 - p_tr) * t.slot_s
        + p_tr * p_s * t.success_s
        + p_tr * (1.0 - p_s) * t.collision_s
    )
    return p_s * p_tr * t.payload_bits / denom
