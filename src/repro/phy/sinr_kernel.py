"""Vectorised capture decision kernel (batched reception path).

When the channel fans one transmission out to N receivers as a block event
(DESIGN.md §8), every receiver faces the same branch structure at
``rx_start``: lock / capture / reseed / ignore.  This module evaluates that
decision across all N receivers with array ops instead of N Python branch
chains.  The end-of-frame decision needs no kernel: it is one float
compare per radio (``min_sinr >= SINR_THRESHOLD``), made in the block
handler's per-radio pass.

The function here is *pure*: it reads snapshots of per-radio state and
returns decisions, mutating nothing.  :mod:`repro.phy.radio`'s block
handlers apply the decisions per-receiver afterwards, in receiver order,
so the observable effect sequence (traces, callbacks) is exactly the
scalar loop's.

Exactness: every operation is an elementwise float64 compare or multiply
— numpy evaluates these bit-identically to the equivalent scalar Python
expression, so the decisions can never diverge from ``Radio.on_rx_start``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ACT_NONE",
    "ACT_LOCK",
    "ACT_CAPTURE",
    "ACT_RESEED",
    "ST_IDLE",
    "ST_RX",
    "ST_TX",
    "capture_actions",
]

# Per-receiver rx_start actions (mirror Radio.on_rx_start's branches).
ACT_NONE = 0     # pure interference (TX state, or IDLE below threshold)
ACT_LOCK = 1     # IDLE radio locks onto the frame
ACT_CAPTURE = 2  # stronger late arrival steals the lock from the current frame
ACT_RESEED = 3   # locked radio closes its SINR segment and re-seeds

# Radio state codes (RadioState → int snapshot).
ST_IDLE = 0
ST_RX = 1
ST_TX = 2


def capture_actions(
    powers: np.ndarray,
    states: np.ndarray,
    cur_powers: np.ndarray,
    rx_threshold_w: np.ndarray | float,
    capture_ratio: np.ndarray | float,
    capture_enabled: np.ndarray | bool,
) -> np.ndarray:
    """Per-receiver ``rx_start`` action codes for one arriving frame.

    Parameters
    ----------
    powers:
        Received power of the arriving frame at each radio (W).
    states:
        Radio state codes (``ST_IDLE`` / ``ST_RX`` / ``ST_TX``).
    cur_powers:
        For radios in RX, the locked frame's received power; any value
        (conventionally ``inf``) for the rest — those rows are never read
        through the capture compare's result.
    rx_threshold_w, capture_ratio, capture_enabled:
        Per-radio PHY parameters (scalars broadcast).

    Exactly reproduces, row by row, the branch structure of
    :meth:`repro.phy.radio.Radio.on_rx_start`:

    * IDLE and ``power >= rx_threshold_w`` → ``ACT_LOCK``
    * RX and capture enabled and ``power >= rx_threshold_w`` and
      ``power >= cur_power * capture_ratio`` → ``ACT_CAPTURE``
    * RX otherwise → ``ACT_RESEED``
    * TX (or IDLE below threshold) → ``ACT_NONE``
    """
    powers = np.asarray(powers, dtype=float)
    states = np.asarray(states)
    cur_powers = np.asarray(cur_powers, dtype=float)
    strong = powers >= rx_threshold_w
    actions = np.zeros(len(powers), dtype=np.int8)
    actions[(states == ST_IDLE) & strong] = ACT_LOCK
    rx = states == ST_RX
    # Same multiply-then-compare the scalar path performs; elementwise
    # float64, so the outcome can never differ from the scalar branch.
    cap = rx & capture_enabled & strong & (powers >= cur_powers * capture_ratio)
    actions[cap] = ACT_CAPTURE
    actions[rx & ~cap] = ACT_RESEED
    return actions

