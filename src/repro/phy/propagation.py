"""Radio propagation (path-loss) models.

Each model maps ``(tx_power_w, tx_position, rx_positions)`` to received
power in watts.  The many-receiver form is the hot path — one call per
transmission — so it is fully vectorised over a ``(n, 2)`` position array,
per the hpc-parallel guide (vectorise the inner loop, no per-node Python).

Two models, following their ns-2 namesakes:

* :class:`TwoRayGround` — Friis below the crossover distance, fourth-power
  ground-reflection beyond it (the ns-2 WMN default, 250 m reception and
  550 m carrier sense at the ns-2 thresholds).
* :class:`LogNormalShadowing` — wraps any model, adding a per-link *static*
  shadowing term (dB, zero-mean Gaussian) that is deterministic per link so
  a link's quality does not fluctuate packet-to-packet.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from repro.sim.rng import RandomStreams
from repro.sim.units import SPEED_OF_LIGHT

__all__ = [
    "PropagationModel",
    "TwoRayGround",
    "LogNormalShadowing",
]

#: Distances are clamped to this minimum before path-loss evaluation to
#: avoid singularities when two nodes share a position.
MIN_DISTANCE_M = 0.1


def _distances(tx_pos: np.ndarray, rx_pos: np.ndarray) -> np.ndarray:
    """Euclidean distances from one point to an ``(n, 2)`` array, clamped."""
    d = np.hypot(rx_pos[:, 0] - tx_pos[0], rx_pos[:, 1] - tx_pos[1])
    return np.maximum(d, MIN_DISTANCE_M)


def _pair_distances(tx_pos: np.ndarray, rx_pos: np.ndarray) -> np.ndarray:
    """Row-wise distances between aligned ``(n, 2)`` arrays, clamped.

    The same ``hypot``/``maximum`` ufunc chain as :func:`_distances`, so a
    pair's distance is bit-identical whichever form computed it.
    """
    d = np.hypot(rx_pos[:, 0] - tx_pos[:, 0], rx_pos[:, 1] - tx_pos[:, 1])
    return np.maximum(d, MIN_DISTANCE_M)


class PropagationModel(ABC):
    """Deterministic path-loss model interface."""

    @abstractmethod
    def rx_power_many(
        self, tx_power_w: float, tx_pos: np.ndarray, rx_pos: np.ndarray,
        rx_ids: np.ndarray | None = None,
    ) -> np.ndarray:
        """Received power (W) at each row of ``rx_pos`` for a transmitter at
        ``tx_pos`` emitting ``tx_power_w``.

        ``rx_ids`` carries the receiver node ids aligned with ``rx_pos``;
        only shadowing models need it (to key the per-link offset).
        """

    def rx_power_pairs(
        self, tx_power_w: "np.ndarray | float", tx_pos: np.ndarray,
        rx_pos: np.ndarray, tx_ids: np.ndarray | None = None,
        rx_ids: np.ndarray | None = None,
    ) -> np.ndarray:
        """Received power for *aligned* (tx, rx) pairs.

        ``tx_pos`` and ``rx_pos`` are both ``(n, 2)``; row *i* is one
        transmitter→receiver pair (``tx_power_w`` broadcasts).  The
        channel's batched path stacks several transmitters' dispatch
        evaluations into one call this way.

        **Exactness contract:** for the deterministic models this must be
        bit-identical to evaluating :meth:`rx_power_many` per transmitter
        — their overrides use the same elementwise ufunc chains, which
        numpy evaluates per element regardless of how rows are stacked.
        The base implementation loops per pair (correct for any model
        whose result depends only on the pair).
        """
        tx_pos = np.asarray(tx_pos, dtype=float)
        rx_pos = np.asarray(rx_pos, dtype=float)
        n = len(rx_pos)
        power = np.broadcast_to(
            np.asarray(tx_power_w, dtype=float), (n,)
        )
        return np.fromiter(
            (
                self.rx_power_many(
                    float(power[i]),
                    tx_pos[i],
                    rx_pos[i : i + 1],
                    rx_ids=None if rx_ids is None else rx_ids[i : i + 1],
                )[0]
                for i in range(n)
            ),
            dtype=float,
            count=n,
        )

    def rx_power(
        self, tx_power_w: float, tx_pos: np.ndarray, rx_pos: np.ndarray,
        tx_id: int = -1, rx_id: int = -1,
    ) -> float:
        """Scalar convenience wrapper around :meth:`rx_power_many`."""
        out = self.rx_power_many(
            tx_power_w,
            np.asarray(tx_pos, dtype=float),
            np.asarray(rx_pos, dtype=float).reshape(1, 2),
            rx_ids=np.array([rx_id]),
        )
        return float(out[0])

    def range_for(
        self, tx_power_w: float, threshold_w: float, hi: float = 1e5
    ) -> float:
        """Distance at which received power falls to ``threshold_w``.

        Solved by bisection so it works for any monotone model; used to size
        carrier-sense neighbourhoods and validate topologies.
        """
        if threshold_w <= 0:
            raise ValueError("threshold must be positive")
        origin = np.zeros(2)

        def p(d: float) -> float:
            return self.rx_power(tx_power_w, origin, np.array([d, 0.0]))

        lo = MIN_DISTANCE_M
        if p(hi) > threshold_w:
            return hi
        if p(lo) < threshold_w:
            return 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if p(mid) >= threshold_w:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def max_interference_range(
        self, tx_power_w: float, threshold_w: float
    ) -> float:
        """Upper bound on the distance at which a transmission at
        ``tx_power_w`` can still be received above ``threshold_w``.

        This is the *culling contract* used by the channel's spatial index:
        any receiver farther than this distance is guaranteed to see less
        than ``threshold_w`` and may be skipped without evaluating the
        model.  Deterministic monotone models bound it exactly via
        :meth:`range_for`; models that cannot bound their reach (e.g.
        shadowing with unbounded per-link gain) return ``math.inf``, and
        the channel then puts every node in one cell, so each dispatch
        evaluates the whole position table.
        """
        return self.range_for(tx_power_w, threshold_w)


class TwoRayGround(PropagationModel):
    """Two-ray ground reflection model (ns-2's WMN default).

    Friis ``Pr = Pt·Gt·Gr·λ² / ((4πd)²·L)`` up to the crossover distance
    ``dc = 4π·ht·hr/λ``, then ``Pr = Pt·Gt·Gr·ht²·hr² / (d⁴·L)``.

    Parameters
    ----------
    frequency_hz:
        Carrier frequency (default 2.4 GHz ISM).
    antenna_height_m:
        Height of both antennas (ns-2 default 1.5 m).
    tx_gain, rx_gain, system_loss:
        Linear antenna gains and system loss (all default 1.0, as ns-2).
    """

    def __init__(
        self,
        frequency_hz: float = 2.4e9,
        antenna_height_m: float = 1.5,
        tx_gain: float = 1.0,
        rx_gain: float = 1.0,
        system_loss: float = 1.0,
    ) -> None:
        if frequency_hz <= 0:
            raise ValueError(f"frequency must be positive, got {frequency_hz!r}")
        if min(tx_gain, rx_gain, system_loss) <= 0:
            raise ValueError("gains and system loss must be positive")
        if antenna_height_m <= 0:
            raise ValueError(f"antenna height must be positive, got {antenna_height_m!r}")
        self.antenna_height_m = antenna_height_m
        wavelength_m = SPEED_OF_LIGHT / frequency_hz
        self._k2 = (
            tx_gain * rx_gain * wavelength_m**2 / ((4.0 * math.pi) ** 2 * system_loss)
        )
        self.crossover_m = (
            4.0 * math.pi * antenna_height_m * antenna_height_m
        ) / wavelength_m
        self._k4 = (
            tx_gain * rx_gain * antenna_height_m**4 / system_loss
        )

    def rx_power_many(
        self, tx_power_w: float, tx_pos: np.ndarray, rx_pos: np.ndarray,
        rx_ids: np.ndarray | None = None,
    ) -> np.ndarray:
        d = _distances(tx_pos, rx_pos)
        near = tx_power_w * self._k2 / (d * d)
        far = tx_power_w * self._k4 / (d**4)
        return np.where(d < self.crossover_m, near, far)

    def rx_power_pairs(
        self, tx_power_w: "np.ndarray | float", tx_pos: np.ndarray,
        rx_pos: np.ndarray, tx_ids: np.ndarray | None = None,
        rx_ids: np.ndarray | None = None,
    ) -> np.ndarray:
        d = _pair_distances(np.asarray(tx_pos, float), np.asarray(rx_pos, float))
        near = tx_power_w * self._k2 / (d * d)
        far = tx_power_w * self._k4 / (d**4)
        return np.where(d < self.crossover_m, near, far)


class LogNormalShadowing(PropagationModel):
    """Static per-link log-normal shadowing over any base model.

    Each *unordered* node pair gets one zero-mean Gaussian offset (dB),
    drawn deterministically from the run's seed: link quality is stable over
    a run and symmetric, but varies across links — the standard static
    shadowing abstraction for mesh (fixed-node) evaluations.

    Parameters
    ----------
    base:
        Underlying deterministic model.
    sigma_db:
        Standard deviation of the shadowing term in dB.
    streams:
        Run RNG registry (offsets keyed under ``"phy.shadowing"``).
    """

    def __init__(
        self, base: PropagationModel, sigma_db: float, streams: RandomStreams
    ) -> None:
        if sigma_db < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma_db!r}")
        self.base = base
        self.sigma_db = sigma_db
        self._streams = streams
        self._offsets_db: dict[tuple[int, int], float] = {}
        self._tx_id = -1  # set by channel before dispatch

    def set_transmitter(self, tx_id: int) -> None:
        """Record the transmitting node id for the next dispatch."""
        self._tx_id = tx_id

    def max_interference_range(
        self, tx_power_w: float, threshold_w: float
    ) -> float:
        """Shadowing gain is an unbounded Gaussian (in dB), so no finite
        distance guarantees sub-threshold power; report ``inf`` unless the
        model degenerates to its base (``sigma == 0``)."""
        if self.sigma_db == 0.0:
            return self.base.max_interference_range(tx_power_w, threshold_w)
        return math.inf

    def _offset_db(self, a: int, b: int) -> float:
        key = (a, b) if a <= b else (b, a)
        off = self._offsets_db.get(key)
        if off is None:
            gen = self._streams.stream(f"phy.shadowing.{key[0]}.{key[1]}")
            off = float(gen.normal(0.0, self.sigma_db))
            self._offsets_db[key] = off
        return off

    def rx_power_many(
        self, tx_power_w: float, tx_pos: np.ndarray, rx_pos: np.ndarray,
        rx_ids: np.ndarray | None = None,
    ) -> np.ndarray:
        p = np.asarray(
            self.base.rx_power_many(tx_power_w, tx_pos, rx_pos), dtype=float
        ).copy()
        if self.sigma_db == 0.0 or rx_ids is None:
            return p
        offs = np.fromiter(
            (self._offset_db(self._tx_id, int(r)) for r in rx_ids),
            dtype=float,
            count=len(rx_ids),
        )
        p *= 10.0 ** (offs / 10.0)
        return p

    def rx_power_pairs(
        self, tx_power_w: "np.ndarray | float", tx_pos: np.ndarray,
        rx_pos: np.ndarray, tx_ids: np.ndarray | None = None,
        rx_ids: np.ndarray | None = None,
    ) -> np.ndarray:
        # Per-pair transmitter ids replace the set_transmitter() protocol;
        # without both id arrays the shadowing term cannot be keyed, so the
        # channel's batched path falls back to per-transmitter dispatch
        # for this model anyway.
        p = np.asarray(
            self.base.rx_power_pairs(tx_power_w, tx_pos, rx_pos), dtype=float
        ).copy()
        if self.sigma_db == 0.0 or tx_ids is None or rx_ids is None:
            return p
        offs = np.fromiter(
            (
                self._offset_db(int(t), int(r))
                for t, r in zip(tx_ids, rx_ids)
            ),
            dtype=float,
            count=len(rx_ids),
        )
        p *= 10.0 ** (offs / 10.0)
        return p
