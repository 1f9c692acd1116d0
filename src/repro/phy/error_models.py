"""SINR → bit/frame error models.

A reception accumulates one or more *(sinr, bits)* segments (interference
changes mid-frame split the frame into segments).  The error model decides,
per segment, the probability that all bits survive; the radio multiplies
segment success probabilities and Bernoulli-samples the outcome.

Three models are provided:

* :class:`SinrThresholdErrorModel` — frame is intact iff every segment's
  SINR clears a threshold.  Deterministic and fast; matches ns-2's default
  PHY abstraction and is the default for the paper-shaped experiments.
* :class:`PskErrorModel` — coherent M-PSK BER via the Q-function
  (``scipy.special.erfc``), e.g. BPSK/QPSK.
* :class:`Dsss11ErrorModel` — 802.11b DSSS/CCK approximations at
  1/2/5.5/11 Mb/s following the standard Pursley–Taipale-style curves used
  in ns-3's ``DsssErrorRateModel``.

``erfc`` is imported where the curves are evaluated: the default
threshold model never needs scipy, so a run does not load it.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "ErrorModel",
    "SinrThresholdErrorModel",
    "PskErrorModel",
    "Dsss11ErrorModel",
]


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = 0.5·erfc(x/√2)."""
    from scipy.special import erfc

    return 0.5 * erfc(x / math.sqrt(2.0))


class ErrorModel(ABC):
    """Maps per-segment SINR to a segment success probability."""

    #: True when the model's frame decision is exactly reproducible from
    #: array ops with **no RNG draw**: success probabilities are always 0
    #: or 1 and the array evaluation is bit-identical to the scalar one.
    #: Only such models are eligible for the batched reception kernel —
    #: curve models (PSK/DSSS) go through libm (``math.exp``/``log1p``)
    #: scalar but SIMD ufuncs vectorised, which may differ in the last ulp
    #: and flip a Bernoulli outcome, so they are *not* flagged.
    exact_vectorized = False

    @abstractmethod
    def segment_success_probability(self, sinr: float, bits: int) -> float:
        """Probability that ``bits`` consecutive bits at linear ``sinr`` are
        all received correctly (in [0, 1])."""

    def segment_success_probability_many(
        self, sinr: np.ndarray, bits: np.ndarray
    ) -> np.ndarray:
        """Vectorised :meth:`segment_success_probability` over aligned
        arrays.  The base implementation loops (models override with real
        array ops); results agree with the scalar method to float64
        round-off, and exactly for ``exact_vectorized`` models."""
        return np.fromiter(
            (
                self.segment_success_probability(float(s), int(b))
                for s, b in zip(sinr, bits)
            ),
            dtype=float,
            count=len(sinr),
        )

    def frame_success_probability(
        self, segments: list[tuple[float, int]]
    ) -> float:
        """Product of segment success probabilities for a whole frame."""
        p = 1.0
        for sinr, bits in segments:
            if bits <= 0:
                continue
            p *= self.segment_success_probability(sinr, bits)
            if p == 0.0:
                break
        return p


class SinrThresholdErrorModel(ErrorModel):
    """All-or-nothing capture threshold.

    Parameters
    ----------
    threshold_db:
        Minimum SINR (dB) at which a segment is received error-free.
        10 dB is the classic ns-2 capture threshold.
    """

    # p ∈ {0, 1} per segment and the frame product reduces to a single
    # min-SINR compare — no RNG ever, so the batched kernel may use it.
    exact_vectorized = True

    def __init__(self, threshold_db: float = 10.0) -> None:
        self.threshold_db = threshold_db
        self._threshold_linear = 10.0 ** (threshold_db / 10.0)

    def segment_success_probability(self, sinr: float, bits: int) -> float:
        return 1.0 if sinr >= self._threshold_linear else 0.0

    def segment_success_probability_many(
        self, sinr: np.ndarray, bits: np.ndarray
    ) -> np.ndarray:
        return (np.asarray(sinr) >= self._threshold_linear).astype(float)

    def frame_ok_many(self, min_sinrs: np.ndarray) -> np.ndarray:
        """Whole-frame outcomes from per-frame minimum SINRs.

        Exactly equivalent to the scalar path: the frame success product
        is 1 iff every closed segment clears the threshold, i.e. iff the
        running ``min_sinr`` does (an empty segment list leaves
        ``min_sinr = inf``, matching the empty product's 1.0).
        """
        return np.asarray(min_sinrs) >= self._threshold_linear


class PskErrorModel(ErrorModel):
    """Coherent M-PSK over AWGN.

    BPSK: ``BER = Q(√(2·SINR))``.  Higher orders use the standard
    nearest-neighbour approximation
    ``BER ≈ (2/log2 M)·Q(√(2·log2 M·SINR)·sin(π/M))``.

    Parameters
    ----------
    bits_per_symbol:
        1 → BPSK, 2 → QPSK, 3 → 8-PSK, ...
    """

    def __init__(self, bits_per_symbol: int = 1) -> None:
        if bits_per_symbol < 1:
            raise ValueError(f"bits_per_symbol must be ≥ 1, got {bits_per_symbol}")
        self.bits_per_symbol = bits_per_symbol

    def bit_error_rate(self, sinr: float) -> float:
        """BER at linear ``sinr``."""
        if sinr <= 0:
            return 0.5
        k = self.bits_per_symbol
        if k == 1:
            return q_function(math.sqrt(2.0 * sinr))
        m = 2**k
        arg = math.sqrt(2.0 * k * sinr) * math.sin(math.pi / m)
        return min(0.5, (2.0 / k) * q_function(arg))

    def segment_success_probability(self, sinr: float, bits: int) -> float:
        ber = self.bit_error_rate(sinr)
        if ber >= 0.5:
            return 0.0 if bits > 8 else (1.0 - ber) ** bits
        # log-space product avoids underflow for long frames
        return math.exp(bits * math.log1p(-ber))

    def segment_success_probability_many(
        self, sinr: np.ndarray, bits: np.ndarray
    ) -> np.ndarray:
        from scipy.special import erfc

        sinr = np.asarray(sinr, dtype=float)
        bits = np.asarray(bits, dtype=float)
        pos = np.maximum(sinr, 0.0)
        k = self.bits_per_symbol
        if k == 1:
            ber = 0.5 * erfc(np.sqrt(2.0 * pos) / math.sqrt(2.0))
        else:
            m = 2**k
            arg = np.sqrt(2.0 * k * pos) * math.sin(math.pi / m)
            ber = np.minimum(0.5, (2.0 / k) * 0.5 * erfc(arg / math.sqrt(2.0)))
        ber = np.where(sinr <= 0, 0.5, ber)
        # numpy's exp/log1p may differ from libm in the last ulp — close
        # enough for curves and benchmarks, but this is why PSK is not
        # exact_vectorized (see ErrorModel.exact_vectorized).
        p = np.exp(bits * np.log1p(-ber))
        return np.where(ber >= 0.5, np.where(bits > 8, 0.0, (1.0 - ber) ** bits), p)


class Dsss11ErrorModel(ErrorModel):
    """IEEE 802.11b DSSS/CCK bit-error approximations.

    Uses the closed-form curves ns-3 adopts:

    * 1 Mb/s DBPSK:  ``BER = Q(√(11·SINR))`` (11-chip Barker spreading gain)
    * 2 Mb/s DQPSK:  ``BER = Q(√(5.5·SINR))``
    * 5.5 / 11 Mb/s CCK: 8-chip CCK approximated with reduced effective
      spreading gain (SINR·8/1.0 and SINR·8/2.0 style scalings), clamped to
      the DQPSK curve at low SINR.

    Parameters
    ----------
    rate_bps:
        One of 1e6, 2e6, 5.5e6, 11e6.
    """

    _GAINS = {1_000_000: 11.0, 2_000_000: 5.5, 5_500_000: 2.0, 11_000_000: 1.0}

    def __init__(self, rate_bps: float = 11e6) -> None:
        key = int(rate_bps)
        if key not in self._GAINS:
            raise ValueError(
                f"rate {rate_bps!r} is not an 802.11b rate "
                f"(choose from {sorted(self._GAINS)})"
            )
        self.rate_bps = float(rate_bps)
        self._gain = self._GAINS[key]

    def bit_error_rate(self, sinr: float) -> float:
        """BER at linear ``sinr`` for the configured rate."""
        if sinr <= 0:
            return 0.5
        return min(0.5, q_function(math.sqrt(2.0 * self._gain * sinr)))

    def segment_success_probability(self, sinr: float, bits: int) -> float:
        ber = self.bit_error_rate(sinr)
        if ber >= 0.5:
            return 0.0 if bits > 8 else (1.0 - ber) ** bits
        return math.exp(bits * math.log1p(-ber))

    def segment_success_probability_many(
        self, sinr: np.ndarray, bits: np.ndarray
    ) -> np.ndarray:
        from scipy.special import erfc

        sinr = np.asarray(sinr, dtype=float)
        bits = np.asarray(bits, dtype=float)
        pos = np.maximum(sinr, 0.0)
        ber = np.minimum(0.5, 0.5 * erfc(np.sqrt(2.0 * self._gain * pos) / math.sqrt(2.0)))
        ber = np.where(sinr <= 0, 0.5, ber)
        p = np.exp(bits * np.log1p(-ber))
        return np.where(ber >= 0.5, np.where(bits > 8, 0.0, (1.0 - ber) ** bits), p)
