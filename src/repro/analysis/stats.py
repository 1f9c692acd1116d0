"""Replication statistics: means and Student-t confidence intervals.

Beyond the report-facing :func:`mean_ci`/:func:`summarize`, this module
holds the *sequential* helpers the adaptive campaign scheduler
(:mod:`repro.exec.adaptive`) stops on: :func:`t_critical` (the shared
Student-t quantile) and :func:`sequential_halfwidth` (the conservative
stop-test statistic).

The two families deliberately disagree on ``n = 1``: a report CI prints a
half-width of 0 for a single observation (there is nothing to spread),
while a *stopping rule* must never conclude from one sample — so
``sequential_halfwidth`` returns ``inf`` until two finite values exist.
Zero-variance samples yield a half-width of exactly ``0.0`` in both,
unless :func:`sequential_halfwidth` is given ``trials`` (packets per run
behind a proportion such as PDR): then the per-run variance never falls
below the binomial :func:`proportion_variance_floor`.

scipy is imported inside :func:`t_critical` only, so importing this
module does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ConfidenceInterval",
    "mean_ci",
    "proportion_variance_floor",
    "sequential_halfwidth",
    "summarize",
    "t_critical",
]


@dataclass(frozen=True, slots=True)
class ConfidenceInterval:
    """A sample mean with its symmetric confidence half-width.

    Attributes
    ----------
    mean:
        Sample mean.
    half_width:
        Half-width of the confidence interval (0 for n = 1).
    n:
        Sample size.
    level:
        Confidence level, e.g. 0.95.
    """

    mean: float
    half_width: float
    n: int
    level: float

    @property
    def low(self) -> float:
        """Lower bound."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper bound."""
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.half_width:.2g}"


def t_critical(n: int, level: float = 0.95) -> float:
    """Two-sided Student-t critical value for a sample of size ``n``.

    ``n`` is the sample size (degrees of freedom ``n - 1``); values below 2
    have no defined quantile and raise.
    """
    if n < 2:
        raise ValueError(f"t_critical needs n ≥ 2, got {n}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    from scipy import stats as sps

    return float(sps.t.ppf(0.5 + level / 2.0, df=n - 1))


def _finite(values: Sequence[float]) -> np.ndarray:
    x = np.asarray(list(values), dtype=float)
    return x[~np.isnan(x)]


def proportion_variance_floor(mean: float, trials: float) -> float:
    """Binomial per-run variance ``p̄(1−p̄)/m̄`` of a packet proportion.

    ``mean`` is the sample mean p̄ of the proportion and ``trials`` the
    mean number of packets m̄ behind each value.  p̄ is first kept half a
    packet away from 0 and 1, so a sample in which every packet arrived
    (or none did) still gets a positive floor instead of the zero the
    raw formula gives.  No packets (``trials ≤ 0``) give no floor.
    """
    if trials <= 0.0:
        return 0.0
    edge = 0.5 / trials
    p = min(max(mean, edge), 1.0 - edge)
    return max(p * (1.0 - p), 0.0) / trials


def _sd(x: np.ndarray, trials: float | None) -> float:
    """Sample SD of ``x``, floored at the binomial SD when ``trials`` is given."""
    sd = float(np.std(x, ddof=1))
    if trials is not None:
        sd = max(sd, math.sqrt(proportion_variance_floor(float(np.mean(x)), trials)))
    return sd


def sequential_halfwidth(
    values: Sequence[float], level: float = 0.95, trials: float | None = None,
) -> float:
    """Student-t CI half-width as a *sequential stopping* statistic.

    Degenerate inputs are pinned to the conservative side, because this
    number decides whether a campaign stops buying replicates:

    * fewer than two finite values → ``inf`` (one sample proves nothing;
      NaNs — e.g. delay with zero deliveries — are dropped first);
    * ``trials`` given (the values are packet proportions over ``trials``
      packets per run on average) → the per-run variance is at least
      :func:`proportion_variance_floor`, so agreeing replicates still
      leave a half-width of order ``t·√(p̄(1−p̄)/(m̄·n))``;
    * otherwise zero sample variance → exactly ``0.0``.
    """
    x = _finite(values)
    n = len(x)
    if n < 2:
        return math.inf
    sd = _sd(x, trials)
    if sd == 0.0:
        return 0.0
    return t_critical(n, level) * sd / math.sqrt(n)


def mean_ci(values: Sequence[float], level: float = 0.95) -> ConfidenceInterval:
    """Mean and Student-t confidence interval of ``values``.

    NaNs are dropped (a replication with zero deliveries yields NaN delay).

    >>> ci = mean_ci([1.0, 2.0, 3.0])
    >>> round(ci.mean, 3)
    2.0
    """
    x = _finite(values)
    n = len(x)
    if n == 0:
        return ConfidenceInterval(math.nan, math.nan, 0, level)
    m = float(np.mean(x))
    if n == 1:
        return ConfidenceInterval(m, 0.0, 1, level)
    sem = float(np.std(x, ddof=1)) / math.sqrt(n)
    return ConfidenceInterval(m, t_critical(n, level) * sem, n, level)


def summarize(
    rows: Sequence[dict[str, float]], level: float = 0.95
) -> dict[str, ConfidenceInterval]:
    """Per-key :func:`mean_ci` across a list of result dicts.

    Keys missing from some rows are summarised over the rows that have
    them.
    """
    keys: set[str] = set()
    for r in rows:
        keys |= set(r)
    return {
        k: mean_ci([r[k] for r in rows if k in r], level=level) for k in sorted(keys)
    }
