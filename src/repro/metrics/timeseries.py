"""Re-binning of time series onto fixed-width bins.

:func:`bin_series` regrids any ``(times, values)`` pair — sampled series,
trace event streams — onto fixed-width bins for plotting and rate
computation (``repro-trace timeline`` is built on it).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["bin_series"]


def bin_series(
    times: Sequence[float],
    values: Sequence[float] | None = None,
    bin_s: float = 1.0,
    t0: float | None = None,
    t1: float | None = None,
    agg: str = "mean",
) -> tuple[list[float], list[float]]:
    """Regrid ``(times, values)`` onto fixed ``bin_s``-wide bins.

    Parameters
    ----------
    times:
        Sample timestamps (need not be sorted).
    values:
        Sample values; omit (``None``) to bin pure event streams — every
        event then counts 1 (use ``agg="count"`` or ``"sum"``).
    bin_s:
        Bin width in seconds (> 0).
    t0, t1:
        Range to cover; default spans the data.  Samples outside are
        ignored.  ``t1`` is exclusive except that a sample exactly at
        ``t1`` lands in the last bin (closed right edge, matching the
        engine's ``run(until=...)`` convention).
    agg:
        ``"mean"`` (empty bins → NaN), ``"sum"``, or ``"count"``
        (empty bins → 0).

    Returns
    -------
    (centers, binned):
        Bin-center timestamps and the aggregated values, one per bin.
        Empty input (or an empty range) yields ``([], [])``.

    Examples
    --------
    >>> bin_series([0.1, 0.4, 1.2], bin_s=1.0, agg="count")
    ([0.6, 1.6], [2.0, 1.0])
    """
    if bin_s <= 0:
        raise ValueError(f"bin_s must be positive, got {bin_s!r}")
    if agg not in ("mean", "sum", "count"):
        raise ValueError(f"agg must be mean/sum/count, got {agg!r}")
    t = np.asarray(times, dtype=float)
    if values is None:
        v = np.ones_like(t)
    else:
        if len(values) != len(t):
            raise ValueError(
                f"{len(t)} times but {len(values)} values"
            )
        v = np.asarray(values, dtype=float)
    lo = float(t.min()) if t0 is None and t.size else (t0 or 0.0)
    hi = float(t.max()) if t1 is None and t.size else (t1 or 0.0)
    if t.size == 0 and (t0 is None or t1 is None):
        return [], []
    if hi <= lo:
        hi = lo + bin_s  # degenerate range: one bin covering it
    n_bins = int(np.ceil((hi - lo) / bin_s))
    keep = (t >= lo) & (t <= hi)
    t, v = t[keep], v[keep]
    idx = np.minimum(((t - lo) / bin_s).astype(int), n_bins - 1)
    sums = np.bincount(idx, weights=v, minlength=n_bins)
    counts = np.bincount(idx, minlength=n_bins)
    if agg == "count":
        binned = counts.astype(float)
    elif agg == "sum":
        binned = sums
    else:
        with np.errstate(invalid="ignore"):
            binned = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    centers = lo + (np.arange(n_bins) + 0.5) * bin_s
    return centers.tolist(), binned.tolist()

