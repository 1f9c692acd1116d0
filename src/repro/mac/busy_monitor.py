"""Sliding-window channel-busy-ratio tracker.

The busy ratio — fraction of recent wall-clock time the medium was sensed
busy (own TX, locked RX, or energy above the carrier-sense threshold) — is
the cross-layer signal that distinguishes *neighbourhood* congestion from
own-queue congestion: a node with an empty queue parked next to a busy
gateway still reports a high busy ratio.

The monitor is fed busy/idle *transitions* (from the radio's CCA callback
chain) and answers ``busy_ratio()`` over a configurable trailing window,
pruning intervals that age out.  A running cumulative busy-time sum is
maintained on every transition/prune, so a query costs O(intervals pruned)
rather than re-summing the whole window — ``busy_ratio()`` is called per
HELLO beacon and per NLR forwarding decision, making it a hot path in
dense networks.
"""

from __future__ import annotations

from collections import deque

from repro.sim.engine import Simulator

__all__ = ["BusyMonitor"]


class BusyMonitor:
    """Tracks the fraction of time the medium was busy over a window.

    Parameters
    ----------
    sim:
        Simulator, for timestamps.
    window_s:
        Trailing window length (seconds).  The group's cross-layer papers
        use ~1 s windows so the signal tracks offered-load changes quickly
        without chattering per-frame.
    """

    def __init__(self, sim: Simulator, window_s: float = 1.0) -> None:
        if window_s <= 0:
            raise ValueError(f"window must be positive, got {window_s!r}")
        self.sim = sim
        self.window_s = window_s
        self._intervals: deque[tuple[float, float]] = deque()
        self._busy_sum = 0.0  # total length of intervals in the deque
        self._busy_since: float | None = None
        self._created = sim.now

    def on_medium_state(self, busy: bool) -> None:
        """Feed a busy/idle transition (idempotent on repeats)."""
        now = self.sim.now
        since = self._busy_since
        if busy:
            if since is None:
                self._busy_since = now
        elif since is not None:
            if now > since:
                self._intervals.append((since, now))
                self._busy_sum += now - since
            self._busy_since = None
        # Fed on every carrier-sense flip: prune only once the oldest
        # interval has aged out (the same test _prune loops on).
        intervals = self._intervals
        if intervals and intervals[0][1] <= now - self.window_s:
            self._prune(now)

    def _prune(self, now: float) -> None:
        horizon = now - self.window_s
        while self._intervals and self._intervals[0][1] <= horizon:
            start, end = self._intervals.popleft()
            self._busy_sum -= end - start

    def busy_ratio(self) -> float:
        """Busy fraction over the trailing window, in [0, 1]."""
        now = self.sim.now
        self._prune(now)
        horizon = now - self.window_s
        busy = self._busy_sum
        if self._intervals:
            # Intervals are disjoint and time-ordered, so after pruning at
            # most the oldest one can straddle the horizon; clip just it.
            start0 = self._intervals[0][0]
            if start0 < horizon:
                busy -= horizon - start0
        if self._busy_since is not None:
            busy += now - max(self._busy_since, horizon)
        # Early in the run the window extends before t=created; normalise
        # by the observed span so start-up does not read artificially idle.
        span = min(self.window_s, max(now - self._created, 1e-12))
        return min(1.0, max(0.0, busy / span))

    @property
    def currently_busy(self) -> bool:
        """True if the last transition reported busy."""
        return self._busy_since is not None
