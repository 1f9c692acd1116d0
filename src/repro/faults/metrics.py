"""Resilience metrics: what fault injection does to delivery.

The :class:`ResilienceCollector` watches the same source/sink hooks as
:class:`~repro.metrics.flowstats.FlowStatsCollector` plus the injector's
fault notifications, and turns them into the recovery-oriented metrics
the chaos experiments plot:

* **re-convergence latency** — fault onset → first post-fault delivery
  (any measured flow); how long the network is completely dark;
* **blackout loss** — packets originated inside a fault window (onset →
  clear, overlaps merged) that were never delivered;
* **repair control overhead** — control packets transmitted between a
  fault onset and the first post-fault delivery (route-repair cost);
* **steady-state recovery time** — fault onset → first delivery followed
  by sustained service (the next inter-delivery gaps at most
  ``2.5 / rate_pps``), i.e. when the flow is *really* back, not merely
  leaking single packets through a flapping path.

Every quantity is derived in :meth:`finalize` from raw timestamped
observations, so the collector adds O(1) work per packet during the run
and the summary is a pure function of the observation log — which is what
makes the byte-identical-replay test meaningful.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.traffic.flows import FlowSpec

__all__ = ["FaultEpisode", "ResilienceCollector"]

#: A flow counts as steadily recovered once consecutive deliveries arrive
#: within this multiple of its nominal inter-packet interval.
STEADY_GAP_FACTOR = 2.5

#: Consecutive on-time gaps required to call service sustained.
STEADY_GAPS = 3


@dataclass(slots=True)
class FaultEpisode:
    """One fault onset and the network's response to it."""

    kind: str
    onset_s: float
    key: Any = None
    control_at_onset: float = math.nan
    #: Time of the first delivery (any flow) after the onset; NaN if the
    #: network never delivered again.
    first_rx_s: float = math.nan
    control_at_first_rx: float = math.nan
    #: Filled in by :meth:`ResilienceCollector.finalize`.
    recovery_s: float = math.nan

    @property
    def reconvergence_s(self) -> float:
        """Onset → first post-fault delivery (NaN if never)."""
        return self.first_rx_s - self.onset_s

    @property
    def repair_control(self) -> float:
        """Control packets spent between onset and first delivery."""
        return self.control_at_first_rx - self.control_at_onset

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "key": self.key,
            "onset_s": self.onset_s,
            "reconvergence_s": self.reconvergence_s,
            "repair_control": self.repair_control,
            "recovery_s": self.recovery_s,
        }


def _merged_intervals(
    intervals: Iterable[tuple[float, float]],
) -> list[tuple[float, float]]:
    """Union of possibly-overlapping [start, end) intervals."""
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _in_any(t: float, intervals: list[tuple[float, float]]) -> bool:
    return any(start <= t < end for start, end in intervals)


def _nan_mean(values: list[float]) -> float:
    finite = [v for v in values if not math.isnan(v)]
    return sum(finite) / len(finite) if finite else math.nan


def _nan_max(values: list[float]) -> float:
    finite = [v for v in values if not math.isnan(v)]
    return max(finite) if finite else math.nan


class ResilienceCollector:
    """Fault-aware delivery observer.

    Parameters
    ----------
    flows:
        The scenario's :class:`~repro.traffic.flows.FlowSpec` list; the
        per-flow ``rate_pps`` defines each flow's steady-service gap
        threshold.
    control_counter:
        Zero-arg callable returning the network's cumulative control
        packet count *now*; sampled at fault onsets and at the first
        post-fault delivery to price route repair.  ``None`` disables the
        repair-overhead metric (NaN).
    """

    def __init__(
        self,
        flows: Iterable["FlowSpec"],
        control_counter: Callable[[], float] | None = None,
    ) -> None:
        self._rates = {f.flow_id: f.rate_pps for f in flows}
        self._control_counter = control_counter
        self.episodes: list[FaultEpisode] = []
        self.fault_counts: dict[str, int] = {}
        self._open_windows: dict[tuple[str, Any], float] = {}
        self._windows: list[tuple[float, float]] = []
        self._open_episodes: list[FaultEpisode] = []
        #: flow_id → packet origination times, in order.
        self._sent: dict[int, list[float]] = {}
        #: flow_id → delivery times, in order.
        self._rx: dict[int, list[float]] = {}
        #: (flow_id, seq) of every delivered packet (duplicate guard and
        #: loss attribution) mapped to its origination time.
        self._delivered: dict[tuple[int, int], float] = {}
        self._finalized = False

    # ------------------------------------------------------------------ #
    # Observation hooks (run time)
    # ------------------------------------------------------------------ #
    def on_send(self, packet: "Packet") -> None:
        """Traffic-source hook: one originated packet."""
        if packet.flow_id < 0:
            return
        self._sent.setdefault(packet.flow_id, []).append(packet.created_at)

    def on_receive(self, packet: "Packet", now: float) -> None:
        """Sink hook: one delivered packet at sim time ``now``."""
        if packet.flow_id < 0:
            return
        dedupe = (packet.flow_id, packet.seq)
        if dedupe in self._delivered:
            return
        self._delivered[dedupe] = packet.created_at
        self._rx.setdefault(packet.flow_id, []).append(now)
        if self._open_episodes:
            still_open: list[FaultEpisode] = []
            for ep in self._open_episodes:
                if now >= ep.onset_s:
                    ep.first_rx_s = now
                    if self._control_counter is not None:
                        ep.control_at_first_rx = float(self._control_counter())
                else:  # scheduled-in-the-future onset; keep waiting
                    still_open.append(ep)
            self._open_episodes = still_open

    def on_fault(
        self, kind: str, *, time: float, onset: bool, key: Any = None
    ) -> None:
        """Injector hook: a fault fired (``onset``) or cleared."""
        self.fault_counts[kind] = self.fault_counts.get(kind, 0) + 1
        if onset:
            control = (
                float(self._control_counter())
                if self._control_counter is not None
                else math.nan
            )
            ep = FaultEpisode(
                kind=kind, onset_s=time, key=key, control_at_onset=control
            )
            self.episodes.append(ep)
            self._open_episodes.append(ep)
            self._open_windows[(kind, key)] = time
        else:
            start = self._open_windows.pop((kind, key), None)
            if start is not None:
                self._windows.append((start, time))

    # ------------------------------------------------------------------ #
    # Derived metrics (end of run)
    # ------------------------------------------------------------------ #
    def _flow_recovery(self, rx: list[float], rate_pps: float, onset: float) -> float:
        """First delivery after ``onset`` with sustained service behind it."""
        threshold = STEADY_GAP_FACTOR / rate_pps
        n = len(rx)
        for i, t in enumerate(rx):
            if t < onset:
                continue
            gaps_available = min(STEADY_GAPS, n - 1 - i)
            if gaps_available < 1:
                break  # last delivery: cannot attest sustained service
            if all(rx[i + k + 1] - rx[i + k] <= threshold for k in range(gaps_available)):
                return t - onset
        return math.nan

    def finalize(self, end_s: float) -> None:
        """Close open windows at ``end_s`` and compute recovery times."""
        if self._finalized:
            return
        self._finalized = True
        for (_, _), start in list(self._open_windows.items()):
            self._windows.append((start, end_s))
        self._open_windows.clear()
        for ep in self.episodes:
            recoveries = [
                self._flow_recovery(rx, self._rates.get(fid, 1.0), ep.onset_s)
                for fid, rx in self._rx.items()
            ]
            ep.recovery_s = (
                min(v for v in recoveries if not math.isnan(v))
                if any(not math.isnan(v) for v in recoveries)
                else math.nan
            )

    def blackout_loss(self) -> int:
        """Packets originated inside fault windows and never delivered."""
        windows = _merged_intervals(self._windows)
        if not windows:
            return 0
        delivered_times: dict[int, list[float]] = {}
        for (fid, _), created in self._delivered.items():
            delivered_times.setdefault(fid, []).append(created)
        lost = 0
        for fid, sent in self._sent.items():
            got = sorted(delivered_times.get(fid, []))
            # Multiset subtraction by two-pointer sweep: sent and delivered
            # origination times, both sorted.
            j = 0
            for created in sent:
                if j < len(got) and got[j] == created:
                    j += 1
                    continue
                if _in_any(created, windows):
                    lost += 1
        return lost

    def totals(self) -> dict[str, float]:
        """Flat counters merged into a run's ``ScenarioResult.totals``."""
        reconv = [ep.reconvergence_s for ep in self.episodes]
        return {
            "resilience_faults": float(
                sum(self.fault_counts.values())
            ),
            "resilience_episodes": float(len(self.episodes)),
            "resilience_reconv_mean_s": _nan_mean(reconv),
            "resilience_reconv_max_s": _nan_max(reconv),
            "resilience_blackout_loss": float(self.blackout_loss()),
            "resilience_repair_control": _nan_mean(
                [ep.repair_control for ep in self.episodes]
            ),
            "resilience_recovery_mean_s": _nan_mean(
                [ep.recovery_s for ep in self.episodes]
            ),
            "resilience_unrecovered": float(
                sum(1 for ep in self.episodes if math.isnan(ep.first_rx_s))
            ),
        }

    def summary(self) -> dict[str, Any]:
        """Full structured summary (totals + per-episode detail)."""
        return {
            "fault_counts": dict(sorted(self.fault_counts.items())),
            "episodes": [ep.as_dict() for ep in self.episodes],
            "totals": self.totals(),
        }

    def summary_json(self) -> str:
        """Canonical JSON of :meth:`summary` (replay byte-identity)."""
        return json.dumps(self.summary(), sort_keys=True)
