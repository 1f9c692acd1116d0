"""Per-node radio state machine with SINR-segmented reception.

The radio is half-duplex with three states (IDLE/RX/TX).  Reception follows
the ns-2/ns-3 "lock + interference accumulation" abstraction:

* An arriving signal whose power clears ``rx_threshold_w`` while the radio
  is IDLE *locks* the radio onto it; every other impinging signal only adds
  interference power.
* Whenever the interference level changes during a locked reception, the
  current SINR *segment* is closed and a new one opened, and the frame's
  running minimum SINR is updated.  At the end of the frame the one
  reception rule applies: the frame is decoded iff its minimum SINR is at
  least :data:`SINR_THRESHOLD` (10 dB, the ns-2 threshold), so reception
  is deterministic and draws no random numbers.
* An optional *capture* rule lets a sufficiently stronger late arrival
  steal the lock (the old frame is marked corrupted), modelling preamble
  capture — without it, the classic 802.11 hidden-terminal collision
  destroys both frames.

Carrier sense (CCA) is energy-based: the medium is busy whenever the radio
is transmitting, receiving, or the total impinging power clears
``cs_threshold_w``.  State transitions are pushed to the MAC through the
``cca_callback`` so the MAC never polls.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.phy import sinr_kernel
from repro.phy.frame import PhyFrame, RxInfo
from repro.sim.engine import Simulator
from repro.sim.errors import SimulationError
from repro.sim.trace import Tracer

__all__ = [
    "SINR_THRESHOLD",
    "PhyConfig",
    "Radio",
    "RadioState",
    "rx_start_block",
    "rx_end_block",
]

#: Minimum SINR (linear ratio) over a frame for it to be decoded: 10 dB,
#: the ns-2 threshold.
SINR_THRESHOLD = 10.0


class RadioState(enum.Enum):
    """Half-duplex radio states."""

    IDLE = "idle"
    RX = "rx"
    TX = "tx"


@dataclass(slots=True)
class PhyConfig:
    """PHY parameters (ns-2 802.11b two-ray defaults).

    The threshold trio reproduces ns-2's canonical 250 m transmission /
    550 m carrier-sense ranges under :class:`~repro.phy.propagation.TwoRayGround`
    with 1.5 m antennas.
    """

    #: Transmit power in watts (ns-2 default 0.28183815 W ≈ 24.5 dBm).
    tx_power_w: float = 0.28183815
    #: Minimum power to lock onto a frame (ns-2 RXThresh, ≈250 m).
    rx_threshold_w: float = 3.652e-10
    #: Energy-detection carrier-sense threshold (ns-2 CSThresh, ≈550 m).
    cs_threshold_w: float = 1.559e-11
    #: Receiver noise floor in watts (thermal + noise figure).
    noise_floor_w: float = 8.8e-13
    #: Payload data rate for unicast data frames.
    data_rate_bps: float = 11e6
    #: Base rate for broadcast/control frames and PLCP.
    basic_rate_bps: float = 2e6
    #: PLCP preamble + header airtime (802.11b long preamble).
    preamble_s: float = 192e-6
    #: Linear power ratio a late frame needs over the locked frame to
    #: capture the receiver (10 dB, ns-2 convention).
    capture_ratio: float = 10.0
    #: Enable the capture rule at all.
    capture_enabled: bool = True

    def __post_init__(self) -> None:
        # Checked here, not first inside a run: a DSE point or campaign
        # cell with a bad value fails before it reaches a worker.
        for name in (
            "tx_power_w", "rx_threshold_w", "cs_threshold_w", "noise_floor_w",
            "data_rate_bps", "basic_rate_bps",
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not (math.isfinite(self.preamble_s) and self.preamble_s >= 0):
            raise ValueError(
                f"preamble_s must be non-negative and finite, got {self.preamble_s!r}"
            )
        if self.cs_threshold_w > self.rx_threshold_w:
            raise ValueError(
                "carrier-sense threshold must not exceed the rx threshold "
                f"(cs={self.cs_threshold_w!r} > rx={self.rx_threshold_w!r})"
            )
        if not self.capture_ratio >= 1.0:
            raise ValueError("capture ratio must be ≥ 1 (linear)")


@dataclass(slots=True)
class _Reception:
    """Book-keeping for the frame currently locked onto."""

    frame: PhyFrame
    rx_power_w: float
    start: float
    segment_start: float = 0.0
    interference_w: float = 0.0
    corrupted: bool = False
    min_sinr: float = float("inf")


class Radio:
    """One node's PHY.

    Parameters
    ----------
    sim:
        Event engine.
    node_id:
        Owning node id (also the index into the channel position table).
    config:
        PHY parameters.
    tracer:
        Optional tracer (category ``"phy"``).

    Upward interface (set by the MAC):

    * ``rx_callback(payload, rx_info)`` — successfully decoded frame.
    * ``cca_callback(busy)`` — medium busy/idle transitions.
    * ``tx_done_callback()`` — own transmission completed.
    """

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        config: PhyConfig,
        tracer: Tracer | None = None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.config = config
        self.tracer = tracer if tracer is not None else Tracer()
        self.channel: Any = None  # set by Channel.register

        self.state = RadioState.IDLE
        self._state_code = sinr_kernel.ST_IDLE  # int mirror for batched gathers
        self.powered = True
        self._arriving: dict[int, tuple[PhyFrame, float]] = {}
        # Frames whose rx_end must be ignored because the radio was off at
        # (or went off after) their rx_start.
        self._ignore_rx_end: set[int] = set()
        self._impinging_w = 0.0
        self._current: _Reception | None = None
        self._tx_frame: PhyFrame | None = None
        self._tx_end_handle: Any = None
        self._cca_busy = False

        self.rx_callback: Callable[[Any, RxInfo], None] | None = None
        self.cca_callback: Callable[[bool], None] | None = None
        self.tx_done_callback: Callable[[], None] | None = None
        #: Called when a power-off tears down an in-flight transmission
        #: (``tx_done_callback`` will never fire for that frame).
        self.tx_abort_callback: Callable[[], None] | None = None
        #: Observer of radio state transitions (energy metering); called
        #: with the new state after each change.
        self.state_listener: Callable[[RadioState], None] | None = None

        # Statistics.
        self.frames_sent = 0
        self.frames_received = 0
        self.frames_corrupted = 0
        self.frames_captured = 0

    def _set_state(self, new_state: RadioState) -> None:
        if new_state is self.state:
            return
        self.state = new_state
        self._state_code = _STATE_CODE[new_state]
        if self.state_listener is not None:
            self.state_listener(new_state)

    # ------------------------------------------------------------------ #
    # Carrier sense
    # ------------------------------------------------------------------ #
    @property
    def cca_busy(self) -> bool:
        """True when the medium is busy from this radio's viewpoint."""
        return (
            self.state is not RadioState.IDLE
            or self._impinging_w >= self.config.cs_threshold_w
        )

    def _update_cca(self) -> None:
        busy = self.cca_busy
        if busy != self._cca_busy:
            self._cca_busy = busy
            if self.cca_callback is not None:
                self.cca_callback(busy)

    # ------------------------------------------------------------------ #
    # Transmit path
    # ------------------------------------------------------------------ #
    def set_power_state(self, on: bool) -> None:
        """Power the radio on/off (failure injection).

        Powering off aborts any in-progress reception *and* transmission,
        clears impinging signal tracking, and makes the radio deaf and
        mute: arriving signals are ignored and :meth:`transmit` raises.
        A torn-down transmission cancels its pending ``tx_end`` event (so
        it can never complete a later frame early) and reports through
        ``tx_abort_callback`` — ``tx_done_callback`` will not fire.
        Receivers still hear the truncated energy the channel already
        scheduled; their receptions fail through the normal SINR path.
        Powering back on restores a clean IDLE radio (frames already in
        flight toward it were lost — their ``rx_end`` events are ignored
        as unknown).
        """
        if on == self.powered:
            return
        self.powered = on
        ch = self.channel
        if ch is not None:
            # Keep the channel's unpowered-radio set current so the block
            # handlers' all-powered fast check stays O(1).
            if on:
                ch._unpowered.discard(self.node_id)
            else:
                ch._unpowered.add(self.node_id)
        if not on:
            if self._current is not None:
                self._abort_current("powered_off")
            tx_aborted = self._tx_frame is not None
            if tx_aborted:
                self.tracer.record(
                    self.sim.now, "phy", self.node_id, "tx_abort",
                    uid=self._tx_frame.uid, reason="powered_off",
                )
                self._tx_frame = None
                if self._tx_end_handle is not None:
                    if not self._tx_end_handle.expired:
                        self._tx_end_handle.cancel()
                    self._tx_end_handle = None
            self._set_state(RadioState.IDLE)
            self._ignore_rx_end.update(self._arriving)
            self._arriving.clear()
            self._impinging_w = 0.0
            self._update_cca()
            if tx_aborted and self.tx_abort_callback is not None:
                self.tx_abort_callback()
        self.tracer.record(
            self.sim.now, "phy", self.node_id,
            "power_on" if on else "power_off",
        )

    def transmit(self, frame: PhyFrame) -> None:
        """Put ``frame`` on the air.  Aborts any in-progress reception
        (half-duplex: transmitting deafens the receiver)."""
        if not self.powered:
            raise SimulationError(f"radio {self.node_id} is powered off")
        if self.channel is None:
            raise SimulationError(f"radio {self.node_id} not attached to a channel")
        if self.state is RadioState.TX:
            raise SimulationError(
                f"radio {self.node_id} asked to transmit while already transmitting"
            )
        if self._current is not None:
            self._abort_current("tx_preempt")
        self._set_state(RadioState.TX)
        self._tx_frame = frame
        self.frames_sent += 1
        self.tracer.record(
            self.sim.now, "phy", self.node_id, "tx_start",
            uid=frame.uid, bits=frame.bits, dur=frame.duration_s,
        )
        self.channel.transmit(self.node_id, frame)
        self._tx_end_handle = self.sim.schedule_in(frame.duration_s, self._tx_end)
        self._update_cca()

    def _tx_end(self) -> None:
        self._tx_end_handle = None
        if self._tx_frame is None:
            return  # transmission was torn down (power-off) mid-air
        self.tracer.record(
            self.sim.now, "phy", self.node_id, "tx_end",
            uid=self._tx_frame.uid,
        )
        self._tx_frame = None
        self._set_state(RadioState.IDLE)
        self._update_cca()
        if self.tx_done_callback is not None:
            self.tx_done_callback()

    # ------------------------------------------------------------------ #
    # Receive path (called by the channel)
    # ------------------------------------------------------------------ #
    def on_rx_start(self, frame: PhyFrame, rx_power_w: float) -> None:
        """A signal begins impinging on the antenna."""
        if not self.powered:
            self._ignore_rx_end.add(frame.uid)
            return
        self._arriving[frame.uid] = (frame, rx_power_w)
        self._impinging_w += rx_power_w

        if self.state is RadioState.IDLE:
            if rx_power_w >= self.config.rx_threshold_w:
                self._lock(frame, rx_power_w)
        elif self.state is RadioState.RX:
            cur = self._current
            assert cur is not None
            if (
                self.config.capture_enabled
                and rx_power_w >= self.config.rx_threshold_w
                and rx_power_w >= cur.rx_power_w * self.config.capture_ratio
            ):
                self.frames_captured += 1
                self._abort_current("captured")
                self._lock(frame, rx_power_w)
            else:
                self._reseed_segment()
        # TX state: pure interference; power already accumulated.
        self._update_cca()

    def on_rx_end(self, frame: PhyFrame) -> None:
        """A signal stops impinging on the antenna."""
        if frame.uid in self._ignore_rx_end:
            self._ignore_rx_end.discard(frame.uid)
            return
        entry = self._arriving.pop(frame.uid, None)
        if entry is None:  # pragma: no cover - channel/radio invariant
            raise SimulationError(
                f"radio {self.node_id}: rx_end for unknown frame {frame.uid}"
            )
        _, rx_power_w = entry
        self._impinging_w = max(0.0, self._impinging_w - rx_power_w)

        cur = self._current
        if cur is not None and cur.frame.uid == frame.uid:
            self._finish_current(rx_power_w)
        elif cur is not None:
            self._reseed_segment()
        self._update_cca()

    # ------------------------------------------------------------------ #
    # Reception internals
    # ------------------------------------------------------------------ #
    def _lock(self, frame: PhyFrame, rx_power_w: float) -> None:
        self._set_state(RadioState.RX)
        self._current = _Reception(
            frame=frame,
            rx_power_w=rx_power_w,
            start=self.sim.now,
            segment_start=self.sim.now,
            interference_w=self._impinging_w - rx_power_w,
        )
        self.tracer.record(
            self.sim.now, "phy", self.node_id, "rx_lock",
            uid=frame.uid, power=rx_power_w,
        )

    def _close_segment(self, cur: _Reception) -> None:
        dt = self.sim.now - cur.segment_start
        if dt > 0:
            sinr = cur.rx_power_w / (cur.interference_w + self.config.noise_floor_w)
            cur.min_sinr = min(cur.min_sinr, sinr)
        cur.segment_start = self.sim.now

    def _reseed_segment(self) -> None:
        cur = self._current
        assert cur is not None
        self._close_segment(cur)
        cur.interference_w = self._impinging_w - cur.rx_power_w

    def _abort_current(self, reason: str) -> None:
        cur = self._current
        assert cur is not None
        self.frames_corrupted += 1
        self.tracer.record(
            self.sim.now, "phy", self.node_id, "rx_abort",
            uid=cur.frame.uid, reason=reason,
        )
        self._current = None
        if self.state is RadioState.RX:
            self._set_state(RadioState.IDLE)

    def _finish_current(self, rx_power_w: float) -> None:
        cur = self._current
        assert cur is not None
        self._close_segment(cur)
        self._current = None
        self._set_state(RadioState.IDLE)
        self._deliver(cur, rx_power_w)

    def _deliver(self, cur: _Reception, rx_power_w: float) -> None:
        """Decide a completed reception and apply its effects (stats,
        trace, upcall).

        Split from :meth:`_finish_current` so the batched ``rx_end`` block
        handler runs the decision and the observable effects through the
        one shared code path.
        """
        if cur.min_sinr >= SINR_THRESHOLD:
            self.frames_received += 1
            info = RxInfo(
                rx_power_w=rx_power_w,
                min_sinr=cur.min_sinr,
                start_time=cur.start,
                end_time=self.sim.now,
                tx_node=cur.frame.tx_node,
            )
            self.tracer.record(
                self.sim.now, "phy", self.node_id, "rx_ok",
                uid=cur.frame.uid, sinr=cur.min_sinr,
            )
            if self.rx_callback is not None:
                self.rx_callback(cur.frame.payload, info)
        else:
            self.frames_corrupted += 1
            self.tracer.record(
                self.sim.now, "phy", self.node_id, "rx_error",
                uid=cur.frame.uid, sinr=cur.min_sinr,
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Radio(node={self.node_id}, state={self.state.value}, "
            f"impinging={self._impinging_w:.3e} W)"
        )


# ---------------------------------------------------------------------- #
# Batched reception: block-event handlers (DESIGN.md §8)
# ---------------------------------------------------------------------- #
# The channel's batched path schedules one block event per (frame, delay
# group) instead of one event per receiver; these module-level handlers
# process all the group's radios in one call.  Decisions that the scalar
# path makes per-radio are evaluated through the array kernel
# (:mod:`repro.phy.sinr_kernel`); effects are then applied per radio *in
# receiver order*, so traces, callbacks and schedules happen in exactly the
# scalar sequence.  Correctness of the two-pass split rests on
# one repo-wide invariant: no radio/MAC callback synchronously touches
# another node's radio — cross-node interaction always goes through newly
# scheduled events.

#: RadioState → :mod:`~repro.phy.sinr_kernel` state code.
_STATE_CODE = {
    RadioState.IDLE: sinr_kernel.ST_IDLE,
    RadioState.RX: sinr_kernel.ST_RX,
    RadioState.TX: sinr_kernel.ST_TX,
}

#: Below this many receivers the array set-up costs more than it saves and
#: the block handlers run the plain per-radio loop instead.
_MIN_VECTOR = 4

_INF = float("inf")


def _group_constants(receivers: list[Radio]) -> dict:
    """Per-radio constants for one receiver group, gathered once.

    Everything here is fixed at construction time — per-radio
    :class:`PhyConfig` thresholds are never mutated mid-run anywhere in the
    repo (failure injection toggles ``powered``, not thresholds) — so the
    channel caches this dict alongside the delay group and the block
    handlers skip re-gathering it on every slot.
    """
    n = len(receivers)
    return {
        "thr": np.fromiter(
            (r.config.rx_threshold_w for r in receivers), dtype=float, count=n
        ),
        "ratio": np.fromiter(
            (r.config.capture_ratio for r in receivers), dtype=float, count=n
        ),
        "cap_en": np.fromiter(
            (r.config.capture_enabled for r in receivers), dtype=bool, count=n
        ),
        # Python-float list: read per radio in the inlined CCA check.
        "cs_thr": [r.config.cs_threshold_w for r in receivers],
    }


def rx_start_block(
    receivers: list[Radio],
    frame: PhyFrame,
    powers: list[float],
    cache: dict | None = None,
) -> None:
    """One frame's signal begins impinging on a group of radios at once.

    Byte-identical to calling ``radio.on_rx_start(frame, power)`` over the
    group in order: the lock/capture/reseed decision for each radio reads
    only that radio's own pre-block state, so evaluating all decisions
    up front from a state snapshot cannot change any of them.  The CCA
    update is inlined (same computation as :meth:`Radio._update_cca`;
    skipping the call when the busy flag cannot have changed is
    unobservable).

    ``cache`` is the channel's per-group slot for :func:`_group_constants`
    (populated lazily on first use); direct callers may omit it.
    """
    n = len(receivers)
    # The channel's unpowered-radio set makes the common all-powered case
    # an O(1) check; channel-less radios (direct calls) get the full scan.
    ch = receivers[0].channel
    powered_ok = (
        not ch._unpowered
        if ch is not None
        else all(r.powered for r in receivers)
    )
    if n < _MIN_VECTOR or not powered_ok:
        # Rare shapes (tiny groups, powered-off members) go through the
        # scalar method — which *is* the reference semantics.
        for k in range(n):
            receivers[k].on_rx_start(frame, powers[k])
        return
    if cache is None:
        cache = {}
    consts = cache.get("consts")
    if consts is None:
        consts = cache["consts"] = _group_constants(receivers)
    cs_thr = consts["cs_thr"]
    uid = frame.uid
    states = np.fromiter(
        (r._state_code for r in receivers), dtype=np.int8, count=n
    )
    if not states.any():
        # Every radio IDLE — the saturated-slot common case (a fresh frame
        # arriving between receptions).  The action vector is then the
        # group-constant threshold mask: lock iff the frame is strong.
        actions = consts.get("idle_actions")
        if actions is None:
            strong = np.asarray(powers, dtype=float) >= consts["thr"]
            actions = consts["idle_actions"] = np.where(
                strong, sinr_kernel.ACT_LOCK, sinr_kernel.ACT_NONE
            ).tolist()
        for k in range(n):
            r = receivers[k]
            p = powers[k]  # Python float from the plan list, as scalar path
            r._arriving[uid] = (frame, p)
            imp = r._impinging_w + p
            r._impinging_w = imp
            if actions[k]:
                r._lock(frame, p)
                busy = True  # locking leaves the radio in RX → CCA busy
            else:
                busy = imp >= cs_thr[k]
            if busy != r._cca_busy:
                r._cca_busy = busy
                cb = r.cca_callback
                if cb is not None:
                    cb(busy)
        return
    cur_powers = np.fromiter(
        (
            r._current.rx_power_w if r._current is not None else _INF
            for r in receivers
        ),
        dtype=float,
        count=n,
    )
    actions = sinr_kernel.capture_actions(
        powers, states, cur_powers,
        consts["thr"], consts["ratio"], consts["cap_en"],
    ).tolist()
    nonidle = (states != sinr_kernel.ST_IDLE).tolist()
    for k in range(n):
        r = receivers[k]
        p = powers[k]  # Python float from the plan list, as scalar path
        r._arriving[uid] = (frame, p)
        imp = r._impinging_w + p
        r._impinging_w = imp
        a = actions[k]
        if a:
            if a == sinr_kernel.ACT_LOCK:
                r._lock(frame, p)
            elif a == sinr_kernel.ACT_RESEED:
                r._reseed_segment()
            else:
                r.frames_captured += 1
                r._abort_current("captured")
                r._lock(frame, p)
            # Every non-NONE action leaves the radio in RX → CCA busy.
            busy = True
        else:
            # NONE = TX interference, or IDLE below the rx threshold;
            # neither changes state, so busy is decided by energy alone.
            busy = nonidle[k] or imp >= cs_thr[k]
        if busy != r._cca_busy:
            r._cca_busy = busy
            cb = r.cca_callback
            if cb is not None:
                cb(busy)


def rx_end_block(
    receivers: list[Radio], frame: PhyFrame, cache: dict | None = None
) -> None:
    """One frame's signal stops impinging on a group of radios at once.

    Two passes: pass 1 performs each radio's pure bookkeeping (arrival
    tables, impinging power, SINR segment closure) — verified free of
    observable effects — and pass 2 decides each finished frame and
    applies the observable effects (state change, stats, traces,
    callbacks, CCA) per radio in receiver order, exactly as the scalar
    sequence interleaves them.
    """
    if cache is None:
        cache = {}
    consts = cache.get("consts")
    if consts is None:
        consts = cache["consts"] = _group_constants(receivers)
    cs_thr = consts["cs_thr"]
    uid = frame.uid
    n = len(receivers)
    # Pass 1: pure bookkeeping, in receiver order.  ``fin`` maps group
    # index → (finished reception, rx power); ``skipped`` holds indices of
    # radios ignoring this frame (powered off at its rx_start) — the
    # scalar path returns before _update_cca for those.
    fin: dict[int, tuple[_Reception, float]] = {}
    skipped: set[int] | None = None
    for k in range(n):
        r = receivers[k]
        if uid in r._ignore_rx_end:
            r._ignore_rx_end.discard(uid)
            if skipped is None:
                skipped = set()
            skipped.add(k)
            continue
        entry = r._arriving.pop(uid, None)
        if entry is None:  # pragma: no cover - channel/radio invariant
            raise SimulationError(
                f"radio {r.node_id}: rx_end for unknown frame {uid}"
            )
        rx_power_w = entry[1]
        # Same value as the scalar path's max(0.0, ...) — max() returns
        # +0.0 for both the 0.0 and -0.0 cases, as does this conditional.
        imp = r._impinging_w - rx_power_w
        r._impinging_w = imp if imp > 0.0 else 0.0
        cur = r._current
        if cur is not None:
            if cur.frame.uid == uid:
                r._close_segment(cur)
                r._current = None
                fin[k] = (cur, rx_power_w)
            else:
                r._reseed_segment()

    # Pass 2: observable effects, in receiver order.
    idle_state = RadioState.IDLE
    get_fin = fin.get
    for k in range(n):
        if skipped is not None and k in skipped:
            continue
        r = receivers[k]
        e = get_fin(k)
        if e is not None:
            cur, rx_power_w = e
            r._set_state(idle_state)
            r._deliver(cur, rx_power_w)
        # Inlined Radio._update_cca (same computation; skipping the call
        # when the flag cannot change is unobservable).
        busy = r.state is not idle_state or r._impinging_w >= cs_thr[k]
        if busy != r._cca_busy:
            r._cca_busy = busy
            cb = r.cca_callback
            if cb is not None:
                cb(busy)
