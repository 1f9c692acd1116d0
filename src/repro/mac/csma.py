"""IEEE 802.11 DCF CSMA/CA MAC.

Implements the distributed coordination function as network simulators
model it:

* carrier sense with DIFS deference and slotted binary-exponential backoff
  (counter frozen while the medium is busy, resumed after a fresh DIFS);
* unicast DATA acknowledged after SIFS, with ACK timeout, contention-window
  doubling, and a retry limit after which the frame is dropped and the
  network layer notified (AODV/NLR use this as the link-failure signal);
* broadcast DATA sent once at the basic rate with no ACK;
* duplicate detection via a bounded (src, seq) cache — duplicates are
  re-ACKed but not re-delivered;
* a drop-tail interface queue feeding head-of-line transmission.

One simplification relative to the letter of the standard, applied equally
to every protocol under comparison: a backoff draw precedes *every*
transmission (the standard permits transmitting immediately when the medium
has been idle ≥ DIFS).  This is the common simulator idealisation; it only
shifts absolute access delay by half a contention window.

Timing constants default to 802.11b: slot 20 µs, SIFS 10 µs, DIFS 50 µs,
CW 31–1023, long PLCP preamble.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.mac.busy_monitor import ArrayBusyMonitor, BusyMonitor
from repro.mac.mac_types import BROADCAST_MAC, MacFrame, MacFrameKind
from repro.mac.queue import DropTailQueue
from repro.phy.frame import PhyFrame, RxInfo
from repro.phy.radio import Radio, RadioState
from repro.sim.engine import Simulator
from repro.sim.process import Timer
from repro.sim.trace import Tracer

__all__ = ["CsmaMac", "MacConfig", "make_timer_batch_handler"]


@dataclass(slots=True)
class MacConfig:
    """DCF parameters (802.11b defaults)."""

    slot_s: float = 20e-6
    sifs_s: float = 10e-6
    difs_s: float = 50e-6
    cw_min: int = 31
    cw_max: int = 1023
    retry_limit: int = 7
    queue_capacity: int = 50
    #: ACK/CTS timeout margin beyond SIFS + preamble + response airtime,
    #: to absorb propagation delay (seconds).
    ack_timeout_margin_s: float = 60e-6
    #: Entries kept in the (src, seq) duplicate-detection cache.
    dedupe_cache_size: int = 512
    #: Busy-ratio sliding window (cross-layer signal) in seconds.
    busy_window_s: float = 1.0
    #: RTS/CTS virtual carrier sense.  When enabled, unicast DATA whose
    #: payload meets ``rts_threshold_bytes`` is preceded by an RTS/CTS
    #: handshake, and overheard RTS/CTS/DATA durations arm the NAV.
    rts_cts_enabled: bool = False
    rts_threshold_bytes: int = 0

    def __post_init__(self) -> None:
        if min(self.slot_s, self.sifs_s, self.difs_s) <= 0:
            raise ValueError("DCF timing constants must be positive")
        if self.sifs_s >= self.difs_s:
            raise ValueError("SIFS must be shorter than DIFS")
        if not (0 < self.cw_min <= self.cw_max):
            raise ValueError("require 0 < cw_min <= cw_max")
        if self.retry_limit < 0:
            raise ValueError("retry limit must be ≥ 0")


class _ContendState(enum.Enum):
    IDLE = "idle"             # nothing to send
    WAIT_IDLE = "wait_idle"   # frame pending, medium busy
    DIFS = "difs"             # DIFS deference timer running
    COUNTDOWN = "countdown"   # backoff slots counting down
    TX_RTS = "tx_rts"         # our RTS is on the air
    WAIT_CTS = "wait_cts"     # RTS sent, CTS timer running
    TX_DATA = "tx_data"       # our DATA frame is on the air
    WAIT_ACK = "wait_ack"     # unicast sent, ACK timer running


class CsmaMac:
    """DCF MAC instance for one node.

    Parameters
    ----------
    sim, radio:
        Engine and the node's PHY (this MAC installs itself as the radio's
        upward callbacks).
    config:
        DCF parameters.
    rng:
        Node-local generator for backoff draws.
    tracer:
        Optional tracer (category ``"mac"``).

    Upward interface (set by the network layer):

    * ``rx_upper_callback(packet, src, rx_info)`` — received network payload.
    * ``send_done_callback(packet, dst, success)`` — transmission outcome;
      ``success`` is False on retry-limit exhaustion (link-failure signal)
      and True for delivered unicast or completed broadcast.
    """

    def __init__(
        self,
        sim: Simulator,
        radio: Radio,
        config: MacConfig,
        rng: np.random.Generator,
        tracer: Tracer | None = None,
        batched: bool = False,
    ) -> None:
        self.sim = sim
        self.radio = radio
        self.config = config
        self.rng = rng
        self.tracer = tracer if tracer is not None else Tracer()
        self.node_id = radio.node_id

        self.queue = DropTailQueue(sim, config.queue_capacity)
        # ArrayBusyMonitor is the ring-buffer variant with bit-identical
        # busy-ratio output (DESIGN.md §8); selected with the batched kernel.
        monitor_cls = ArrayBusyMonitor if batched else BusyMonitor
        self.busy_monitor = monitor_cls(sim, config.busy_window_s)

        radio.rx_callback = self._on_phy_rx
        radio.cca_callback = self._on_cca
        radio.tx_done_callback = self._on_tx_done
        radio.tx_abort_callback = self._on_tx_abort

        self._state = _ContendState.IDLE
        self._current: MacFrame | None = None
        self._slots = 0
        self._countdown_start = 0.0
        self._cw = config.cw_min
        self._retries = 0
        self._seq = 0
        self._tx_kind: str | None = None  # "data" | "ack" while radio is TX

        self._timer = Timer(sim, self._on_timer)   # DIFS/backoff/ACK/CTS timeouts
        self._response_timer = Timer(sim, self._send_pending_response)
        self._pending_response: MacFrame | None = None  # ACK or CTS to send
        self._nav_until = 0.0                       # virtual carrier sense

        self._dedupe: dict[tuple[int, int], None] = {}

        self.rx_upper_callback: Callable[[Any, int, RxInfo], None] | None = None
        self.send_done_callback: Callable[[Any, int, bool], None] | None = None

        # Statistics.
        self.data_tx = 0
        self.ack_tx = 0
        self.rts_tx = 0
        self.cts_tx = 0
        self.retries_total = 0
        self.drops_retry = 0
        self.duplicates_rx = 0
        self.data_rx = 0
        self.nav_defers = 0

    # ------------------------------------------------------------------ #
    # Failure injection
    # ------------------------------------------------------------------ #
    def shutdown(self) -> None:
        """Hard-stop the MAC (node failure): cancel timers, drop the
        current frame and everything queued, power the radio off."""
        self._timer.cancel()
        self._response_timer.cancel()
        self._pending_response = None
        if self._current is not None:
            self.drops_retry += 1
            self._current = None
        while self.queue.pop() is not None:
            self.drops_retry += 1
        self._state = _ContendState.IDLE
        self._tx_kind = None
        self._nav_until = 0.0
        self.radio.set_power_state(False)

    def restart(self) -> None:
        """Bring a shut-down MAC back (node recovery)."""
        self.radio.set_power_state(True)

    def radio_off(self) -> None:
        """Power the radio down, keeping MAC state and the queue intact
        (transient PHY outage — radio flapping; contrast :meth:`shutdown`,
        which models a full node crash).  Frames attempted while the radio
        is dark burn through the normal retry/drop path, surfacing link
        failures to the network layer exactly as a real dead transceiver
        would."""
        self.radio.set_power_state(False)

    def radio_on(self) -> None:
        """Power the radio back up and resume contention for queued work."""
        if self.radio.powered:
            return
        self.radio.set_power_state(True)
        if self._state is _ContendState.IDLE:
            self._next_frame()
        elif self._state is _ContendState.WAIT_IDLE and not self._medium_busy():
            self._start_difs()

    def _on_tx_abort(self) -> None:
        """The radio powered off with our frame on the air.

        ``tx_done_callback`` will never fire for that frame, so without
        this hook the MAC would deadlock in TX_RTS/TX_DATA.  Responder
        frames (ACK/CTS) need no follow-up; ``None`` means :meth:`shutdown`
        already cleared the MAC and the abort is moot.  Our own RTS/DATA is
        charged as a failed attempt through the normal retry path.
        """
        kind, self._tx_kind = self._tx_kind, None
        if kind in ("ack", "cts", None):
            return
        self._on_response_timeout()

    # ------------------------------------------------------------------ #
    # Cross-layer signals
    # ------------------------------------------------------------------ #
    @property
    def queue_occupancy(self) -> float:
        """Instantaneous interface-queue fill level in [0, 1]."""
        return self.queue.occupancy_ratio

    def channel_busy_ratio(self) -> float:
        """Trailing-window fraction of time the medium was sensed busy."""
        return self.busy_monitor.busy_ratio()

    @property
    def queue_drops(self) -> int:
        """Frames refused by the full interface queue."""
        return self.queue.dropped

    # ------------------------------------------------------------------ #
    # Downward interface (network layer calls this)
    # ------------------------------------------------------------------ #
    def send(self, packet: Any, dst: int, payload_bytes: int) -> bool:
        """Queue a network packet for ``dst`` (``BROADCAST_MAC`` broadcasts).

        Returns False when the interface queue drops the packet.
        """
        frame = MacFrame(
            kind=MacFrameKind.DATA,
            src=self.node_id,
            dst=dst,
            seq=self._seq,
            payload=packet,
            payload_bytes=payload_bytes,
        )
        self._seq += 1
        if not self.queue.push(frame):
            self.tracer.record(
                self.sim.now, "mac", self.node_id, "queue_drop", dst=dst
            )
            return False
        if self._state is _ContendState.IDLE:
            self._next_frame()
        return True

    # ------------------------------------------------------------------ #
    # Contention machinery
    # ------------------------------------------------------------------ #
    def _next_frame(self) -> None:
        if self._state is not _ContendState.IDLE or self._current is not None:
            return  # a re-entrant send() during a completion callback won
        frame = self.queue.pop()
        if frame is None:
            return
        self._current = frame
        self._retries = 0
        self._cw = self.config.cw_min
        self._begin_contention()

    # ------------------------------------------------------------------ #
    # Virtual carrier sense (NAV)
    # ------------------------------------------------------------------ #
    def _medium_busy(self) -> bool:
        """Physical (CCA) or virtual (NAV) carrier indicates busy."""
        return self.radio.cca_busy or self.sim.now < self._nav_until

    @property
    def nav_active(self) -> bool:
        """True while the NAV reserves the medium."""
        return self.sim.now < self._nav_until

    def _set_nav(self, duration_s: float) -> None:
        if duration_s <= 0:
            return
        until = self.sim.now + duration_s
        if until <= self._nav_until:
            return
        self._nav_until = until
        self.nav_defers += 1
        self.busy_monitor.on_medium_state(True)
        if self._state is _ContendState.DIFS:
            self._timer.cancel()
            self._state = _ContendState.WAIT_IDLE
        elif self._state is _ContendState.COUNTDOWN:
            self._freeze_countdown()
        self.sim.schedule(until, self._nav_expired)

    def _nav_expired(self) -> None:
        if self.sim.now < self._nav_until:
            return  # NAV was extended meanwhile; a later event will fire
        if not self.radio.cca_busy:
            self.busy_monitor.on_medium_state(False)
            if self._state is _ContendState.WAIT_IDLE:
                self._start_difs()

    def _begin_contention(self) -> None:
        self._slots = int(self.rng.integers(0, self._cw + 1))
        if self._medium_busy():
            self._state = _ContendState.WAIT_IDLE
        else:
            self._start_difs()

    def _start_difs(self) -> None:
        self._state = _ContendState.DIFS
        self._timer.restart(self.config.difs_s)

    def _start_countdown(self) -> None:
        self._state = _ContendState.COUNTDOWN
        self._countdown_start = self.sim.now
        self._timer.restart(self._slots * self.config.slot_s)

    def _freeze_countdown(self) -> None:
        elapsed = self.sim.now - self._countdown_start
        completed = int(elapsed / self.config.slot_s)
        self._slots = max(0, self._slots - completed)
        self._timer.cancel()
        self._state = _ContendState.WAIT_IDLE

    def _on_cca(self, busy: bool) -> None:
        self.busy_monitor.on_medium_state(busy or self.nav_active)
        if busy:
            if self._state is _ContendState.DIFS:
                self._timer.cancel()
                self._state = _ContendState.WAIT_IDLE
            elif self._state is _ContendState.COUNTDOWN:
                self._freeze_countdown()
        else:
            if self._state is _ContendState.WAIT_IDLE and not self.nav_active:
                self._start_difs()

    def _on_timer(self) -> None:
        if self._state is _ContendState.DIFS:
            self._start_countdown()
        elif self._state is _ContendState.COUNTDOWN:
            self._transmit_current()
        elif self._state is _ContendState.WAIT_ACK:
            self._on_response_timeout()
        elif self._state is _ContendState.WAIT_CTS:
            self._on_response_timeout()

    # ------------------------------------------------------------------ #
    # Transmission
    # ------------------------------------------------------------------ #
    def _phy_frame(self, frame: MacFrame) -> PhyFrame:
        cfg = self.radio.config
        rate = (
            cfg.data_rate_bps
            if frame.kind is MacFrameKind.DATA and not frame.is_broadcast
            else cfg.basic_rate_bps
        )
        return PhyFrame(
            payload=frame,
            bits=frame.size_bits,
            rate_bps=rate,
            preamble_s=cfg.preamble_s,
            tx_power_w=cfg.tx_power_w,
            tx_node=self.node_id,
        )

    def _control_airtime(self, nbytes: int) -> float:
        rcfg = self.radio.config
        return rcfg.preamble_s + (nbytes * 8) / rcfg.basic_rate_bps

    def _data_airtime(self, frame: MacFrame) -> float:
        rcfg = self.radio.config
        rate = rcfg.basic_rate_bps if frame.is_broadcast else rcfg.data_rate_bps
        return rcfg.preamble_s + frame.size_bits / rate

    def _use_rts(self, frame: MacFrame) -> bool:
        return (
            self.config.rts_cts_enabled
            and not frame.is_broadcast
            and frame.payload_bytes >= self.config.rts_threshold_bytes
        )

    def _transmit_current(self) -> None:
        frame = self._current
        assert frame is not None
        if not self.radio.powered:
            # Radio died under us (failure injection without shutdown()):
            # burn the attempt through the normal retry/drop path.
            self._on_response_timeout()
            return
        if self._use_rts(frame):
            self._transmit_rts(frame)
        else:
            self._transmit_data(frame)

    def _transmit_rts(self, frame: MacFrame) -> None:
        cfg = self.config
        # NAV covers the rest of the exchange: CTS + DATA + ACK and the
        # three SIFS gaps between them.
        nav = (
            3 * cfg.sifs_s
            + self._control_airtime(14)       # CTS
            + self._data_airtime(frame)       # DATA
            + self._control_airtime(14)       # ACK
        )
        rts = MacFrame(
            kind=MacFrameKind.RTS, src=self.node_id, dst=frame.dst,
            seq=frame.seq, duration_s=nav,
        )
        self._state = _ContendState.TX_RTS
        self._tx_kind = "rts"
        self.rts_tx += 1
        self.tracer.record(
            self.sim.now, "mac", self.node_id, "rts_tx", dst=frame.dst
        )
        self.radio.transmit(self._phy_frame(rts))

    def _transmit_data(self, frame: MacFrame) -> None:
        if self._use_rts(frame):
            # overhearers of the data frame defer for the trailing ACK
            frame.duration_s = self.config.sifs_s + self._control_airtime(14)
        self._state = _ContendState.TX_DATA
        self._tx_kind = "data"
        self.data_tx += 1
        self.tracer.record(
            self.sim.now, "mac", self.node_id, "data_tx",
            dst=frame.dst, seq=frame.seq, retry=frame.retry,
        )
        self.radio.transmit(self._phy_frame(frame))

    def _on_tx_done(self) -> None:
        kind, self._tx_kind = self._tx_kind, None
        if kind in ("ack", "cts", None):
            # Responder-side frames need no follow-up; kind None means the
            # MAC was shut down (failure injection) while a frame was in
            # the air and its completion is moot.
            return
        frame = self._current
        assert frame is not None
        cfg = self.config
        if kind == "rts":
            self._state = _ContendState.WAIT_CTS
            self._timer.restart(
                cfg.sifs_s + self._control_airtime(14) + cfg.ack_timeout_margin_s
            )
            return
        assert kind == "data"
        if frame.is_broadcast:
            self._complete(success=True)
        else:
            self._state = _ContendState.WAIT_ACK
            self._timer.restart(
                cfg.sifs_s + self._control_airtime(14) + cfg.ack_timeout_margin_s
            )

    def _on_response_timeout(self) -> None:
        """Expected CTS or ACK never arrived: binary-exponential retry."""
        frame = self._current
        assert frame is not None
        self._retries += 1
        self.retries_total += 1
        if self._retries > self.config.retry_limit:
            self.drops_retry += 1
            self.tracer.record(
                self.sim.now, "mac", self.node_id, "retry_drop",
                dst=frame.dst, seq=frame.seq,
            )
            self._complete(success=False)
            return
        self._cw = min(2 * (self._cw + 1) - 1, self.config.cw_max)
        frame.retry = True
        self._begin_contention()

    def _complete(self, success: bool) -> None:
        frame = self._current
        assert frame is not None
        self._current = None
        self._state = _ContendState.IDLE
        if self.send_done_callback is not None:
            # The callback may re-entrantly send() (e.g. RERR origination on
            # a link failure), which claims the MAC; _next_frame guards.
            self.send_done_callback(frame.payload, frame.dst, success)
        self._next_frame()

    # ------------------------------------------------------------------ #
    # Reception
    # ------------------------------------------------------------------ #
    def _on_phy_rx(self, frame: MacFrame, info: RxInfo) -> None:
        if frame.kind is MacFrameKind.ACK:
            self._handle_ack(frame)
            return
        if frame.kind is MacFrameKind.RTS:
            self._handle_rts(frame)
            return
        if frame.kind is MacFrameKind.CTS:
            self._handle_cts(frame)
            return
        if frame.dst == self.node_id:
            self._schedule_response(
                MacFrame(
                    kind=MacFrameKind.ACK, src=self.node_id, dst=frame.src,
                    seq=0,
                )
            )
            if self._is_duplicate(frame):
                self.duplicates_rx += 1
                return
            self.data_rx += 1
            self._deliver(frame, info)
        elif frame.is_broadcast:
            self.data_rx += 1
            self._deliver(frame, info)
        else:
            # Overheard unicast DATA for someone else: honour its NAV
            # (covers the trailing ACK under RTS/CTS operation).
            self._set_nav(frame.duration_s)

    # ------------------------------------------------------------------ #
    # RTS/CTS handshake
    # ------------------------------------------------------------------ #
    def _handle_rts(self, rts: MacFrame) -> None:
        if rts.dst != self.node_id:
            self._set_nav(rts.duration_s)
            return
        if self.nav_active:
            return  # standard: stay silent, the sender will retry
        cts_air = self._control_airtime(14)
        cts = MacFrame(
            kind=MacFrameKind.CTS, src=self.node_id, dst=rts.src, seq=0,
            duration_s=max(0.0, rts.duration_s - self.config.sifs_s - cts_air),
        )
        self._schedule_response(cts)

    def _handle_cts(self, cts: MacFrame) -> None:
        if cts.dst != self.node_id:
            self._set_nav(cts.duration_s)
            return
        if self._state is not _ContendState.WAIT_CTS:
            return
        self._timer.cancel()
        self.tracer.record(self.sim.now, "mac", self.node_id, "cts_rx",
                           src=cts.src)
        self.sim.schedule_in(self.config.sifs_s, self._data_after_cts)

    def _data_after_cts(self) -> None:
        if self._state is not _ContendState.WAIT_CTS:
            return  # exchange was torn down meanwhile
        frame = self._current
        assert frame is not None
        if self.radio.state is RadioState.TX or not self.radio.powered:
            return  # pathological overlap or dead radio; timeout path retries
        self._transmit_data(frame)

    def _deliver(self, frame: MacFrame, info: RxInfo) -> None:
        if self.rx_upper_callback is not None:
            self.rx_upper_callback(frame.payload, frame.src, info)

    def _is_duplicate(self, frame: MacFrame) -> bool:
        key = frame.dedupe_key()
        if key in self._dedupe:
            return True
        self._dedupe[key] = None
        if len(self._dedupe) > self.config.dedupe_cache_size:
            self._dedupe.pop(next(iter(self._dedupe)))
        return False

    def _handle_ack(self, ack: MacFrame) -> None:
        if self._state is not _ContendState.WAIT_ACK:
            return
        cur = self._current
        assert cur is not None
        if ack.dst == self.node_id and ack.src == cur.dst:
            self._timer.cancel()
            self.tracer.record(
                self.sim.now, "mac", self.node_id, "ack_rx", src=ack.src
            )
            self._complete(success=True)

    def _schedule_response(self, frame: MacFrame) -> None:
        """Queue an ACK or CTS for transmission one SIFS from now.

        A newer response obligation supersedes a pending one (only possible
        under pathological capture sequences; the superseded response would
        have collided anyway).
        """
        self._pending_response = frame
        self._response_timer.restart(self.config.sifs_s)

    def _send_pending_response(self) -> None:
        frame, self._pending_response = self._pending_response, None
        if frame is None:
            return
        if self.radio.state is RadioState.TX or not self.radio.powered:
            return  # radio busy talking or dead; the response is lost
        self._tx_kind = "ack" if frame.kind is MacFrameKind.ACK else "cts"
        if frame.kind is MacFrameKind.ACK:
            self.ack_tx += 1
        else:
            self.cts_tx += 1
        self.tracer.record(
            self.sim.now, "mac", self.node_id, f"{self._tx_kind}_tx",
            dst=frame.dst,
        )
        self.radio.transmit(self._phy_frame(frame))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CsmaMac(node={self.node_id}, state={self._state.value}, "
            f"qlen={len(self.queue)})"
        )


# ---------------------------------------------------------------------- #
# Batched timer handler (DESIGN.md §8)
# ---------------------------------------------------------------------- #
def make_timer_batch_handler(channel):
    """Batch handler for same-instant :meth:`Timer._fire` events.

    N backoff counters expiring in the same slot is the signature hot spot
    of a saturated CSMA network: each expiry calls ``_transmit_current``,
    which walks the channel's dispatch-plan cache.  This handler inspects
    the batch *before* firing anything, collects the ``(node, tx power)``
    pairs of MACs that are about to transmit, and pre-fills their dispatch
    plans with one stacked propagation evaluation
    (:meth:`~repro.phy.channel.Channel.warm_plans`) instead of N lazy
    per-transmitter misses.

    Exactness: the prefetch is a pure cache warm (the plans built are
    bit-identical to lazily-built ones) and every ``(fn, args)`` pair then
    fires in heap order, so observable behaviour matches the scalar engine
    exactly.  Over-prefetching (a timer that turns out not to transmit) is
    harmless for the same reason.
    """

    def handler(sim: Simulator, batch) -> None:
        if len(batch) > 1:
            pairs = []
            for fn, _args in batch:
                timer = fn.__self__            # Timer._fire → Timer
                cb = timer._fn                 # bound MAC callback
                func = getattr(cb, "__func__", None)
                if func is CsmaMac._on_timer:
                    mac = cb.__self__
                    if mac._state is _ContendState.COUNTDOWN:
                        pairs.append((mac.node_id, mac.radio.config.tx_power_w))
            if len(pairs) > 1:
                channel.warm_plans(pairs)
        for fn, args in batch:
            fn(*args)

    return handler
