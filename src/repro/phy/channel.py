"""The shared wireless medium.

One :class:`Channel` instance connects every radio in the network.  A
transmission is dispatched by evaluating the propagation model for the
candidate receivers in a single vectorised numpy expression over the
position table (the hpc-parallel hot-path rule), then scheduling
``rx_start``/``rx_end`` events only at receivers whose power clears a
tracking cull threshold — signals far too weak to affect carrier sense or
SINR are never materialised as events.

Spatial index
-------------
Every dispatch goes through a uniform cell grid sized from the
propagation model's *maximum interference range* at the cull threshold
(``PropagationModel.max_interference_range``).  The grid uses the
sorted-cell-key layout from particle simulation: each node's cell is
packed into one ``int64`` key (``cx·2³¹ + cy``), and an argsorted key
array turns "all nodes in a row of cells" into a contiguous slice found
by a single ``searchsorted`` over the row bounds.  A dispatch then
evaluates propagation only over the nodes in the cell block covering the
interference range instead of the full ``(n, 2)`` table — with numpy
doing both the gather and the evaluation, so per-dispatch Python overhead
stays flat as N grows.

A model that cannot bound its reach (log-normal shadowing with
``sigma > 0``, or a non-positive range) gets *one cell covering the
plane*: the cell size is ``inf``, so every key is 0, the block around cell
0 holds every node in index order, and any move or registration
invalidates every plan.  That is a full-table scan through the same code.

The plan cache is invalidated *incrementally*: each cached plan records
the cells its candidate block covered (a cell → dependent-plans reverse
map), so a ``set_position`` on node *i* drops only the plans whose block
contains *i*'s old or new cell.  Mobility runs therefore keep their plan
cache for every transmitter outside the mover's neighbourhood — previously
any move cleared the cache wholesale.

**Determinism contract:** a plan does not depend on the cell size.
Candidate sets are always supersets of the true receiver set (cells are
sized with a safety margin over the interference range), per-receiver
powers/delays are element-wise numpy expressions whose values do not
depend on which other rows share the array, and receivers are ordered by
position-table index.  Every plan therefore equals, float for float, the
one a scan of the whole position table would give.
"""

from __future__ import annotations

import math

import numpy as np

from repro.phy.frame import PhyFrame
from repro.phy.propagation import LogNormalShadowing, PropagationModel
from repro.phy.radio import Radio, rx_end_block, rx_start_block
from repro.sim.engine import Simulator
from repro.sim.errors import SimulationError
from repro.sim.units import SPEED_OF_LIGHT

__all__ = ["Channel"]

#: Cells per interference range: finer cells tighten the candidate block
#: (block side is ``(2·reach + 1)·cell`` vs the minimal ``2·range``), at the
#: cost of more rows per gather.  2 is the classic sweet spot.
_CELLS_PER_RANGE = 2

#: Relative safety margin applied to the interference range when sizing
#: cells, so a node sitting exactly on the range boundary can never fall
#: outside the candidate block through floating-point fuzz.
_RANGE_MARGIN = 1.0 + 1e-6

#: Linear cell key stride: ``key = cx·_KSTRIDE + cy``.  Collision-free for
#: ``|cy| < 2³⁰`` and ``|cx| < 2³²`` (int64 headroom), far beyond any
#: usable arena/cell-size combination.
_KSTRIDE = 1 << 31

#: Initial capacity of the position/id tables (grown by doubling).
_INITIAL_CAPACITY = 16

_Plan = tuple[list[Radio], list[float], list[float]]
_PlanKey = tuple[int, float]  # (tx node id, tx power in watts)


class Channel:
    """Shared broadcast medium.

    Parameters
    ----------
    sim:
        Event engine.
    propagation:
        Path-loss model used for every link.
    track_threshold_w:
        Received-power cull: signals below this level at a receiver are not
        delivered at all.  Defaults to one tenth of the weakest registered
        radio's carrier-sense threshold (set lazily on first transmit, and
        re-derived when a more sensitive radio registers later).
    propagation_delay:
        When True (default) receptions start after distance/c; disabling it
        makes unit tests easier to reason about.
    batched:
        When True, fan-out schedules *block events* — one heap entry per
        (frame, propagation-delay group) handled by the vectorised
        reception kernel — instead of the default path's one sequence
        entry of per-receiver events, and enables the simulator's
        batched drain loop.  Byte-identical to the default path
        (DESIGN.md §8); off by default, selectable via
        ``ScenarioConfig(batched_kernel=True)``.
    """

    def __init__(
        self,
        sim: Simulator,
        propagation: PropagationModel,
        track_threshold_w: float | None = None,
        propagation_delay: bool = True,
        batched: bool = False,
    ) -> None:
        self.sim = sim
        self.propagation = propagation
        self._track_threshold_w = track_threshold_w
        self._derived_threshold = track_threshold_w is None
        self.propagation_delay = propagation_delay
        self.batched = batched
        if batched:
            sim.enable_batching()
        # Node ids of currently powered-off radios (maintained by
        # Radio.set_power_state); lets block handlers check "everyone
        # powered" in O(1) instead of scanning the group.
        self._unpowered: set[int] = set()
        # Batched fan-out: _PlanKey → (plan object, delay groups).  The
        # groups are derived data; validating by plan object identity
        # (``cached[0] is plan``) makes every dispatch-cache invalidation
        # invalidate the groups for free, with no extra wiring.
        self._block_plans: dict[_PlanKey, tuple[_Plan, list]] = {}
        self._radios: dict[int, Radio] = {}
        self._id2idx: dict[int, int] = {}
        self._id_buf: np.ndarray = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._pos_buf: np.ndarray = np.empty((_INITIAL_CAPACITY, 2), dtype=float)
        self._n = 0
        self.transmissions = 0
        # Dispatch-plan cache: (tx node id, tx power) → (receiver radios,
        # powers, delays).  Mesh routers rarely move, so the propagation
        # evaluation is paid once per transmitter; the key includes the tx
        # power so heterogeneous-power scenarios can never reuse a plan
        # computed for a different power.
        self._dispatch_cache: dict[_PlanKey, _Plan] = {}
        # Spatial grid (built lazily on the first dispatch).
        self._grid_active = False
        self._cell_size = 0.0
        self._reach = 0
        self._grid_power_w = 0.0
        self._key_buf: np.ndarray = np.empty(0, dtype=np.int64)
        self._order: np.ndarray | None = None      # argsort of live keys
        self._sorted_keys: np.ndarray | None = None
        # Incremental invalidation, keyed by *centre* cell: every cached
        # plan is registered under its transmitter's cell only (O(1) to
        # remember), and a move in cell d invalidates the plans centred in
        # the block around d — the block is symmetric, so "d is in plan c's
        # block" and "c is in the block around d" are the same condition.
        # ``_cell_cands`` shares the gathered candidate arrays between all
        # transmitters in a cell and is invalidated on the same schedule.
        self._cell_plans: dict[int, set[_PlanKey]] = {}
        self._cell_cands: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._block_cache: dict[int, tuple[int, ...]] = {}
        self._bounds_off: np.ndarray | None = None  # row-bounds template

    # ------------------------------------------------------------------ #
    # Registration / positions
    # ------------------------------------------------------------------ #
    def register(self, radio: Radio, position: tuple[float, float]) -> None:
        """Attach ``radio`` to the medium at ``position`` (metres)."""
        if radio.node_id in self._radios:
            raise SimulationError(f"node {radio.node_id} already registered")
        self._radios[radio.node_id] = radio
        radio.channel = self
        if not radio.powered:
            self._unpowered.add(radio.node_id)
        if self._n == len(self._id_buf):
            self._id_buf = np.concatenate([self._id_buf, np.empty_like(self._id_buf)])
            self._pos_buf = np.concatenate([self._pos_buf, np.empty_like(self._pos_buf)])
        idx = self._n
        self._pos_buf[idx] = position
        self._id_buf[idx] = radio.node_id
        self._id2idx[radio.node_id] = idx
        self._n += 1
        if self._derived_threshold and self._track_threshold_w is not None \
                and radio.config.cs_threshold_w / 10.0 < self._track_threshold_w:
            # A more sensitive radio lowers the derived cull threshold;
            # re-derive it and resize the cells with it on the next build.
            self._track_threshold_w = None
            self._teardown_grid()
            return
        if not self._grid_active:
            return  # no plan exists before the first build
        if radio.config.tx_power_w > self._grid_power_w:
            # A stronger transmitter outranges the current cell sizing;
            # tear the grid down and rebuild lazily at the new maximum.
            self._teardown_grid()
            return
        if self._n > len(self._key_buf):
            self._key_buf = np.concatenate(
                [self._key_buf, np.empty(self._n, dtype=np.int64)]
            )
        key = self._key_of(position[0], position[1])
        self._key_buf[idx] = key
        self._order = None
        self._invalidate_cells((key,))

    def position_of(self, node_id: int) -> np.ndarray:
        """Current position of ``node_id`` (copy)."""
        return self._pos_buf[self._index_of(node_id)].copy()

    def set_position(self, node_id: int, position: tuple[float, float]) -> None:
        """Move a node (mobility models call this)."""
        self.move_many(((node_id, position),))

    def move_many(
        self, updates: "list[tuple[int, tuple[float, float]]] | tuple"
    ) -> None:
        """Apply a batch of position updates with one invalidation pass.

        Mobility ticks move many nodes back-to-back with no dispatch in
        between; batching lets overlapping candidate blocks be invalidated
        once instead of per mover.
        """
        if not self._grid_active:
            # No plan exists before the first build.
            for node_id, position in updates:
                self._pos_buf[self._index_of(node_id)] = position
            return
        touched: set[int] = set()
        key_buf = self._key_buf
        for node_id, position in updates:
            idx = self._index_of(node_id)
            self._pos_buf[idx] = position
            old = int(key_buf[idx])
            new = self._key_of(position[0], position[1])
            if new != old:
                key_buf[idx] = new
                self._order = None
            # Even an intra-cell move changes every distance to this node,
            # so plans watching the old cell are stale regardless.
            touched.add(old)
            touched.add(new)
        if touched:
            self._invalidate_cells(touched)

    def _index_of(self, node_id: int) -> int:
        idx = self._id2idx.get(node_id)
        if idx is None:
            raise SimulationError(f"node {node_id} not registered on channel")
        return idx

    @property
    def node_count(self) -> int:
        """Number of registered radios."""
        return self._n

    def radios(self) -> list["Radio"]:
        """Registered radios in node-id registration order (read-only use;
        metric collection iterates these for frame counters)."""
        return list(self._radios.values())

    # ------------------------------------------------------------------ #
    # Spatial grid
    # ------------------------------------------------------------------ #
    def _key_of(self, x: float, y: float) -> int:
        c = self._cell_size
        return math.floor(x / c) * _KSTRIDE + math.floor(y / c)

    def _ensure_grid(self) -> None:
        """Build the grid, sized for the strongest registered radio."""
        if not self._grid_active and self._n:
            pmax = max(r.config.tx_power_w for r in self._radios.values())
            self._build_grid(pmax)

    def _build_grid(self, power_w: float) -> None:
        rng = self.propagation.max_interference_range(
            power_w, self._cull_threshold()
        )
        if math.isfinite(rng) and rng > 0.0:
            self._cell_size = rng * _RANGE_MARGIN / _CELLS_PER_RANGE
            # A node outside the (2·reach+1)² block around the transmitter
            # is at least reach·cell = range·margin away, hence below the
            # cull threshold by the max_interference_range contract.
            self._reach = _CELLS_PER_RANGE
        else:
            # Unbounded reach: one cell covering the plane (every key is 0).
            self._cell_size = math.inf
            self._reach = 0
        self._grid_power_w = power_w
        if len(self._key_buf) < len(self._id_buf):
            self._key_buf = np.empty(len(self._id_buf), dtype=np.int64)
        cells = np.floor(self._pos_buf[: self._n] / self._cell_size)
        self._key_buf[: self._n] = (
            cells[:, 0].astype(np.int64) * _KSTRIDE + cells[:, 1].astype(np.int64)
        )
        self._order = None
        self._block_cache.clear()
        # Row-bounds template for the candidate query: the block rows of
        # cell k are the key ranges k + _bounds_off[2r..2r+1].
        reach = self._reach
        off = np.empty(2 * (2 * reach + 1), dtype=np.int64)
        for r, dx in enumerate(range(-reach, reach + 1)):
            off[2 * r] = dx * _KSTRIDE - reach
            off[2 * r + 1] = dx * _KSTRIDE + reach + 1
        self._bounds_off = off
        self._grid_active = True

    def _teardown_grid(self) -> None:
        self._grid_active = False
        self._invalidate_all()

    def _ensure_order(self) -> None:
        if self._order is None:
            keys = self._key_buf[: self._n]
            self._order = np.argsort(keys, kind="stable")
            self._sorted_keys = keys[self._order]

    def _candidates(self, center_key: int) -> np.ndarray:
        """Node indices in the cell block around ``center_key``, ascending
        (= position-table order).

        One ``searchsorted`` over the per-row key bounds turns the block
        into ``2·reach + 1`` contiguous slices of the sorted-key layout.
        """
        self._ensure_order()
        bounds = center_key + self._bounds_off
        locs = np.searchsorted(self._sorted_keys, bounds)
        order = self._order
        span = 2 * self._reach + 1
        cand = np.concatenate(
            [order[locs[2 * r]: locs[2 * r + 1]] for r in range(span)]
        )
        cand.sort()
        return cand

    def _block_keys(self, center_key: int) -> tuple[int, ...]:
        """Linear keys of the cells in the block (memoised per centre)."""
        block = self._block_cache.get(center_key)
        if block is None:
            reach = self._reach
            cy = center_key % _KSTRIDE
            if cy >= _KSTRIDE >> 1:
                cy -= _KSTRIDE
            row0 = center_key - cy
            block = tuple(
                row0 + dx * _KSTRIDE + cy + dy
                for dx in range(-reach, reach + 1)
                for dy in range(-reach, reach + 1)
            )
            self._block_cache[center_key] = block
        return block

    # ------------------------------------------------------------------ #
    # Incremental invalidation
    # ------------------------------------------------------------------ #
    def _invalidate_all(self) -> None:
        self._dispatch_cache.clear()
        self._cell_plans.clear()
        self._cell_cands.clear()

    def _invalidate_cells(self, cells) -> None:
        """Drop plans and candidate caches affected by changes in ``cells``.

        A plan centred in cell *c* depends on the nodes in the block around
        *c*; the block is symmetric, so the plans affected by a change in
        cell *d* are exactly those centred inside the block around *d*.
        """
        cell_plans = self._cell_plans
        cell_cands = self._cell_cands
        cache = self._dispatch_cache
        for d in cells:
            for c in self._block_keys(d):
                cell_cands.pop(c, None)
                plans = cell_plans.pop(c, None)
                if plans:
                    for key in plans:
                        cache.pop(key, None)

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _cull_threshold(self) -> float:
        if self._track_threshold_w is None:
            cs = min(r.config.cs_threshold_w for r in self._radios.values())
            self._track_threshold_w = cs / 10.0
        return self._track_threshold_w

    def _plan_inputs(
        self, tx_node: int, tx_power_w: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
        """Candidate gather for one dispatch evaluation.

        Returns ``(tx_pos, pos, ids, self_idx, center)`` — the candidate
        positions/ids to evaluate propagation over, the transmitter's own
        row index among them, and the grid cell the plan must register
        under for incremental invalidation.
        """
        tx_idx = self._index_of(tx_node)
        self._ensure_grid()
        if tx_power_w > self._grid_power_w:
            # Frame power exceeds what the cells were sized for; resize.
            self._teardown_grid()
            self._build_grid(tx_power_w)
        center = int(self._key_buf[tx_idx])
        cached = self._cell_cands.get(center)
        if cached is None:
            cand = self._candidates(center)
            cached = (cand, self._pos_buf[cand], self._id_buf[cand])
            self._cell_cands[center] = cached
        cand, pos, ids = cached
        self_idx = int(np.searchsorted(cand, tx_idx))
        return self._pos_buf[tx_idx], pos, ids, self_idx, center

    def _finish_plan(
        self,
        key: _PlanKey,
        tx_pos: np.ndarray,
        pos: np.ndarray,
        ids: np.ndarray,
        self_idx: int,
        center: int,
        powers: np.ndarray,
    ) -> _Plan:
        """Cull, delays, radio lookup, and cache registration — everything
        downstream of the propagation evaluation.  Shared by the lazy
        :meth:`_dispatch_plan` and the stacked :meth:`warm_plans` paths so
        both produce (and register) identical plans."""
        mask = powers >= self._cull_threshold()
        mask[self_idx] = False
        rx = np.nonzero(mask)[0]
        if self.propagation_delay:
            d = np.hypot(pos[rx, 0] - tx_pos[0], pos[rx, 1] - tx_pos[1])
            delays = d / SPEED_OF_LIGHT
        else:
            delays = np.zeros(len(rx))
        radios = self._radios
        rx_ids = ids[rx].tolist()
        receivers = [radios[i] for i in rx_ids]
        # Plain Python floats: avoids numpy scalar types leaking into the
        # radio hot path (and list indexing is faster there anyway).
        plan = (receivers, powers[rx].tolist(), delays.tolist())
        self._dispatch_cache[key] = plan
        dependents = self._cell_plans.get(center)
        if dependents is None:
            self._cell_plans[center] = {key}
        else:
            dependents.add(key)
        return plan

    def _dispatch_plan(self, tx_node: int, tx_power_w: float) -> _Plan:
        """(receivers, rx powers, propagation delays) for ``tx_node`` at
        ``tx_power_w``, cached until a position change invalidates it."""
        key = (tx_node, tx_power_w)
        plan = self._dispatch_cache.get(key)
        if plan is not None:
            return plan
        tx_pos, pos, ids, self_idx, center = self._plan_inputs(
            tx_node, tx_power_w
        )
        if isinstance(self.propagation, LogNormalShadowing):
            self.propagation.set_transmitter(tx_node)
        powers = np.asarray(
            self.propagation.rx_power_many(tx_power_w, tx_pos, pos, rx_ids=ids),
            dtype=float,
        )
        return self._finish_plan(key, tx_pos, pos, ids, self_idx, center, powers)

    def warm_plans(self, pairs: "list[_PlanKey] | tuple") -> None:
        """Precompute dispatch plans for several ``(tx_node, tx_power_w)``
        pairs with one stacked propagation evaluation.

        Called by the batched MAC timer handler when N same-instant
        backoff expiries are about to transmit: instead of N lazy
        :meth:`_dispatch_plan` misses, the candidate rows of every
        uncached transmitter are concatenated and evaluated through the
        model's elementwise :meth:`~repro.phy.propagation.PropagationModel.rx_power_pairs`
        in one call.  Purely a cache pre-fill — the resulting plans (and
        their invalidation registration) are bit-identical to what the
        lazy path would build, so warming can never change simulation
        results.
        """
        todo = [key for key in pairs if key not in self._dispatch_cache]
        if not todo:
            return
        self._ensure_grid()
        if (
            len(todo) == 1
            or isinstance(self.propagation, LogNormalShadowing)
            or any(p > self._grid_power_w for _, p in todo)
        ):
            # Per-pair fallback: shadowing needs its per-transmitter id
            # protocol, and a power above the grid sizing would rebuild
            # the grid mid-gather, staling earlier pairs' cell centres.
            for tx_node, tx_power_w in todo:
                self._dispatch_plan(tx_node, tx_power_w)
            return
        inputs = [
            (key, self._plan_inputs(key[0], key[1])) for key in todo
        ]
        counts = [len(inp[1][1]) for inp in inputs]
        tx_pos_all = np.concatenate(
            [
                np.broadcast_to(inp[1][0], (m, 2))
                for inp, m in zip(inputs, counts)
            ]
        )
        rx_pos_all = np.concatenate([inp[1][1] for inp in inputs])
        power_all = np.concatenate(
            [np.full(m, key[1]) for (key, _), m in zip(inputs, counts)]
        )
        powers_flat = np.asarray(
            self.propagation.rx_power_pairs(power_all, tx_pos_all, rx_pos_all),
            dtype=float,
        )
        off = 0
        for (key, (tx_pos, pos, ids, self_idx, center)), m in zip(
            inputs, counts
        ):
            self._finish_plan(
                key, tx_pos, pos, ids, self_idx, center,
                powers_flat[off : off + m],
            )
            off += m

    def transmit(self, tx_node: int, frame: PhyFrame) -> None:
        """Deliver ``frame`` from ``tx_node`` to every radio in range."""
        self.transmissions += 1
        plan = self._dispatch_plan(tx_node, frame.tx_power_w)
        receivers, powers, delays = plan
        now = self.sim.now
        dur = frame.duration_s
        if self.batched and len(receivers) > 1:
            self._transmit_batched(
                (tx_node, frame.tx_power_w), plan, frame, now, dur
            )
            return
        # One sequence entry for the whole fan-out.  List order is the
        # tie-break among equal times (receiver order, each rx_start before
        # its rx_end).  Handlers are looked up on the instance here, so a
        # method replaced on the class (a profiling wrapper) is the one run.
        events = []
        append = events.append
        for k, radio in enumerate(receivers):
            t0 = now + delays[k]
            append((t0, radio.on_rx_start, (frame, powers[k])))
            append((t0 + dur, radio.on_rx_end, (frame,)))
        self.sim.schedule_sequence(events)

    def _transmit_batched(
        self, key: _PlanKey, plan: _Plan, frame: PhyFrame, now: float, dur: float
    ) -> None:
        """Fan one frame out as block events, one per propagation-delay
        group (receivers at equal delay share a heap entry).

        Ordering is provably scalar-identical: within a group the block
        handler runs receivers in plan order (= the scalar scheduling
        order); distinct groups sit at distinct times; and an ``rx_start``
        can never tie with this frame's ``rx_end`` because frame airtime
        (≥ the 192 µs PLCP preamble) dwarfs the < 2 µs delay spread of a
        ≤ 550 m interference neighbourhood.
        """
        cached = self._block_plans.get(key)
        if cached is not None and cached[0] is plan:
            groups = cached[1]
        else:
            by_delay: dict[float, tuple[list, list]] = {}
            receivers, powers, delays = plan
            for k, d in enumerate(delays):
                g = by_delay.get(d)
                if g is None:
                    by_delay[d] = g = ([], [])
                g[0].append(receivers[k])
                g[1].append(powers[k])
            # The trailing dict is the group's constants cache, populated
            # lazily by the block handlers (per-radio config gathers,
            # hoisted off the hot path).
            groups = [(d, rxs, pws, {}) for d, (rxs, pws) in by_delay.items()]
            self._block_plans[key] = (plan, groups)
        sim = self.sim
        schedule_cb = sim.schedule_cb
        schedule_block = sim.schedule_block
        for delay, rxs, pws, cache in groups:
            t0 = now + delay
            if len(rxs) == 1:
                schedule_cb(t0, rxs[0].on_rx_start, frame, pws[0])
                schedule_cb(t0 + dur, rxs[0].on_rx_end, frame)
            else:
                schedule_block(
                    t0, len(rxs), rx_start_block, rxs, frame, pws, cache
                )
                schedule_block(
                    t0 + dur, len(rxs), rx_end_block, rxs, frame, cache
                )
