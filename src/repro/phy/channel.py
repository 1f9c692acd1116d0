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
With ``spatial_index=True`` (the default) the channel maintains a uniform
cell grid sized from the propagation model's *maximum interference range*
at the cull threshold (``PropagationModel.max_interference_range``).  The
grid uses the sorted-cell-key layout from particle simulation: each node's
cell is packed into one ``int64`` key (``cx·2³¹ + cy``), and an argsorted
key array turns "all nodes in a row of cells" into a contiguous slice
found by a single ``searchsorted`` over the row bounds.  A dispatch then
evaluates propagation only over the nodes in the cell block covering the
interference range instead of the full ``(n, 2)`` table — with numpy
doing both the gather and the evaluation, so per-dispatch Python overhead
stays flat as N grows.

The plan cache is invalidated *incrementally*: each cached plan records
the cells its candidate block covered (a cell → dependent-plans reverse
map), so a ``set_position`` on node *i* drops only the plans whose block
contains *i*'s old or new cell.  Mobility runs therefore keep their plan
cache for every transmitter outside the mover's neighbourhood — previously
any move cleared the cache wholesale.

**Determinism contract:** the spatial path is byte-identical to the
exhaustive path.  Candidate sets are always supersets of the true receiver
set (cells are sized with a safety margin over the interference range),
per-receiver powers/delays are element-wise numpy expressions whose values
do not depend on which other rows share the array, and receivers are
ordered by position-table index in both paths.  Propagation models that
cannot bound their reach (log-normal shadowing with ``sigma > 0``) report
an infinite interference range and the channel silently falls back to
exhaustive dispatch with wholesale invalidation.
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
        radio's carrier-sense threshold (set lazily on first transmit).
    propagation_delay:
        When True (default) receptions start after distance/c; disabling it
        makes unit tests easier to reason about.
    spatial_index:
        When True (default) dispatch and neighbour queries use the cell
        grid described in the module docstring; when False every query
        scans the full position table (the exhaustive reference path, kept
        selectable for A/B determinism verification).
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
        spatial_index: bool = True,
        batched: bool = False,
    ) -> None:
        self.sim = sim
        self.propagation = propagation
        self._track_threshold_w = track_threshold_w
        self.propagation_delay = propagation_delay
        self.spatial_index = spatial_index
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
        # Spatial grid (built lazily on first query; inactive = exhaustive).
        self._grid_active = False
        self._grid_disabled = False  # unbounded propagation reach
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
        # Per-pair extra path loss in dB (fault injection: LinkDegrade),
        # keyed by the sorted node-id pair and applied symmetrically on top
        # of the propagation model.  Overlapping impairments stack.
        self._impairments: dict[tuple[int, int], float] = {}

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
        if not self._grid_active:
            self._invalidate_all()
            return
        if radio.config.tx_power_w > self._grid_power_w:
            # A stronger transmitter outranges the current cell sizing;
            # tear the grid down and rebuild lazily at the new maximum.
            self._teardown_grid()
            self._invalidate_all()
            return
        if self._n > len(self._key_buf):
            self._key_buf = np.concatenate(
                [self._key_buf, np.empty(self._n, dtype=np.int64)]
            )
        key = self._key_of(position[0], position[1])
        self._key_buf[idx] = key
        self._order = None
        self._invalidate_cells((key,))

    @property
    def _positions(self) -> np.ndarray:
        """Live ``(n, 2)`` view of the position table."""
        return self._pos_buf[: self._n]

    @property
    def _ids(self) -> np.ndarray:
        """Live ``(n,)`` view of the node-id table."""
        return self._id_buf[: self._n]

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
            moved = False
            for node_id, position in updates:
                self._pos_buf[self._index_of(node_id)] = position
                moved = True
            if moved and self._dispatch_cache:
                self._invalidate_all()
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

    def _ensure_grid(self) -> bool:
        """Build the grid if enabled and possible; True when active."""
        if self._grid_active:
            return True
        if not self.spatial_index or self._grid_disabled or self._n == 0:
            return False
        pmax = max(r.config.tx_power_w for r in self._radios.values())
        self._build_grid(pmax)
        return self._grid_active

    def _build_grid(self, power_w: float) -> None:
        rng = self.propagation.max_interference_range(
            power_w, self._cull_threshold()
        )
        if not math.isfinite(rng) or rng <= 0.0:
            self._grid_disabled = True
            return
        self._cell_size = rng * _RANGE_MARGIN / _CELLS_PER_RANGE
        # A node outside the (2·reach+1)² block around the transmitter is
        # at least reach·cell = range·margin away, hence below the cull
        # threshold by the max_interference_range contract.
        self._reach = _CELLS_PER_RANGE
        self._grid_power_w = power_w
        if len(self._key_buf) < len(self._id_buf):
            self._key_buf = np.empty(len(self._id_buf), dtype=np.int64)
        cells = np.floor(self._pos_buf[: self._n] / self._cell_size)
        self._key_buf[: self._n] = (
            cells[:, 0].astype(np.int64) * _KSTRIDE + cells[:, 1].astype(np.int64)
        )
        self._order = None
        self._block_cache.clear()
        self._cell_cands.clear()
        # Row-bounds template for the dispatch-reach candidate query: the
        # block rows of cell k are the key ranges k + _bounds_off[2r..2r+1].
        reach = self._reach
        off = np.empty(2 * (2 * reach + 1), dtype=np.int64)
        for r, dx in enumerate(range(-reach, reach + 1)):
            off[2 * r] = dx * _KSTRIDE - reach
            off[2 * r + 1] = dx * _KSTRIDE + reach + 1
        self._bounds_off = off
        self._grid_active = True

    def _teardown_grid(self) -> None:
        self._grid_active = False
        self._order = None
        self._block_cache.clear()
        self._cell_cands.clear()

    def _ensure_order(self) -> None:
        if self._order is None:
            keys = self._key_buf[: self._n]
            self._order = np.argsort(keys, kind="stable")
            self._sorted_keys = keys[self._order]

    def _candidates(self, center_key: int, reach: int) -> np.ndarray:
        """Node indices in the cell block around ``center_key``, ascending
        (= position-table order, which is what the exhaustive path emits).

        One ``searchsorted`` over the per-row key bounds turns the block
        into ``2·reach + 1`` contiguous slices of the sorted-key layout.
        """
        self._ensure_order()
        span = 2 * reach + 1
        if reach == self._reach:
            bounds = center_key + self._bounds_off
        else:  # neighbour queries with a caller-chosen radius
            bounds = np.empty(2 * span, dtype=np.int64)
            base = center_key - reach * _KSTRIDE
            for r in range(span):
                bounds[2 * r] = base - reach
                bounds[2 * r + 1] = base + reach + 1
                base += _KSTRIDE
        locs = np.searchsorted(self._sorted_keys, bounds)
        order = self._order
        cand = np.concatenate(
            [order[locs[2 * r]: locs[2 * r + 1]] for r in range(span)]
        )
        cand.sort()
        return cand

    def _block_keys(self, center_key: int, reach: int) -> tuple[int, ...]:
        """Linear keys of the cells in the block (memoised per centre)."""
        block = self._block_cache.get(center_key)
        if block is None:
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
        reach = self._reach
        for d in cells:
            for c in self._block_keys(d, reach):
                cell_cands.pop(c, None)
                plans = cell_plans.pop(c, None)
                if plans:
                    for key in plans:
                        cache.pop(key, None)

    # ------------------------------------------------------------------ #
    # Link impairments (fault injection)
    # ------------------------------------------------------------------ #
    def set_link_impairment(
        self, node_a: int, node_b: int, extra_loss_db: float
    ) -> None:
        """Add ``extra_loss_db`` of symmetric path loss between two nodes.

        Impairments stack: two concurrent 20 dB degrades yield 40 dB.
        Remove with :meth:`clear_link_impairment` passing the same value.
        """
        if node_a == node_b:
            raise SimulationError("cannot impair a node's link to itself")
        self._index_of(node_a)
        self._index_of(node_b)
        if extra_loss_db <= 0:
            raise SimulationError(
                f"extra loss must be positive dB, got {extra_loss_db!r}"
            )
        key = (min(node_a, node_b), max(node_a, node_b))
        self._impairments[key] = self._impairments.get(key, 0.0) + extra_loss_db
        self._drop_plans_of(node_a, node_b)

    def clear_link_impairment(
        self, node_a: int, node_b: int, extra_loss_db: float
    ) -> None:
        """Remove ``extra_loss_db`` previously added on the pair."""
        key = (min(node_a, node_b), max(node_a, node_b))
        remaining = self._impairments.get(key, 0.0) - extra_loss_db
        if remaining > 1e-12:
            self._impairments[key] = remaining
        else:
            self._impairments.pop(key, None)
        self._drop_plans_of(node_a, node_b)

    def _drop_plans_of(self, *nodes: int) -> None:
        """Invalidate cached dispatch plans transmitted by ``nodes``.

        Stale references left in ``_cell_plans`` are harmless: cell
        invalidation pops from the dispatch cache with a default.
        """
        dead = set(nodes)
        for key in [k for k in self._dispatch_cache if k[0] in dead]:
            del self._dispatch_cache[key]

    def _apply_impairments(
        self, tx_node: int, ids: np.ndarray, powers: np.ndarray
    ) -> None:
        """Attenuate ``powers`` in place for impaired links of ``tx_node``."""
        for (a, b), loss_db in self._impairments.items():
            if a == tx_node:
                other = b
            elif b == tx_node:
                other = a
            else:
                continue
            loc = np.nonzero(ids == other)[0]
            if len(loc):
                powers[loc] *= 10.0 ** (-loss_db / 10.0)

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
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int, bool]:
        """Candidate gather for one dispatch evaluation.

        Returns ``(tx_pos, pos, ids, self_idx, center, use_grid)`` — the
        candidate positions/ids to evaluate propagation over, the
        transmitter's own row index among them, and the grid cell the
        plan must register under for incremental invalidation.
        """
        tx_idx = self._index_of(tx_node)
        tx_pos = self._pos_buf[tx_idx]
        use_grid = self._ensure_grid()
        if use_grid and tx_power_w > self._grid_power_w:
            # Frame power exceeds what the cells were sized for; resize.
            self._teardown_grid()
            self._invalidate_all()
            self._build_grid(tx_power_w)
            use_grid = self._grid_active
        center = 0
        if use_grid:
            center = int(self._key_buf[tx_idx])
            cached = self._cell_cands.get(center)
            if cached is None:
                cand = self._candidates(center, self._reach)
                cached = (cand, self._pos_buf[cand], self._id_buf[cand])
                self._cell_cands[center] = cached
            cand, pos, ids = cached
            self_idx = int(np.searchsorted(cand, tx_idx))
        else:
            pos = self._positions
            ids = self._ids
            self_idx = tx_idx
        return tx_pos, pos, ids, self_idx, center, use_grid

    def _finish_plan(
        self,
        key: _PlanKey,
        tx_pos: np.ndarray,
        pos: np.ndarray,
        ids: np.ndarray,
        self_idx: int,
        center: int,
        use_grid: bool,
        powers: np.ndarray,
    ) -> _Plan:
        """Cull, delays, radio lookup, and cache registration — everything
        downstream of the propagation evaluation.  Shared by the lazy
        :meth:`_dispatch_plan` and the stacked :meth:`warm_plans` paths so
        both produce (and register) identical plans."""
        tx_node = key[0]
        if self._impairments:
            if powers.base is not None or not powers.flags.owndata:
                powers = powers.copy()
            self._apply_impairments(tx_node, ids, powers)
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
        if use_grid:
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
        tx_pos, pos, ids, self_idx, center, use_grid = self._plan_inputs(
            tx_node, tx_power_w
        )
        if isinstance(self.propagation, LogNormalShadowing):
            self.propagation.set_transmitter(tx_node)
        powers = np.asarray(
            self.propagation.rx_power_many(tx_power_w, tx_pos, pos, rx_ids=ids),
            dtype=float,
        )
        return self._finish_plan(
            key, tx_pos, pos, ids, self_idx, center, use_grid, powers
        )

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
            or (
                self._grid_active
                and any(p > self._grid_power_w for _, p in todo)
            )
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
        for (key, (tx_pos, pos, ids, self_idx, center, use_grid)), m in zip(
            inputs, counts
        ):
            self._finish_plan(
                key, tx_pos, pos, ids, self_idx, center, use_grid,
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
            # lazily by the block handlers (per-radio config gathers and
            # the error-model homogeneity check, hoisted off the hot path).
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

    def neighbors_within(self, node_id: int, radius_m: float) -> list[int]:
        """Node ids within ``radius_m`` of ``node_id`` (excluding itself)."""
        idx = self._index_of(node_id)
        p = self._pos_buf[idx]
        if math.isfinite(radius_m) and radius_m >= 0 and self._ensure_grid():
            reach = int(math.ceil(radius_m / self._cell_size))
            # Wide queries (radius ≫ arena) degenerate to a full scan; the
            # exhaustive path below is then cheaper than walking the rows.
            if (2 * reach + 1) ** 2 <= 4 * self._n:
                cand = self._candidates(int(self._key_buf[idx]), reach)
                pos = self._pos_buf[cand]
                d = np.hypot(pos[:, 0] - p[0], pos[:, 1] - p[1])
                mask = d <= radius_m
                mask[np.searchsorted(cand, idx)] = False
                ids = self._id_buf
                return [int(ids[cand[i]]) for i in np.nonzero(mask)[0]]
        d = np.hypot(self._positions[:, 0] - p[0], self._positions[:, 1] - p[1])
        mask = d <= radius_m
        mask[idx] = False
        return [int(i) for i in self._ids[mask]]
