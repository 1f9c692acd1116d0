"""Event-scheduling discrete-event simulator.

The engine is a classic binary-heap event loop.  Heap entries are plain
Python lists ``[time, priority, seq, state, fn, args]`` so ordering
comparisons run entirely in C (list lexicographic compare); ``seq`` is a
monotonically increasing insertion counter, so comparisons never reach the
callback fields and two events scheduled for the same instant with the
same priority fire in insertion order — which is what makes runs with a
fixed seed bit-identical across processes and platforms.

Design notes
------------
* Event-scheduling (callback) style rather than coroutine processes: for a
  packet-level network simulation the callback style is both faster in
  CPython and easier to reason about for deterministic replay (DESIGN.md §6).
* Cancellation is O(1): handles mark the heap entry dead and the loop
  skips dead entries when they surface, the standard *lazy deletion* idiom.
* The clock never goes backwards.  Scheduling strictly in the past raises
  :class:`~repro.sim.errors.SchedulingError`; scheduling *at* the current
  time is allowed (zero-delay events are common in layered protocol stacks).
* Fired entry lists are recycled through a bounded free pool, so the
  steady-state loop allocates no per-event list objects.  Handles snapshot
  their entry's ``seq`` and treat a mismatch as "already fired", which
  keeps recycled entries invisible to stale handles.

Sequence entries (DESIGN.md §8)
-------------------------------
:meth:`Simulator.schedule_sequence` hands a whole fan-out to the engine
as one heap entry — the channel's default path schedules each frame's
per-receiver ``rx_start``/``rx_end`` pairs this way.  The sequence
consumes the ``seq`` numbers the equivalent :meth:`~Simulator.schedule_cb`
calls would have; its events are sorted once by ``(time, seq)``, and the
run loop executes them in place while the next one stays below the heap's
head ``(time, priority, seq)`` and ``until``, ``max_events`` and
:meth:`~Simulator.stop` allow, re-pushing the entry only when a foreign
event comes in between.  Callback order, ``now``, ``events_executed``,
``pending``, profiler counts and hence every RNG draw are those of the
scalar loop; the saving is 2n heap pushes and pops per frame.

Batched execution (DESIGN.md §8)
--------------------------------
Two opt-in mechanisms let homogeneous event storms execute as one Python
call while preserving the scalar loop's exact ordering semantics:

* **Block events** (:meth:`Simulator.schedule_block`) — one heap entry
  standing for ``count`` logical events that share a timestamp, priority
  and handler.  The producer (e.g. the channel fanning one transmission
  out to N receivers) groups its same-instant schedule calls into a
  single entry; ``events_executed`` still advances by ``count``.
* **Batch handlers** (:meth:`Simulator.register_batch_handler`) — when the
  drain loop pops an event whose callback kind (the underlying function
  of a bound method) is registered, it collects the maximal run of
  consecutive pending entries with the *same time, priority and kind* and
  hands them to the vector handler as one call.  Heterogeneous or
  unregistered events fall back to the scalar dispatch unchanged.

Both paths mark every covered entry fired *before* user code runs, and the
batch is formed purely from heap order — so the sequence of callback
executions (and therefore every downstream ``schedule`` call and RNG draw)
is identical to the scalar loop's.  Handler contract: a vector handler must
execute every ``(fn, args)`` pair it is given, in order, and same-kind
same-instant events must not cancel each other (none of the repo's event
kinds do — cross-node interaction always goes through newly scheduled
events).
"""

from __future__ import annotations

import heapq
import math
from operator import itemgetter
from time import perf_counter
from typing import Any, Callable, Iterator

from repro.sim.errors import SchedulingError

__all__ = ["EventHandle", "Simulator"]

#: Default priority for ordinary events.  Lower values fire first among
#: events scheduled for the same instant.
DEFAULT_PRIORITY = 0

# Heap-entry slots (plain lists for C-speed heap comparisons).  Block
# entries carry a seventh slot, _COUNT; list comparison never reaches it
# because ``seq`` (slot 2) is unique.  Sequence entries keep six slots and
# reuse _FN/_ARGS for their time-sorted ``(time, fn, args)`` list and the
# index of their next event (see :meth:`Simulator.schedule_sequence`).
_TIME, _PRIORITY, _SEQ, _STATE, _FN, _ARGS = range(6)
_COUNT = 6
_EVENTS, _NEXT = _FN, _ARGS

# Entry states.  _PENDING_NOHANDLE marks entries created by the
# fire-and-forget :meth:`Simulator.schedule_cb` path: no EventHandle can
# reference them, so the run loop may recycle their lists through the free
# pool after they fire.  _SEQUENCE marks a sequence entry (also handle-less).
# "Still pending" is therefore ``state < _FIRED``.
_PENDING, _PENDING_NOHANDLE, _SEQUENCE, _FIRED, _CANCELLED = range(5)

# Heap compaction: once at least this many cancelled entries linger *and*
# they outnumber the live ones, the heap is rebuilt in place.  Rebuilding
# is O(n) and triggered at most once per Θ(n) cancellations, so the
# amortised cost per cancel stays O(1) while restart-heavy workloads
# (ACK/backoff timers re-armed per frame) no longer grow the heap — and
# every subsequent push/pop gets a log of a much smaller n.
_COMPACT_MIN_DEAD = 1024

# Bound on the fired-entry free pool.  Deep enough to absorb one
# transmission's receiver fan-out plus the timer churn behind it; small
# enough that an event storm's transient doesn't pin memory.
_POOL_MAX = 1024

# Module-level bindings: global lookup beats the attribute chain in the
# schedule hot path, and the chained ``now <= t < inf`` compare subsumes
# the old ``isfinite`` call (NaN fails both sides, +inf fails the right).
_heappush = heapq.heappush
_INF = math.inf
_time_of = itemgetter(0)


class EventHandle:
    """Opaque handle returned by :meth:`Simulator.schedule`.

    Supports O(1) cancellation and queries.  ``expired`` becomes true once
    the event has either fired or been cancelled.

    Entries with a handle are never recycled through the engine's free
    pool (only the handle-less ``schedule_cb`` fast path feeds it), so a
    handle's view of its entry stays valid for the handle's lifetime.
    """

    __slots__ = ("_entry", "_sim")

    def __init__(self, entry: list, sim: "Simulator | None" = None) -> None:
        self._entry = entry
        self._sim = sim

    @property
    def time(self) -> float:
        """Absolute time the event is (or was) scheduled for."""
        return self._entry[_TIME]

    @property
    def cancelled(self) -> bool:
        """True if :meth:`cancel` was called before the event fired."""
        return self._entry[_STATE] == _CANCELLED

    @property
    def expired(self) -> bool:
        """True once the event has fired or been cancelled."""
        return self._entry[_STATE] >= _FIRED

    def cancel(self) -> None:
        """Cancel the event.

        Raises
        ------
        SchedulingError
            If the event already fired or was already cancelled.
        """
        if self._entry[_STATE] >= _FIRED:
            raise SchedulingError("event already fired or was already cancelled")
        self._entry[_STATE] = _CANCELLED
        self._entry[_FN] = None
        self._entry[_ARGS] = ()
        if self._sim is not None:
            self._sim._note_cancelled()


class Simulator:
    """Deterministic binary-heap discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial clock value in seconds (default 0.0).

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    1.5
    """

    __slots__ = ("_now", "_heap", "_seq", "_running", "_stopped",
                 "_events_executed", "_dead", "_profiler", "_pool",
                 "_batch_handlers", "_batch_mode", "_extra", "_inflight",
                 "_inflight_mark")

    def __init__(self, start_time: float = 0.0) -> None:
        if not math.isfinite(start_time):
            raise SchedulingError(f"start_time must be finite, got {start_time!r}")
        self._now = float(start_time)
        self._heap: list[list] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        self._events_executed = 0
        self._dead = 0  # cancelled entries still sitting in the heap
        self._profiler = None  # opt-in wall-time attribution (repro.obs)
        self._pool: list[list] = []  # recycled fired entry lists
        self._batch_handlers: dict[Any, Callable] = {}
        self._batch_mode = False
        # Sequence bookkeeping: queued sequence entries stand for
        # ``_extra`` more logical events than their heap slots; the entry
        # being drained in place (if any) has left the heap, and its
        # events still to come are ``_inflight_mark - _events_executed``.
        self._extra = 0
        self._inflight: list | None = None
        self._inflight_mark = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of callbacks executed so far (cancelled events excluded)."""
        return self._events_executed

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still in the queue.

        Counts logical events: a sequence entry counts every event it has
        left, including those of a sequence being drained right now.
        """
        live = len(self._heap) - self._dead + self._extra
        if self._inflight is not None:
            live += self._inflight_mark - self._events_executed
        return live

    def peek(self) -> float | None:
        """Time of the next live event, or None if the queue is empty."""
        self._drop_dead_head()
        t = self._heap[0][_TIME] if self._heap else None
        entry = self._inflight
        if entry is not None:
            events = entry[_EVENTS]
            left = self._inflight_mark - self._events_executed
            if left > 0:
                t_seq = events[len(events) - left][0]
                if t is None or t_seq < t:
                    t = t_seq
        return t

    @property
    def profiler(self):
        """The attached :class:`~repro.obs.profiler.EngineProfiler`, if any."""
        return self._profiler

    def set_profiler(self, profiler) -> None:
        """Attach (or detach, with ``None``) a wall-time profiler.

        Takes effect from the next :meth:`run` call.  With no profiler
        attached the event loop's per-event cost is unchanged apart from
        one local ``is not None`` check.
        """
        self._profiler = profiler

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def schedule(
        self,
        time: float,
        fn: Callable[..., None],
        *args: Any,
        priority: int = DEFAULT_PRIORITY,
    ) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute time ``time``.

        Raises
        ------
        SchedulingError
            If ``time`` is in the past or not finite.
        """
        if not (self._now <= time < _INF):
            raise SchedulingError(
                f"cannot schedule at t={time!r} (now={self._now:.9f})"
            )
        entry = [time, priority, self._seq, _PENDING, fn, args]
        self._seq += 1
        _heappush(self._heap, entry)
        return EventHandle(entry, self)

    def schedule_cb(
        self,
        time: float,
        fn: Callable[..., None],
        *args: Any,
        priority: int = DEFAULT_PRIORITY,
    ) -> None:
        """Fire-and-forget :meth:`schedule`: no :class:`EventHandle`.

        Identical scheduling semantics (same validation, same ``seq``
        consumption, same ordering) minus the handle allocation — for hot
        paths that never cancel, e.g. the channel's per-receiver fan-out.
        Entry lists come from (and return to) the engine's bounded free
        pool, so the steady-state fan-out path allocates nothing.
        """
        if not (self._now <= time < _INF):
            raise SchedulingError(
                f"cannot schedule at t={time!r} (now={self._now:.9f})"
            )
        seq = self._seq
        pool = self._pool
        if pool:
            entry = pool.pop()
            entry[_TIME] = time
            entry[_PRIORITY] = priority
            entry[_SEQ] = seq
            entry[_STATE] = _PENDING_NOHANDLE
            entry[_FN] = fn
            entry[_ARGS] = args
        else:
            entry = [time, priority, seq, _PENDING_NOHANDLE, fn, args]
        self._seq = seq + 1
        _heappush(self._heap, entry)

    def schedule_sequence(
        self, events: list[tuple[float, Callable[..., None], tuple]]
    ) -> None:
        """Schedule ``(time, fn, args)`` triples as one heap entry.

        Equivalent to calling ``schedule_cb(time, fn, *args)`` for each
        triple in list order (default priority): the sequence consumes
        the same consecutive ``seq`` numbers those calls would have, so
        the run loop fires its events in exactly the scalar order,
        interleaved with every other event.  The events are sorted by
        ``(time, seq)`` once here (a stable sort on time, as ``seq``
        follows list order); the run loop then executes them in place
        while the next one stays below the heap's head, and re-pushes
        the entry only when a foreign event comes in between.  For
        fan-outs such as the channel's per-receiver ``rx_start``/
        ``rx_end`` pairs this trades 2n heap pushes and pops for one of
        each per interleaving.
        """
        now = self._now
        for t, _, _ in events:
            if not (now <= t < _INF):
                raise SchedulingError(
                    f"cannot schedule at t={t!r} (now={now:.9f})"
                )
        if not events:
            return
        seq = self._seq
        self._seq = seq + len(events)
        self._extra += len(events) - 1
        ordered = sorted(events, key=_time_of)
        # The entry carries the sequence's first seq for good: every other
        # entry's seq lies outside [seq, self._seq), so it orders against
        # them exactly as each of its events' own seq would.
        _heappush(
            self._heap,
            [ordered[0][0], DEFAULT_PRIORITY, seq, _SEQUENCE, ordered, 0],
        )

    def schedule_in(
        self,
        delay: float,
        fn: Callable[..., None],
        *args: Any,
        priority: int = DEFAULT_PRIORITY,
    ) -> EventHandle:
        """Schedule ``fn(*args)`` after a relative ``delay`` ≥ 0 seconds."""
        if delay < 0:
            raise SchedulingError(f"delay must be non-negative, got {delay!r}")
        return self.schedule(self._now + delay, fn, *args, priority=priority)

    # ------------------------------------------------------------------ #
    # Batched execution (opt-in; see module docstring and DESIGN.md §8)
    # ------------------------------------------------------------------ #
    @property
    def batching(self) -> bool:
        """True once the batched drain loop is active for this simulator."""
        return self._batch_mode

    def enable_batching(self) -> None:
        """Switch :meth:`run` to the batched drain loop.

        Must happen before the simulator is running — the scalar loop does
        not understand block entries, so flipping mid-drain would corrupt
        event accounting.
        """
        if self._running and not self._batch_mode:
            raise SchedulingError("cannot enable batching while running")
        self._batch_mode = True

    def register_batch_handler(
        self, kind: Callable[..., None], handler: Callable[["Simulator", list], None]
    ) -> None:
        """Route same-instant runs of ``kind`` events to ``handler``.

        ``kind`` is the callback whose events should coalesce; a bound
        method is keyed by its underlying function, so one registration
        covers every instance.  ``handler(sim, batch)`` receives the
        collected ``[(fn, args), ...]`` pairs in heap order and must
        execute all of them, in order.  Implies :meth:`enable_batching`.
        """
        self.enable_batching()
        self._batch_handlers[getattr(kind, "__func__", kind)] = handler

    def schedule_block(
        self,
        time: float,
        count: int,
        fn: Callable[..., None],
        *args: Any,
        priority: int = DEFAULT_PRIORITY,
    ) -> EventHandle:
        """Schedule one heap entry standing for ``count`` logical events.

        ``fn(*args)`` runs once; ``events_executed`` advances by ``count``.
        The producer is asserting that the scalar path would have scheduled
        ``count`` consecutive same-time same-priority events here, so
        replacing them with one entry cannot reorder anything.  Requires
        :meth:`enable_batching` (the scalar loop would miscount blocks).
        """
        if not self._batch_mode:
            raise SchedulingError(
                "schedule_block requires enable_batching() before run()"
            )
        if not (self._now <= time < _INF):
            raise SchedulingError(
                f"cannot schedule at t={time!r} (now={self._now:.9f})"
            )
        if count < 1:
            raise SchedulingError(f"block count must be >= 1, got {count!r}")
        entry = [time, priority, self._seq, _PENDING, fn, args, count]
        self._seq += 1
        _heappush(self._heap, entry)
        return EventHandle(entry, self)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, until: float = math.inf, max_events: int | None = None) -> None:
        """Run until the queue drains, the clock passes ``until``, or
        ``max_events`` callbacks have executed.

        Events scheduled exactly at ``until`` *are* executed (closed
        interval), matching the convention of ns-2/ns-3 ``Simulator::Stop``.
        """
        if self._batch_mode:
            self._run_batched(until, max_events)
            return
        if self._running:
            raise SchedulingError("simulator is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        budget = math.inf if max_events is None else max_events
        heap = self._heap
        # Hoisted once per run(): heap primitives bound to locals, and the
        # disabled-profiler event loop pays one local is-None check per
        # event, nothing else.
        pop = heapq.heappop
        push = heapq.heappush
        pool = self._pool
        pool_max = _POOL_MAX
        profiler = self._profiler
        stride = profiler.sample_every if profiler is not None else 1
        tick = 0
        try:
            while heap and not self._stopped and budget > 0:
                entry = pop(heap)
                state = entry[_STATE]
                if state == _CANCELLED:
                    self._dead -= 1
                    continue
                if entry[_TIME] > until:
                    # Put it back for a later run() call; advance to bound.
                    push(heap, entry)
                    if math.isfinite(until):
                        self._now = until
                    break
                if state == _SEQUENCE:
                    n, tick = self._drain_sequence(
                        entry, until, budget, profiler, stride, tick
                    )
                    budget -= n
                    continue
                self._now = entry[_TIME]
                recycle = state == _PENDING_NOHANDLE
                entry[_STATE] = _FIRED
                fn = entry[_FN]
                args = entry[_ARGS]
                entry[_FN] = None  # release references
                entry[_ARGS] = ()
                if recycle and len(pool) < pool_max:
                    pool.append(entry)
                if profiler is None:
                    fn(*args)
                else:
                    tick += 1
                    if tick >= stride:
                        tick = 0
                        t1 = perf_counter()
                        fn(*args)
                        profiler.record(fn, perf_counter() - t1)
                    else:
                        profiler.count_only(fn)
                        fn(*args)
                self._events_executed += 1
                budget -= 1
            else:
                if not heap and math.isfinite(until) and until > self._now:
                    self._now = until
        finally:
            self._running = False

    def _run_batched(self, until: float, max_events: int | None) -> None:
        """Batched drain loop: scalar-identical ordering, fewer Python calls.

        Differences from the scalar loop are strictly mechanical: block
        entries fire once but count ``entry[_COUNT]`` events, and maximal
        same-(time, priority, kind) runs of registered callbacks dispatch
        through their vector handler.  Every covered entry is marked fired
        before any user code runs, so lazily-deleted cancellations and
        ``events_executed`` accounting behave exactly as in the scalar loop.
        """
        if self._running:
            raise SchedulingError("simulator is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        budget = math.inf if max_events is None else max_events
        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        pool = self._pool
        pool_max = _POOL_MAX
        handlers = self._batch_handlers
        profiler = self._profiler
        stride = profiler.sample_every if profiler is not None else 1
        tick = 0
        try:
            while heap and not self._stopped and budget > 0:
                entry = pop(heap)
                state = entry[_STATE]
                if state == _CANCELLED:
                    self._dead -= 1
                    continue
                if entry[_TIME] > until:
                    push(heap, entry)
                    if math.isfinite(until):
                        self._now = until
                    break
                if state == _SEQUENCE:
                    n, tick = self._drain_sequence(
                        entry, until, budget, profiler, stride, tick
                    )
                    budget -= n
                    continue
                self._now = entry[_TIME]
                recycle = state == _PENDING_NOHANDLE
                entry[_STATE] = _FIRED
                fn = entry[_FN]
                args = entry[_ARGS]
                entry[_FN] = None
                entry[_ARGS] = ()
                if len(entry) == 7:
                    # Block entry: one call, _COUNT logical events.  Blocks
                    # are atomic — max_events may overshoot by at most one
                    # block, matching the "at least one event" contract.
                    n = entry[_COUNT]
                    if profiler is None:
                        fn(*args)
                    else:
                        t1 = perf_counter()
                        fn(*args)
                        profiler.record_batch(fn, perf_counter() - t1, n)
                    self._events_executed += n
                    budget -= n
                    continue
                kind = getattr(fn, "__func__", fn)
                handler = handlers.get(kind)
                if handler is None:
                    # Scalar fallback — byte-identical to the reference loop.
                    if recycle and len(pool) < pool_max:
                        pool.append(entry)
                    if profiler is None:
                        fn(*args)
                    else:
                        tick += 1
                        if tick >= stride:
                            tick = 0
                            t1 = perf_counter()
                            fn(*args)
                            profiler.record(fn, perf_counter() - t1)
                        else:
                            profiler.count_only(fn)
                            fn(*args)
                    self._events_executed += 1
                    budget -= 1
                    continue
                # Collect the maximal run of consecutive pending entries
                # sharing (time, priority, kind).  Formed entirely before
                # the handler runs: heap order — hence execution order — is
                # exactly what the scalar loop would have produced.
                t = entry[_TIME]
                pri = entry[_PRIORITY]
                batch = [(fn, args)]
                if recycle and len(pool) < pool_max:
                    pool.append(entry)
                while heap and len(batch) < budget:
                    head = heap[0]
                    if head[_TIME] != t or head[_PRIORITY] != pri:
                        break
                    if head[_STATE] == _CANCELLED:
                        pop(heap)
                        self._dead -= 1
                        continue
                    if len(head) == 7 or head[_STATE] == _SEQUENCE:
                        break
                    hfn = head[_FN]
                    if getattr(hfn, "__func__", hfn) is not kind:
                        break
                    pop(heap)
                    recycle_h = head[_STATE] == _PENDING_NOHANDLE
                    head[_STATE] = _FIRED
                    batch.append((hfn, head[_ARGS]))
                    head[_FN] = None
                    head[_ARGS] = ()
                    if recycle_h and len(pool) < pool_max:
                        pool.append(head)
                n = len(batch)
                if profiler is None:
                    handler(self, batch)
                else:
                    t1 = perf_counter()
                    handler(self, batch)
                    profiler.record_batch(kind, perf_counter() - t1, n)
                self._events_executed += n
                budget -= n
            else:
                if not heap and math.isfinite(until) and until > self._now:
                    self._now = until
        finally:
            self._running = False

    def _drain_sequence(
        self,
        entry: list,
        until: float,
        budget: float,
        profiler,
        stride: int,
        tick: int,
    ) -> tuple[int, int]:
        """Execute a popped sequence entry's events in place.

        Runs events while the next key ``(time, priority, seq)`` is still
        below the heap's head, within ``until`` and ``budget``, and no
        callback has called :meth:`stop`; re-pushes the entry at its next
        key if events remain, also when a callback raises (the raising
        event counts as fired, as in the scalar loop).  Returns the
        number of events executed and the profiler's sampling tick.
        """
        heap = self._heap
        events = entry[_EVENTS]
        pri = entry[_PRIORITY]
        seq = entry[_SEQ]
        n = len(events)
        i = first = entry[_NEXT]
        stop = n if budget >= n - i else i + int(budget)
        # The entry has left the heap: move its count from _extra to the
        # in-flight mark (its remaining events after the current one).
        self._extra -= n - i - 1
        self._inflight_mark = self._events_executed + n - i - 1
        self._inflight = entry
        t, fn, args = events[i]
        try:
            while True:
                i += 1
                self._now = t
                if profiler is None:
                    fn(*args)
                else:
                    tick += 1
                    if tick >= stride:
                        tick = 0
                        t1 = perf_counter()
                        fn(*args)
                        profiler.record(fn, perf_counter() - t1)
                    else:
                        profiler.count_only(fn)
                        fn(*args)
                self._events_executed += 1
                if i == stop or self._stopped:
                    break
                t, fn, args = events[i]
                if t > until:
                    break
                if heap:
                    # Break once the head's (time, priority, seq) is lower;
                    # on a full tie the older seq (below ours) goes first.
                    head = heap[0]
                    ht = head[_TIME]
                    if t >= ht and (
                        t > ht
                        or pri > head[_PRIORITY]
                        or (pri == head[_PRIORITY] and head[_SEQ] < seq)
                    ):
                        break
        finally:
            self._inflight = None
            if i < n:
                entry[_TIME] = events[i][0]
                entry[_NEXT] = i
                self._extra += n - i - 1
                heapq.heappush(heap, entry)
        return i - first, tick

    def step(self) -> bool:
        """Execute exactly one live event.  Returns False if queue empty."""
        self._drop_dead_head()
        if not self._heap:
            return False
        self.run(max_events=1)
        return True

    def stop(self) -> None:
        """Request that :meth:`run` return after the current callback."""
        self._stopped = True

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _note_cancelled(self) -> None:
        """Called by :meth:`EventHandle.cancel`; triggers lazy compaction."""
        self._dead += 1
        if (
            self._dead >= _COMPACT_MIN_DEAD
            and self._dead * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        # In-place so a run() loop holding a reference to the heap list
        # keeps seeing the compacted queue.
        self._heap[:] = [e for e in self._heap if e[_STATE] < _FIRED]
        heapq.heapify(self._heap)
        self._dead = 0

    def _drop_dead_head(self) -> None:
        while self._heap and self._heap[0][_STATE] == _CANCELLED:
            heapq.heappop(self._heap)
            self._dead -= 1

    def drain(self) -> Iterator[tuple[float, Callable[..., None], tuple]]:
        """Remove and yield remaining live events as ``(time, fn, args)``
        tuples, in firing order (mainly for tests).  A sequence entry
        yields each of its remaining events as its own tuple."""
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            state = entry[_STATE]
            if state == _SEQUENCE:
                events = entry[_EVENTS]
                i = entry[_NEXT]
                t, fn, args = events[i]
                i += 1
                if i < len(events):
                    entry[_TIME] = events[i][0]
                    entry[_NEXT] = i
                    self._extra -= 1
                    heapq.heappush(heap, entry)
                yield (t, fn, args)
            elif state < _FIRED:
                yield (entry[_TIME], entry[_FN], entry[_ARGS])
            else:
                self._dead -= 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Simulator(now={self._now:.6f}, pending={self.pending}, "
            f"executed={self._events_executed})"
        )
