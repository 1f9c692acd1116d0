"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.stats import mean_ci
from repro.core.load_metric import LoadEstimator
from repro.core.cross_layer import LoadSample
from repro.core.forwarding_policy import LoadAdaptiveGossip
from repro.mac.busy_monitor import BusyMonitor
from repro.mac.queue import DropTailQueue
from repro.metrics.fairness import jain_index
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


# ---------------------------------------------------------------------- #
# Engine ordering
# ---------------------------------------------------------------------- #
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            st.integers(min_value=-3, max_value=3),
        ),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=60, deadline=None)
def test_engine_executes_in_nondecreasing_time_priority_order(events):
    sim = Simulator()
    fired: list[tuple[float, int, int]] = []
    for k, (t, prio) in enumerate(events):
        sim.schedule(t, lambda t=t, p=prio, k=k: fired.append((t, p, k)),
                     priority=prio)
    sim.run()
    assert len(fired) == len(events)
    # lexicographic (time, priority, insertion) order must hold
    keys = [(t, p, k) for (t, p, k) in fired]
    # insertion counter k is globally unique but only FIFO *within* equal
    # (time, priority); check pairwise ordering on (time, priority) and
    # FIFO among exact ties.
    for a, b in zip(keys, keys[1:]):
        assert (a[0], a[1]) <= (b[0], b[1])
        if (a[0], a[1]) == (b[0], b[1]):
            assert a[2] < b[2]


@given(st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                min_size=0, max_size=50))
@settings(max_examples=40, deadline=None)
def test_engine_clock_never_goes_backwards(times):
    sim = Simulator()
    observed: list[float] = []
    for t in times:
        sim.schedule(t, lambda: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)


# ---------------------------------------------------------------------- #
# Queue invariants
# ---------------------------------------------------------------------- #
@given(st.lists(st.sampled_from(["push", "pop"]), max_size=300),
       st.integers(min_value=1, max_value=10))
@settings(max_examples=60, deadline=None)
def test_queue_conservation_and_bounds(ops, capacity):
    q = DropTailQueue(Simulator(), capacity=capacity)
    seq = 0
    popped: list[int] = []
    for op in ops:
        if op == "push":
            q.push(seq)
            seq += 1
        else:
            item = q.pop()
            if item is not None:
                popped.append(item)
    # bounded
    assert 0 <= len(q) <= capacity
    # conservation: enqueued = dequeued + still-queued; drops accounted
    assert q.enqueued == q.dequeued + len(q)
    assert q.enqueued + q.dropped == seq
    # FIFO: popped items strictly increasing
    assert popped == sorted(popped)
    assert 0.0 <= q.occupancy_ratio <= 1.0


# ---------------------------------------------------------------------- #
# Busy monitor
# ---------------------------------------------------------------------- #
@given(
    st.lists(
        st.tuples(st.floats(min_value=0.001, max_value=0.5), st.booleans()),
        min_size=1, max_size=60,
    )
)
@settings(max_examples=50, deadline=None)
def test_busy_ratio_always_in_unit_interval(transitions):
    sim = Simulator()
    m = BusyMonitor(sim, window_s=1.0)
    t = 0.0
    for gap, busy in transitions:
        t += gap
        sim.schedule(t, m.on_medium_state, busy)
    sim.schedule(t + 0.01, lambda: None)
    sim.run()
    assert 0.0 <= m.busy_ratio() <= 1.0


# ---------------------------------------------------------------------- #
# Load estimator
# ---------------------------------------------------------------------- #
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        ),
        min_size=1, max_size=100,
    ),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.01, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_load_estimator_stays_in_unit_interval(samples, beta, alpha):
    e = LoadEstimator(queue_weight=beta, alpha_ewma=alpha)
    for q, b in samples:
        e.on_sample(LoadSample(time=0.0, queue_occupancy=q, busy_ratio=b))
        assert 0.0 <= e.load() <= 1.0
    # EWMA of values in [0,1] stays within the sample hull
    qs = [q for q, _ in samples]
    bs = [b for _, b in samples]
    assert min(qs) - 1e-9 <= e.queue_load <= max(qs) + 1e-9
    assert min(bs) - 1e-9 <= e.busy_load <= max(bs) + 1e-9


# ---------------------------------------------------------------------- #
# Forwarding probability
# ---------------------------------------------------------------------- #
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.0, max_value=2.0),
)
@settings(max_examples=80, deadline=None)
def test_adaptive_probability_bounds(load, p_min, gamma):
    p_max = 1.0
    policy = LoadAdaptiveGossip(
        np.random.default_rng(0), p_max=p_max, p_min=min(p_min, p_max),
        gamma=gamma,
    )
    p = policy.probability(load)
    assert policy.p_min <= p <= p_max


# ---------------------------------------------------------------------- #
# Fairness index
# ---------------------------------------------------------------------- #
@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                min_size=1, max_size=64))
@settings(max_examples=80, deadline=None)
def test_jain_bounds_property(values):
    j = jain_index(values)
    n = len(values)
    assert 1.0 / n - 1e-9 <= j <= 1.0 + 1e-9


@given(st.floats(min_value=0.01, max_value=1e5), st.integers(2, 32))
@settings(max_examples=40, deadline=None)
def test_jain_scale_invariant(scale, n):
    rng = np.random.default_rng(1)
    x = rng.uniform(0.1, 5.0, size=n)
    assert jain_index(x) == pytest.approx(jain_index(x * scale), rel=1e-9)


# ---------------------------------------------------------------------- #
# RNG stream independence
# ---------------------------------------------------------------------- #
@given(st.integers(min_value=0, max_value=2**31 - 1), st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
    min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_rng_streams_reproducible(seed, name):
    a = RandomStreams(seed).stream(name).random(4)
    b = RandomStreams(seed).stream(name).random(4)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------- #
# Confidence intervals
# ---------------------------------------------------------------------- #
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=2, max_size=40))
@settings(max_examples=60, deadline=None)
def test_ci_contains_mean_and_is_symmetric(values):
    ci = mean_ci(values)
    assert ci.low <= ci.mean <= ci.high
    assert ci.high - ci.mean == pytest.approx(ci.mean - ci.low, rel=1e-9,
                                              abs=1e-12)
    assert ci.half_width >= 0.0


# ---------------------------------------------------------------------- #
# Packet TTL / hop invariant through a chain of AODV nodes
# ---------------------------------------------------------------------- #
@given(st.integers(min_value=2, max_value=8))
@settings(max_examples=10, deadline=None)
def test_hops_equal_chain_length(n):
    from repro.net.aodv import AodvConfig, AodvRouting
    from tests.conftest import chain_adjacency, make_perfect_net

    sim, stacks = make_perfect_net(
        chain_adjacency(n),
        lambda nid, streams: AodvRouting(
            AodvConfig(hello_enabled=False), streams.stream(f"r{nid}")
        ),
    )
    got = []
    stacks[n - 1].receive_callback = got.append
    stacks[0].send_data(dst=n - 1, payload_bytes=10)
    sim.run(until=5.0)
    assert len(got) == 1
    assert got[0].hops == n - 1
