"""Batched kernel (DESIGN.md §8): engine block events, vectorised
SINR/capture decisions, pair propagation, plan warming — each verified
byte-identical to its scalar reference — plus the end-to-end 3-seed ×
{static, mobility, faults} equality matrix."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.runner import run_scenario
from repro.experiments.scenario import ScenarioConfig, build_network
from repro.mac.busy_monitor import BusyMonitor
from repro.phy import sinr_kernel
from repro.phy.channel import Channel
from repro.phy.frame import PhyFrame
from repro.phy.propagation import LogNormalShadowing, TwoRayGround
from repro.phy.radio import PhyConfig, Radio, rx_end_block, rx_start_block
from repro.sim.engine import Simulator
from repro.sim.errors import SchedulingError
from repro.sim.process import Timer
from repro.sim.rng import RandomStreams


# --------------------------------------------------------------------- #
# Engine: block events and batch handlers
# --------------------------------------------------------------------- #
class TestEngineBlocks:
    def test_schedule_block_requires_batch_mode(self):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.schedule_block(1.0, 3, lambda: None)

    def test_block_counts_logical_events(self):
        sim = Simulator()
        sim.enable_batching()
        hits = []
        sim.schedule_block(1.0, 5, hits.append, "x")
        sim.run()
        assert hits == ["x"]  # handler fires once for the whole block
        assert sim.events_executed == 5

    def test_block_cancel(self):
        sim = Simulator()
        sim.enable_batching()
        hits = []
        h = sim.schedule_block(1.0, 4, hits.append, "x")
        h.cancel()
        sim.run()
        assert hits == []
        assert sim.events_executed == 0

    def test_blocks_interleave_with_scalar_events_in_time_order(self):
        sim = Simulator()
        sim.enable_batching()
        order = []
        sim.schedule(1.0, order.append, "a")
        sim.schedule_block(2.0, 3, order.append, "block")
        sim.schedule(3.0, order.append, "b")
        sim.run()
        assert order == ["a", "block", "b"]
        assert sim.events_executed == 5

    def test_batch_handler_coalesces_same_instant_events(self):
        sim = Simulator()
        batches = []

        def marker():
            pass

        def handler(s, batch):
            batches.append(len(batch))
            for fn, args in batch:
                fn(*args)

        sim.register_batch_handler(marker, handler)
        for _ in range(4):
            sim.schedule(1.0, marker)
        sim.schedule(2.0, marker)
        sim.run()
        assert batches == [4, 1]
        assert sim.events_executed == 5

    def test_batch_handler_preserves_cross_kind_order(self):
        sim = Simulator()
        order = []

        def marker(tag):
            order.append(tag)

        def handler(s, batch):
            for fn, args in batch:
                fn(*args)

        sim.register_batch_handler(marker, handler)
        sim.schedule(1.0, marker, "k1")
        sim.schedule(1.0, order.append, "plain")
        sim.schedule(1.0, marker, "k2")
        sim.run()
        # The plain event splits the batch: coalescing never crosses a
        # different event kind, so execution order matches the scalar heap.
        assert order == ["k1", "plain", "k2"]


# --------------------------------------------------------------------- #
# SINR/capture kernel vs the scalar branch logic
# --------------------------------------------------------------------- #
def _scalar_action(p, state, cur_p, thr, ratio, cap_en):
    if state == sinr_kernel.ST_IDLE:
        return sinr_kernel.ACT_LOCK if p >= thr else sinr_kernel.ACT_NONE
    if state == sinr_kernel.ST_RX:
        if cap_en and p >= thr and p >= cur_p * ratio:
            return sinr_kernel.ACT_CAPTURE
        return sinr_kernel.ACT_RESEED
    return sinr_kernel.ACT_NONE


class TestCaptureActions:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_branches(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        powers = rng.uniform(1e-12, 1e-3, n)
        states = rng.integers(0, 3, n).astype(np.int8)
        cur_powers = rng.uniform(1e-12, 1e-3, n)
        thr = rng.uniform(1e-10, 1e-6)
        ratio = rng.uniform(1.0, 20.0)
        cap_en = bool(rng.integers(0, 2))
        got = sinr_kernel.capture_actions(
            powers, states, cur_powers, thr, ratio, cap_en
        )
        want = [
            _scalar_action(powers[k], states[k], cur_powers[k], thr, ratio,
                           cap_en)
            for k in range(n)
        ]
        assert got.tolist() == want

    def test_threshold_edge_is_inclusive(self):
        acts = sinr_kernel.capture_actions(
            np.array([1e-9]), np.array([sinr_kernel.ST_IDLE], dtype=np.int8),
            np.array([np.inf]), 1e-9, 10.0, True,
        )
        assert acts.tolist() == [sinr_kernel.ACT_LOCK]


# --------------------------------------------------------------------- #
# rx_power_pairs ≡ rx_power_many (bit-exact per model)
# --------------------------------------------------------------------- #
class TestRxPowerPairs:
    @pytest.mark.parametrize("model", [
        TwoRayGround(),
        # Unkeyed shadowing evaluates its base model.
        LogNormalShadowing(TwoRayGround(), 4.0, RandomStreams(0)),
    ])
    def test_bit_identical_to_many(self, model):
        rng = np.random.default_rng(3)
        tx_pos = rng.uniform(0, 1000, (40, 2))
        rx_pos = rng.uniform(0, 1000, (40, 2))
        power = rng.uniform(0.01, 0.2, 40)
        pairs = model.rx_power_pairs(power, tx_pos, rx_pos)
        for k in range(40):
            many = model.rx_power_many(
                float(power[k]), tx_pos[k], rx_pos[k : k + 1]
            )
            assert pairs[k] == many[0]

    def test_shadowing_applies_pair_offsets(self):
        streams = RandomStreams(9)
        model = LogNormalShadowing(TwoRayGround(), 6.0, streams)
        rng = np.random.default_rng(4)
        tx_pos = rng.uniform(0, 500, (10, 2))
        rx_pos = rng.uniform(0, 500, (10, 2))
        power = np.full(10, 0.1)
        tx_ids = np.arange(10)
        rx_ids = np.arange(10, 20)
        pairs = model.rx_power_pairs(
            power, tx_pos, rx_pos, tx_ids=tx_ids, rx_ids=rx_ids
        )
        for k in range(10):
            model.set_transmitter(int(tx_ids[k]))
            many = model.rx_power_many(
                0.1, tx_pos[k], rx_pos[k : k + 1], rx_ids=rx_ids[k : k + 1]
            )
            assert pairs[k] == many[0]


# --------------------------------------------------------------------- #
# Channel: warm_plans ≡ lazy plans (including invalidation registration)
# --------------------------------------------------------------------- #
def _make_channel(positions, **kw):
    sim = Simulator()
    ch = Channel(sim, TwoRayGround(), propagation_delay=False, **kw)
    for i, pos in enumerate(positions):
        r = Radio(sim, i, PhyConfig())
        ch.register(r, tuple(pos))
    return ch


def _plan_sig(ch, tx, power):
    rxs, pws, dls = ch._dispatch_plan(tx, power)
    return [r.node_id for r in rxs], pws, dls


class TestWarmPlans:
    def test_warmed_plans_bit_identical_to_lazy(self):
        rng = np.random.default_rng(11)
        pos = rng.uniform(0, 1500, (60, 2))
        warm = _make_channel(pos)
        lazy = _make_channel(pos)
        power = PhyConfig().tx_power_w
        pairs = [(tx, power) for tx in range(0, 60, 2)]
        warm.warm_plans(pairs)
        for tx, p in pairs:
            assert (tx, p) in warm._dispatch_cache
            assert _plan_sig(warm, tx, p) == _plan_sig(lazy, tx, p)

    def test_warmed_plans_invalidate_on_move(self):
        rng = np.random.default_rng(12)
        pos = rng.uniform(0, 1500, (40, 2))
        warm = _make_channel(pos)
        lazy = _make_channel(pos)
        power = PhyConfig().tx_power_w
        warm.warm_plans([(tx, power) for tx in range(40)])
        for ch in (warm, lazy):
            ch.set_position(7, (10.0, 10.0))
        for tx in range(40):
            assert _plan_sig(warm, tx, power) == _plan_sig(lazy, tx, power)

    def test_single_pair_and_shadowing_fall_back(self):
        rng = np.random.default_rng(13)
        pos = rng.uniform(0, 800, (20, 2))
        power = PhyConfig().tx_power_w
        ch = _make_channel(pos)
        ch.warm_plans([(3, power)])
        assert (3, power) in ch._dispatch_cache

        sim = Simulator()
        streams = RandomStreams(2)
        shadow = Channel(
            sim, LogNormalShadowing(TwoRayGround(), 4.0, streams),
            propagation_delay=False,
        )
        for i, p in enumerate(pos):
            shadow.register(
                Radio(sim, i, PhyConfig()), tuple(p)
            )
        lazy_sig = None
        shadow.warm_plans([(0, power), (1, power)])
        assert (0, power) in shadow._dispatch_cache


# --------------------------------------------------------------------- #
# Block reception handlers vs scalar on randomized concurrent sets
# --------------------------------------------------------------------- #
def _reception_state(radios):
    out = []
    for r in radios:
        out.append((
            r.state.value, r._impinging_w, sorted(r._arriving),
            r.frames_received, r.frames_corrupted, r.frames_captured,
            r._cca_busy,
            None if r._current is None else (
                r._current.frame.uid, r._current.rx_power_w,
                r._current.min_sinr,
            ),
        ))
    return out


class TestBlockHandlersMatchScalar:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_randomized_concurrent_receptions(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 25))

        def build():
            sim = Simulator()
            radios = [
                Radio(sim, i, PhyConfig())
                for i in range(n)
            ]
            return sim, radios

        sim_a, scalar_radios = build()
        sim_b, block_radios = build()
        thr = PhyConfig().rx_threshold_w
        # Overlapping frames with randomized powers spanning weak
        # interference to capture-strength arrivals.
        frames = []
        for f in range(int(rng.integers(1, 5))):
            powers = (thr * 10 ** rng.uniform(-2.0, 3.0, n)).tolist()
            frame = PhyFrame(payload=("pkt", f), bits=2048, rate_bps=11e6,
                             preamble_s=192e-6, tx_power_w=0.1, tx_node=100 + f)
            frames.append((frame, powers))
        # Random interleaving of starts, then matching ends.
        t = 0.0
        for frame, powers in frames:
            t += float(rng.uniform(0.0, 2e-4))
            sim_a._now = sim_b._now = t
            for k, r in enumerate(scalar_radios):
                r.on_rx_start(frame, powers[k])
            rx_start_block(block_radios, frame, powers)
            assert _reception_state(scalar_radios) == \
                _reception_state(block_radios)
        for frame, powers in frames:
            t += float(rng.uniform(1e-4, 1e-3))
            sim_a._now = sim_b._now = t
            for r in scalar_radios:
                r.on_rx_end(frame)
            rx_end_block(block_radios, frame)
            assert _reception_state(scalar_radios) == \
                _reception_state(block_radios)

    def test_unpowered_receiver_falls_back(self):
        sim = Simulator()
        radios = [
            Radio(sim, i, PhyConfig())
            for i in range(6)
        ]
        radios[2].set_power_state(False)
        frame = PhyFrame(payload="x", bits=2048, rate_bps=11e6,
                         preamble_s=192e-6, tx_power_w=0.1, tx_node=99)
        powers = [1e-6] * 6
        rx_start_block(radios, frame, powers)
        assert frame.uid in radios[2]._ignore_rx_end
        assert frame.uid not in radios[2]._arriving
        rx_end_block(radios, frame)
        assert frame.uid not in radios[2]._ignore_rx_end
        for i in (0, 1, 3, 4, 5):
            assert frame.uid not in radios[i]._arriving


# --------------------------------------------------------------------- #
# End-to-end byte equality: batched_kernel=True vs scalar
# --------------------------------------------------------------------- #
def _result_blob(config: ScenarioConfig) -> str:
    r = run_scenario(config)
    blob = dict(r.as_dict())
    blob["per_node_forwarded"] = r.per_node_forwarded.tolist()
    blob["events_executed"] = r.events_executed
    blob["totals"] = r.totals
    blob["metrics"] = r.metrics_snapshot
    return json.dumps(blob, sort_keys=True)


class TestBatchedKernelByteEquality:
    """The acceptance matrix: 3 seeds × {static, mobility, faults}."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("variant", ["static", "mobility", "faults"])
    def test_run_scenario_identical(self, seed, variant):
        base = ScenarioConfig(
            protocol="nlr", grid_nx=3, grid_ny=3, n_flows=2,
            flow_rate_pps=4.0, sim_time_s=5.0, warmup_s=1.0, seed=seed,
        )
        if variant == "mobility":
            base = replace(base, mobility="rwp", speed_range=(2.0, 8.0),
                           pause_s=0.5)
        elif variant == "faults":
            base = replace(base, fault_spec={
                "kind": "poisson_crashes", "rate_per_s": 0.2, "mttr_s": 2.0,
            })
        scalar = _result_blob(replace(base, batched_kernel=False))
        batched = _result_blob(replace(base, batched_kernel=True))
        assert scalar == batched

    def test_trace_summary_identical(self):
        base = ScenarioConfig(
            protocol="nlr", grid_nx=3, grid_ny=3, n_flows=2,
            flow_rate_pps=4.0, sim_time_s=4.0, warmup_s=1.0, seed=5,
            trace_spec={},
        )
        summaries = []
        for flag in (False, True):
            net = build_network(replace(base, batched_kernel=flag))
            for s in net.stacks:
                s.start()
            for src in net.sources:
                src.start()
            net.sim.run(until=base.sim_time_s)
            by_category: dict[str, int] = {}
            for r in net.trace_ring:
                by_category[r.category] = by_category.get(r.category, 0) + 1
            summaries.append((net.tracer.recorded, by_category))
        assert summaries[0] == summaries[1]

    def test_zero_delay_regime_identical(self):
        # propagation_delay=False collapses every fan-out into one delay
        # group — the maximal-block regime the perf numbers come from.
        base = ScenarioConfig(
            protocol="nlr", grid_nx=4, grid_ny=4, n_flows=4,
            flow_rate_pps=8.0, sim_time_s=4.0, warmup_s=1.0, seed=2,
            propagation_delay=False,
        )
        assert _result_blob(replace(base, batched_kernel=False)) == \
            _result_blob(replace(base, batched_kernel=True))

    def test_timer_batch_handler_registered(self):
        net = build_network(ScenarioConfig(
            protocol="nlr", grid_nx=3, grid_ny=3, batched_kernel=True,
        ))
        key = Timer._fire.__func__ if hasattr(Timer._fire, "__func__") \
            else Timer._fire
        assert key in net.sim._batch_handlers
        assert isinstance(net.stacks[0].mac.busy_monitor, BusyMonitor)

    def test_scalar_config_keeps_scalar_types(self):
        net = build_network(ScenarioConfig(
            protocol="nlr", grid_nx=3, grid_ny=3, batched_kernel=False,
        ))
        assert not net.sim.batching
        assert type(net.stacks[0].mac.busy_monitor) is BusyMonitor
