"""Spatial-grid channel dispatch: grid mechanics, incremental
invalidation, and plan identity with a brute-force full-table oracle."""

import math

import numpy as np
import pytest

from repro.phy.channel import _KSTRIDE, Channel
from repro.phy.frame import PhyFrame
from repro.phy.propagation import LogNormalShadowing, TwoRayGround
from repro.phy.radio import PhyConfig, Radio
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.units import SPEED_OF_LIGHT


def _make_channel(positions, node_ids=None, phy=None, propagation=None):
    sim = Simulator()
    ch = Channel(sim, propagation or TwoRayGround(), propagation_delay=True)
    ids = node_ids if node_ids is not None else range(len(positions))
    for nid, pos in zip(ids, positions):
        r = Radio(sim, nid, phy or PhyConfig())
        ch.register(r, tuple(pos))
    return ch


def _random_layout(n, extent, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, extent, size=(n, 2))


def _plan_signature(ch, tx, power):
    receivers, powers, delays = ch._dispatch_plan(tx, power)
    return ([r.node_id for r in receivers], powers, delays)


def _brute_force_plan(ch, tx, power):
    """The plan a scan of the whole position table gives: propagation over
    every node, the cull, self excluded, delays."""
    pos, ids = ch._pos_buf[: ch._n], ch._id_buf[: ch._n]
    tx_idx = ch._index_of(tx)
    tx_pos = pos[tx_idx]
    if isinstance(ch.propagation, LogNormalShadowing):
        ch.propagation.set_transmitter(tx)
    powers = np.array(
        ch.propagation.rx_power_many(power, tx_pos, pos, rx_ids=ids), dtype=float
    )
    mask = powers >= ch._cull_threshold()
    mask[tx_idx] = False
    rx = np.nonzero(mask)[0]
    d = np.hypot(pos[rx, 0] - tx_pos[0], pos[rx, 1] - tx_pos[1])
    delays = d / SPEED_OF_LIGHT if ch.propagation_delay else np.zeros(len(rx))
    return ids[rx].tolist(), powers[rx].tolist(), delays.tolist()


class TestPlanEquivalence:
    """Grid dispatch agrees bit-for-bit with the brute-force oracle."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_static_plans_identical(self, seed):
        pos = _random_layout(60, 3000.0, seed)
        ch = _make_channel(pos)
        p = PhyConfig().tx_power_w
        for tx in range(60):
            ids_s, pw_s, dl_s = _plan_signature(ch, tx, p)
            ids_e, pw_e, dl_e = _brute_force_plan(ch, tx, p)
            assert ids_s == ids_e
            assert pw_s == pw_e  # exact float equality, not approx
            assert dl_s == dl_e

    @pytest.mark.parametrize("seed", [3, 4])
    def test_plans_identical_under_moves(self, seed):
        rng = np.random.default_rng(seed)
        pos = _random_layout(40, 2500.0, seed)
        ch = _make_channel(pos)
        p = PhyConfig().tx_power_w
        for step in range(30):
            tx = int(rng.integers(40))
            assert _plan_signature(ch, tx, p) == _brute_force_plan(ch, tx, p)
            mover = int(rng.integers(40))
            ch.set_position(mover, tuple(rng.uniform(-200.0, 2700.0, size=2)))
            assert _plan_signature(ch, mover, p) == \
                _brute_force_plan(ch, mover, p)

    def test_shadowing_runs_one_cell_grid(self):
        # Unbounded reach: one cell covering the plane, not a second path.
        rs = RandomStreams(5)
        prop = LogNormalShadowing(TwoRayGround(), 4.0, rs)
        ch = _make_channel(_random_layout(30, 2000.0, 5), propagation=prop)
        rng = np.random.default_rng(6)
        p = PhyConfig().tx_power_w
        for step in range(60):
            tx = int(rng.integers(30))
            assert _plan_signature(ch, tx, p) == _brute_force_plan(ch, tx, p)
            mover = int(rng.integers(30))
            ch.set_position(mover, tuple(rng.uniform(-500.0, 2500.0, size=2)))
        assert ch._grid_active and ch._cell_size == math.inf
        assert not ch._key_buf[: ch._n].any()
        # zero-sigma shadowing degenerates to the base model: finite cells
        assert math.isfinite(
            LogNormalShadowing(TwoRayGround(), 0.0, rs).max_interference_range(
                0.28, 1e-12
            )
        )


class TestGridMechanics:
    def test_colocated_nodes_share_a_cell(self):
        pos = [(100.0, 100.0)] * 4 + [(900.0, 900.0)]
        ch = _make_channel(pos)
        ch._ensure_grid()
        cells = {int(ch._key_buf[i]) for i in range(4)}
        assert len(cells) == 1
        ids, _, _ = _plan_signature(ch, 0, PhyConfig().tx_power_w)
        assert {1, 2, 3} <= set(ids)

    def test_boundary_and_negative_coordinates(self):
        ch = _make_channel([(0.0, 0.0), (500.0, 0.0)])
        ch._ensure_grid()
        c = ch._cell_size
        # Exactly on a cell edge, and in negative space.
        ch.register(
            Radio(ch.sim, 7, PhyConfig()),
            (c, -c),
        )
        assert int(ch._key_buf[ch._index_of(7)]) == 1 * _KSTRIDE + (-1)
        p = PhyConfig().tx_power_w
        for nid in (0, 1, 7):
            assert _plan_signature(ch, nid, p) == _brute_force_plan(ch, nid, p)

    def test_radius_larger_than_arena(self):
        # The interference range covers the whole arena: everyone hears 3.
        pos = _random_layout(25, 400.0, 11)
        ch = _make_channel(pos)
        p = PhyConfig().tx_power_w
        ids, _, _ = _plan_signature(ch, 3, p)
        assert ids == _brute_force_plan(ch, 3, p)[0]
        assert set(ids) == set(range(25)) - {3}

    def test_move_updates_grid_membership(self):
        ch = _make_channel([(0.0, 0.0), (100.0, 0.0)])
        ch._ensure_grid()
        p = PhyConfig().tx_power_w
        far = 50 * ch._cell_size
        ch.set_position(1, (far, far))
        idx = ch._index_of(1)
        assert int(ch._key_buf[idx]) == ch._key_of(far, far)
        assert _plan_signature(ch, 0, p)[0] == []
        ch.set_position(1, (100.0, 0.0))
        assert _plan_signature(ch, 0, p)[0] == [1]

    def test_register_after_grid_build_is_queryable(self):
        ch = _make_channel([(0.0, 0.0), (200.0, 0.0)])
        p = PhyConfig().tx_power_w
        ch._dispatch_plan(0, p)  # builds grid + caches a plan
        ch.register(
            Radio(ch.sim, 9, PhyConfig()),
            (100.0, 0.0),
        )
        ids, _, _ = _plan_signature(ch, 0, p)
        assert 9 in ids  # the stale 2-node plan was invalidated

    def test_sensitive_radio_registered_late_hears_weak_arrivals(self):
        # The first transmit derives the cull threshold (cs/10) from the
        # radios registered so far; a later radio with a lower carrier-
        # sense threshold must hear every arrival above its own cs/10.
        ch = _make_channel([(0.0, 0.0), (200.0, 0.0)])
        p = PhyConfig().tx_power_w
        frame = PhyFrame(payload=None, bits=512, rate_bps=2e6,
                         preamble_s=192e-6, tx_power_w=p, tx_node=0)
        ch.transmit(0, frame)
        ch.sim.run()
        sensitive = PhyConfig(cs_threshold_w=PhyConfig().cs_threshold_w / 100)
        radio = Radio(ch.sim, 9, sensitive)
        heard = []
        on_rx_start = radio.on_rx_start

        def spy(f, power_w):
            heard.append(power_w)
            on_rx_start(f, power_w)

        radio.on_rx_start = spy
        ch.register(radio, (1500.0, 0.0))
        power = ch.propagation.rx_power_many(
            p, np.array([0.0, 0.0]), np.array([[1500.0, 0.0]]),
            rx_ids=np.array([9]),
        )[0]
        assert sensitive.cs_threshold_w / 10 <= power
        assert power < PhyConfig().cs_threshold_w / 10  # below the old cull
        ch.transmit(0, frame)
        ch.sim.run()
        assert heard == [power]


class TestIncrementalInvalidation:
    def test_far_move_keeps_unrelated_plans(self):
        # Two clusters far apart: a move in one must not evict the other's
        # cached plan.
        pos = [(0.0, 0.0), (150.0, 0.0), (50_000.0, 0.0), (50_150.0, 0.0)]
        ch = _make_channel(pos)
        p = PhyConfig().tx_power_w
        ch._dispatch_plan(0, p)
        ch._dispatch_plan(2, p)
        assert len(ch._dispatch_cache) == 2
        ch.set_position(3, (50_140.0, 10.0))
        assert (0, p) in ch._dispatch_cache      # far cluster untouched
        assert (2, p) not in ch._dispatch_cache  # mover's neighbourhood stale

    def test_near_move_invalidates_dependent_plan(self):
        pos = [(0.0, 0.0), (150.0, 0.0), (400.0, 0.0)]
        ch = _make_channel(pos)
        p = PhyConfig().tx_power_w
        before = _plan_signature(ch, 0, p)
        ch.set_position(1, (151.0, 0.0))  # intra-neighbourhood (maybe intra-cell)
        after = _plan_signature(ch, 0, p)
        assert before[0] == after[0]
        assert before[1] != after[1]  # rx power at node 1 changed

    def test_heterogeneous_power_keys_do_not_alias(self):
        pos = [(0.0, 0.0), (150.0, 0.0)]
        ch = _make_channel(pos)
        p = PhyConfig().tx_power_w
        _, pw_lo, _ = ch._dispatch_plan(0, p)
        _, pw_hi, _ = ch._dispatch_plan(0, p / 2)
        assert (0, p) in ch._dispatch_cache and (0, p / 2) in ch._dispatch_cache
        assert pw_hi[0] == pytest.approx(pw_lo[0] / 2)

    def test_power_above_grid_sizing_rebuilds(self):
        pos = [(0.0, 0.0), (150.0, 0.0)]
        ch = _make_channel(pos)
        p = PhyConfig().tx_power_w
        ch._dispatch_plan(0, p)
        sized = ch._grid_power_w
        ch._dispatch_plan(0, 4 * p)
        assert ch._grid_power_w == 4 * p > sized

    def test_move_many_batches(self):
        pos = _random_layout(30, 2000.0, 13)
        ch = _make_channel(pos)
        rng = np.random.default_rng(17)
        p = PhyConfig().tx_power_w
        for _ in range(5):
            updates = [
                (int(nid), tuple(rng.uniform(0.0, 2000.0, size=2)))
                for nid in rng.integers(30, size=6)
            ]
            ch.move_many(updates)
            for tx in range(0, 30, 5):
                assert _plan_signature(ch, tx, p) == \
                    _brute_force_plan(ch, tx, p)
