"""Tests for placement, connectivity graphs, gateways, and mobility."""

import networkx as nx
import numpy as np
import pytest

from repro.phy.channel import Channel
from repro.phy.propagation import TwoRayGround
from repro.phy.radio import PhyConfig, Radio
from repro.sim.engine import Simulator
from repro.topology.gateway import select_gateways
from repro.topology.graph import (
    connectivity_graph,
    ensure_connected_positions,
    mean_degree,
)
from repro.topology.mobility import RandomWaypoint, StaticMobility
from repro.topology.placement import grid_positions, random_positions


class TestPlacement:
    def test_grid_shape_and_spacing(self):
        pos = grid_positions(3, 4, 100.0)
        assert pos.shape == (12, 2)
        assert pos[1, 0] - pos[0, 0] == pytest.approx(100.0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            grid_positions(0, 3)
        with pytest.raises(ValueError):
            grid_positions(3, 3, spacing_m=0.0)

    def test_random_within_area(self):
        rng = np.random.default_rng(1)
        pos = random_positions(50, (500.0, 300.0), rng)
        assert pos.shape == (50, 2)
        assert np.all(pos[:, 0] <= 500.0) and np.all(pos[:, 1] <= 300.0)
        assert np.all(pos >= 0.0)

    def test_random_min_separation(self):
        rng = np.random.default_rng(2)
        pos = random_positions(20, (1000.0, 1000.0), rng, min_separation_m=50.0)
        d = np.hypot(*(pos[:, None, :] - pos[None, :, :]).transpose(2, 0, 1))
        np.fill_diagonal(d, np.inf)
        assert d.min() >= 50.0

    def test_random_impossible_density_raises(self):
        rng = np.random.default_rng(3)
        with pytest.raises(RuntimeError):
            random_positions(100, (10.0, 10.0), rng, min_separation_m=50.0,
                             max_attempts=200)

    def test_chain(self):
        # A chain is a one-row grid.
        pos = grid_positions(4, 1, 250.0)
        assert pos.tolist() == [[0.0, 0.0], [250.0, 0.0], [500.0, 0.0],
                                [750.0, 0.0]]

    def test_reproducible_with_seed(self):
        a = random_positions(10, (100, 100), np.random.default_rng(7))
        b = random_positions(10, (100, 100), np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestGraph:
    def test_grid_connectivity_at_range(self):
        pos = grid_positions(3, 3, 200.0)
        g = connectivity_graph(pos, 250.0)
        assert nx.is_connected(g)
        # 250 m links connect 4-neighbours only (diagonal is 283 m)
        assert g.degree[4] == 4  # centre node

    def test_disconnection_below_spacing(self):
        pos = grid_positions(3, 3, 200.0)
        g = connectivity_graph(pos, 150.0)
        assert g.number_of_edges() == 0

    def test_positions_attached(self):
        pos = grid_positions(2, 2, 100.0)
        g = connectivity_graph(pos, 150.0)
        assert g.nodes[3]["pos"] == (100.0, 100.0)

    def test_mean_degree(self):
        pos = grid_positions(2, 2, 100.0)
        g = connectivity_graph(pos, 120.0)  # edges: 4 sides, no diagonals
        assert mean_degree(g) == pytest.approx(2.0)
        assert mean_degree(nx.Graph()) == 0.0

    def test_ensure_connected_retries(self):
        rng = np.random.default_rng(5)
        pos = ensure_connected_positions(
            lambda: random_positions(15, (600.0, 600.0), rng),
            range_m=250.0,
        )
        assert nx.is_connected(connectivity_graph(pos, 250.0))

    def test_ensure_connected_gives_up(self):
        rng = np.random.default_rng(5)
        with pytest.raises(RuntimeError):
            ensure_connected_positions(
                lambda: random_positions(30, (10_000.0, 10_000.0), rng),
                range_m=100.0,
                max_tries=3,
            )

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            connectivity_graph(grid_positions(2, 2), 0.0)


class TestGateways:
    def test_single_gateway_is_central(self):
        pos = grid_positions(5, 5, 100.0)
        assert select_gateways(pos, 1) == [12]  # centre of a 5×5 grid

    def test_two_gateways_spread(self):
        pos = grid_positions(5, 5, 100.0)
        gws = select_gateways(pos, 2)
        d = np.hypot(*(pos[gws[0]] - pos[gws[1]]))
        assert d >= 200.0

    def test_k_bounds(self):
        pos = grid_positions(2, 2)
        with pytest.raises(ValueError):
            select_gateways(pos, 0)
        with pytest.raises(ValueError):
            select_gateways(pos, 5)

    def test_all_distinct(self):
        pos = grid_positions(4, 4, 100.0)
        gws = select_gateways(pos, 5)
        assert len(set(gws)) == 5


class TestMobility:
    def _channel(self, n=3):
        sim = Simulator()
        ch = Channel(sim, TwoRayGround(), propagation_delay=False)
        for i in range(n):
            r = Radio(sim, i, PhyConfig())
            ch.register(r, (float(i * 100), 0.0))
        return sim, ch

    def test_static_is_noop(self):
        m = StaticMobility()
        m.start()
        m.stop()

    def test_waypoint_moves_nodes(self):
        sim, ch = self._channel()
        rng = np.random.default_rng(3)
        rwp = RandomWaypoint(
            sim, ch, [0, 1, 2], (500.0, 500.0), (5.0, 10.0), rng,
            update_interval_s=0.1,
        )
        before = [ch.position_of(i).copy() for i in range(3)]
        rwp.start()
        sim.run(until=5.0)
        rwp.stop()
        moved = [
            not np.allclose(before[i], ch.position_of(i)) for i in range(3)
        ]
        assert all(moved)

    def test_speed_within_range(self):
        sim, ch = self._channel()
        rng = np.random.default_rng(3)
        rwp = RandomWaypoint(sim, ch, [0], (500.0, 500.0), (5.0, 10.0), rng)
        rwp.start()
        assert 5.0 <= rwp.speed_of(0) <= 10.0

    def test_positions_stay_in_area(self):
        sim, ch = self._channel()
        rng = np.random.default_rng(4)
        rwp = RandomWaypoint(
            sim, ch, [0, 1, 2], (300.0, 300.0), (20.0, 30.0), rng,
            update_interval_s=0.05,
        )
        rwp.start()
        for t in np.arange(1.0, 10.0, 1.0):
            sim.run(until=float(t))
            for i in range(3):
                p = ch.position_of(i)
                assert -1.0 <= p[0] <= 301.0 and -1.0 <= p[1] <= 301.0

    def test_invalid_speeds(self):
        sim, ch = self._channel()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            RandomWaypoint(sim, ch, [0], (100, 100), (0.0, 5.0), rng)
        with pytest.raises(ValueError):
            RandomWaypoint(sim, ch, [0], (100, 100), (5.0, 1.0), rng)
