"""Tests for the run CLI and the topology renderer."""

import numpy as np
import pytest

from repro.__main__ import build_parser, main
from repro.topology.placement import grid_positions
from repro.topology.render import render_topology


class TestRenderTopology:
    def test_basic_markers(self):
        pos = grid_positions(3, 3, 100.0)
        out = render_topology(
            pos, gateways=[4], sources=[0], destinations=[8]
        )
        assert "G" in out and "s" in out and "d" in out and "o" in out
        assert "G=gateway" in out

    def test_gateway_wins_conflicts(self):
        pos = np.array([[0.0, 0.0], [0.0, 0.0], [100.0, 100.0]])
        out = render_topology(pos, gateways=[1], width=10, height=5)
        assert "G" in out

    def test_show_ids(self):
        pos = grid_positions(2, 2, 100.0)
        out = render_topology(pos, show_ids=True, width=12, height=6)
        for digit in "0123":
            assert digit in out

    def test_validation(self):
        with pytest.raises(ValueError):
            render_topology(np.empty((0, 2)))
        with pytest.raises(ValueError):
            render_topology(grid_positions(2, 2), width=4, height=2)

    def test_single_node(self):
        out = render_topology(np.array([[5.0, 5.0]]), width=10, height=5)
        assert "o" in out


class TestRunCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.protocol == "nlr"
        assert args.grid == "5x5"

    def test_run_small_scenario(self, capsys):
        rc = main([
            "--protocol", "aodv", "--grid", "3x3", "--flows", "2",
            "--rate", "5", "--time", "8", "--warmup", "1", "--seed", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pdr" in out
        assert "aodv on 9 nodes" in out

    def test_map_and_loads_flags(self, capsys):
        rc = main([
            "--protocol", "oracle", "--grid", "3x3", "--flows", "2",
            "--rate", "5", "--time", "8", "--warmup", "1",
            "--map", "--loads",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "o=router" in out
        assert "forwarding load" in out

    def test_bad_grid_errors(self, capsys):
        rc = main(["--grid", "5by5", "--time", "6", "--warmup", "1"])
        assert rc == 2
        assert "bad --grid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--time", "3", "--warmup", "5"], "sim_time_s must exceed warmup_s"),
            (["--rate", "-5"], "flow_rate_pps must be positive"),
            (["--grid", "0x0"], "grid dimensions must be ≥ 1"),
        ],
    )
    def test_bad_scenario_value_exits_2(self, capsys, args, message):
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("python -m repro: error: ")
        assert message in err and len(err.splitlines()) == 1

    def test_bad_protocol_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--protocol", "ospf"])
