"""``repro-dse`` end-to-end: template → screen → re-run → report."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.dse.cli import main
from repro.exec.progress import RUN_LOG_KEEP
from repro.experiments.scenario import ScenarioConfig
from repro.experiments.serialization import save_config


@pytest.fixture()
def env(tmp_path, monkeypatch):
    """Isolated cache plus a tiny space + base config on disk."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    space = tmp_path / "space.json"
    space.write_text(json.dumps({
        "name": "cli-tiny",
        "dimensions": [
            {"name": "gamma", "field": "nlr.gamma", "type": "continuous",
             "low": 0.0, "high": 1.0},
            {"name": "p_min", "field": "nlr.p_min", "type": "continuous",
             "low": 0.1, "high": 0.8},
        ],
    }))
    base = tmp_path / "base.json"
    save_config(
        ScenarioConfig(
            protocol="nlr", grid_nx=3, grid_ny=3, n_flows=2,
            sim_time_s=6.0, warmup_s=1.0, seed=3,
        ),
        base,
    )
    return tmp_path


def screen_args(env, out="run", extra=()):
    return [
        "screen", "--space", str(env / "space.json"),
        "--base", str(env / "base.json"), "--out", str(env / out),
        "--lhs", "4", "--seed", "7", *extra,
    ]


def test_template_writes_example_space(tmp_path):
    out = tmp_path / "space.json"
    assert main(["template", "-o", str(out)]) == 0
    space = json.loads(out.read_text())
    assert space["name"] == "nlr-tuning"
    assert len(space["dimensions"]) == 6


def test_template_stdout(capsys):
    assert main(["template"]) == 0
    assert json.loads(capsys.readouterr().out)["name"] == "nlr-tuning"


def test_search_report_round_trip(env, capsys):
    # One SearchState round trip: a screening, its re-run from cell
    # checkpoints, and the three report formats over its state file.
    assert main(screen_args(env)) == 0
    out_lines = capsys.readouterr().out.splitlines()
    hash_line = [l for l in out_lines if l.startswith("final population hash:")]
    assert hash_line, out_lines
    first_hash = hash_line[0].split()[-1]
    assert (env / "run" / "state.json").exists()

    # Re-running the same screening loads every cell from its checkpoint
    # and reproduces the exact hash.
    assert main(screen_args(env)) == 0
    rerun = capsys.readouterr().out
    assert f"final population hash: {first_hash}" in rerun
    assert "0 simulations run" in rerun

    # Reports in all three formats.
    assert main(["report", str(env / "run")]) == 0
    table = capsys.readouterr().out
    assert "pareto" in table.lower() or "fitness" in table.lower()
    assert first_hash in table

    assert main(["report", str(env / "run"), "--format", "csv",
                 "-o", str(env / "front.csv")]) == 0
    capsys.readouterr()
    csv_text = (env / "front.csv").read_text()
    assert "gamma" in csv_text.splitlines()[0]

    assert main(["report", str(env / "run"), "--format", "scatter",
                 "--x", "pdr", "--y", "mean_delay_s"]) == 0
    assert "pdr" in capsys.readouterr().out

    # A mistyped key names the objectives the state has.
    assert main(["report", str(env / "run"), "--format", "scatter",
                 "--x", "pdrr"]) == 2
    err = capsys.readouterr().err
    assert "unknown objective 'pdrr'" in err
    assert "pdr, mean_delay_s, normalized_routing_load" in err


def test_screen_command(env, capsys):
    args = [
        "screen", "--space", str(env / "space.json"),
        "--base", str(env / "base.json"), "--out", str(env / "screen"),
        "--levels", "3", "--seed", "7",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "design: 9 cells, 9 evaluated\n" in out
    assert (env / "screen" / "state.json").exists()
    # The report reads the same state and prints the same hash line.
    hash_line = [l for l in out.splitlines()
                 if l.startswith("final population hash:")]
    assert len(hash_line) == 1
    assert main(["report", str(env / "screen")]) == 0
    assert hash_line[0] in capsys.readouterr().out.splitlines()


def test_cli_prunes_run_logs_to_the_newest(env, capsys):
    runs = env / "cache" / "runs"
    runs.mkdir(parents=True)
    stubs = [runs / f"old-{i:03d}.jsonl" for i in range(RUN_LOG_KEEP + 3)]
    for i, stub in enumerate(stubs):
        stub.write_text("{}\n")
        os.utime(stub, ns=(10**18 + i, 10**18 + i))  # stubs[0] is oldest
    assert main([
        "screen", "--space", str(env / "space.json"),
        "--base", str(env / "base.json"), "--out", str(env / "screen"),
        "--levels", "1",
    ]) == 0
    capsys.readouterr()
    assert not any(p.exists() for p in stubs[:3])
    assert all(p.exists() for p in stubs[3:])
    # The campaign's own run log was written after the pruning and stays.
    assert len(list(runs.glob("dse-cli-tiny-*.jsonl"))) == 1


def test_a_mistyped_objective_exits_2_before_any_cell_runs(env, capsys):
    assert main(screen_args(env, extra=["--objective", "pdrr:max"])) == 2
    assert "objective 'pdrr' not found" in capsys.readouterr().err
    assert not list((env / "cache").rglob("*.json"))
    assert not (env / "run").exists()


def test_a_snapshot_only_objective_is_accepted(env, capsys):
    # Neither a scalar metric nor a totals key: resolved in the snapshot.
    key = "repro_net_rreq_forwarded_total"
    assert main(screen_args(env, extra=["--objective", f"{key}:min"])) == 0
    assert f"  {key} = " in capsys.readouterr().out


def test_errors_exit_2(env, capsys, tmp_path):
    assert main(["screen", "--space", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "x")]) == 2
    assert "error" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "b", "dimensions": [], "junk": 1}))
    assert main(["screen", "--space", str(bad),
                 "--out", str(tmp_path / "x")]) == 2
    assert "unknown space keys" in capsys.readouterr().err

    assert main(screen_args(env, extra=["--objective", "no_such_metric:max"])) == 2
    assert "not found" in capsys.readouterr().err

    assert main(screen_args(env, extra=["--objective", "pdr:max:nan"])) == 2
    assert "weight must be finite" in capsys.readouterr().err

    assert main(["report", str(tmp_path / "nowhere")]) == 2
    capsys.readouterr()

    # A state file of the deleted evolutionary search is refused.
    assert main(screen_args(env, out="old")) == 0
    state = env / "old" / "state.json"
    state.write_text(
        json.dumps({**json.loads(state.read_text()), "kind": "evolve"})
    )
    capsys.readouterr()
    assert main(["report", str(env / "old")]) == 2
    assert "not a screening state" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--no-surrogate", "--prune-quantile=0.3"])
def test_pruning_flags_are_gone(env, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(screen_args(env, extra=[flag]))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err

    # So is the evolutionary search subcommand.
    with pytest.raises(SystemExit) as exc:
        main(["search", *screen_args(env)[1:]])
    assert exc.value.code == 2
    assert "invalid choice: 'search'" in capsys.readouterr().err


def test_report_reads_a_state_file_with_a_prune_log(tmp_path, capsys):
    # Written by a version that pruned screening cells with a surrogate
    # model: its generations carry a ``prune_log`` and its settings carry
    # the pruning knobs.  The report ignores both.
    src = Path(__file__).with_name("dse_state_with_prune_log.json")
    out = tmp_path / "old"
    out.mkdir()
    (out / "state.json").write_text(src.read_text())
    assert "prune_log" in json.loads(src.read_text())["generations"][0]

    assert main(["report", str(out)]) == 0
    table = capsys.readouterr().out
    assert "screen2: 8 evaluated" in table
    assert "final population hash: 30b51a6084d043f7" in table

    assert main(["report", str(out), "--format", "csv"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 1 + 8

    assert main(["report", str(out), "--format", "scatter"]) == 0
    assert "(* = Pareto front)" in capsys.readouterr().out
