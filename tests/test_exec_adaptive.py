"""Tests for sequential-statistics early stopping (repro.exec.adaptive)."""

import math
from dataclasses import replace

import pytest

from repro.exec import (
    AdaptivePolicy,
    ExecPolicy,
    parse_adaptive_spec,
    replicate_cells,
    using,
)
from repro.analysis.stats import sequential_halfwidth, t_critical
from repro.exec.adaptive import AdaptiveReport
from repro.experiments.runner import replicate
from repro.experiments.scenario import ScenarioConfig
from repro.obs.trace_cli import load_trace
from repro.obs.trace_cli import main as trace_main


def tiny(protocol="aodv", **kw):
    defaults = dict(
        protocol=protocol, grid_nx=3, grid_ny=3, n_flows=2,
        sim_time_s=8.0, warmup_s=1.0, seed=3,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    yield tmp_path


class FakeResult:
    """Stand-in carrying just what the stopper reads: the metric dict and
    the packet count behind ``pdr`` (large by default, so the binomial
    variance floor stays far below the targets unless a test lowers it)."""

    def __init__(self, value: float, packets_sent: int = 10**6) -> None:
        self.value = value
        self.packets_sent = packets_sent

    def as_dict(self) -> dict[str, float]:
        return {"pdr": self.value}


def read_audit(log_dir, name):
    """Records of the one audit ``name`` wrote under ``log_dir``, after
    checking it is a complete, schema-valid artifact."""
    [path] = log_dir.glob(f"adaptive-{name}-*.jsonl")
    assert trace_main(["validate", "--strict", str(path)]) == 0
    header, records, _ = load_trace(path)
    assert header["campaign"] == name
    return records


def adaptive(log_dir, **kw):
    """An exec policy carrying an adaptive contract, auditing to log_dir."""
    return ExecPolicy(adaptive=AdaptivePolicy(**kw), log_dir=log_dir)


def fake_run_fn(value_of, packets_sent=10**6):
    """run_fn double: metric value is a pure function of the seed."""
    calls = []

    def run_fn(name, configs, policy=None, tags=None):
        calls.append((name, [c.seed for c in configs]))
        return [FakeResult(value_of(c.seed), packets_sent) for c in configs]

    run_fn.calls = calls
    return run_fn


class TestPolicyValidation:
    def test_needs_some_halfwidth(self):
        with pytest.raises(ValueError, match="halfwidth"):
            AdaptivePolicy(ci_halfwidth=None, rel_halfwidth=None)

    @pytest.mark.parametrize("kw", [
        dict(ci_halfwidth=0.0),
        dict(rel_halfwidth=-1.0),
        dict(level=1.0),
        dict(level=0.0),
        dict(min_reps=1),
        dict(max_reps=2, min_reps=5),
        dict(wave=0),
    ])
    def test_bad_fields_rejected(self, kw):
        with pytest.raises(ValueError):
            AdaptivePolicy(**kw)

    @pytest.mark.parametrize("kw", [
        dict(ci_halfwidth=math.nan),
        dict(ci_halfwidth=math.inf),
        dict(rel_halfwidth=math.nan),
        dict(rel_halfwidth=math.inf),
    ])
    def test_non_finite_halfwidth_rejected(self, kw):
        # nan never stopped a cell; inf stopped every cell at min_reps.
        with pytest.raises(ValueError, match="finite"):
            AdaptivePolicy(**kw)

    @pytest.mark.parametrize("spec", ["pdr:nan", "pdr:inf"])
    def test_non_finite_spec_rejected(self, spec):
        with pytest.raises(ValueError, match="finite"):
            parse_adaptive_spec(spec)

    def test_unknown_metric_rejected(self):
        # A typo used to pass here and die with a KeyError after the
        # first wave of simulations.
        with pytest.raises(ValueError, match="unknown metric 'pdf'"):
            AdaptivePolicy(metric="pdf")
        with pytest.raises(ValueError, match="unknown metric"):
            parse_adaptive_spec("pdf:0.01")

    def test_every_result_metric_accepted(self):
        from repro.experiments.runner import METRIC_KEYS

        for key in METRIC_KEYS:
            assert AdaptivePolicy(metric=key).metric == key

    def test_resolve_caps_at_budget(self):
        pol = AdaptivePolicy(min_reps=5, max_reps=None).resolve(3)
        assert pol.max_reps == 3
        assert pol.min_reps == 3

    def test_resolve_keeps_tighter_max(self):
        pol = AdaptivePolicy(min_reps=2, max_reps=4).resolve(10)
        assert pol.max_reps == 4

    def test_converged_rejects_inf_and_nan(self):
        pol = AdaptivePolicy(ci_halfwidth=1e9)
        assert not pol.converged(0.5, math.inf)
        assert not pol.converged(0.5, math.nan)
        assert pol.converged(0.5, 1.0)

    def test_relative_halfwidth(self):
        pol = AdaptivePolicy(ci_halfwidth=None, rel_halfwidth=0.1)
        assert pol.converged(10.0, 0.5)
        assert not pol.converged(1.0, 0.5)


class TestParseSpec:
    def test_full_spec(self):
        pol = parse_adaptive_spec("mean_delay_s:0.002:3")
        assert pol.metric == "mean_delay_s"
        assert pol.ci_halfwidth == 0.002
        assert pol.min_reps == 3

    @pytest.mark.parametrize("spec", ["pdr", ":0.01", "pdr:abc", "pdr:0.01:x:y"])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_adaptive_spec(spec)


class TestWaveScheduler:
    def test_zero_variance_stops_at_min_reps(self, tmp_path):
        run_fn = fake_run_fn(lambda seed: 0.75)
        report = replicate_cells(
            "t", [("a", tiny())], 10,
            adaptive(tmp_path, ci_halfwidth=0.01, min_reps=3),
            run_fn=run_fn,
        )
        (d,) = report.decisions
        assert d.n_used == 3
        # Identical PDRs over 10^6 packets a run: the binomial floor
        # (not a zero sample variance) sets a small positive half-width.
        assert d.reason == "converged"
        assert d.bound == "ci_halfwidth"
        assert d.variance == "binomial_floor"
        assert 0.0 < d.halfwidth <= 0.01
        assert d.stopped_early
        assert report.saved_fraction == pytest.approx(0.7)

    def test_zero_variance_prefix_does_not_stop_on_nothing(self, tmp_path):
        # Seeds 0-2 agree exactly, later ones do not.  Their zero sample
        # variance alone would stop the cell at 3 with the wrong mean; the
        # binomial floor over 100 packets a run keeps it buying.
        run_fn = fake_run_fn(
            lambda seed: 0.9 if seed < 3 else 0.6, packets_sent=100
        )
        assert sequential_halfwidth([0.9, 0.9, 0.9]) == 0.0
        report = replicate_cells(
            "t", [("a", tiny(seed=0))], 10,
            adaptive(tmp_path, ci_halfwidth=0.05, min_reps=3, wave=2),
            run_fn=run_fn,
        )
        (d,) = report.decisions
        assert d.n_used == 10
        assert (d.reason, d.bound, d.variance) == ("budget", "max_reps", "sample")
        assert d.mean == pytest.approx(0.69)
        assert [seeds for _, seeds in run_fn.calls] == [
            [0, 1, 2], [3, 4], [5, 6], [7, 8], [9],
        ]

    def test_constant_prefix_stops_once_floor_is_met(self, tmp_path):
        # 0.9 over 100 packets: floor SD 0.03, half-width 0.075 at n=3
        # (> 0.05, buy on) and 0.037 at n=5 (stop), decided by the floor.
        report = replicate_cells(
            "t", [("a", tiny())], 10,
            adaptive(tmp_path, ci_halfwidth=0.05, min_reps=3, wave=2),
            run_fn=fake_run_fn(lambda seed: 0.9, packets_sent=100),
        )
        (d,) = report.decisions
        assert d.n_used == 5
        assert (d.reason, d.bound, d.variance) == (
            "converged", "ci_halfwidth", "binomial_floor",
        )
        assert d.halfwidth == pytest.approx(
            t_critical(5) * math.sqrt(0.9 * 0.1 / 100) / math.sqrt(5)
        )

    def test_metric_without_packet_count_has_no_floor(self, tmp_path):
        # Only packet proportions are floored; a constant delay still
        # stops at min_reps on its sample variance of zero.
        class Delay(FakeResult):
            def as_dict(self):
                return {"mean_delay_s": self.value}

        report = replicate_cells(
            "t", [("a", tiny())], 10,
            adaptive(
                tmp_path, metric="mean_delay_s", ci_halfwidth=0.01,
                min_reps=3),
            run_fn=lambda name, configs, policy=None, tags=None: [
                Delay(0.02) for _ in configs
            ],
        )
        (d,) = report.decisions
        assert (d.n_used, d.halfwidth) == (3, 0.0)
        assert (d.reason, d.bound, d.variance) == (
            "converged", "ci_halfwidth", "sample",
        )

    def test_noisy_cell_runs_to_budget(self, tmp_path):
        run_fn = fake_run_fn(lambda seed: 100.0 * (seed % 2))
        report = replicate_cells(
            "t", [("a", tiny())], 6,
            adaptive(tmp_path, ci_halfwidth=0.001, min_reps=2, wave=2),
            run_fn=run_fn,
        )
        (d,) = report.decisions
        assert d.n_used == 6
        assert d.reason == "budget"
        assert d.bound == "max_reps"
        assert not d.stopped_early
        assert report.saved_fraction == 0.0

    def test_waves_are_single_campaigns_across_cells(self, tmp_path):
        run_fn = fake_run_fn(lambda seed: float(seed))
        replicate_cells(
            "t", [("a", tiny(seed=100)), ("b", tiny(seed=200))], 4,
            adaptive(tmp_path, ci_halfwidth=0.001, min_reps=2, wave=1),
            run_fn=run_fn,
        )
        # First wave: both cells' min_reps seeds in ONE campaign.
        name, seeds = run_fn.calls[0]
        assert name == "t-wave1"
        assert seeds == [100, 101, 200, 201]

    def test_seed_ladder_prefix_property(self, tmp_path):
        values = {s: 0.5 + 0.001 * (s % 3) for s in range(100, 120)}
        run_fn = fake_run_fn(lambda seed: values[seed])
        report = replicate_cells(
            "t", [("a", tiny(seed=100))], 10,
            adaptive(tmp_path, ci_halfwidth=0.05, min_reps=3),
            run_fn=run_fn,
        )
        used = [r.value for r in report.results["a"]]
        full_ladder = [values[100 + k] for k in range(10)]
        assert used == full_ladder[: len(used)]

    def test_mixed_convergence(self, tmp_path):
        # "a" is deterministic, "b" is violently noisy.
        run_fn = fake_run_fn(
            lambda seed: 0.9 if seed < 200 else 100.0 * (seed % 2)
        )
        report = replicate_cells(
            "t", [("a", tiny(seed=100)), ("b", tiny(seed=200))], 6,
            adaptive(tmp_path, ci_halfwidth=0.01, min_reps=2, wave=2),
            run_fn=run_fn,
        )
        by_key = {d.key: d for d in report.decisions}
        assert by_key["a"].n_used == 2
        assert by_key["b"].n_used == 6
        assert len(report.results["a"]) == 2
        assert len(report.results["b"]) == 6

    def test_duplicate_keys_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unique"):
            replicate_cells(
                "t", [("a", tiny()), ("a", tiny("nlr"))], 4,
                adaptive(tmp_path),
                run_fn=fake_run_fn(lambda s: 0.0),
            )

    def test_budget_below_two_runs_fixed_path(self, tmp_path):
        run_fn = fake_run_fn(lambda s: 0.0)
        report = replicate_cells(
            "t", [("a", tiny())], 1, adaptive(tmp_path), run_fn=run_fn,
        )
        assert run_fn.calls == [("t", [3])]
        assert len(report.results["a"]) == 1
        assert report.decisions == []
        assert list(tmp_path.iterdir()) == []  # no audit on the fixed path

    def test_audit_log_records_stops_and_summary(self, tmp_path):
        run_fn = fake_run_fn(lambda seed: 0.5)
        replicate_cells(
            "audited", [("a", tiny())], 5,
            adaptive(tmp_path, ci_halfwidth=0.01, min_reps=2),
            run_fn=run_fn,
        )
        lines = read_audit(tmp_path, "audited")
        stops = [l for l in lines if l["ev"] == "stop"]
        summaries = [l for l in lines if l["ev"] == "summary"]
        assert len(stops) == 1 and len(summaries) == 1
        assert stops[0]["key"] == "a"
        assert stops[0]["n_used"] == 2
        assert stops[0]["campaign"] == "audited"
        assert stops[0]["reason"] == "converged"
        assert stops[0]["bound"] == "ci_halfwidth"
        assert stops[0]["variance"] == "binomial_floor"
        assert summaries[0]["replicates_used"] == 2
        assert summaries[0]["replicates_budget"] == 5

    def test_each_call_writes_its_own_audit(self, tmp_path):
        for _ in range(2):
            replicate_cells(
                "again", [("a", tiny())], 5,
                adaptive(tmp_path, ci_halfwidth=0.01, min_reps=2),
                run_fn=fake_run_fn(lambda seed: 0.5),
            )
        audits = sorted(tmp_path.glob("adaptive-again-*.jsonl"))
        assert len(audits) == 2
        for path in audits:
            _, records, footer = load_trace(path)
            assert [r["ev"] for r in records] == ["stop", "summary"]
            assert footer["recorded"] == 2

    def test_report_accounting(self):
        report = AdaptiveReport(results={"a": [FakeResult(1.0)] * 3})
        assert report.replicates_used == 3
        assert report.saved_fraction == 0.0  # no decisions → no budget


class TestFixedPath:
    def test_one_campaign_under_the_bare_name(self, tmp_path):
        run_fn = fake_run_fn(lambda seed: 0.5)
        report = replicate_cells(
            "fixed", [(("aodv", 1.0), tiny(seed=10)), ("b", tiny(seed=20))],
            3, ExecPolicy(log_dir=tmp_path), run_fn=run_fn,
        )
        assert run_fn.calls == [("fixed", [10, 11, 12, 20, 21, 22])]
        assert [len(v) for v in report.results.values()] == [3, 3]
        assert list(report.results) == [("aodv", 1.0), "b"]
        assert (report.decisions, report.waves) == ([], 1)
        assert list(tmp_path.iterdir()) == []  # no audit without adaptive

    def test_tags_are_str_of_key(self):
        seen = []

        def run_fn(name, configs, policy=None, tags=None):
            seen.extend(tags)
            return [FakeResult(0.5) for _ in configs]

        replicate_cells("t", [(("nlr", 2), tiny())], 2, run_fn=run_fn)
        assert seen == ["('nlr', 2)", "('nlr', 2)"]

    def test_zero_runs_rejected(self):
        with pytest.raises(ValueError, match="≥ 1 run"):
            replicate_cells("t", [("a", tiny())], 0,
                            run_fn=fake_run_fn(lambda s: 0.0))

    def test_default_policy_is_the_process_wide_one(self, tmp_path):
        run_fn = fake_run_fn(lambda seed: 0.75)
        pol = AdaptivePolicy(ci_halfwidth=0.01, min_reps=2)
        with using(adaptive=pol, log_dir=tmp_path):
            report = replicate_cells("pw", [("a", tiny())], 6, run_fn=run_fn)
        assert [name for name, _ in run_fn.calls] == ["pw-wave1"]
        assert len(report.results["a"]) == 2
        assert [r["ev"] for r in read_audit(tmp_path, "pw")] == ["stop", "summary"]


class TestReplicateIntegration:
    def test_adaptive_results_are_prefix_of_fixed(self):
        cfg = tiny()
        # pdr on this tiny grid is deterministic enough that a loose
        # half-width stops at min_reps.
        adaptive = AdaptivePolicy(metric="pdr", ci_halfwidth=10.0, min_reps=2)
        runs_a, _ = replicate(cfg, n_runs=4, policy=ExecPolicy(adaptive=adaptive))
        runs_f, _ = replicate(cfg, n_runs=4)
        assert len(runs_a) == 2
        assert [r.as_dict() for r in runs_a] \
            == [r.as_dict() for r in runs_f[:2]]

    def test_policy_carried_adaptive(self):
        cfg = tiny()
        adaptive = AdaptivePolicy(metric="pdr", ci_halfwidth=10.0, min_reps=2)
        with using(adaptive=adaptive):
            runs, summary = replicate(cfg, n_runs=4)
        assert len(runs) == 2
        assert "pdr" in summary

    def test_explicit_policy_adaptive(self):
        cfg = tiny()
        policy = ExecPolicy(
            adaptive=AdaptivePolicy(metric="pdr", ci_halfwidth=10.0, min_reps=2)
        )
        runs, _ = replicate(cfg, n_runs=4, policy=policy)
        assert len(runs) == 2

    def test_single_run_budget_stays_fixed_path(self):
        cfg = tiny()
        adaptive = AdaptivePolicy(metric="pdr", ci_halfwidth=10.0, min_reps=2)
        runs, _ = replicate(cfg, n_runs=1, policy=ExecPolicy(adaptive=adaptive))
        assert len(runs) == 1

    def test_no_adaptive_default_unchanged(self):
        cfg = tiny()
        runs_a, summary_a = replicate(cfg, n_runs=2)
        runs_b, summary_b = replicate(
            cfg, n_runs=2, policy=ExecPolicy(adaptive=None)
        )
        assert [r.as_dict() for r in runs_a] == [r.as_dict() for r in runs_b]
        assert {k: (c.mean, c.half_width) for k, c in summary_a.items()} \
            == {k: (c.mean, c.half_width) for k, c in summary_b.items()}

    def test_adaptive_replicate_writes_its_audit(self, tmp_path):
        policy = ExecPolicy(
            adaptive=AdaptivePolicy(metric="pdr", ci_halfwidth=10.0, min_reps=2),
            log_dir=tmp_path,
        )
        runs, _ = replicate(tiny("nlr"), n_runs=4, policy=policy)
        lines = read_audit(tmp_path, "replicate-nlr")
        assert [l["ev"] for l in lines] == ["stop", "summary"]
        assert lines[0]["campaign"] == "replicate-nlr"
        assert lines[0]["n_used"] == len(runs) == 2


def stub_cell_runner(monkeypatch, value=0.75):
    """Replace the executor behind replicate_cells: no simulation runs.

    Every result carries a constant ``pdr`` over 10^6 packets (so a cell
    converges at ``min_reps``) and a per-node forwarding vector.
    """
    import numpy as np

    import repro.exec.scheduler as scheduler

    calls = []

    def run_configs(name, configs, policy=None, tags=None):
        calls.append((name, len(configs)))
        out = []
        for _ in configs:
            r = FakeResult(value)
            r.per_node_forwarded = np.array([3.0, 1.0, 0.0, 2.0])
            out.append(r)
        return out

    monkeypatch.setattr(scheduler, "run_configs", run_configs)
    return calls


class TestEveryReplicatedEntryPointHonoursAdaptive:
    def test_sweep_stops_at_min_reps_one_campaign_per_wave(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments.sweeps import sweep

        calls = stub_cell_runner(monkeypatch)
        pol = AdaptivePolicy(ci_halfwidth=0.01, min_reps=2)
        with using(adaptive=pol, log_dir=tmp_path):
            points = sweep(
                tiny(), protocols=["aodv", "nlr"], values=[1, 2, 3],
                apply=lambda c, v: replace(c, n_flows=v), n_runs=5,
            )
        # One wave: every cell of the 2×3 grid in ONE campaign, stopped
        # at min_reps (zero sample variance, tiny binomial floor).
        assert calls == [("sweep-wave1", 6 * 2)]
        assert [len(p.runs) for p in points] == [2] * 6
        assert [(p.value, p.protocol) for p in points] == [
            (v, proto) for v in (1, 2, 3) for proto in ("aodv", "nlr")
        ]
        events = [l["ev"] for l in read_audit(tmp_path, "sweep")]
        assert events == ["stop"] * 6 + ["summary"]

    def test_fig5_buys_fewer_runs_than_its_budget(self, tmp_path, monkeypatch):
        from repro.experiments.figures import fig5_load_distribution

        calls = stub_cell_runner(monkeypatch)
        pol = AdaptivePolicy(ci_halfwidth=0.05, min_reps=2)
        with using(adaptive=pol, log_dir=tmp_path):
            result = fig5_load_distribution(quick=True)
        # Budget: 3 seeds × 4 protocols; every cell converged at 2.
        assert calls == [("fig5_load_distribution-wave1", 4 * 2)]
        assert [row[0] for row in result.rows] == ["aodv", "gossip", "counter", "nlr"]
        lines = read_audit(tmp_path, "fig5_load_distribution")
        stops = [l for l in lines if l["ev"] == "stop"]
        assert [(s["n_used"], s["n_budget"]) for s in stops] == [(2, 3)] * 4
        assert lines[-1]["replicates_used"] == 8
        assert lines[-1]["replicates_budget"] == 12


class TestCliSpecWiring:
    def test_experiments_cli_accepts_adaptive_flags(self, capsys):
        from repro.experiments.__main__ import main
        from repro.exec import configure, current_policy

        assert main(["--list", "--adaptive", "pdr:0.02:3",
                     "--workers", "2"]) == 0
        pol = current_policy()
        try:
            assert pol.adaptive is not None
            assert pol.adaptive.metric == "pdr"
            assert pol.workers == 2
        finally:
            configure(adaptive=None, workers=1, progress=False, resume=False)

    @pytest.mark.parametrize("flags", [
        ["--retries", "-1"],
        ["--task-timeout", "0"],
        ["--workers", "0"],
        ["--adaptive", "pdf:0.01"],
        ["--adaptive", "pdr"],
        ["--no-adaptive"],
        ["--claim-ttl", "5"],
        ["--backend", "pool"],
        ["--task-timeout", "inf"],
        ["--task-timeout", "nan"],
        ["--adaptive", "pdr:nan"],
        ["--adaptive", "pdr:inf"],
    ])
    def test_bad_exec_flags_exit_2(self, flags, capsys):
        from repro.dse.cli import main as dse_main
        from repro.experiments.__main__ import main
        from repro.exec import current_policy

        before = current_policy()
        for argv in (["--list", *flags],
                     ["search", "--space", "s.json", "--out", "o", *flags]):
            run = main if argv[0] == "--list" else dse_main
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == 2
            assert "Traceback" not in capsys.readouterr().err
        assert current_policy() == before
