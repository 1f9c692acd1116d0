"""Tests for sequential-statistics early stopping (repro.exec.adaptive)."""

import json
import math
from dataclasses import replace

import pytest

from repro.exec import (
    AdaptivePolicy,
    ExecPolicy,
    parse_adaptive_spec,
    run_adaptive_cells,
    using,
)
from repro.exec.adaptive import AdaptiveReport
from repro.experiments.runner import replicate
from repro.experiments.scenario import ScenarioConfig


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
    """Stand-in carrying just the metric dict the stopper reads."""

    def __init__(self, value: float) -> None:
        self.value = value

    def as_dict(self) -> dict[str, float]:
        return {"pdr": self.value}


def fake_run_fn(value_of):
    """run_fn double: metric value is a pure function of the seed."""
    calls = []

    def run_fn(name, configs, policy=None, tags=None):
        calls.append((name, [c.seed for c in configs]))
        return [FakeResult(value_of(c.seed)) for c in configs]

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
    def test_zero_variance_stops_at_min_reps(self):
        run_fn = fake_run_fn(lambda seed: 0.75)
        report = run_adaptive_cells(
            "t", [("a", tiny())], n_budget=10,
            adaptive=AdaptivePolicy(ci_halfwidth=0.01, min_reps=3),
            run_fn=run_fn,
        )
        (d,) = report.decisions
        assert d.n_used == 3
        assert d.reason == "degenerate"
        assert d.stopped_early
        assert report.saved_fraction == pytest.approx(0.7)

    def test_noisy_cell_runs_to_budget(self):
        run_fn = fake_run_fn(lambda seed: 100.0 * (seed % 2))
        report = run_adaptive_cells(
            "t", [("a", tiny())], n_budget=6,
            adaptive=AdaptivePolicy(ci_halfwidth=0.001, min_reps=2, wave=2),
            run_fn=run_fn,
        )
        (d,) = report.decisions
        assert d.n_used == 6
        assert d.reason == "budget"
        assert not d.stopped_early
        assert report.saved_fraction == 0.0

    def test_waves_are_single_campaigns_across_cells(self):
        run_fn = fake_run_fn(lambda seed: float(seed))
        run_adaptive_cells(
            "t", [("a", tiny(seed=100)), ("b", tiny(seed=200))], n_budget=4,
            adaptive=AdaptivePolicy(ci_halfwidth=0.001, min_reps=2, wave=1),
            run_fn=run_fn,
        )
        # First wave: both cells' min_reps seeds in ONE campaign.
        name, seeds = run_fn.calls[0]
        assert name == "t-wave1"
        assert seeds == [100, 101, 200, 201]

    def test_seed_ladder_prefix_property(self):
        values = {s: 0.5 + 0.001 * (s % 3) for s in range(100, 120)}
        run_fn = fake_run_fn(lambda seed: values[seed])
        report = run_adaptive_cells(
            "t", [("a", tiny(seed=100))], n_budget=10,
            adaptive=AdaptivePolicy(ci_halfwidth=0.05, min_reps=3),
            run_fn=run_fn,
        )
        used = [r.value for r in report.results["a"]]
        full_ladder = [values[100 + k] for k in range(10)]
        assert used == full_ladder[: len(used)]

    def test_mixed_convergence(self):
        # "a" is deterministic, "b" is violently noisy.
        run_fn = fake_run_fn(
            lambda seed: 0.9 if seed < 200 else 100.0 * (seed % 2)
        )
        report = run_adaptive_cells(
            "t", [("a", tiny(seed=100)), ("b", tiny(seed=200))], n_budget=6,
            adaptive=AdaptivePolicy(ci_halfwidth=0.01, min_reps=2, wave=2),
            run_fn=run_fn,
        )
        by_key = {d.key: d for d in report.decisions}
        assert by_key["a"].n_used == 2
        assert by_key["b"].n_used == 6
        assert len(report.results["a"]) == 2
        assert len(report.results["b"]) == 6

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            run_adaptive_cells(
                "t", [("a", tiny()), ("a", tiny("nlr"))], n_budget=4,
                adaptive=AdaptivePolicy(),
                run_fn=fake_run_fn(lambda s: 0.0),
            )

    def test_budget_below_two_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            run_adaptive_cells(
                "t", [("a", tiny())], n_budget=1,
                adaptive=AdaptivePolicy(),
                run_fn=fake_run_fn(lambda s: 0.0),
            )

    def test_audit_log_records_stops_and_summary(self, tmp_path):
        audit = tmp_path / "audit.jsonl"
        run_fn = fake_run_fn(lambda seed: 0.5)
        run_adaptive_cells(
            "audited", [("a", tiny())], n_budget=5,
            adaptive=AdaptivePolicy(ci_halfwidth=0.01, min_reps=2),
            run_fn=run_fn, audit_path=audit,
        )
        lines = [json.loads(l) for l in audit.read_text().splitlines()]
        stops = [l for l in lines if l["event"] == "stop"]
        summaries = [l for l in lines if l["event"] == "summary"]
        assert len(stops) == 1 and len(summaries) == 1
        assert stops[0]["key"] == "a"
        assert stops[0]["n_used"] == 2
        assert stops[0]["campaign"] == "audited"
        assert summaries[0]["replicates_used"] == 2
        assert summaries[0]["replicates_budget"] == 5

    def test_report_accounting(self):
        report = AdaptiveReport(results={"a": [FakeResult(1.0)] * 3})
        assert report.replicates_used == 3
        assert report.saved_fraction == 0.0  # no decisions → no budget


class TestReplicateIntegration:
    def test_adaptive_results_are_prefix_of_fixed(self):
        cfg = tiny()
        # pdr on this tiny grid is deterministic enough that a loose
        # half-width stops at min_reps.
        adaptive = AdaptivePolicy(metric="pdr", ci_halfwidth=10.0, min_reps=2)
        runs_a, _ = replicate(cfg, n_runs=4, adaptive=adaptive)
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
        runs, _ = replicate(cfg, n_runs=1, adaptive=adaptive)
        assert len(runs) == 1

    def test_no_adaptive_default_unchanged(self):
        cfg = tiny()
        runs_a, summary_a = replicate(cfg, n_runs=2)
        runs_b, summary_b = replicate(cfg, n_runs=2, adaptive=None)
        assert [r.as_dict() for r in runs_a] == [r.as_dict() for r in runs_b]
        assert {k: (c.mean, c.half_width) for k, c in summary_a.items()} \
            == {k: (c.mean, c.half_width) for k, c in summary_b.items()}


class TestCliSpecWiring:
    def test_experiments_cli_accepts_adaptive_flags(self, capsys):
        from repro.experiments.__main__ import main
        from repro.exec import configure, current_policy

        assert main(["--list", "--adaptive", "pdr:0.02:3",
                     "--backend", "pool"]) == 0
        pol = current_policy()
        try:
            assert pol.adaptive is not None
            assert pol.adaptive.metric == "pdr"
            assert pol.backend == "pool"
        finally:
            configure(adaptive=None, backend="auto", workers=1,
                      progress=False, resume=False)

    def test_no_adaptive_wins(self):
        from repro.experiments.__main__ import main
        from repro.exec import configure, current_policy

        assert main(["--list", "--adaptive", "pdr:0.02",
                     "--no-adaptive"]) == 0
        try:
            assert current_policy().adaptive is None
        finally:
            configure(adaptive=None, backend="auto", workers=1,
                      progress=False, resume=False)
