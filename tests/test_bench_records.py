"""The committed BENCH_*.json records and the gates compare.py applies."""

from pathlib import Path

import pytest

from benchmarks import compare as cmp
from benchmarks import record

ROOT = Path(__file__).resolve().parent.parent
COMMITTED = sorted(ROOT.glob("BENCH_*.json"))


@pytest.mark.parametrize("path", COMMITTED, ids=lambda p: p.name)
def test_committed_record_loads(path):
    assert cmp.load_record(path)["schema"] == record.SCHEMA


def test_ci_auto_picks_the_newest_quick_baseline():
    candidate = record.envelope("baseline", "ci", True)
    picked = cmp.newest_baseline(ROOT, candidate, ROOT / "BENCH_ci.json")
    assert picked.name == "BENCH_pr7-quick.json"


def test_newest_perfbench_record_has_layers_for_both_workloads():
    perf = [cmp.load_record(p) for p in COMMITTED]
    perf = [r for r in perf if r["kind"] == "perfbench" and r["layers"]]
    newest = max(perf, key=lambda r: r["generated_utc"] or "")
    assert set(newest["layers"]) == {"discovery", "campaign"}
    for run in newest["layers"].values():
        assert run["trace"] == 1 and "phy.rx_calls" in run["metrics"]


def test_perfbench_runs_split_into_layers_and_runs():
    def run(workload, trace):
        return {"workload": workload, "trace": trace, "cpu": "c", "cores": 2,
                "python": "3", "numpy": "2", "metrics": {}, "samples": [1],
                "spans": {"f": {}}}

    rec = record.perfbench(
        [run("discovery", 0), run("discovery", 1), run("campaign", 0)], "x")
    assert set(rec["layers"]) == {"discovery"}
    assert [r["workload"] for r in rec["detail"]["runs"]] == \
        ["discovery", "campaign"]
    assert "samples" not in rec["layers"]["discovery"]
    assert "spans" not in rec["detail"]["runs"][0]
    with pytest.raises(SystemExit):
        record.perfbench([run("discovery", 1), run("discovery", 1)], "x")


class TestGates:
    """A synthetic candidate trips each gate compare.py applies."""

    def _write(self, tmp_path, name, *, cpu="cpu-x", wall=1.0, derived=None):
        rec = record.envelope(
            "baseline", name, True, kernels={"k": {"wall_s": wall}},
            derived={"s": 4.0} if derived is None else derived, cpu=cpu,
        )
        return str(record.write(rec, tmp_path / f"BENCH_{name}.json"))

    def _gate(self, tmp_path, *extra, **candidate):
        old = self._write(tmp_path, "old")
        new = self._write(tmp_path, "new", **candidate)
        return cmp.main([old, new, *extra])

    def test_clean_candidate_passes(self, tmp_path):
        assert self._gate(tmp_path, "--fail-above", "1.25",
                          "--min-derived", "s:3.0") == 0

    def test_same_cpu_wall_ratio_above_fail_above(self, tmp_path):
        assert self._gate(tmp_path, "--fail-above", "1.25", wall=1.3) == 1
        assert self._gate(tmp_path, wall=1.3) == 0

    def test_derived_below_min_derived_floor(self, tmp_path):
        assert self._gate(tmp_path, "--min-derived", "s:3.0",
                          derived={"s": 2.9}) == 1

    def test_derived_lost_more_than_ratio_drop(self, tmp_path):
        assert cmp.RATIO_DROP == 0.4
        assert self._gate(tmp_path, derived={"s": 2.3}) == 1  # lost 42.5%
        assert self._gate(tmp_path, derived={"s": 2.5}) == 0  # lost 37.5%

    def test_min_derived_key_missing_from_candidate(self, tmp_path):
        assert self._gate(tmp_path, "--min-derived", "s:3.0",
                          derived={}) == 1

    def test_other_cpu_skips_only_the_wall_gate(self, tmp_path):
        assert self._gate(tmp_path, "--fail-above", "1.25",
                          cpu="cpu-y", wall=9.0) == 0
        assert self._gate(tmp_path, cpu="cpu-y", derived={"s": 2.3}) == 1
        assert self._gate(tmp_path, "--min-derived", "s:5.0",
                          cpu="cpu-y") == 1

    def test_different_kinds_are_not_compared(self, tmp_path):
        old = self._write(tmp_path, "old")
        other = record.envelope("obs-overhead", "obs", True)
        new = str(record.write(other, tmp_path / "BENCH_obs.json"))
        with pytest.raises(SystemExit):
            cmp.main([old, new])
