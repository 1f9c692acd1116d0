"""Tests for benchmarks/compare.py (explicit baseline-record diffing)."""

import json

import pytest

from benchmarks import compare as cmp
from benchmarks import record


def _record(*, rev="a", cpu="cpu-x", quick=False, kernels=None, derived=None):
    return record.envelope(
        "baseline", rev, quick, kernels=kernels, derived=derived, cpu=cpu,
        generated_utc="2026-08-08T00:00:00+00:00",
    )


def _kernel(wall, **extra):
    return {"wall_s": wall, **extra}


class TestCompare:
    def test_no_gates_never_fails(self, capsys):
        old = _record(kernels={"k": _kernel(1.0, events_per_s=100.0)})
        new = _record(rev="b", kernels={"k": _kernel(3.0, events_per_s=33.0)})
        assert cmp.compare(old, new, None, {}) == []
        out = capsys.readouterr().out
        assert "3.00x" in out

    def test_wall_gate_trips_on_same_cpu(self):
        old = _record(kernels={"k": _kernel(1.0)})
        new = _record(rev="b", kernels={"k": _kernel(1.5)})
        failures = cmp.compare(old, new, 1.25, {})
        assert len(failures) == 1
        assert "k: wall ratio 1.50x" in failures[0]

    def test_wall_gate_passes_within_tolerance(self):
        old = _record(kernels={"k": _kernel(1.0)})
        new = _record(rev="b", kernels={"k": _kernel(1.2)})
        assert cmp.compare(old, new, 1.25, {}) == []

    def test_wall_gate_skipped_across_cpus(self, capsys):
        old = _record(cpu="cpu-x", kernels={"k": _kernel(1.0)})
        new = _record(rev="b", cpu="cpu-y", kernels={"k": _kernel(9.0)})
        assert cmp.compare(old, new, 1.25, {}) == []
        assert "wall-ratio gate skipped" in capsys.readouterr().out

    def test_wall_gate_skipped_across_quick_modes(self, capsys):
        old = _record(quick=True, kernels={"k": _kernel(0.1)})
        new = _record(rev="b", quick=False, kernels={"k": _kernel(2.0)})
        assert cmp.compare(old, new, 1.25, {}) == []
        assert "different --quick modes" in capsys.readouterr().out

    def test_unshared_kernels_reported_not_gated(self, capsys):
        old = _record(kernels={"gone": _kernel(1.0)})
        new = _record(rev="b", kernels={"added": _kernel(9.0)})
        assert cmp.compare(old, new, 1.25, {}) == []
        out = capsys.readouterr().out
        assert "gone" in out and "new" in out

    def test_min_derived_floor_trips(self):
        old = _record(derived={"sinr_slot_speedup": 5.5})
        new = _record(rev="b", derived={"sinr_slot_speedup": 2.1})
        failures = cmp.compare(old, new, None, {"sinr_slot_speedup": 3.0})
        # 5.5x -> 2.1x also loses more than RATIO_DROP against the baseline.
        assert len(failures) == 2
        assert "2.10x below floor 3.00x" in failures[1]

    def test_min_derived_floor_passes(self):
        new = _record(rev="b", derived={"sinr_slot_speedup": 5.5})
        assert cmp.compare(_record(), new, None,
                           {"sinr_slot_speedup": 3.0}) == []

    def test_min_derived_missing_key_fails(self):
        failures = cmp.compare(_record(), _record(rev="b"), None,
                               {"nope": 1.0})
        assert failures and "missing" in failures[0]

    def test_min_derived_enforced_across_cpus(self):
        # Dimensionless ratios stay gated even when wall gates are off.
        old = _record(cpu="cpu-x")
        new = _record(rev="b", cpu="cpu-y", derived={"r": 0.5})
        assert cmp.compare(old, new, 1.25, {"r": 2.0})


def _perfbench(rev, rss, workload="campaign", trace=0):
    """A perfbench record of one untraced run per ``rss`` value."""
    runs = [
        {"workload": workload, "trace": trace, "rev": f"src-{rev}",
         "cpu": "cpu-x", "cores": 2, "python": "3.11", "numpy": "2",
         "failed_frac": 0.0,
         "metrics": {"peak_rss_mb": {"value": v, "unit": "MB", "n": 1}}}
        for v in rss
    ]
    return record.perfbench(runs, rev)


class TestComparePerfbench:
    def test_prints_median_quartiles_and_ratio(self, capsys):
        old = _perfbench("a", [96.0, 95.0, 97.0, 96.5, 95.5])
        new = _perfbench("b", [79.0, 80.0, 79.5, 78.5, 79.2])
        cmp.compare_runs(old, new)
        out = capsys.readouterr().out
        row = next(line for line in out.splitlines() if "peak_rss_mb" in line)
        assert row.split()[:3] == ["campaign", "peak_rss_mb", "5/5"]
        assert "96 [95.5, 96.5]" in row
        assert "79.2 [79, 79.5]" in row
        assert row.endswith(f"{79.2 / 96.0:.3f}x")
        assert "source revs src-a" in out and "base: the old median" in out

    def test_workload_on_one_side_only(self, capsys):
        old = _perfbench("a", [50.0], workload="discovery")
        new = _perfbench("b", [40.0, 42.0])
        cmp.compare_runs(old, new)
        rows = [line for line in capsys.readouterr().out.splitlines()
                if "peak_rss_mb" in line]
        assert rows[0].split()[:3] == ["campaign", "peak_rss_mb", "0/2"]
        assert rows[1].split()[:4] == ["discovery", "peak_rss_mb", "1/0",
                                       "50"]
        assert all(row.endswith("--") for row in rows)

    def test_main_prints_and_refuses_gates(self, tmp_path, capsys):
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        old.write_text(json.dumps(_perfbench("a", [96.0])))
        new.write_text(json.dumps(_perfbench("b", [79.0])))
        assert cmp.main([str(old), str(new)]) == 0
        assert "0.823x" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            cmp.main([str(old), str(new), "--fail-above", "1.25"])


class TestParseMinDerived:
    def test_parses_pairs(self):
        got = cmp._parse_min_derived(["a:1.5", "b:3"])
        assert got == {"a": 1.5, "b": 3.0}

    def test_rejects_missing_separator(self):
        with pytest.raises(SystemExit):
            cmp._parse_min_derived(["nope"])

    def test_rejects_non_numeric(self):
        with pytest.raises(SystemExit):
            cmp._parse_min_derived(["a:fast"])


class TestMain:
    def _write(self, path, record):
        path.write_text(json.dumps(record))
        return str(path)

    def test_exit_zero_on_clean_diff(self, tmp_path):
        old = self._write(tmp_path / "old.json",
                          _record(kernels={"k": _kernel(1.0)}))
        new = self._write(tmp_path / "new.json",
                          _record(rev="b", kernels={"k": _kernel(1.1)}))
        assert cmp.main([old, new, "--fail-above", "1.25"]) == 0

    def test_exit_one_on_regression(self, tmp_path):
        old = self._write(tmp_path / "old.json",
                          _record(kernels={"k": _kernel(1.0)}))
        new = self._write(tmp_path / "new.json",
                          _record(rev="b", kernels={"k": _kernel(2.0)}))
        assert cmp.main([old, new, "--fail-above", "1.25"]) == 1

    def test_exit_one_on_derived_floor(self, tmp_path):
        old = self._write(tmp_path / "old.json", _record())
        new = self._write(tmp_path / "new.json",
                          _record(rev="b", derived={"s": 1.0}))
        assert cmp.main([old, new, "--min-derived", "s:3.0"]) == 1
        assert cmp.main([old, new, "--min-derived", "s:0.5"]) == 0

    def test_rejects_non_record(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        good = self._write(tmp_path / "good.json", _record())
        with pytest.raises(SystemExit):
            cmp.main([str(bad), good])

    def test_rejects_unreadable(self, tmp_path):
        good = self._write(tmp_path / "good.json", _record())
        with pytest.raises(SystemExit):
            cmp.main([str(tmp_path / "absent.json"), good])
