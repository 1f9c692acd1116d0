"""Self-tests of the benchmark: ``python3 -m pytest perfbench``.

They check the metric and workload names against ``BENCHMARK.json``, run
a seconds-long smoke size of every workload (untraced and traced) end to
end, and check that the output check rejects a perturbed digest.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from checks import OutputChecks, load_digests, result_digest, save_digests  # noqa: E402
from repro.exec import Task  # noqa: E402
from repro.experiments.runner import run_scenario  # noqa: E402
from workloads import campaign_burst  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _names(section: str) -> list[str]:
    return [entry["name"] for entry in SPEC[section]]


def test_names_are_well_formed_and_unique():
    names = _names("workloads") + _names("end_to_end") + _names("per_layer")
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert set(_names("workloads")) == {"discovery", "campaign"}
    assert "setup_s" in _names("end_to_end")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["discovery", "campaign"])
def test_smoke_run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == _names(section)
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_output_check_rejects_perturbed_digest(tmp_path):
    config = replace(campaign_burst(3)[0][1][0], sim_time_s=3.0)
    result = run_scenario(config)
    key = Task(config).task_id
    digest = result_digest(result)

    assert OutputChecks({key: digest}).check(config, result)
    perturbed = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    checks = OutputChecks({key: perturbed})
    assert not checks.check(config, result)
    assert checks.problems

    # The same holds for digests recorded by an earlier run.
    store = tmp_path / "digests.json"
    save_digests(store, {key: perturbed})
    assert not OutputChecks(load_digests(store)).check(config, result)


def test_output_check_rejects_bad_results():
    config = replace(campaign_burst(3)[0][1][0], sim_time_s=3.0)
    result = run_scenario(config)
    assert not OutputChecks().check(config, replace(result, pdr=1.5))
    assert not OutputChecks().check(config, replace(result, packets_sent=0))


def test_missing_sources_exit_nonzero(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "discovery",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
