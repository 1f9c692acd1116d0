"""Golden run hashes: pinned sha256 digests of tiny full-stack runs.

Each digest covers ``result_to_dict(run_scenario(config))`` minus the
wall-clock field, serialised as canonical JSON — so it pins the scalar
metrics, the ``totals`` counter dump, the ``metrics_snapshot``, the
per-node forwarding vector and the engine event count together.  A
refactor that changes any simulated outcome (or renames a counter) moves
at least one digest.

The matrix spans the paper's two protocols (``nlr``, ``aodv``) over three
seeds and four scenario families — static, random-waypoint mobility, a
Poisson crash fault plan, log-normal shadowing — plus one static run of
each remaining scheme family (``gossip``, ``counter``, ``dsdv``,
``oracle``), whose stacks lack some AODV-only counters.

The checked-in ``golden_runs.json`` is only ever rewritten explicitly::

    PYTHONPATH=src python tests/golden_runs.py --write   # regenerate
    PYTHONPATH=src python tests/golden_runs.py           # compare only

``tests/test_golden_runs.py`` recomputes the digests and compares them
with the file; it never writes it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.experiments.runner import run_scenario
from repro.experiments.scenario import ScenarioConfig
from repro.experiments.serialization import result_to_dict

GOLDEN_PATH = Path(__file__).with_name("golden_runs.json")

#: Crash plan for the ``faults`` family: Poisson relay crashes inside the
#: measured window, short MTTR so recoveries happen in-run.
FAULT_SPEC = {
    "kind": "poisson_crashes",
    "rate_per_s": 0.5,
    "mttr_s": 1.0,
    "start_s": 1.5,
    "stop_s": 5.0,
}

#: Scenario family → overrides on the tiny base config.
FAMILIES: dict[str, dict] = {
    "static": {},
    "rwp": {"mobility": "rwp"},
    "faults": {"fault_spec": FAULT_SPEC},
    "shadowing": {"shadowing_sigma_db": 4.0},
}


def base_config() -> ScenarioConfig:
    """A 3×3 mesh, three flows, six simulated seconds."""
    return ScenarioConfig(
        grid_nx=3, grid_ny=3, n_flows=3, flow_rate_pps=10.0,
        sim_time_s=6.0, warmup_s=1.0,
    )


def golden_configs() -> dict[str, ScenarioConfig]:
    """Case name → config, in a fixed order."""
    base = base_config()
    cases: dict[str, ScenarioConfig] = {}
    for protocol in ("nlr", "aodv"):
        for family, overrides in FAMILIES.items():
            for seed in (1, 2, 3):
                cases[f"{protocol}/{family}/seed{seed}"] = replace(
                    base, protocol=protocol, seed=seed, **overrides
                )
    for protocol in ("gossip", "counter", "dsdv", "oracle"):
        cases[f"{protocol}/static/seed1"] = replace(
            base, protocol=protocol, seed=1
        )
    return cases


def run_digest(config: ScenarioConfig) -> str:
    """sha256 of one run's serialised result, wall-clock excluded."""
    payload = result_to_dict(run_scenario(config))
    del payload["wallclock_s"]
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def compute_digests() -> dict[str, str]:
    return {name: run_digest(c) for name, c in golden_configs().items()}


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())["digests"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true",
        help=f"rewrite {GOLDEN_PATH.name} from the current code",
    )
    args = parser.parse_args(argv)
    digests = compute_digests()
    if args.write:
        GOLDEN_PATH.write_text(
            json.dumps(
                {
                    "generated_with": {
                        "python": platform.python_version(),
                        "numpy": np.__version__,
                    },
                    "digests": digests,
                },
                indent=2,
            )
            + "\n"
        )
        print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
        return 0
    golden = load_golden()
    bad = sorted(k for k in golden.keys() | digests.keys()
                 if golden.get(k) != digests.get(k))
    for name in bad:
        print(f"MISMATCH {name}")
    print(f"{len(digests) - len(bad)}/{len(digests)} digests match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
