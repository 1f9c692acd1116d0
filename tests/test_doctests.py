"""Execute the doctest examples embedded in the library's docstrings."""

import doctest

import pytest

import repro.metrics.fairness
import repro.metrics.summary
import repro.metrics.timeseries
import repro.sim.engine
import repro.sim.process
import repro.sim.rng
import repro.sim.units
import repro.topology.gateway
import repro.topology.placement
import repro.util.validation

MODULES = [
    repro.metrics.fairness,
    repro.metrics.summary,
    repro.metrics.timeseries,
    repro.sim.engine,
    repro.sim.process,
    repro.sim.rng,
    repro.sim.units,
    repro.topology.gateway,
    repro.topology.placement,
    repro.util.validation,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, f"{module.__name__}: {result.failed} failures"
    assert result.attempted > 0, f"{module.__name__} has no doctests to run"
