"""Golden run hashes stay put (see ``tests/golden_runs.py``).

The digests pin every simulated outcome of a small scenario matrix, so a
refactor that claims to be behaviour-preserving must leave all of them
unchanged.  Regenerate the file only with
``PYTHONPATH=src python tests/golden_runs.py --write``, and only for an
intended behaviour change.
"""

import pytest

from tests.golden_runs import golden_configs, load_golden, run_digest

GOLDEN = load_golden()


def test_matrix_matches_file():
    assert sorted(golden_configs()) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(golden_configs()))
def test_run_digest_unchanged(name):
    assert run_digest(golden_configs()[name]) == GOLDEN[name], (
        f"{name}: simulated outcome changed; if intended, regenerate with "
        "`PYTHONPATH=src python tests/golden_runs.py --write`"
    )
