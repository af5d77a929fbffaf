"""Acceptance criteria: 1-8 and 10 from the table in ``spinperm.selftest``, plus 9.

Run as ``pytest tests/test_acceptance.py -v`` to see one line per criterion.
"""

import json
import resource
import time

import pytest
from click.testing import CliRunner

from conftest import rel_err
from spinperm import permanent_ryser, random_matrix
from spinperm.cli import main
from spinperm.selftest import CHECKS


@pytest.mark.parametrize("name", list(CHECKS))
def test_criterion(name):
    CHECKS[name]()


def test_criterion_9_scale_demonstration():
    start = time.perf_counter()
    result = CliRunner().invoke(
        main,
        ["perm", "--gen", "n=24,seed=0", "--format", "json"],
        catch_exceptions=False,
    )
    perm_elapsed = time.perf_counter() - start
    assert result.exit_code == 0
    doc = json.loads(result.output)
    value = complex(doc["permanent"].replace("i", "j"))
    assert doc["total_ops"] == 24 * 2**24
    ry = permanent_ryser(random_matrix(24, 0, "complex_gaussian"))
    assert rel_err(value, ry) <= 1e-9  # the hard check
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"  [criterion 9: perm wall {perm_elapsed:.1f}s, "
          f"peak rss {peak_mb:.0f} MB]")
    assert perm_elapsed < 120.0
    assert peak_mb < 1024.0
