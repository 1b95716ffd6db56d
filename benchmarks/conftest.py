"""Shared fixtures for the benchmark harness.

Every benchmark module both *regenerates* a paper artifact (printing the
same rows the paper reports, asserting the qualitative shape) and
*times* the underlying computation with pytest-benchmark.
"""

import sys

import pytest

from repro.corpus.signatures import prelude

# The ASTs and algorithms are recursive (as in the paper's definitions);
# the synthetic scaling workloads nest types hundreds of levels deep.
# (The *solver* hot loops are iterative worklists and run under a limit
# of 256 in the unify-pathological group; this limit covers the
# parser/printer/term recursions the workloads still exercise.)
sys.setrecursionlimit(100_000)


@pytest.fixture(scope="session")
def env():
    return prelude()
