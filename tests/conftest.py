"""Shared fixtures.

The x = 10^9 pair-statistics pass is the heaviest sieve computation in the
suite (about 5 s with two workers on two cores); it is session-scoped and
shared between the acceptance criteria and the bias-direction property tests.
"""

import os

import pytest

from twosquares import constants, progressions


@pytest.fixture(scope="session")
def bundle():
    return constants.build_bundle(5)


@pytest.fixture(scope="session")
def stats_1e9():
    """(singles, pairs) residue matrices at x = 10^9, q = 5, one sieve pass.

    One worker per CPU: the pool keeps at most that many segments (8 MB each,
    packed) in flight, so the parent's memory does not grow with x.
    """
    return progressions.residue_pair_stats(10**9, 5, threads=os.cpu_count() or 1)
