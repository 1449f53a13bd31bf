"""Shared fixtures.

Every radius sweep that a test runs, directly or through the CLI, must
carry the level-set certificate: the autouse ``sweeps`` fixture records
each result of the sweep kernel and fails the test if one is uncertified.
"""

import pytest

from opineq import radius


@pytest.fixture(autouse=True)
def sweeps(monkeypatch):
    """SweepResults of every kernel call made during the test."""
    seen = []
    kernel = radius._max_on_circle

    def recording(*args, **kwargs):
        seen.append(kernel(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(radius, "_max_on_circle", recording)
    yield seen
    missed = sum(not r.certified for r in seen)
    assert missed == 0, f"{missed} of {len(seen)} radius results are not certified"
