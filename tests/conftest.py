"""Shared fixtures.

Every radius sweep that a test runs, directly or through the CLI, must
carry the level-set certificate: the autouse ``sweeps`` fixture records
the result of every matrix of every sweep-kernel call, stacked calls
included, and fails the test if one is uncertified.  ``kernel_calls``
counts the sweep-kernel calls themselves.
"""

import pytest

from opineq import radius


@pytest.fixture(autouse=True)
def sweeps(monkeypatch):
    """SweepResults of every kernel call made during the test."""
    seen = []
    kernel = radius._max_on_circle

    def recording(*args, **kwargs):
        results = kernel(*args, **kwargs)
        seen.extend(results)
        return results

    monkeypatch.setattr(radius, "_max_on_circle", recording)
    yield seen
    missed = sum(not r.certified for r in seen)
    assert missed == 0, f"{missed} of {len(seen)} radius results are not certified"


@pytest.fixture
def kernel_calls(monkeypatch):
    """Stack sizes of the sweep-kernel calls made during the test, one entry per call."""
    calls = []
    kernel = radius._max_on_circle

    def counting(A, *args, **kwargs):
        calls.append(len(A))
        return kernel(A, *args, **kwargs)

    monkeypatch.setattr(radius, "_max_on_circle", counting)
    return calls
