"""Shared fixtures.

Every radius sweep that a test runs, directly or through the CLI, must
carry the level-set certificate: the autouse ``sweeps`` fixture records
the result of every matrix of every sweep-kernel call, stacked calls
included, and fails the test if one is uncertified.  ``kernel_calls``
counts the sweep-kernel calls themselves and ``kernel_grids`` records the
grid of each.  ``off_diag_identity`` checks
the off-diagonal block identity against a dense SVD sweep.
"""

import math

import numpy as np
import pytest

from opineq import numerical_radius, radius

ANGLES = np.arange(4096) * (2 * math.pi / 4096)


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

    def counting(T, *args, **kwargs):
        calls.append(len(T))
        return kernel(T, *args, **kwargs)

    monkeypatch.setattr(radius, "_max_on_circle", counting)
    return calls


@pytest.fixture
def kernel_grids(monkeypatch):
    """Grid points of the sweep-kernel calls made during the test, one entry per call."""
    grids = []
    kernel = radius._max_on_circle

    def recording(T, cfg):
        grids.append(cfg.grid_points)
        return kernel(T, cfg)

    monkeypatch.setattr(radius, "_max_on_circle", recording)
    return grids


@pytest.fixture
def off_diag_identity():
    """check(X, Y) asserts 2 w([[0, X], [Y*, 0]]) = sup_theta ||X + exp(1j*theta) Y||
    for p x q matrices X, Y and returns the block's SweepResult.

    numerical_radius gives the left side and a dense SVD sweep over 4096
    angles the right, so no code runs on both sides and a wrong block or a
    wrong identity fails.  The top singular value of X + exp(1j*theta) Y has
    second derivative at least -||Y||, so the nearest grid angle, at most
    pi/4096 from the maximizer, loses at most ||Y|| (pi/4096)^2 / 2.
    """

    def check(X, Y):
        p, q = X.shape
        res = numerical_radius(np.block([[np.zeros((p, p)), X], [Y.conj().T, np.zeros((q, q))]]))
        M = X[None] + np.exp(1j * ANGLES)[:, None, None] * Y[None]
        dense = np.linalg.svd(M, compute_uv=False)[:, 0].max()
        ny = np.linalg.norm(Y, 2)
        scale = 1 + np.linalg.norm(X, 2) + ny
        assert dense - 1e-12 * scale <= 2 * res.omega
        assert 2 * res.omega <= dense + ny * (math.pi / 4096) ** 2 / 2 + 1e-12 * scale
        return res

    return check
