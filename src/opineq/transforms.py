"""Polar decomposition, its fractional-power generalization, and the
Aluthge transform."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlphaOutOfRange, NotSquare
from .linalg import as_matrix, matrix_power_psd, svd

# Singular values at or below this fraction of the largest are rank-cut,
# so the polar factor vanishes on null(|T|) and is unique.
SIGMA_RTOL = 1e-10

__all__ = ["PolarFactors", "AluthgeResult", "polar", "generalized_polar", "aluthge"]


@dataclass(frozen=True)
class PolarFactors:
    """A polar factor ``u`` of T and ``abs_factor`` = |T|.

    From ``polar``, T = u |T| with u the partial isometry vanishing on
    null(|T|); from ``generalized_polar(T, alpha)``, T = u |T|**alpha with
    u* u = |T|**(2(1-alpha)) and u |T|**beta = |T*|**beta u.
    """

    u: np.ndarray
    abs_factor: np.ndarray


@dataclass(frozen=True)
class AluthgeResult:
    """tilde = |T|**(1/2) u |T|**(1/2) plus the polar factors used."""

    tilde: np.ndarray
    polar: PolarFactors


def polar(T) -> PolarFactors:
    """Polar decomposition T = U |T| with U a partial isometry.

    U is built as W diag(1 on kept sigmas) V* from the SVD; columns whose
    singular value is <= SIGMA_RTOL * sigma_max are dropped, so U vanishes
    on null(|T|).  Rectangular T is allowed.
    """
    T = as_matrix(T)
    f = svd(T)
    smax = float(f.sigmas[0]) if f.sigmas.size else 0.0
    keep = f.sigmas > SIGMA_RTOL * smax
    U = f.left[:, keep] @ f.right[:, keep].conj().T
    return PolarFactors(u=U, abs_factor=f.abs_factor())


def generalized_polar(T, alpha: float) -> PolarFactors:
    """Fractional polar factor: T = U_a |T|**alpha for alpha in (0, 1).

    With T = W diag(s) V*, the factor is U_a = W diag(s**(1-alpha)) V*.
    It satisfies U_a* U_a = |T|**(2(1-alpha)), U_a U_a* = |T*|**(2(1-alpha))
    and the intertwining U_a |T|**b = |T*|**b U_a for every b > 0.
    """
    if not 0.0 < alpha < 1.0:
        raise AlphaOutOfRange(f"alpha must lie in (0, 1), got {alpha}")
    T = as_matrix(T)
    f = svd(T)
    U = (f.left * f.sigmas ** (1.0 - alpha)) @ f.right.conj().T
    return PolarFactors(u=U, abs_factor=f.abs_factor())


def aluthge(T) -> AluthgeResult:
    """Aluthge transform |T|**(1/2) U |T|**(1/2) of a square matrix."""
    T = as_matrix(T)
    if T.shape[0] != T.shape[1]:
        raise NotSquare(f"Aluthge transform needs a square matrix, got {T.shape}")
    p = polar(T)
    root = matrix_power_psd(p.abs_factor, 0.5)
    return AluthgeResult(tilde=root @ p.u @ root, polar=p)
