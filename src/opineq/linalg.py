"""Dense complex linear-algebra kernels.

Spectral decompositions, matrix absolute values and fractional powers,
norms, Hermitian/skew splitting, and 2x2 block assembly.  Everything
operates on plain ``numpy.ndarray`` values (coerced to complex128); all
functions are pure and never mutate their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    HypothesisViolated,
    NoConvergence,
    NonFinite,
    NotHermitian,
    NotPSD,
    NotSquare,
)

# Eigenvalues at or below RANK_RTOL times the largest one are treated as
# exact zeros when powering (0**0 := 0 spectral convention).
RANK_RTOL = 1e-14

__all__ = [
    "HermEigen",
    "SvdFactors",
    "as_matrix",
    "inner",
    "fro_norm",
    "spectral_norm",
    "is_hermitian",
    "herm_eig",
    "svd",
    "matrix_abs",
    "matrix_power_psd",
    "re_im_parts",
    "pos_neg_parts",
    "block2",
    "split2",
    "herm2_closed_norm",
]


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array with finite entries."""
    m = np.atleast_2d(np.asarray(a, dtype=np.complex128))
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got array of ndim {m.ndim}")
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise DimensionMismatch("matrix dimensions must be positive")
    if not np.isfinite(m).all():
        raise NonFinite("matrix entries must be finite")
    return m


def _require_square(T: np.ndarray) -> np.ndarray:
    if T.shape[0] != T.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {T.shape}")
    return T


def inner(x, y) -> complex:
    """<x, y> = sum_i x_i * conj(y_i), linear in the first argument."""
    xv = np.asarray(x, dtype=np.complex128).ravel()
    yv = np.asarray(y, dtype=np.complex128).ravel()
    if xv.shape != yv.shape:
        raise DimensionMismatch("inner product needs vectors of equal length")
    return complex(np.vdot(yv, xv))


def fro_norm(T) -> float:
    return float(np.linalg.norm(np.asarray(T)))


def spectral_norm(T) -> float:
    """Largest singular value of T."""
    T = as_matrix(T)
    try:
        return float(np.linalg.svd(T, compute_uv=False)[0])
    except np.linalg.LinAlgError as e:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(e)) from e


def is_hermitian(H: np.ndarray, rtol: float = 1e-12) -> bool:
    return fro_norm(H - H.conj().T) <= rtol * (1.0 + fro_norm(H))


@dataclass(frozen=True)
class HermEigen:
    """Eigendecomposition H = V diag(values) V* of a Hermitian matrix.

    ``values`` is real and ascending; column k of ``vectors`` pairs with
    ``values[k]``; ``vectors`` is unitary.
    """

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class SvdFactors:
    """T = left diag(sigmas) right*, with sigmas descending and >= 0."""

    left: np.ndarray
    sigmas: np.ndarray
    right: np.ndarray

    def abs_factor(self) -> np.ndarray:
        """|T| = V diag(sigma) V*, square of size cols(T)."""
        V = self.right
        R = (V * self.sigmas) @ V.conj().T
        return (R + R.conj().T) / 2.0


def herm_eig(H) -> HermEigen:
    """Eigendecomposition of a Hermitian matrix.

    The input is symmetrized to (H + H*)/2 before factoring, which removes
    rounding asymmetry deterministically.  Raises NotHermitian when the
    input is not square or its anti-Hermitian part exceeds
    1e-12 * (1 + ||H||_F).
    """
    H = as_matrix(H)
    if H.shape[0] != H.shape[1]:
        raise NotHermitian(f"matrix of shape {H.shape} is not square")
    if not is_hermitian(H):
        raise NotHermitian("anti-Hermitian part exceeds tolerance")
    Hs = (H + H.conj().T) / 2.0
    try:
        w, V = np.linalg.eigh(Hs)
    except np.linalg.LinAlgError as e:
        raise NoConvergence(str(e)) from e
    return HermEigen(values=w, vectors=V)


def svd(T) -> SvdFactors:
    """Thin singular value decomposition T = W diag(s) V*."""
    T = as_matrix(T)
    try:
        W, s, Vh = np.linalg.svd(T, full_matrices=False)
    except np.linalg.LinAlgError as e:
        raise NoConvergence(str(e)) from e
    return SvdFactors(left=W, sigmas=s, right=Vh.conj().T)


def matrix_abs(T) -> np.ndarray:
    """|T| = (T*T)^(1/2), the PSD square-root factor of T.

    Built from the SVD: |T| = V diag(sigma) V*.  Works for rectangular T
    (the result is square of size cols(T)).
    """
    return svd(T).abs_factor()


def matrix_power_psd(P, alpha: float) -> np.ndarray:
    """P**alpha for PSD P and real alpha >= 0, by spectral calculus.

    Eigenvalues in [-1e-9*(1+||P||), 0) are clamped to 0; anything below
    raises NotPSD.  Zero eigenvalues obey 0**0 := 0, so alpha = 0 yields
    the orthogonal projection onto range(P).
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    e = herm_eig(P)
    w, V = e.values.copy(), e.vectors
    nrm = max(abs(float(w[0])), abs(float(w[-1])))
    if w[0] < -1e-9 * (1.0 + nrm):
        raise NotPSD(f"minimum eigenvalue {w[0]:.3e} below PSD tolerance")
    w = np.clip(w, 0.0, None)
    w[w <= RANK_RTOL * float(w[-1])] = 0.0
    powered = np.where(w > 0.0, w, 1.0) ** alpha
    powered[w == 0.0] = 0.0
    R = (V * powered) @ V.conj().T
    return (R + R.conj().T) / 2.0


def re_im_parts(T) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian parts (Re T, Im T) with T = Re T + 1j * Im T."""
    T = _require_square(as_matrix(T))
    re = (T + T.conj().T) / 2.0
    im = (T - T.conj().T) / 2.0j
    return re, im


def pos_neg_parts(S) -> tuple[np.ndarray, np.ndarray]:
    """Spectral positive/negative parts: S = S_plus - S_minus, S_plus S_minus = 0."""
    e = herm_eig(S)
    w, V = e.values, e.vectors
    plus = (V * np.clip(w, 0.0, None)) @ V.conj().T
    minus = (V * np.clip(-w, 0.0, None)) @ V.conj().T
    return (plus + plus.conj().T) / 2.0, (minus + minus.conj().T) / 2.0


def block2(A, c_star, C, B) -> np.ndarray:
    """Assemble the 2x2 operator block [[A, c_star], [C, B]].

    A is n x n, B is m x m, C is m x n and c_star is n x m (normally C*).
    """
    A, c_star, C, B = (as_matrix(M) for M in (A, c_star, C, B))
    n, m = A.shape[0], B.shape[0]
    if A.shape != (n, n) or B.shape != (m, m):
        raise DimensionMismatch("diagonal blocks must be square")
    if C.shape != (m, n) or c_star.shape != (n, m):
        raise DimensionMismatch(
            f"off-diagonal blocks {C.shape}/{c_star.shape} do not conform with {A.shape}/{B.shape}"
        )
    return np.block([[A, c_star], [C, B]])


def split2(T, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Extract (A, c_star, C, B) from a square block matrix, inverse of block2."""
    T = _require_square(as_matrix(T))
    N = T.shape[0]
    if not 0 < n < N:
        raise DimensionMismatch(f"split index {n} outside (0, {N})")
    return (
        T[:n, :n].copy(),
        T[:n, n:].copy(),
        T[n:, :n].copy(),
        T[n:, n:].copy(),
    )


def herm2_closed_norm(a: float, b: float, c: complex) -> float:
    """Closed-form norm of the 2x2 Hermitian matrix [[a, conj(c)], [c, b]].

    (a + b + sqrt((a-b)^2 + 4|c|^2)) / 2, valid as the operator norm
    whenever a + b >= 0 (then the top eigenvalue dominates in magnitude).
    """
    if a + b < 0:
        raise HypothesisViolated(f"requires a + b >= 0, got {a + b}")
    return (a + b + math.sqrt((a - b) ** 2 + 4.0 * abs(c) ** 2)) / 2.0
