"""Dense complex linear-algebra kernels.

Spectral decompositions, matrix absolute values and fractional powers,
norms, Hermitian/skew splitting, and 2x2 block assembly.  Everything
operates on plain ``numpy.ndarray`` values (coerced to complex128); all
functions are pure and never mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NonFinite,
    NotHermitian,
    NotPSD,
    NotSquare,
)

# Eigenvalues at or below RANK_RTOL times the largest one are treated as
# exact zeros when powering (0**0 := 0 spectral convention).
RANK_RTOL = 1e-14
# The range cut: ``polar`` drops singular values at or below SIGMA_RTOL times the
# largest, so its factor vanishes on null(|T|), and ``contraction`` drops PSD
# eigenvalues the same way.
SIGMA_RTOL = 1e-10

__all__ = [
    "HermEigen",
    "SvdFactors",
    "Contraction",
    "as_matrix",
    "fro_norm",
    "spectral_norm",
    "is_hermitian",
    "herm_eig",
    "svd",
    "matrix_abs",
    "matrix_power_psd",
    "contraction",
    "psd_verdict",
    "re_im_parts",
    "block2",
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


def _as_stack(T) -> np.ndarray:
    """A (k, m, n) stack as complex128 as it is; anything else through as_matrix."""
    return np.asarray(T, dtype=np.complex128) if np.ndim(T) == 3 else as_matrix(T)


def _require_square(T: np.ndarray) -> np.ndarray:
    if T.shape[-2] != T.shape[-1]:
        raise NotSquare(f"expected a square matrix, got shape {T.shape[-2:]}")
    return T


def fro_norm(T) -> float:
    """Frobenius norm, taken of |T| over its largest entry (real: complex division by a subnormal
    overflows) so that no square overflows or underflows; NaN and inf entries give NaN and inf."""
    top = float(np.max(np.abs(T), initial=0.0))
    if not 0.0 < top < np.inf:
        return top
    return top * float(np.linalg.norm(np.abs(T) / top))


def spectral_norm(T) -> float:
    """Largest singular value of T."""
    T = as_matrix(T)
    try:
        return float(np.linalg.svd(T, compute_uv=False)[0])
    except np.linalg.LinAlgError as e:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(e)) from e


def is_hermitian(H: np.ndarray) -> bool:
    return fro_norm(H - H.conj().T) <= 1e-12 * (1.0 + fro_norm(H))


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
    """T = left diag(sigmas) right*, with sigmas descending and >= 0 (stacked for a stack of T)."""

    left: np.ndarray
    sigmas: np.ndarray
    right: np.ndarray

    def abs_factor(self) -> np.ndarray:
        """|T| = V diag(sigma) V*, square of size cols(T)."""
        V = self.right
        R = (V * self.sigmas[..., None, :]) @ V.conj().swapaxes(-1, -2)
        return (R + R.conj().swapaxes(-1, -2)) / 2.0


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
    """Thin singular value decomposition T = W diag(s) V* (of each matrix of a (k, m, n) stack)."""
    T = _as_stack(T)
    try:
        W, s, Vh = np.linalg.svd(T, full_matrices=False)
    except np.linalg.LinAlgError as e:
        raise NoConvergence(str(e)) from e
    return SvdFactors(left=W, sigmas=s, right=Vh.conj().swapaxes(-1, -2))


def matrix_abs(T) -> np.ndarray:
    """|T| = (T*T)^(1/2), the PSD square-root factor of T.

    Built from the SVD: |T| = V diag(sigma) V*.  Works for rectangular T
    (the result is square of size cols(T)) and stacks of matrices.
    """
    return svd(T).abs_factor()


def psd_verdict(values: np.ndarray) -> tuple[bool, float, float]:
    """The PSD rule on an ascending Hermitian spectrum: (is_psd, min_eig, norm)
    with norm = max |eigenvalue| and is_psd = min_eig >= -1e-9 * (1 + norm)."""
    min_eig = float(values[0])
    norm = max(abs(min_eig), abs(float(values[-1])))
    return min_eig >= -1e-9 * (1.0 + norm), min_eig, norm


def _psd_eig(P) -> tuple[np.ndarray, np.ndarray, float]:
    """Ascending eigenvalues, clamped at 0, and eigenvectors of a PSD P, and its norm;
    NotPSD for an eigenvalue below -1e-9*(1+||P||)."""
    e = herm_eig(P)
    is_psd, min_eig, norm = psd_verdict(e.values)
    if not is_psd:
        raise NotPSD(f"minimum eigenvalue {min_eig:.3e} below PSD tolerance")
    return np.clip(e.values, 0.0, None), e.vectors, norm


def matrix_power_psd(P, alpha: float) -> np.ndarray:
    """P**alpha for PSD P and real alpha >= 0, by spectral calculus.

    Eigenvalues in [-1e-9*(1+||P||), 0) are clamped to 0; anything below
    raises NotPSD.  Zero eigenvalues obey 0**0 := 0, so alpha = 0 yields
    the orthogonal projection onto range(P).  An eigenvalue whose power
    overflows raises NonFinite.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    w, V, _ = _psd_eig(P)
    w[w <= RANK_RTOL * float(w[-1])] = 0.0
    with np.errstate(over="ignore"):
        powered = np.where(w > 0.0, w, 1.0) ** alpha
    if not np.isfinite(powered).all():
        raise NonFinite(f"P**{alpha:g} exceeds the float range")
    powered[w == 0.0] = 0.0
    R = (V * powered) @ V.conj().T
    return (R + R.conj().T) / 2.0


@dataclass(frozen=True)
class Contraction:
    """K = Q^(+1/2) X P^(+1/2) for PSD P and Q (^+: pseudo-inverse), and its extremal pair:
    <Pu,u> = <Qv,v> = 1 and <Xu,v> = ``norm`` = ||K|| (zero vectors if P or Q is 0).
    [[P, X*], [X, Q]] is PSD exactly when norm <= 1 and ``in_range``; the supremum of
    |<Xu,v>|^2 / (<Pu,u> <Qv,v>) is then norm**2, and otherwise it is infinite."""

    norm: float
    u: np.ndarray
    v: np.ndarray
    range_residual: float  # ||X - P_Q X P_P||, P_M the projection onto range(M)
    range_tol: float  # sqrt(SIGMA_RTOL ||P|| ||Q||): what a PSD block allows on cut eigenvectors

    @property
    def in_range(self) -> bool:
        return self.range_residual <= self.range_tol


def contraction(P, X, Q) -> Contraction:
    """The ``Contraction`` of an m x n X between PSD P (n x n) and Q (m x m); K is formed
    on the eigenvectors kept by the range cut, eigenvalues above SIGMA_RTOL * ||P||."""
    X = as_matrix(X)
    (p, V, norm_p), (q, W, norm_q) = _psd_eig(P), _psd_eig(Q)
    if X.shape != (q.size, p.size):
        raise DimensionMismatch(f"X must be {q.size}x{p.size}, got {X.shape}")
    u, v = np.zeros(p.size, np.complex128), np.zeros(q.size, np.complex128)
    keep_p, keep_q = p > SIGMA_RTOL * norm_p, q > SIGMA_RTOL * norm_q
    rp, V, rq, W = np.sqrt(p[keep_p]), V[:, keep_p], np.sqrt(q[keep_q]), W[:, keep_q]
    Y = W.conj().T @ X @ V
    norm = 0.0
    if Y.size:
        f = svd(Y / rq[:, None] / rp)
        norm, u, v = float(f.sigmas[0]), V @ (f.right[:, 0] / rp), W @ (f.left[:, 0] / rq)
    residual = spectral_norm(X - W @ Y @ V.conj().T)
    return Contraction(norm, u, v, residual, float(np.sqrt(SIGMA_RTOL * norm_p) * np.sqrt(norm_q)))


def re_im_parts(T) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian parts (Re T, Im T) with T = Re T + 1j * Im T, of each matrix
    of a (k, n, n) stack."""
    T = _require_square(_as_stack(T))
    Ts = T.conj().swapaxes(-1, -2)
    return (T + Ts) / 2.0, (T - Ts) / 2.0j


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
