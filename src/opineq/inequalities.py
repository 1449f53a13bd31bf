"""Operator inequalities as checkable predicates.

Every bound is evaluated into a BoundReport carrying both sides, the
slack rhs - lhs, and a tolerance; ``holds`` means slack >= -tol.  A report
built without a tolerance takes ``default_tol``, 1e-8 * (1 + |rhs|),
wide enough to absorb eigensolver error stacking through nested radius
computations; only majorization, the positivity suite and mixed_schwarz
(which adds its corners' rounding) set their own.
Sides that are not finite floats raise NonFinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AlphaOutOfRange,
    DimensionMismatch,
    HypothesisUnmet,
    NonFinite,
    NotHermitian,
    NotPSD,
)
from .linalg import (
    _require_square,
    as_matrix,
    block2,
    contraction,
    fro_norm,
    herm_eig,
    is_hermitian,
    matrix_abs,
    matrix_power_psd,
    psd_verdict,
    re_im_parts,
    spectral_norm,
)
from .radius import numerical_radius
from .transforms import aluthge, polar

__all__ = [
    "BoundReport",
    "PositivityVerdict",
    "default_tol",
    "block_positivity",
    "majorization_equiv",
    "corner_norm_report",
    "compression_bound_report",
    "mixed_schwarz",
    "half_difference_reports",
    "block_pair_report",
    "radius_upper_reports",
    "beta_chain_reports",
    "aluthge_bound_reports",
]


def default_tol(rhs: float) -> float:
    return 1e-8 * (1.0 + abs(rhs))


@dataclass(frozen=True)
class BoundReport:
    """One evaluated inequality instance: lhs <= rhs up to tol.

    ``tol`` defaults to ``default_tol`` of ``rhs``; a side that is not finite
    raises NonFinite.
    """

    name: str
    lhs: float
    rhs: float
    tol: float | None = None
    witness: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.lhs) and math.isfinite(self.rhs)):
            raise NonFinite(f"{self.name}: bound sides must be finite")
        if self.tol is None:
            object.__setattr__(self, "tol", default_tol(self.rhs))

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def holds(self) -> bool:
        return self.slack >= -self.tol

    def to_json_dict(self) -> dict:
        d = {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "tol": self.tol,
            "holds": self.holds,
        }
        if self.witness is not None:
            d["witness"] = self.witness
        return d


@dataclass(frozen=True)
class PositivityVerdict:
    """Outcome of the three-route block positivity check.

    ``is_psd`` comes from the eigenvalue route; ``condition_ii_max_ratio``
    is the supremum of |<Cu,v>|^2 / (<Au,u> <Bv,v>), which exceeds 1 exactly
    when the inner-product characterization fails; the Schur
    residual is the minimum eigenvalue of B - C (A + eps I)^(-1) C*.
    ``psd_tol`` = 1e-9 * (1 + max(||A||, ||B||)) is the Schur residual's
    PSD tolerance, and ``consistent`` says whether the routes agree.
    """

    is_psd: bool
    min_eig: float
    schur_residual: float
    condition_ii_max_ratio: float
    psd_tol: float

    @property
    def consistent(self) -> bool:
        """PSD: ratio <= 1 + 1e-6; not PSD: ratio > 1 or Schur residual < -psd_tol."""
        if self.is_psd:
            return self.condition_ii_max_ratio <= 1.0 + 1e-6
        return self.condition_ii_max_ratio > 1.0 or self.schur_residual < -self.psd_tol


def _omega(T) -> float:
    return numerical_radius(T).omega


def _unit_scale(M: np.ndarray) -> float:
    """The power of 4 nearest 1/max|M| (1 for M = 0, at most 4**511): an exact scale with an
    exact square root, after which no product of two entries of M leaves the float range."""
    top = float(np.abs(M).max())
    return math.ldexp(1.0, -2 * max(round(math.log2(top) / 2.0), -511)) if top > 0.0 else 1.0


def _require_hermitian(M: np.ndarray, what: str) -> np.ndarray:
    if M.shape[0] != M.shape[1] or not is_hermitian(M):
        raise NotHermitian(f"{what} must be Hermitian")
    return (M + M.conj().T) / 2.0


def block_positivity(A, B, C) -> PositivityVerdict:
    """Check positivity of [[A, C*], [C, B]] by three routes.

    Eigenvalue route: minimum eigenvalue of the assembled block.
    Inner-product route: the supremum of |<Cu,v>|^2 / (<Au,u> <Bv,v>), which is
    ||B^(+1/2) C A^(+1/2)||^2 from ``contraction`` when both corners are PSD and
    C = P_B C P_A, and inf otherwise; the block is PSD exactly when it is <= 1.
    Schur route: negativity of B - C (A + eps I)^(-1) C*.
    """
    A = _require_hermitian(as_matrix(A), "A")
    B = _require_hermitian(as_matrix(B), "B")
    C = as_matrix(C)
    is_psd, min_eig, _ = _check_block_psd(A, B, C)  # DimensionMismatch if C does not conform
    norm_a, norm_b = spectral_norm(A), spectral_norm(B)

    A_eps = A + 1e-8 * (1.0 + norm_a) * np.eye(A.shape[0])
    schur = B - C @ np.linalg.solve(A_eps, C.conj().T)
    # rounding in solve can leave an anti-Hermitian part above herm_eig's
    # tolerance when C is large; symmetrize exactly as herm_eig does
    schur = (schur + schur.conj().T) / 2.0
    schur_residual = float(herm_eig(schur).values[0])

    try:
        k = contraction(A, C, B)
        ratio = k.norm**2 if k.in_range else math.inf
    except NotPSD:
        ratio = math.inf

    return PositivityVerdict(
        is_psd=is_psd,
        min_eig=min_eig,
        schur_residual=schur_residual,
        condition_ii_max_ratio=ratio,
        psd_tol=1e-9 * (1.0 + max(norm_a, norm_b)),
    )


def majorization_equiv(T, S) -> tuple[BoundReport, BoundReport, BoundReport]:
    """Both directions of Douglas's lemma: T T* <= S S* iff T = S K with ||K|| <= 1.

    K = (S S*)^(+1/2) T from ``contraction(I, T, S S*)`` has the norm of the least-norm
    solution S^+ T.  Direction one goes from the operator order (eigenvalue route) to
    ||K|| <= 1 and to range(T) in range(S), a report each; direction two goes from these
    back to min eig(S S* - T T*) >= -tol.  A direction whose premise fails is reported
    as vacuously holding, with the premise recorded in the witness.
    """
    T, S = as_matrix(T), as_matrix(S)
    if T.shape[0] != S.shape[0]:
        raise DimensionMismatch("T and S must share their row dimension")
    with np.errstate(over="ignore", invalid="ignore"):
        SS = S @ S.conj().T
        M = SS - T @ T.conj().T
    if not np.isfinite(M).all():
        raise NonFinite("majorization: S S* - T T* exceeds the float range")
    m_min = float(herm_eig(M).values[0])
    k = contraction(np.eye(T.shape[1]), T, SS)
    scale = 1.0 + spectral_norm(T) ** 2 + spectral_norm(S) ** 2

    premise_one = m_min >= -1e-9 * scale
    one = {"premise_holds": premise_one, "min_eig": m_min}
    premise_two = k.norm**2 <= 1.0 + 1e-7 and k.in_range
    two = {"premise_holds": premise_two, "norm": k.norm, "range_residual": k.range_residual}
    return (
        BoundReport("majorization-order-to-contraction",
                    k.norm**2 if premise_one else 0.0, 1.0, 1e-7, one),
        BoundReport("majorization-order-to-range",
                    k.range_residual if premise_one else 0.0, 0.0, k.range_tol, one),
        BoundReport("majorization-contraction-to-order",
                    -m_min if premise_two else 0.0, 0.0, 1e-7 * scale, two),
    )


def _check_block_psd(A, B, C) -> tuple[bool, float, float]:
    """Assemble [[A, C*], [C, B]] and apply ``linalg.psd_verdict`` to its
    spectrum: (is_psd, min_eig, norm) with norm the block's spectral norm."""
    C = as_matrix(C)
    return psd_verdict(herm_eig(block2(A, C.conj().T, C, B)).values)


def corner_norm_report(A, B, C) -> BoundReport:
    """||C|| <= ||[[A, C*], [C, B]]|| / 2 for a PSD block."""
    is_psd, min_eig, norm_T = _check_block_psd(A, B, C)
    if not is_psd:
        raise NotPSD(f"block minimum eigenvalue {min_eig:.3e}")
    return BoundReport(name="corner-half-norm", lhs=spectral_norm(C), rhs=norm_T / 2.0)


def compression_bound_report(A, B, C) -> BoundReport:
    """||T|| <= ||A + U* B U|| for PSD T = [[A, C*], [C, B]], U = polar(C).u.

    HypothesisUnmet names the failing input hypothesis: "block-psd", or
    "range-support" when U U* B != B.  ||U|| <= 1, U |C| = C and U* C = |C|
    hold by construction (``polar`` cuts singular values at 1e-10 ||C||).
    """
    is_psd, min_eig, norm_T = _check_block_psd(A, B, C)
    if not is_psd:
        raise HypothesisUnmet("block-psd", f"minimum eigenvalue {min_eig:.3e}")
    A, B = as_matrix(A), as_matrix(B)
    U = polar(C).u
    if spectral_norm(U @ U.conj().T @ B - B) > 1e-7 * (1.0 + spectral_norm(B)):
        raise HypothesisUnmet("range-support", "U U* B != B")
    return BoundReport(
        name="compression-bound", lhs=norm_T, rhs=spectral_norm(A + U.conj().T @ B @ U)
    )


def mixed_schwarz(T, x, y, alpha: float) -> BoundReport:
    """|<Tx, y>|^2 <= <|T|**a x, x> <|T*|**(2-a) y, y> for a in [0, 2].

    The fractional powers use the 0**0 := 0 spectral convention, so the
    endpoint a = 0 reads against the range projection of |T|.
    """
    if not 0.0 <= alpha <= 2.0:
        raise AlphaOutOfRange(f"alpha must lie in [0, 2], got {alpha}")
    T = as_matrix(T)
    xv = np.asarray(x, dtype=np.complex128).ravel()
    yv = np.asarray(y, dtype=np.complex128).ravel()
    if xv.size != T.shape[1] or yv.size != T.shape[0]:
        raise DimensionMismatch("x must match cols(T) and y rows(T)")
    z = float(abs(np.vdot(yv, T @ xv)))
    Pa = matrix_power_psd(matrix_abs(T), alpha)
    Pb = matrix_power_psd(matrix_abs(T.conj().T), 2.0 - alpha)
    ra = max(float(np.vdot(xv, Pa @ xv).real), 0.0)
    rb = max(float(np.vdot(yv, Pb @ yv).real), 0.0)
    # At a pair tuned to the computed corners, as ``contraction``'s extremal pair is, the
    # sides carry the corners' rounding, ~eps ||Pa|| |x|^2 and ~eps ||Pb|| |y|^2 relative.
    xx, yy = float(np.vdot(xv, xv).real), float(np.vdot(yv, yv).real)
    rounding = 1e-14 * (fro_norm(Pa) * xx * rb + ra * fro_norm(Pb) * yy)
    # products, not powers: a side beyond the float range is inf, which
    # BoundReport rejects as NonFinite
    return BoundReport(name=f"mixed-schwarz-{alpha:g}", lhs=z * z, rhs=ra * rb,
                       tol=default_tol(ra * rb) + rounding)


def _abs_pair(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|T|, |T*|) of a square T."""
    T = _require_square(T)
    return matrix_abs(T), matrix_abs(T.conj().T)


def _sum_diff_omega(T: np.ndarray) -> tuple[float, float, float]:
    """s = ||(|T|+|T*|)||, d = ||(|T|-|T*|)|| and w(T)."""
    absT, absTs = _abs_pair(T)
    return spectral_norm(absT + absTs), spectral_norm(absT - absTs), _omega(T)


def _half_diff_plus_re(T: np.ndarray) -> np.ndarray:
    """(|T| - |T*|)/2 + i Re T, the half-difference question's S, of each matrix of the square
    (k, n, n) stack T."""
    Ts = _require_square(T).conj().swapaxes(-1, -2)
    return (matrix_abs(T) - matrix_abs(Ts)) / 2.0 + 1j * ((T + Ts) / 2.0)


def _half_diff_omegas(T: np.ndarray) -> dict[str, float]:
    """The numerical radii of (|T| - |T*|)/2 +/- i Re T and the Im T variants, keyed plus-re,
    minus-re, plus-im and minus-im."""
    M = (matrix_abs(T) - matrix_abs(T.conj().T)) / 2.0
    reT, imT = re_im_parts(T)
    return {"plus-re": _omega(M + 1j * reT), "minus-re": _omega(M - 1j * reT),
            "plus-im": _omega(M + 1j * imT), "minus-im": _omega(M - 1j * imT)}


def half_difference_reports(T) -> list[BoundReport]:
    """w((|T|-|T*|)/2 +/- i Re T) and the Im variants against
    ||(|T|+|T*|)|| / 2, plus the ||Re T|| and ||Im T|| lower bounds."""
    T = as_matrix(T)
    absT, absTs = _abs_pair(T)
    rhs = spectral_norm(absT + absTs) / 2.0
    reT, imT = re_im_parts(T)
    omegas = _half_diff_omegas(T)
    return [
        *(BoundReport(name=f"half-diff-{key}", lhs=val, rhs=rhs) for key, val in omegas.items()),
        BoundReport(name="half-diff-lower-re", lhs=spectral_norm(reT), rhs=omegas["plus-re"]),
        BoundReport(name="half-diff-lower-im", lhs=spectral_norm(imT), rhs=omegas["plus-im"]),
    ]


def block_pair_report(A, B) -> BoundReport:
    """w(P) <= max(||(|A|+|B|)||, ||(|A*|+|B*|)||), P = [[|B*|-|A*|, A-B], [-(A-B)*, |A|-|B|]].

    The paired block [[|B*|-|A*|, B-A], [(A-B)*, |A|-|B|]] is D P D for the
    unitary D = diag(I, -I), and w is unitarily invariant: one radius serves both.
    """
    A, B = as_matrix(A), as_matrix(B)
    if A.shape != B.shape or A.shape[0] != A.shape[1]:
        raise DimensionMismatch("A and B must be square matrices of equal size")
    (absA, absAs), (absB, absBs) = _abs_pair(A), _abs_pair(B)
    d = A - B
    lhs = _omega(np.block([[absBs - absAs, d], [-d.conj().T, absA - absB]]))
    rhs = max(spectral_norm(absA + absB), spectral_norm(absAs + absBs))
    return BoundReport(name="block-pair", lhs=lhs, rhs=rhs)


def radius_upper_reports(T) -> list[BoundReport]:
    """Two upper bounds on w(T) from one radius evaluation.

    The implicit bound  w <= s/4 + sqrt(w^2 + d^2/4)/2  with
    s = ||(|T|+|T*|)||, d = ||(|T|-|T*|)||, and the half-sum bound
    w <= s/2.  Neither dominates the other.
    """
    s, d, omega = _sum_diff_omega(as_matrix(T))
    implicit = s / 4.0 + 0.5 * math.hypot(omega, d / 2.0)
    return [
        BoundReport(name="implicit-radius-bound", lhs=omega, rhs=implicit),
        BoundReport(name="abs-sum-half-bound", lhs=omega, rhs=s / 2.0),
    ]


def beta_chain_reports(T) -> list[BoundReport]:
    """Three links between the four half-difference radii, beta1 and beta2,
    where beta1 = (s + sqrt(d^2 + 4 w^2))/4 and beta2 = (||T|| + w)/2.

    Only the two endpoint links, radii <= beta1 and radii <= beta2, are
    theorems.  The middle link beta1 <= beta2 is false and is reported so
    that its refutation stays visible: for T = [1] (+) [[0, 1], [0, 0]]
    one has s = 2, d = 1, w = ||T|| = 1, so beta1 = (2 + sqrt 5)/4 > 1 = beta2.
    """
    T = as_matrix(T)
    s, d, omega = _sum_diff_omega(T)
    beta1 = (s + math.hypot(d, 2.0 * omega)) / 4.0
    beta2 = (spectral_norm(T) + omega) / 2.0
    lhs = max(_half_diff_omegas(T).values())
    return [
        BoundReport(name="beta-chain-omegas-le-beta1", lhs=lhs, rhs=beta1),
        BoundReport(name="beta-chain-beta1-le-beta2", lhs=beta1, rhs=beta2),
        BoundReport(name="beta-chain-omegas-le-beta2", lhs=lhs, rhs=beta2),
    ]


def aluthge_bound_reports(T) -> list[BoundReport]:
    """Radius bounds through the Aluthge transform t = |T|^(1/2) U |T|^(1/2).

    With base = || |T|^2 + (|t|^2 + |t*|^2)/4 || and
    cross = |T| t + t |T|:
      bound 1: w(T) <= sqrt(base + 2 w([[0, cross], [(t*)^2 / 2, 0]])) / 2
      bound 2: w(T) <= sqrt(base + w(cross) + w(t^2)/2) / 2
    plus the mean bound w(T) <= (||T|| + w(t))/2 for comparison.
    The bounds are homogeneous of degree 1: they run on p T, p = _unit_scale(T), where
    no square of an entry overflows, and are divided by p; w(T) is taken of T.
    """
    T = as_matrix(T)
    p = _unit_scale(T)
    res = aluthge(p * T)
    tilde, absT = res.tilde, res.polar.abs_factor
    tilde_star = tilde.conj().T
    base_mat = absT @ absT + (tilde_star @ tilde + tilde @ tilde_star) / 4.0
    base = spectral_norm(base_mat)
    cross = absT @ tilde + tilde @ absT
    zero = np.zeros_like(tilde)
    corner_block = np.block([[zero, cross], [tilde_star @ tilde_star / 2.0, zero]])
    bound1 = 0.5 * math.sqrt(base + 2.0 * _omega(corner_block)) / p
    bound2 = 0.5 * math.sqrt(base + _omega(cross) + 0.5 * _omega(tilde @ tilde)) / p
    omega = _omega(T)
    mean_bound = 0.5 * (spectral_norm(T) + _omega(tilde) / p)
    return [
        BoundReport(name="aluthge-bound-1", lhs=omega, rhs=bound1),
        BoundReport(name="aluthge-bound-2", lhs=omega, rhs=bound2),
        BoundReport(name="aluthge-mean-bound", lhs=omega, rhs=mean_bound),
    ]
