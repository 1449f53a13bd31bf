"""Numerical radius by angle sweep, an independent Rayleigh-ascent cross
check, and the off-diagonal block radius identity.

The radius is computed from
    w(T) = sup_theta lambda_max(Re(exp(1j*theta) T)),
where Re(exp(1j*theta) T) = cos(theta) Re T - sin(theta) Im T, so one
sweep only needs the two Hermitian parts.  The sup over the full circle
of lambda_max equals the sup of the norm (send theta to theta + pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IdentityMismatch, InvalidSpec
from .linalg import as_matrix, block2, re_im_parts, spectral_norm

TWO_PI = 2.0 * math.pi
# Bisection alone shrinks any bracket below 1e-16 in 55 steps; the cap guards termination.
_MAX_STEPS = 64

__all__ = [
    "SweepConfig",
    "SweepResult",
    "f_theta",
    "numerical_radius",
    "rayleigh_radius",
    "sup_theta_norm",
    "off_diag_radius",
]


@dataclass(frozen=True)
class SweepConfig:
    """Angle-sweep controls.

    A uniform grid locates candidate maxima; the top_k bracketed local
    maxima are refined by safeguarded Newton steps down to angle
    resolution ``tol``.  Multiple brackets are refined because the sweep
    function can have several local maxima, so single-start refinement
    is unsafe.
    """

    grid_points: int = 720
    top_k: int = 5
    tol: float = 1e-11

    def __post_init__(self):
        if self.grid_points < 8:
            raise InvalidSpec("grid_points must be >= 8")
        if self.tol <= 0:
            raise InvalidSpec("tol must be positive")
        if self.top_k < 1:
            raise InvalidSpec("top_k must be >= 1")


DEFAULT_SWEEP = SweepConfig()


@dataclass(frozen=True)
class SweepResult:
    """Radius value, the maximizing angle in [0, 2pi), and a unit witness
    vector with |<T witness, witness>| equal to the radius."""

    omega: float
    theta_star: float
    witness: np.ndarray


def _max_on_circle(
    A: np.ndarray, B: np.ndarray, C: np.ndarray, cfg: SweepConfig
) -> tuple[float, float]:
    """Maximize f(theta) = lambda_max(C + cos(theta) A - sin(theta) B).

    One batched eigvalsh over a uniform grid brackets the top_k local
    maxima; safeguarded Newton steps refine them together, one batched
    eigh per step over the brackets still active.  With
    H' = -sin(theta) A - cos(theta) B and the top eigenpair (lam, v),
        f' = v* H' v,  f'' = -lam + v* C v + 2 sum_j |v_j* H' v|^2 / (lam - lam_j)
    over the eigenpairs j below the top (Kato's perturbation series); a
    tie, as for an eigenvalue repeated at every theta, adds no curvature.
    Each step shrinks its bracket by the sign of f'.  A step that leaves
    the bracket, or a non-finite or non-negative f'', bisects instead.  A
    bracket stops when its step or width is at most ``tol`` or when |f'|
    is within 4 ulps of max |lam|.  Returns (theta_star, value), the
    largest eigensolver value seen, the grid's included.
    """
    # A power-of-two scale keeps the squares in f'' finite at extreme
    # input scales and multiplies back exactly.
    peak = max(float(np.abs(M).max()) for M in (A, B, C))
    scale = math.ldexp(1.0, math.frexp(peak)[1] - 1)
    A, B, C = A / scale, B / scale, C / scale

    h = TWO_PI / cfg.grid_points
    thetas = np.arange(cfg.grid_points) * h
    c, s = np.cos(thetas)[:, None, None], np.sin(thetas)[:, None, None]
    grid = c * A - s * B
    grid += C  # in place: a third stack of n x n matrices would raise peak memory
    vals = np.linalg.eigvalsh(grid)[:, -1]
    locmax = np.flatnonzero((vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1)))
    picks = locmax[np.argsort(vals[locmax], kind="stable")[::-1]][: cfg.top_k]
    theta_star, value = float(thetas[picks[0]]), float(vals[picks[0]])  # the grid maximum

    t = thetas[picks]
    lo, hi = t - h, t + h
    for _ in range(_MAX_STEPS):
        c, s = np.cos(t)[:, None, None], np.sin(t)[:, None, None]
        lam, V = np.linalg.eigh(C + c * A - s * B)
        top, v = lam[:, -1], V[:, :, -1:]
        k = int(np.argmax(top))
        if top[k] > value:
            theta_star, value = float(t[k]), float(top[k])
        # w[:, j] = v_j* H' v for every eigenvector v_j; the last is f'.
        w = (V.conj().transpose(0, 2, 1) @ ((-s * A - c * B) @ v))[:, :, 0]
        d1 = w[:, -1].real
        gap = top[:, None] - lam[:, :-1]
        terms = np.divide(np.abs(w[:, :-1]) ** 2, gap, out=np.zeros_like(gap), where=gap > 0.0)
        d2 = (v.conj().transpose(0, 2, 1) @ C @ v)[:, 0, 0].real - top + 2.0 * terms.sum(axis=1)
        newton = t - np.divide(d1, d2, out=np.full_like(d1, np.inf), where=d2 < 0.0)
        lo, hi = np.where(d1 > 0.0, t, lo), np.where(d1 > 0.0, hi, t)
        nxt = np.where((newton > lo) & (newton < hi), newton, (lo + hi) / 2.0)
        flat = np.abs(d1) <= 4.0 * np.finfo(float).eps * np.abs(lam).max(axis=1)
        going = ~(flat | (np.abs(nxt - t) <= cfg.tol) | (hi - lo <= cfg.tol))
        if not going.any():
            break
        t, lo, hi = nxt[going], lo[going], hi[going]
    return theta_star % TWO_PI, value * scale


def f_theta(T, theta: float) -> float:
    """Largest eigenvalue of the Hermitian part of exp(1j*theta) T."""
    A, B = re_im_parts(T)
    H = math.cos(theta) * A - math.sin(theta) * B
    return float(np.linalg.eigvalsh(H)[-1])


def _fix_phase(x: np.ndarray) -> np.ndarray:
    """Rotate a vector's global phase so its largest component is real positive."""
    k = int(np.argmax(np.abs(x)))
    z = x[k]
    if abs(z) == 0.0:
        return x
    return x * (abs(z) / z)


def numerical_radius(T, cfg: SweepConfig | None = None) -> SweepResult:
    """Numerical radius by grid sweep plus Newton refinement."""
    cfg = cfg or DEFAULT_SWEEP
    T = as_matrix(T)
    A, B = re_im_parts(T)
    theta, value = _max_on_circle(A, B, np.zeros_like(A), cfg)
    H = math.cos(theta) * A - math.sin(theta) * B
    _, V = np.linalg.eigh(H)
    witness = _fix_phase(V[:, -1])
    return SweepResult(omega=value, theta_star=theta, witness=witness)


def rayleigh_radius(T, trials: int = 16, seed: int = 0) -> tuple[float, np.ndarray]:
    """Lower bound on the numerical radius by multistart alternating ascent.

    From each random unit start x, alternate between the phase
    phi = -arg<Tx, x> and the leading eigenvector of Re(exp(1j*phi) T);
    each step is monotone in |<Tx, x>|.  Returns the best value and the
    achieving unit vector.  Independent of the angle sweep, so the two
    routes cross-validate each other.
    """
    if trials < 1:
        raise InvalidSpec("trials must be >= 1")
    T = as_matrix(T)
    if T.shape[0] != T.shape[1]:
        raise DimensionMismatch("numerical radius needs a square matrix")
    n = T.shape[0]
    A, B = re_im_parts(T)

    best_val = -1.0
    best_x = None
    for t in range(trials):
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed % 2**64, t], dtype=np.uint64))
        )
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        x = x / np.linalg.norm(x)
        val = abs(np.vdot(x, T @ x))
        for _ in range(100):
            z = np.vdot(x, T @ x)
            phi = -np.angle(z) if abs(z) > 0.0 else 0.0
            H = math.cos(phi) * A - math.sin(phi) * B
            _, V = np.linalg.eigh(H)
            x = V[:, -1]
            new_val = abs(np.vdot(x, T @ x))
            if new_val <= val + 1e-14 * (1.0 + val):
                val = max(val, new_val)
                break
            val = new_val
        if val > best_val:
            best_val = val
            best_x = x
    return float(best_val), _fix_phase(best_x)


def _off_diag(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """[[0, X], [Y*, 0]]; for Y = X, the Hermitian dilation, with top eigenvalue ||X||."""
    p, q = X.shape
    return block2(np.zeros((p, p)), X, Y.conj().T, np.zeros((q, q)))


def sup_theta_norm(X, Y, cfg: SweepConfig | None = None) -> float:
    """sup over theta of the spectral norm of X + exp(1j*theta) Y.

    The Hermitian dilation dil(M) = [[0, M], [M*, 0]] is linear, so
    dil(X + exp(1j*theta) Y) = dil(X) + cos(theta) dil(Y) - sin(theta) dil(-1j*Y),
    and the radius kernel maximizes its top eigenvalue.
    """
    cfg = cfg or DEFAULT_SWEEP
    X, Y = as_matrix(X), as_matrix(Y)
    if X.shape != Y.shape:
        raise DimensionMismatch(f"shapes {X.shape} and {Y.shape} differ")
    A, B, C = (_off_diag(M, M) for M in (Y, -1j * Y, X))
    return _max_on_circle(A, B, C, cfg)[1]


def off_diag_radius(X, Y, cfg: SweepConfig | None = None) -> float:
    """Numerical radius of [[0, X], [Y*, 0]].

    Also evaluates sup_theta ||X + exp(1j*theta) Y|| by a second sweep,
    over the Hermitian dilation of X + exp(1j*theta) Y, and checks the identity
        2 w([[0, X], [Y*, 0]]) = sup_theta ||X + exp(1j*theta) Y||
    to 1e-8 * scale, raising IdentityMismatch on disagreement.
    """
    cfg = cfg or DEFAULT_SWEEP
    sup = sup_theta_norm(X, Y, cfg)
    omega = numerical_radius(_off_diag(as_matrix(X), as_matrix(Y)), cfg).omega
    scale = 1.0 + max(spectral_norm(X), spectral_norm(Y))
    if abs(2.0 * omega - sup) > 1e-8 * scale:
        raise IdentityMismatch(
            f"2*w = {2 * omega:.12g} vs sup-norm sweep {sup:.12g} (scale {scale:.3g})"
        )
    return omega
