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
import operator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .ensembles import trial_rng
from .errors import DimensionMismatch, IdentityMismatch, InvalidSpec
from .linalg import as_matrix, block2, re_im_parts, spectral_norm

TWO_PI = 2.0 * math.pi
# Bisection alone shrinks any bracket below 1e-16 in 55 steps; the cap guards termination.
_MAX_STEPS = 64
_ANGLE_TOL = 1e-11  # a bracket stops where its Newton step or width is at most this
_ULPS4 = 4.0 * np.finfo(float).eps  # a bracket stops where |f'| <= _ULPS4 max |lam|
# Level-set test: relative level margin, unit-circle tolerance, Newton restarts,
# and an irrational Moebius parameter (1/a is no root of structured inputs).
_CERT_RTOL, _UNIMODULAR_TOL, _RESTARTS, _MOBIUS = 1e-9, 1e-6, 4, math.sqrt(2.0) - 1.0

__all__ = [
    "SweepConfig",
    "SweepResult",
    "numerical_radius",
    "rayleigh_radius",
    "sup_theta_norm",
    "off_diag_radius",
]


@dataclass(frozen=True)
class SweepConfig:
    """Angle-sweep controls.

    A uniform grid of ``grid_points`` angles brackets each matrix's largest
    grid value; safeguarded Newton steps refine that one bracket, and a
    level-set test finds any peak the grid missed.
    """

    grid_points: int = 720

    def __post_init__(self):
        try:
            grid = operator.index(self.grid_points)
        except TypeError:
            raise InvalidSpec(f"grid_points must be an integer, got {self.grid_points!r}") from None
        if grid < 8:
            raise InvalidSpec("grid_points must be >= 8")
        object.__setattr__(self, "grid_points", int(grid))  # np.int64(16) and 16: one memo key


DEFAULT_SWEEP = SweepConfig()


@dataclass(frozen=True)
class SweepResult:
    """Radius value, the maximizing angle in [0, 2pi), and a unit witness
    vector with |<T witness, witness>| equal to the radius.

    ``certified``: the level-set test put the true value in
    [omega, omega + margin]; otherwise ``margin`` is inf.
    """

    omega: float
    theta_star: float
    witness: np.ndarray
    certified: bool
    margin: float


def _refine(M, own, t, lo, hi, owners):
    """Safeguarded Newton steps from angles t in brackets (lo, hi) on matrices own of M.

    One batched eigh per step over the brackets still active.  With
    H' = -sin(theta) A - cos(theta) B and the top eigenpair (lam, v),
        f' = v* H' v,  f'' = -lam + v* C v + 2 sum_j |v_j* H' v|^2 / (lam - lam_j)
    over the eigenpairs j below the top (Kato's perturbation series); a
    tie, as for an eigenvalue repeated at every theta, adds no curvature.
    Each step shrinks its bracket by the sign of f'.  A step that leaves
    the bracket, or a non-finite or non-negative f'', bisects instead.  A
    bracket stops when its step or width is at most _ANGLE_TOL or when
    |f'| is within 4 ulps of max |lam|.  Returns (theta, value, vector)
    of the first largest eigenpair visited for each of the sorted ``owners``.
    """
    M, seen = M[own], []
    for _ in range(_MAX_STEPS):
        A, B, C = M[:, 0], M[:, 1], M[:, 2]
        c, s = np.cos(t)[:, None, None], np.sin(t)[:, None, None]
        lam, V = np.linalg.eigh(C + c * A - s * B)
        top, v = lam[:, -1], V[:, :, -1:]
        seen.append((own, t, top, V[:, :, -1]))
        # w[:, j] = -v_j* H' v for every eigenvector v_j; the last is -f'.
        vh = V.conj().swapaxes(1, 2)
        w = (vh @ ((s * A + c * B) @ v))[:, :, 0]
        d1 = -w[:, -1].real
        gap = top[:, None] - lam[:, :-1]
        gap[gap <= 0.0] = np.inf
        terms = np.abs(w[:, :-1]) ** 2 / gap
        d2 = (vh[:, -1] * (C @ v)[:, :, 0]).sum(axis=1).real - top + 2.0 * terms.sum(axis=1)
        newton = t - d1 / np.where(d2 < 0.0, d2, -np.inf)  # no step unless f'' < 0
        lo, hi = np.where(d1 > 0.0, t, lo), np.where(d1 > 0.0, hi, t)
        nxt = np.where((newton > lo) & (newton < hi), newton, (lo + hi) / 2.0)
        steep = np.abs(d1) > _ULPS4 * np.maximum(-lam[:, 0], top)  # lam ascends: max |lam|
        going = steep & (np.abs(nxt - t) > _ANGLE_TOL) & (hi - lo > _ANGLE_TOL)
        if not going.any():
            break
        t, lo, hi, own, M = nxt[going], lo[going], hi[going], own[going], M[going]
    own, t, top, v = map(np.concatenate, zip(*seen))
    order = np.lexsort((-top, own))  # stable: visit order breaks ties
    first = order[np.searchsorted(own[order], owners)]
    return t[first], top[first], v.take(first, axis=0)


def _angles_above(A, B, C, value, eta):
    """Angles where each f of the (k, n, n) stacks crosses r = value + eta.

    H(theta) - r is singular at z = exp(1j*theta) iff Q(z) = z^2 P + z (C - r) + P*
    is, with P = (A + iB)/2 (He & Watson, IMA J. Numer. Anal. 1997).  The
    Moebius map z = (mu + a)/(1 + a mu) keeps the unit circle and makes the
    leading coefficient a^2 Q(1/a) invertible even for singular P.  A
    near-unimodular eigenvalue mu of the companion matrix counts only where
    f > value + eta/2, which drops the false alarms of a nearly constant f.
    Returns (clear, own, t): clear[i] certifies max f < r; t sorted by (own, t).
    """
    a, (k, n), eye = _MOBIUS, A.shape[:2], np.eye(A.shape[1])
    P, D = (A + 1j * B) / 2.0, C - (value + eta)[:, None, None] * eye
    Ph = P.conj().swapaxes(1, 2)
    rhs = np.concatenate([a * a * P + a * D + Ph, 2.0 * a * A + (1.0 + a * a) * D], axis=2)
    companion = np.zeros((k, 2 * n, 2 * n), dtype=complex)
    companion[:, :n, n:] = eye
    try:
        companion[:, n:] = -np.linalg.solve(P + a * D + a * a * Ph, rhs)
        mu = np.linalg.eigvals(companion)
    except np.linalg.LinAlgError:  # one matrix at a time: only its own failure leaves it uncertified
        if k == 1:
            return np.zeros(1, bool), np.zeros(0, int), np.zeros(0)
        parts = [_angles_above(*(X[i : i + 1] for X in (A, B, C, value, eta))) for i in range(k)]
        return tuple(map(np.concatenate, zip(*((p[0], p[1] + i, p[2]) for i, p in enumerate(parts)))))
    own, j = np.nonzero(np.abs(np.abs(mu) - 1.0) <= _UNIMODULAR_TOL)
    t = np.zeros(0)
    if own.size:
        mu = mu[own, j]
        t = np.angle((mu + a) / (1.0 + a * mu))
        c, s = np.cos(t)[:, None, None], np.sin(t)[:, None, None]
        keep = np.linalg.eigvalsh(C[own] + c * A[own] - s * B[own])[:, -1] > (value + eta / 2.0)[own]
        order = np.lexsort((t[keep], own[keep]))
        own, t = own[keep][order], t[keep][order]
    return np.bincount(own, minlength=k) == 0, own, t


def _max_on_circle(A: np.ndarray, B: np.ndarray, C: np.ndarray | None, cfg: SweepConfig) -> list[SweepResult]:
    """Maximize f(theta) = lambda_max(C + cos(theta) A - sin(theta) B) for each
    matrix of the (k, n, n) stacks A, B, C; one SweepResult each.

    One batched eigvalsh over all matrices and grid angles brackets each
    matrix's largest grid value, the later angle on a tie; ``_refine``
    starts there at the vertex of the grid parabola.  Any other peak is left
    to the level-set test: it certifies each largest value seen or gives
    crossing angles, each restarting Newton within its neighbours (Mengi &
    Overton, IMA J. Numer. Anal. 2005) for at most _RESTARTS rounds.
    C None means C = 0, where H(theta + pi) = -H(theta): an even grid then
    solves only its angles in [0, pi) and reads f(theta + pi) as
    -lambda_min(H(theta)).
    """
    # Exact power-of-two scales keep f'' finite; parts divide apart (complex / subnormal overflows).
    M = np.concatenate([A, B, np.zeros_like(A) if C is None else C], axis=1, dtype=complex)
    scale = np.ldexp(1.0, np.frexp(np.abs(M).max(axis=(1, 2)))[1] - 1)
    M = (M.view(float) / scale[:, None, None]).view(complex).reshape(len(M), 3, -1, M.shape[-1])

    h = TWO_PI / cfg.grid_points
    thetas = np.arange(cfg.grid_points) * h
    fold = C is None and cfg.grid_points % 2 == 0
    half = thetas[: cfg.grid_points // 2] if fold else thetas
    c, s = np.cos(half)[:, None, None], np.sin(half)[:, None, None]
    grid = c * M[:, 0, None] - s * M[:, 1, None]
    if C is not None:
        grid += M[:, 2, None]  # in place: a third stack of n x n matrices would raise peak memory
    lam = np.linalg.eigvalsh(grid)
    vals = np.concatenate([lam[..., -1], -lam[..., 0]], axis=1) if fold else lam[..., -1]
    own = np.arange(len(M))
    pick = cfg.grid_points - 1 - np.argmax(vals[:, ::-1], axis=1)  # largest; ties: the later angle
    th = thetas[pick]
    lv, mv, rv = vals[own, pick - 1], vals[own, pick], vals[own, (pick + 1) % cfg.grid_points]
    bend = lv - 2.0 * mv + rv
    vertex = np.divide(lv - rv, bend, out=np.zeros_like(bend), where=bend < 0.0)
    best = _refine(M, own, th + 0.5 * h * vertex, th - h, th + h, own)
    eta = _CERT_RTOL * (1.0 + np.abs(best[1]))
    certified, own, t = _angles_above(M[:, 0], M[:, 1], M[:, 2], best[1], eta)
    for _ in range(_RESTARTS):
        if t.size == 0:
            break
        i, head = np.arange(t.size), np.searchsorted(own, own)
        tail = np.searchsorted(own, own, "right") - 1
        lo = np.where(i == head, t[tail] - TWO_PI, t[i - 1])
        hi = np.where(i == tail, t[head] + TWO_PI, t[(i + 1) % t.size])
        todo = np.unique(own)  # f exceeds each value at its crossings, so restarts raise it
        best[0][todo], best[1][todo], best[2][todo] = _refine(M, own, t, lo, hi, todo)
        eta[todo] = _CERT_RTOL * (1.0 + np.abs(best[1][todo]))
        certified[todo], own, t = _angles_above(*M[todo].swapaxes(0, 1), best[1][todo], eta[todo])
        own = todo[own]
    rows = zip(*(x.tolist() for x in (best[0], best[1], certified, eta, scale)), best[2])
    return [SweepResult(w * s, t % TWO_PI, x, c, e * s if c else math.inf) for t, w, c, e, s, x in rows]


def _fix_phase(x: np.ndarray) -> np.ndarray:
    """Rotate a vector's global phase so its largest component is real positive."""
    k = int(np.argmax(np.abs(x)))
    z = x[k]
    if abs(z) == 0.0:
        return x
    return x * (abs(z) / z)


# numerical_radius results by (shape, complex128 bytes, cfg) while a radius_memo() block is open.
_MEMO: ContextVar[dict | None] = ContextVar("opineq_radius_memo", default=None)


@contextmanager
def radius_memo():
    """Within the block, numerical_radius computes each (matrix, cfg) once.

    A repeated call returns the stored result, whose witness is read-only.
    Outside any block nothing is stored.
    """
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def numerical_radius(T, cfg: SweepConfig | None = None) -> SweepResult:
    """Numerical radius by grid sweep, Newton refinement and the level-set certificate."""
    cfg = cfg or DEFAULT_SWEEP
    memo = _MEMO.get()
    if memo is not None:
        T = np.asarray(T, dtype=np.complex128)  # re_im_parts checks it, once, on a miss
        key = (T.shape, T.tobytes(), cfg)
        if key in memo:
            return memo[key]
    A, B = re_im_parts(T)
    r = _max_on_circle(A[None], B[None], None, cfg)[0]
    result = SweepResult(r.omega, r.theta_star, _fix_phase(r.witness), r.certified, r.margin)
    if memo is not None:
        result.witness.flags.writeable = False
        memo[key] = result
    return result


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
    A, B = re_im_parts(T)
    n = T.shape[0]

    best_val = -1.0
    best_x = None
    for t in range(trials):
        rng = trial_rng(seed, t)
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
    A, B, C = (_off_diag(M, M)[None] for M in (Y, -1j * Y, X))
    return _max_on_circle(A, B, C, cfg)[0].omega


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
