"""Numerical radius by angle sweep, its level-set decision form, and an
independent Rayleigh-ascent cross check.

The radius is computed from
    w(T) = sup_theta lambda_max(Re(exp(1j*theta) T)),
where Re(exp(1j*theta) T) = cos(theta) Re T - sin(theta) Im T, so one
sweep only needs the two Hermitian parts.  The sup over the full circle
of lambda_max equals the sup of the norm (send theta to theta + pi).
"""

from __future__ import annotations

import functools
import math
import operator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .ensembles import trial_rng
from .errors import InvalidSpec, NonFinite
from .linalg import as_matrix, re_im_parts

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
    "gap_above",
    "numerical_radius",
    "rayleigh_radius",
]


@dataclass(frozen=True)
class SweepConfig:
    """Angle-sweep controls.

    A uniform grid of ``grid_points`` angles (even, >= 8) brackets each matrix's
    largest grid value and safeguarded Newton steps refine it; a level-set test,
    exact at any grid, finds any peak the grid missed, so 16 points are enough.
    """

    grid_points: int = 16

    def __post_init__(self):
        try:
            grid = operator.index(self.grid_points)
        except TypeError:
            raise InvalidSpec(f"grid_points must be an integer, got {self.grid_points!r}") from None
        if grid < 8 or grid % 2:
            raise InvalidSpec(f"grid_points must be an even integer >= 8, got {grid}")
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
    """Safeguarded Newton steps from angles t in (lo, hi) on matrices own of the (A, B) stack M.

    One batched eigh per step over the brackets still active.  With
    H' = -sin(theta) A - cos(theta) B and the top eigenpair (lam, v),
        f' = v* H' v,  f'' = -lam + 2 sum_j |v_j* H' v|^2 / (lam - lam_j)
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
        A, B = M[:, 0], M[:, 1]
        c, s = np.cos(t)[:, None, None], np.sin(t)[:, None, None]
        lam, V = np.linalg.eigh(c * A - s * B)
        top, v = lam[:, -1], V[:, :, -1:]
        seen.append((own, t, top, V[:, :, -1]))
        # w[:, j] = -v_j* H' v for every eigenvector v_j; the last is -f'.
        vh = V.conj().swapaxes(1, 2)
        w = (vh @ ((s * A + c * B) @ v))[:, :, 0]
        d1 = -w[:, -1].real
        gap = top[:, None] - lam[:, :-1]
        gap[gap <= 0.0] = np.inf
        terms = np.abs(w[:, :-1]) ** 2 / gap
        d2 = 2.0 * terms.sum(axis=1) - top
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


def _angles_above(A, B, value, eta):
    """Angles where each f of the (k, n, n) stacks crosses r = value + eta.

    H(theta) - r is singular at z = exp(1j*theta) iff Q(z) = z^2 P - z r + P*
    is, with P = (A + iB)/2 (He & Watson, IMA J. Numer. Anal. 1997).  The
    Moebius map z = (mu + a)/(1 + a mu) keeps the unit circle and makes the
    leading coefficient a^2 Q(1/a) invertible even for singular P.  A
    near-unimodular eigenvalue mu of the companion matrix counts only where
    f > value + eta/2, which drops the false alarms of a nearly constant f.
    Returns (clear, own, t): clear[i] certifies max f < r; t sorted by (own, t).
    """
    a, (k, n), eye = _MOBIUS, A.shape[:2], np.eye(A.shape[1])
    P, D = (A + 1j * B) / 2.0, -(value + eta)[:, None, None] * eye
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
        parts = [_angles_above(*(X[i : i + 1] for X in (A, B, value, eta))) for i in range(k)]
        return tuple(map(np.concatenate, zip(*((p[0], p[1] + i, p[2]) for i, p in enumerate(parts)))))
    own, j = np.nonzero(np.abs(np.abs(mu) - 1.0) <= _UNIMODULAR_TOL)
    t = np.zeros(0)
    if own.size:
        mu = mu[own, j]
        t = np.angle((mu + a) / (1.0 + a * mu))
        c, s = np.cos(t)[:, None, None], np.sin(t)[:, None, None]
        keep = np.linalg.eigvalsh(c * A[own] - s * B[own])[:, -1] > (value + eta / 2.0)[own]
        order = np.lexsort((t[keep], own[keep]))
        own, t = own[keep][order], t[keep][order]
    return np.bincount(own, minlength=k) == 0, own, t


def _scaled_parts(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Re T, Im T) of the (k, n, n) stack T, (k, 2, n, n), over power-of-two scales; the scales."""
    # Exact power-of-two scales keep f'' finite; parts divide apart (complex / subnormal overflows).
    M = np.stack(re_im_parts(T), axis=1)  # entries of Re T and Im T are at most w(T) in modulus
    scale = np.ldexp(1.0, np.frexp(np.abs(M).max(axis=(1, 2, 3)))[1] - 1)
    return (M.view(float) / scale[:, None, None, None]).view(complex), scale


@functools.lru_cache(maxsize=8)
def _grid(points: int) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """(h, thetas, cos, sin) of the grid of ``points`` angles; cos and sin on [0, pi), (points/2, 1, 1)."""
    h = TWO_PI / points
    thetas = np.arange(points) * h
    grid = thetas, np.cos(thetas[: points // 2, None, None]), np.sin(thetas[: points // 2, None, None])
    for a in grid:
        a.flags.writeable = False  # every caller shares them
    return (h, *grid)


def _vertex(th, h, lv, mv, rv):
    """Vertex of the parabola through (th -/+ h, lv/rv) and (th, mv) where it bends down, else th."""
    bend = lv - 2.0 * mv + rv
    if isinstance(bend, float):
        return th + 0.5 * h * ((lv - rv) / bend if bend < 0.0 else 0.0)
    return th + 0.5 * h * np.divide(lv - rv, bend, out=np.zeros_like(bend), where=bend < 0.0)


def _grid_start(M: np.ndarray, cfg: SweepConfig):
    """(t, lo, hi, top) per matrix of the (k, 2, n, n) scaled parts M: top is the largest grid
    value of f (the later angle on a tie) and t the vertex of the parabola through it and its
    neighbours lo, hi.  The grid is even and solves only [0, pi), as H(theta + pi) = -H(theta)."""
    h, thetas, c, s = _grid(cfg.grid_points)
    lam = np.linalg.eigvalsh(c * M[:, 0, None] - s * M[:, 1, None])
    vals = np.concatenate([lam[..., -1], -lam[..., 0]], axis=1)
    own = np.arange(len(M))
    pick = cfg.grid_points - 1 - np.argmax(vals[:, ::-1], axis=1)  # largest; ties: the later angle
    th = thetas[pick]
    lv, mv, rv = vals[own, pick - 1], vals[own, pick], vals[own, (pick + 1) % cfg.grid_points]
    return _vertex(th, h, lv, mv, rv), th - h, th + h, mv


def _max_on_circle(T: np.ndarray, cfg: SweepConfig) -> list[SweepResult]:
    """Numerical radius of each matrix of the (k, n, n) stack T, one SweepResult each: ``_refine``
    maximizes f(theta) = lambda_max(cos(theta) Re T - sin(theta) Im T) from ``_grid_start``, and
    the level-set test certifies each largest value seen or gives crossing angles, each restarting
    Newton within its neighbours (Mengi & Overton, 2005) for at most _RESTARTS rounds."""
    M, scale = _scaled_parts(T)
    own = np.arange(len(M))
    best = _refine(M, own, *_grid_start(M, cfg)[:3], own)
    eta = _CERT_RTOL * (1.0 + np.abs(best[1]))
    certified, own, t = _angles_above(M[:, 0], M[:, 1], best[1], eta)
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
    results = [SweepResult(w * s, t % TWO_PI, x, c, e * s if c else math.inf) for t, w, c, e, s, x in rows]
    if not all(math.isfinite(r.omega) for r in results):
        raise NonFinite("the numerical radius exceeds the float range")
    return results


def gap_above(T, S, gap: float) -> float | None:
    """gap + eta/2 where one level test certifies w(S) < floor - gap - 2 eta, else None (also for a
    non-finite gap or level, or a failed eigensolve).  floor <= w(T) is the larger of f_T's largest
    grid value and f_T at the grid parabola's vertex, >= w(T) cos(pi/g) on g points, and eta =
    _CERT_RTOL (1 + |floor|), in input units; f_S(0) must lie below the band where the test counts
    crossings, as a constant f never crosses.  T and S: complex (n, n) arrays, finite."""
    M, scale = _scaled_parts(np.stack([T, S]))
    (scale_t, scale_s), (h, thetas, c, s) = scale.tolist(), _grid(DEFAULT_SWEEP.grid_points)
    try:
        lam = np.linalg.eigvalsh(np.concatenate([c * M[0, 0] - s * M[0, 1], M[1:, 0]]))  # T's grid, S at 0
        vals = lam[:-1, -1].tolist() + (-lam[:-1, 0]).tolist()
        pick = len(vals) - 1 - vals[::-1].index(max(vals))  # as _grid_start picks
        t = _vertex(thetas[pick], h, vals[pick - 1], vals[pick], vals[(pick + 1) % len(vals)])
        f = max(vals[pick], float(np.linalg.eigvalsh(math.cos(t) * M[0, 0] - math.sin(t) * M[0, 1])[-1]))
        eta = _CERT_RTOL * (1.0 + abs(f)) * scale_t
        r = (f * scale_t - gap - 2.0 * eta) / scale_s  # a Python float division overflows to inf, silently
        eta_s = _CERT_RTOL * (1.0 + abs(r))
        if (math.isfinite(r) and lam[-1, -1] < r - eta_s / 2.0
                and _angles_above(M[1:, 0], M[1:, 1], np.array([r - eta_s]), np.array([eta_s]))[0][0]):
            return gap + eta / 2.0
    except np.linalg.LinAlgError:
        pass
    return None


def _fix_phase(x: np.ndarray) -> np.ndarray:
    """Rotate a vector's global phase so its largest component is real positive."""
    z = x[int(np.argmax(np.abs(x)))]
    return x if abs(z) == 0.0 else x * (abs(z) / z)


# numerical_radius results by (shape, complex128 bytes, cfg) while a radius_memo() block is open.
_MEMO: ContextVar[dict | None] = ContextVar("opineq_radius_memo", default=None)


@contextmanager
def radius_memo():
    """Within the block, numerical_radius computes each (matrix, cfg) once.

    A repeated call returns the stored result, whose witness is read-only.
    A block opened inside another joins it; outside any block nothing is stored.
    """
    token = _MEMO.set({} if _MEMO.get() is None else _MEMO.get())
    try:
        yield
    finally:
        _MEMO.reset(token)


def _radii(Ts, cfg: SweepConfig | None = None) -> list[SweepResult]:
    """numerical_radius of each matrix of ``Ts``, bitwise: what the open radius_memo block lacks (all,
    outside a block) is solved, each matrix once, in one kernel call per shape, and stored in the block."""
    memo, cfg, keys, todo = _MEMO.get(), cfg or DEFAULT_SWEEP, [], {}
    results = {} if memo is None else memo
    for T in Ts:
        T = np.asarray(T, dtype=np.complex128)  # as_matrix checks it, once, on a miss
        keys.append((T.shape, T.tobytes(), cfg))
        if keys[-1] not in results:
            todo.setdefault(T.shape, {})[keys[-1]] = as_matrix(T)
    for group in todo.values():
        for key, r in zip(group, _max_on_circle(np.stack(list(group.values())), cfg)):
            results[key] = SweepResult(r.omega, r.theta_star, _fix_phase(r.witness), r.certified, r.margin)
            results[key].witness.flags.writeable = memo is None  # a hit cannot see a caller's mutation
    return [results[key] for key in keys]


def numerical_radius(T, cfg: SweepConfig | None = None) -> SweepResult:
    """Numerical radius by grid sweep, Newton refinement and the level-set certificate;
    ``cfg`` (default DEFAULT_SWEEP) stays for `opineq radius`'s 720-point start and re-scoring."""
    return _radii([T], cfg)[0]


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

