"""Counterexample search for the open question
    w((|T| - |T*|)/2 + i Re T) <= w(T).

The searcher minimizes slack(T) = w(T) - w((|T|-|T*|)/2 + i Re T) over a
seeded ensemble, then hill-descends from the best candidates by random
perturbation.  A negative slack beyond tolerance, with both radii of the
argmin certified by the level-set test, would be a counterexample; the
search reports, it never asserts.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import radius
from .ensembles import EnsembleSpec, generate, trial_rng
from .errors import InvalidSpec
from .inequalities import _half_diff_matrices
from .linalg import as_matrix, spectral_norm
from .radius import SweepConfig, numerical_radius

__all__ = ["ConjectureResult", "half_diff_slack", "conjecture_search"]

VIOLATION_RTOL = 1e-7
# Per scan chunk: bytes of a full-circle kernel grid stack, grid * n * n * 16 per
# matrix; the kernel's grid folds onto [0, pi), so its stack fills half the budget.
SCAN_STACK_BYTES = 1 << 17
# The descent starts from the KEEP best scanned draws and tries PERTURBATIONS moves per
# round; perfbench's CAMPAIGN_DESCENT = 5 * 10 * 50 counts the trials these values give.
KEEP = 5
PERTURBATIONS = 50


@dataclass(frozen=True)
class ConjectureResult:
    min_slack: float
    argmin_matrix: np.ndarray
    trials: int
    violated: bool
    certified: bool


def half_diff_slack(T, cfg: SweepConfig | None = None, to_beat: float | None = None) -> float:
    """w(T) - w(S) with S = (|T| - |T*|)/2 + i Re T; negative means counterexample.

    Without ``to_beat``: two ``numerical_radius`` calls (``cfg`` re-scores a witness on a finer
    grid, as the benchmark's campaign check does at 5760).  With it, no radius call: if the level
    test certifies w(S) < f - to_beat - 2 eta, f <= w(T) and eta from ``radius_floor``, then
    to_beat + eta/2 < w_T - w_S, the exact slack, as w_S <= w(S) < w(T) - to_beat - 2 eta and,
    where the kernel certifies w_T, w_T >= w(T) - margin_T > w(T) - 1.1 eta (f >= w(T) cos(pi/g));
    so ``slack < to_beat`` decides alike.  Else one stacked kernel call scores [T, S], bitwise."""
    S = _half_diff_matrices(T)["plus-re"]
    if to_beat is None:
        return numerical_radius(T, cfg).omega - numerical_radius(S, cfg).omega
    floor, eta = radius.radius_floor(T)
    if radius.radius_below(S, floor - to_beat - 2.0 * eta):
        return to_beat + eta / 2.0
    return _stacked_slacks(as_matrix(T)[None], S[None], cfg or radius.DEFAULT_SWEEP)[0]


def _stacked_slacks(T: np.ndarray, S: np.ndarray, cfg: SweepConfig) -> list[float]:
    """w(T_i) - w(S_i) over the (k, n, n) stacks T and S, one kernel call of 2k matrices."""
    res = radius._max_on_circle(np.concatenate([T, S]), cfg)
    return [t.omega - s.omega for t, s in zip(res, res[len(T) :])]


def _scan(spec: EnsembleSpec) -> Iterator[tuple[float, np.ndarray]]:
    """Yield (half_diff_slack(T), T) per draw; a chunk, the only draws held,
    is one SVD pair and one kernel call at ``radius.DEFAULT_SWEEP``."""
    sweep, draws = radius.DEFAULT_SWEEP, generate(spec)
    chunk = [next(draws)]
    size = max(1, SCAN_STACK_BYTES // (2 * sweep.grid_points * chunk[0].size * 16))
    chunk += islice(draws, size - 1)
    while chunk:
        T = np.stack(chunk)
        yield from zip(_stacked_slacks(T, _half_diff_matrices(T)["plus-re"], sweep), chunk)
        chunk = list(islice(draws, size))


def conjecture_search(spec: EnsembleSpec, ascend_iters: int = 10) -> ConjectureResult:
    """Scan the ensemble, then hill-descend the KEEP best candidates.

    Each of ``ascend_iters`` descent rounds tries PERTURBATIONS random
    perturbations of Frobenius size step (initially 0.1 * ||T||, decaying by
    0.7 per round), each one radius-free ``half_diff_slack`` call, most of them
    rejected by a level test on a grid floor of w(T), with the same decisions.
    Deterministic for a fixed spec.
    """
    if ascend_iters < 0:
        raise InvalidSpec(f"ascend_iters must be >= 0, got {ascend_iters}")
    candidates = heapq.nsmallest(KEEP, _scan(spec), key=lambda pair: pair[0])
    trials = spec.count

    finalists = []
    for c_idx, (slack, T) in enumerate(candidates):
        current_T = T
        current_slack = slack
        step = 0.1 * max(spectral_norm(T), 1e-12)
        for round_idx in range(ascend_iters):
            rng = trial_rng(spec.seed, 2**32 + c_idx * 2**16 + round_idx)
            for _ in range(PERTURBATIONS):
                g = rng.normal(size=T.shape) + 1j * rng.normal(size=T.shape)
                g_norm = float(np.linalg.norm(g))
                if g_norm == 0.0:
                    continue
                cand = current_T + (step / g_norm) * g
                s = half_diff_slack(cand, to_beat=current_slack)
                trials += 1
                if s < current_slack:
                    current_slack, current_T = s, cand
            step *= 0.7
        finalists.append((current_slack, current_T))

    # The descent optimizes against the sweep estimator, so a missed peak
    # would surface as a fake counterexample; a violation counts only
    # when the level-set test certifies both radii of the argmin.
    best_slack, best_T = min(finalists, key=lambda p: p[0])
    pair = (best_T, _half_diff_matrices(best_T)["plus-re"])
    certified = all(numerical_radius(M).certified for M in pair)
    scale = 1.0 + spectral_norm(best_T)
    return ConjectureResult(
        min_slack=float(best_slack),
        argmin_matrix=best_T,
        trials=trials,
        violated=certified and bool(best_slack < -VIOLATION_RTOL * scale),
        certified=certified,
    )
