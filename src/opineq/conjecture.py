"""Counterexample search for the open question
    w((|T| - |T*|)/2 + i Re T) <= w(T).

The searcher minimizes slack(T) = w(T) - w((|T|-|T*|)/2 + i Re T) over a
seeded ensemble, then hill-descends from the best candidates by random
perturbation.  A negative slack beyond tolerance would be a
counterexample; the search reports, it never asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ensembles import EnsembleSpec, generate, trial_rng
from .errors import InvalidSpec
from .inequalities import _half_diff_matrices
from .linalg import spectral_norm
from .radius import SweepConfig, numerical_radius

__all__ = ["ConjectureResult", "half_diff_slack", "conjecture_search"]

VIOLATION_RTOL = 1e-7


@dataclass(frozen=True)
class ConjectureResult:
    min_slack: float
    argmin_matrix: np.ndarray
    trials: int
    violated: bool


def half_diff_slack(T, cfg: SweepConfig | None = None) -> float:
    """w(T) - w((|T| - |T*|)/2 + i Re T); negative means counterexample."""
    lhs = numerical_radius(_half_diff_matrices(T)["plus-re"], cfg).omega
    return numerical_radius(T, cfg).omega - lhs


def conjecture_search(
    spec: EnsembleSpec,
    ascend_iters: int = 10,
    cfg: SweepConfig | None = None,
    keep: int = 5,
    perturbations: int = 50,
) -> ConjectureResult:
    """Scan the ensemble, then hill-descend the ``keep`` best candidates.

    Each descent round tries ``perturbations`` random perturbations of
    Frobenius size step (initially 0.1 * ||T||, decaying by 0.7 per
    round).  Deterministic for a fixed spec.
    """
    if ascend_iters < 0:
        raise InvalidSpec(f"ascend_iters must be >= 0, got {ascend_iters}")
    cfg = cfg or SweepConfig()
    scored: list[tuple[float, np.ndarray]] = []
    trials = 0
    for T in generate(spec):
        scored.append((half_diff_slack(T, cfg), T))
        trials += 1
    scored.sort(key=lambda pair: pair[0])
    candidates = scored[: max(1, keep)]

    finalists = []
    for c_idx, (slack, T) in enumerate(candidates):
        current_T = T
        current_slack = slack
        step = 0.1 * max(spectral_norm(T), 1e-12)
        for round_idx in range(ascend_iters):
            rng = trial_rng(spec.seed, 2**32 + c_idx * 2**16 + round_idx)
            for _ in range(perturbations):
                g = rng.normal(size=T.shape) + 1j * rng.normal(size=T.shape)
                g_norm = float(np.linalg.norm(g))
                if g_norm == 0.0:
                    continue
                cand = current_T + (step / g_norm) * g
                s = half_diff_slack(cand, cfg)
                trials += 1
                if s < current_slack:
                    current_slack, current_T = s, cand
            step *= 0.7
        finalists.append(current_T)

    # The descent optimizes against the sweep estimator, so it would
    # surface any angle-grid weakness as a fake counterexample; re-score
    # every finalist at a finer, multi-bracket configuration before
    # reporting.
    verify_cfg = replace(
        cfg, grid_points=max(4 * cfg.grid_points, 1440), top_k=max(cfg.top_k, 8)
    )
    best_slack, best_T = min(
        ((half_diff_slack(T, verify_cfg), T) for T in finalists), key=lambda p: p[0]
    )

    scale = 1.0 + spectral_norm(best_T)
    return ConjectureResult(
        min_slack=float(best_slack),
        argmin_matrix=best_T,
        trials=trials,
        violated=bool(best_slack < -VIOLATION_RTOL * scale),
    )
