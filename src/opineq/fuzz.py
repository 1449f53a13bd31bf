"""Fuzzing campaigns: run inequality suites over seeded random ensembles.

Each suite draws its own inputs from the trial's counter-based stream, so
results depend only on (seed, trial index) and suites can be re-run or
parallelized without changing outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisUnmet, UnknownSuite
from .ensembles import EnsembleSpec, sample_matrix, trial_rng
from .inequalities import (
    BoundReport,
    _check_block_psd,
    aluthge_bound_reports,
    beta_chain_reports,
    block_pair_report,
    block_positivity,
    compression_bound_report,
    corner_norm_report,
    half_difference_reports,
    majorization_equiv,
    mixed_schwarz,
    radius_upper_reports,
)
from .linalg import spectral_norm
from .radius import radius_memo

MIXED_SCHWARZ_ALPHAS = tuple(0.25 * k for k in range(9))

__all__ = ["SUITE_NAMES", "MATRIX_SUITE_NAMES", "SuiteSummary", "run_suites"]


@dataclass
class SuiteSummary:
    suite: str
    trials: int
    reports: int
    violations: int
    hypothesis_unmet: int
    worst_slack: float
    worst_name: str | None
    worst_inputs: dict | None

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def _gram_blocks(rng, dim, kind):
    """Corners A, B, C of the PSD block G* G, for a 2*dim draw G of ``kind``."""
    g = sample_matrix(rng, kind, 2 * dim)
    g = g.conj().T @ g
    return g[:dim, :dim], g[dim:, dim:], g[dim:, :dim]


def _nonpsd_blocks(rng, dim):
    """PSD corners A, B with the off-diagonal C scaled until the block has
    a clearly negative eigenvalue (< -1e-4 * scale)."""
    ga = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    gb = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    A = ga.conj().T @ ga
    B = gb.conj().T @ gb
    C = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    scale = 1.0 + max(spectral_norm(A), spectral_norm(B))
    for _ in range(60):
        if _check_block_psd(A, B, C)[1] < -1e-4 * scale:
            return A, B, C
        C = 2.0 * C
    return A, B, C


def _single_matrix_suite(on_matrix):
    """A suite whose input is one square matrix T, drawn per trial.

    ``on_matrix(T, rng)`` gives the reports for T; it is kept as the
    suite's ``on_matrix`` attribute so that ``opineq bounds`` runs the
    same rule on a given matrix.
    """

    def run(rng, spec: EnsembleSpec, index: int):
        T = sample_matrix(rng, spec.kind, spec.dim)
        return on_matrix(T, rng), {"T": T}

    run.on_matrix = on_matrix
    return run


def _suite_block_pair(rng, spec, index):
    A = sample_matrix(rng, spec.kind, spec.dim)
    B = sample_matrix(rng, spec.kind, spec.dim)
    return [block_pair_report(A, B)], {"A": A, "B": B}


def _mixed_schwarz_reports(T, rng):
    """mixed_schwarz at every alpha in MIXED_SCHWARZ_ALPHAS, for unit x and
    then unit y drawn from rng."""
    x = _unit(rng, T.shape[1])
    y = _unit(rng, T.shape[0])
    return [mixed_schwarz(T, x, y, a) for a in MIXED_SCHWARZ_ALPHAS]


def _suite_corner(rng, spec, index):
    A, B, C = _gram_blocks(rng, spec.dim, spec.kind)
    return [corner_norm_report(A, B, C)], {"A": A, "B": B, "C": C}


def _suite_compression(rng, spec, index):
    if index % 2 == 0 or spec.dim == 1:
        A, B, C = _gram_blocks(rng, spec.dim, spec.kind)
    else:
        # rank-deficient corner with full-rank B: the range-support
        # hypothesis U U* B = B genuinely fails, which the report must
        # flag as HypothesisUnmet rather than as a violation
        n = spec.dim
        r = n - 1
        C = (rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))) @ (
            rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n))
        )
        gb = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        B = gb.conj().T @ gb + np.eye(n)
        A = C.conj().T @ np.linalg.solve(B, C) + 1e-6 * np.eye(n)
    return [compression_bound_report(A, B, C)], {"A": A, "B": B, "C": C}


def _suite_majorization(rng, spec, index):
    S = sample_matrix(rng, spec.kind, spec.dim)
    if index % 2 == 0:
        # contraction construction: T T* <= S S* holds by design
        d = rng.uniform(0.0, 1.0, size=S.shape[1])
        T = S @ np.diag(d).astype(np.complex128)
    else:
        T = sample_matrix(rng, spec.kind, spec.dim)
    one, two = majorization_equiv(T, S, seed=int(rng.integers(0, 2**62)))
    return [one, two], {"T": T, "S": S}


def _suite_positivity(rng, spec, index):
    """Alternate PSD and non-PSD blocks; encode the three-route agreement as
    reports so violations surface like any other suite."""
    if index % 2 == 0:
        A, B, C = _gram_blocks(rng, spec.dim, spec.kind)
        verdict = block_positivity(A, B, C, seed=int(rng.integers(0, 2**62)))
        ratio = verdict.condition_ii_max_ratio
        if not math.isfinite(ratio):
            ratio = 2.0
        reports = [
            BoundReport(name="gram-ratio-le-one", lhs=ratio, rhs=1.0, tol=1e-6),
            BoundReport(
                name="gram-block-psd",
                lhs=0.0 if verdict.is_psd else 1.0,
                rhs=0.0,
                tol=0.5,
            ),
        ]
    else:
        A, B, C = _nonpsd_blocks(rng, spec.dim)
        verdict = block_positivity(A, B, C, seed=int(rng.integers(0, 2**62)))
        detected = not verdict.is_psd and verdict.consistent
        reports = [
            BoundReport(
                name="nonpsd-detected",
                lhs=0.0 if detected else 1.0,
                rhs=0.0,
                tol=0.5,
            )
        ]
    return reports, {"A": A, "B": B, "C": C}


# The only suite dispatch: `fuzz` calls every suite, `bounds` the
# ``on_matrix`` rule of the single-matrix ones.
SUITES = {
    "half-diff": _single_matrix_suite(lambda T, rng: half_difference_reports(T)),
    "block-pair": _suite_block_pair,
    "implicit": _single_matrix_suite(lambda T, rng: radius_upper_reports(T)),
    "beta-chain": _single_matrix_suite(lambda T, rng: beta_chain_reports(T)),
    "aluthge": _single_matrix_suite(lambda T, rng: aluthge_bound_reports(T)),
    "mixed-schwarz": _single_matrix_suite(_mixed_schwarz_reports),
    "corner": _suite_corner,
    "compression": _suite_compression,
    "majorization": _suite_majorization,
    "positivity": _suite_positivity,
}

SUITE_NAMES = tuple(SUITES)
MATRIX_SUITE_NAMES = tuple(name for name, suite in SUITES.items() if hasattr(suite, "on_matrix"))


def run_suites(names, spec: EnsembleSpec) -> list[SuiteSummary]:
    """One summary per named suite, index-major: the suites of one ensemble
    index run in one ``radius_memo`` block, so they share each radius."""
    names = list(names)
    for name in names:
        if name not in SUITES:
            raise UnknownSuite(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    summaries = [SuiteSummary(name, spec.count, 0, 0, 0, math.inf, None, None) for name in names]
    for i in range(spec.count):
        with radius_memo():
            for s in summaries:
                try:
                    reports, inputs = SUITES[s.suite](trial_rng(spec.seed, i), spec, i)
                except HypothesisUnmet:
                    s.hypothesis_unmet += 1
                    continue
                for rep in reports:
                    s.reports += 1
                    s.violations += not rep.holds
                    if rep.slack < s.worst_slack:
                        s.worst_slack, s.worst_name, s.worst_inputs = rep.slack, rep.name, inputs
    return summaries
