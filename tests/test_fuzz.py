import dataclasses

import numpy as np
import pytest

from opineq import (
    EnsembleSpec,
    SUITE_NAMES,
    UnknownSuite,
    matrix_abs,
    numerical_radius,
    run_suites,
)
from opineq import fuzz, inequalities, radius
from opineq.ensembles import trial_rng

FUZZ_BOUNDS_SUITES = ("half-diff", "implicit", "beta-chain", "aluthge", "block-pair")


def test_unknown_suite_raises():
    spec = EnsembleSpec(kind="integer-complex", dim=2, count=1, seed=1)
    with pytest.raises(UnknownSuite):
        run_suites(["nope"], spec)
    with pytest.raises(UnknownSuite):
        run_suites(["half-diff", "nope"], spec)


def test_all_suites_run_clean_at_2x2():
    # every suite is theorem-backed at n = 2 (the beta-chain middle link
    # only breaks from n = 3 up; see test_inequalities)
    spec = EnsembleSpec(kind="integer-complex", dim=2, count=30, seed=1)
    for summary in run_suites(SUITE_NAMES, spec):
        assert summary.trials == 30
        assert summary.violations == 0, summary
        assert summary.reports > 0


def test_compression_counts_hypothesis_unmet():
    spec = EnsembleSpec(kind="gaussian-complex", dim=2, count=40, seed=3)
    summary = run_suites(["compression"], spec)[0]
    # random Gram corners rarely satisfy the range-support hypothesis
    assert summary.hypothesis_unmet > 0
    assert summary.violations == 0


def test_positivity_large_corner_schur_is_hermitian():
    # the non-PSD branch doubles C until the block is indefinite, and
    # rounding in the Schur complement's solve then grows past herm_eig's
    # Hermitian tolerance; every trial must still complete and be detected
    spec = EnsembleSpec(kind="gaussian-complex", dim=6, count=12, seed=101006)
    summary = run_suites(["positivity"], spec)[0]
    assert summary.trials == 12
    assert summary.reports == 18
    assert summary.violations == 0, summary


def test_fuzz_deterministic():
    spec = EnsembleSpec(kind="gaussian-complex", dim=3, count=10, seed=7)
    a, b = (run_suites(["implicit"], spec)[0] for _ in range(2))
    assert a.worst_slack == b.worst_slack
    assert a.worst_name == b.worst_name


def test_worst_slack_tracks_inputs():
    spec = EnsembleSpec(kind="integer-complex", dim=2, count=5, seed=2)
    summary = run_suites(["half-diff"], spec)[0]
    assert summary.worst_inputs is not None and "T" in summary.worst_inputs
    assert summary.worst_name.startswith("half-diff")


@pytest.mark.parametrize("kind", ["integer-complex", "gaussian-complex"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_run_suites_equals_one_run_suite_per_name(dim, kind):
    # run_suites on one name runs one suite per index, so nothing is shared
    # across suites: this compares shared radii with unshared ones
    spec = EnsembleSpec(kind=kind, dim=dim, count=6, seed=40 + dim)
    together = run_suites(SUITE_NAMES, spec)
    alone = [run_suites([name], spec)[0] for name in SUITE_NAMES]
    for a, b in zip(together, alone, strict=True):
        for field in dataclasses.fields(fuzz.SuiteSummary):
            if field.name != "worst_inputs":
                assert getattr(a, field.name) == getattr(b, field.name), (a.suite, field.name)
        assert a.worst_inputs.keys() == b.worst_inputs.keys()
        for key, value in a.worst_inputs.items():
            assert np.array_equal(value, b.worst_inputs[key])


def test_suites_of_one_draw_share_each_radius(kernel_calls):
    spec = EnsembleSpec(kind="gaussian-complex", dim=6, count=2, seed=9001)
    for name in FUZZ_BOUNDS_SUITES:
        run_suites([name], spec)
    # matrices solved, and kernel calls: one stack per report and shape (aluthge: 12x12 and 6x6)
    assert (sum(kernel_calls), len(kernel_calls)) == (32, 12)
    kernel_calls.clear()
    run_suites(FUZZ_BOUNDS_SUITES, spec)
    # per draw: half-diff's 4, implicit's w(T), aluthge's corner block and 3 more, block-pair's 1
    assert (sum(kernel_calls), kernel_calls) == (20, [4, 1, 1, 3, 1] * 2)


def test_radius_memo_is_closed_after_a_suite_raises(monkeypatch, kernel_calls):
    def failing(rng, spec, index):
        numerical_radius(np.eye(2))
        raise RuntimeError("suite failed")

    monkeypatch.setitem(fuzz.SUITES, "half-diff", failing)
    spec = EnsembleSpec(kind="integer-complex", dim=2, count=3, seed=1)
    with pytest.raises(RuntimeError, match="suite failed"):
        run_suites(["implicit", "half-diff"], spec)
    assert radius._MEMO.get() is None
    kernel_calls.clear()
    numerical_radius(np.eye(2))
    numerical_radius(np.eye(2))
    assert len(kernel_calls) == 2


@pytest.mark.parametrize("mutant", [None, fuzz, inequalities], ids=["none", "pair", "mixed_schwarz"])
def test_mixed_schwarz_suite_is_two_sided(monkeypatch, mutant):
    # Swapping |T| and |T*| either in the corners of the suite's contraction
    # (pair) or inside mixed_schwarz breaks equality at the extremal pair; the
    # suite checks it from both sides, so it fails on every draw.
    if mutant is not None:
        monkeypatch.setattr(mutant, "matrix_abs", lambda M: matrix_abs(np.conj(M).T))
    failed = []
    for n in range(2, 7):
        spec = EnsembleSpec(kind="gaussian-complex", dim=n, count=20, seed=50 + n)
        for i in range(spec.count):
            reports, _ = fuzz.SUITES["mixed-schwarz"](trial_rng(spec.seed, i), spec, i)
            assert len(reports) == 18
            failed.append(not all(r.holds for r in reports))
    assert all(failed) if mutant else not any(failed)


def test_majorization_suite_sees_range_inclusion_hold_and_fail():
    spec = EnsembleSpec(kind="integer-complex", dim=3, count=8, seed=5)
    in_range = []
    for i in range(spec.count):
        reports, inputs = fuzz.SUITES["majorization"](trial_rng(spec.seed, i), spec, i)
        assert all(r.holds for r in reports)
        if np.linalg.matrix_rank(inputs["S"]) < spec.dim:
            in_range.append(reports[2].witness["range_residual"] <= reports[1].tol)
    # indices 0 and 1: the contraction construction and a random T over a rank-deficient S
    assert in_range == [True, False]
