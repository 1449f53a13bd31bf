import math
import warnings

import numpy as np
import pytest

from opineq import (
    HypothesisUnmet,
    NonFinite,
    NotPSD,
    NotSquare,
    aluthge_bound_reports,
    beta_chain_reports,
    block_pair_report,
    block_positivity,
    compression_bound_report,
    corner_norm_report,
    default_tol,
    half_difference_reports,
    majorization_equiv,
    matrix_abs,
    mixed_schwarz,
    numerical_radius,
    radius_upper_reports,
    spectral_norm,
)
from opineq import inequalities
from opineq.ensembles import sample_matrix, trial_rng
from opineq.inequalities import BoundReport, PositivityVerdict


def random_complex(rng, n, m=None):
    m = m or n
    return rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))


def gram_blocks(rng, n):
    g = random_complex(rng, 2 * n)
    T = g.conj().T @ g
    return T[:n, :n], T[n:, n:], T[n:, :n]


# ---------------------------------------------------------------- BoundReport


def test_bound_report_slack_holds():
    r = BoundReport(name="x", lhs=1.0, rhs=2.0, tol=1e-8)
    assert r.slack == 1.0 and r.holds
    r = BoundReport(name="x", lhs=2.0, rhs=1.0, tol=1e-8)
    assert not r.holds
    with pytest.raises(ValueError):
        BoundReport(name="x", lhs=float("nan"), rhs=0.0, tol=1e-8)
    d = BoundReport(name="x", lhs=1.0, rhs=2.0, tol=1e-8).to_json_dict()
    assert d == {"name": "x", "lhs": 1.0, "rhs": 2.0, "slack": 1.0, "tol": 1e-8, "holds": True}


def test_bound_report_default_tol_and_non_finite_sides():
    assert BoundReport(name="x", lhs=1.0, rhs=-9.0).tol == default_tol(-9.0)
    assert BoundReport(name="x", lhs=1.0, rhs=9.0, tol=0.5).tol == 0.5
    with pytest.raises(NonFinite):
        BoundReport(name="x", lhs=math.inf, rhs=0.0)


# ---------------------------------------------------------- block positivity


def test_block_positivity_boundary_psd():
    v = block_positivity(np.eye(2), np.eye(2), np.eye(2), seed=1)
    assert v.is_psd
    assert v.min_eig == pytest.approx(0.0, abs=1e-12)
    assert v.condition_ii_max_ratio <= 1 + 1e-9
    assert v.condition_ii_max_ratio == pytest.approx(1.0, abs=1e-6)


def test_block_positivity_violating_corner():
    v = block_positivity(np.eye(2), np.eye(2), 2 * np.eye(2), seed=1)
    assert not v.is_psd
    assert v.min_eig == pytest.approx(-1.0, abs=1e-12)
    assert v.condition_ii_max_ratio == pytest.approx(4.0, abs=1e-6)
    assert v.schur_residual < -0.5


@pytest.mark.parametrize("c", [1e155, 1e160, 1e200])
def test_block_positivity_ratio_is_scale_free(c):
    # the ratio route's products of two entries reach c**2, beyond the float range
    I2 = np.eye(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psd = block_positivity(c * I2, c * I2, c * I2, seed=1)
        non_psd = block_positivity(c * I2, c * I2, 1.5 * c * I2, seed=1)
    assert psd.is_psd and not non_psd.is_psd
    assert psd.condition_ii_max_ratio == pytest.approx(1.0, rel=1e-12)
    assert non_psd.condition_ii_max_ratio == pytest.approx(2.25, rel=1e-12)
    assert psd.consistent


def test_positivity_consistent():
    I2 = np.eye(2)
    psd = block_positivity(I2, I2, 0.5 * I2, seed=1)
    assert psd.is_psd and psd.consistent
    non_psd = block_positivity(I2, I2, 2 * I2, seed=1)
    assert not non_psd.is_psd and non_psd.consistent
    assert non_psd.psd_tol == pytest.approx(2e-9, rel=1e-12)
    # routes that disagree: a PSD verdict with a ratio above 1, and a
    # non-PSD verdict that neither the ratio nor the Schur route catches
    assert not PositivityVerdict(True, 0.0, 0.0, 1.5, 1, 2e-9).consistent
    assert not PositivityVerdict(False, -1.0, 0.0, 0.5, 1, 2e-9).consistent
    # the Schur route catches a non-PSD verdict only below -psd_tol
    assert not PositivityVerdict(False, -1.0, -1e-9, 0.5, 1, 2e-9).consistent
    assert PositivityVerdict(False, -1.0, -3e-9, 0.5, 1, 2e-9).consistent


def test_block_positivity_gram_ratio_below_one():
    for i in range(40):
        rng = trial_rng(7, i)
        A, B, C = gram_blocks(rng, int(rng.integers(1, 4)))
        v = block_positivity(A, B, C, seed=i)
        assert v.is_psd
        assert v.condition_ii_max_ratio <= 1 + 1e-7


def test_block_positivity_detects_non_psd():
    for i in range(40):
        rng = trial_rng(8, i)
        n = int(rng.integers(1, 4))
        ga, gb = random_complex(rng, n), random_complex(rng, n)
        A, B = ga.conj().T @ ga, gb.conj().T @ gb
        C = random_complex(rng, n)
        scale = 1 + max(spectral_norm(A), spectral_norm(B))
        while True:
            block = np.block([[A, C.conj().T], [C, B]])
            if float(np.linalg.eigvalsh((block + block.conj().T) / 2)[0]) < -1e-4 * scale:
                break
            C = 2 * C
        v = block_positivity(A, B, C, seed=i)
        assert not v.is_psd
        assert v.consistent


def test_block_positivity_ratio_matches_cholesky_oracle():
    # For PD A = La La*, B = Lb Lb*, substituting u = La^-* x and v = Lb^-* y
    # turns the ratio into |<Lb^-1 C La^-* x, y>|^2 / (|x|^2 |y|^2), whose
    # supremum is sigma_max(Lb^-1 C La^-*)^2.
    for i in range(60):
        rng = trial_rng(11, i)
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        ga, gb = random_complex(rng, n), random_complex(rng, m)
        A = ga.conj().T @ ga + 0.1 * np.eye(n)
        B = gb.conj().T @ gb + 0.1 * np.eye(m)
        C = random_complex(rng, m, n)
        La, Lb = np.linalg.cholesky(A), np.linalg.cholesky(B)
        K = np.linalg.solve(Lb, np.linalg.solve(La, C.conj().T).conj().T)
        oracle = spectral_norm(K) ** 2
        ratio = block_positivity(A, B, C, seed=i).condition_ii_max_ratio
        assert ratio <= oracle * (1 + 1e-12)
        assert ratio >= oracle * (1 - 1e-2)


# ------------------------------------------------------------- majorization


def test_majorization_equal_operators():
    rng = np.random.default_rng(1)
    S = random_complex(rng, 3)
    one, two = majorization_equiv(S, S)
    assert one.holds and two.holds
    assert one.witness["premise_holds"] and two.witness["premise_holds"]


def test_majorization_zero_operator():
    rng = np.random.default_rng(2)
    S = random_complex(rng, 3)
    one, two = majorization_equiv(np.zeros((3, 3)), S)
    assert one.holds and two.holds


def test_majorization_contraction_construction():
    for i in range(50):
        rng = trial_rng(9, i)
        n = int(rng.integers(1, 5))
        S = random_complex(rng, n)
        D = np.diag(rng.uniform(0, 1, size=n)).astype(complex)
        one, two = majorization_equiv(S @ D, S, seed=i)
        assert one.witness["premise_holds"] and one.holds
        assert two.witness["premise_holds"] and two.holds


@pytest.mark.parametrize("c", [1e80, 1e100, 1e120])
def test_majorization_ascent_is_scale_free(c):
    # the ascent's norms of T T* - S S* reach c**4, beyond the float range
    T = np.array([[1, 1], [0, 1]], dtype=complex)
    S = np.array([[2, 0], [1, 2]], dtype=complex)
    unit = majorization_equiv(T, S)[1].witness["max_sq_diff"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, two = majorization_equiv(c * T, c * S)
    assert two.witness["max_sq_diff"] / c**2 == pytest.approx(unit, rel=1e-12)
    assert unit == pytest.approx(-(3 - math.sqrt(2)), rel=1e-12)


def test_majorization_beyond_the_float_range_raises():
    T = 1e160 * np.array([[1, 1], [0, 1]], dtype=complex)
    S = 1e160 * np.array([[2, 0], [1, 2]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="S S\\* - T T\\*"):
            majorization_equiv(T, S)


def test_majorization_violating_pair_is_vacuous_both_ways():
    rng = np.random.default_rng(3)
    S = random_complex(rng, 3)
    one, two = majorization_equiv(2 * S, S)
    assert not one.witness["premise_holds"]
    assert not two.witness["premise_holds"]
    assert one.holds and two.holds  # vacuously


# ------------------------------------------------------- corner / compression


def test_corner_norm_examples():
    r = corner_norm_report([[1]], [[1]], [[1]])
    assert r.lhs == pytest.approx(1.0) and r.rhs == pytest.approx(1.0)
    assert r.holds and r.slack == pytest.approx(0.0, abs=1e-12)

    rng = np.random.default_rng(4)
    ga, gb = random_complex(rng, 2), random_complex(rng, 2)
    A, B = ga.conj().T @ ga, gb.conj().T @ gb
    r = corner_norm_report(A, B, np.zeros((2, 2)))
    assert r.slack == pytest.approx(max(spectral_norm(A), spectral_norm(B)) / 2, abs=1e-10)


def test_corner_norm_requires_psd():
    with pytest.raises(NotPSD):
        corner_norm_report(np.eye(2), np.eye(2), 2 * np.eye(2))


def test_corner_norm_gram_fuzz():
    for i in range(200):
        rng = trial_rng(10, i)
        A, B, C = gram_blocks(rng, int(rng.integers(1, 4)))
        assert corner_norm_report(A, B, C).holds


def test_compression_identity_example():
    r = compression_bound_report([[1]], [[1]], [[1]])
    assert r.lhs == pytest.approx(2.0) and r.rhs == pytest.approx(2.0)
    assert r.holds


def test_compression_invertible_corner_always_applies():
    # square invertible C gives U U* = I, so the support hypothesis holds
    for i in range(50):
        rng = trial_rng(11, i)
        n = int(rng.integers(1, 4))
        C = random_complex(rng, n) + 3 * np.eye(n)
        gb = random_complex(rng, n)
        B = gb.conj().T @ gb
        # grow A until the block is PSD
        A = matrix_abs(C)
        scale = 1 + spectral_norm(B) + spectral_norm(C)
        while True:
            block = np.block([[A, C.conj().T], [C, B]])
            if float(np.linalg.eigvalsh((block + block.conj().T) / 2)[0]) >= -1e-12 * scale:
                break
            A = A + np.eye(n)
        r = compression_bound_report(A, B, C)
        assert r.holds


def test_compression_unsupported_range_raises():
    C = np.array([[0, 0], [1, 0]], dtype=complex)
    with pytest.raises(HypothesisUnmet) as exc:
        compression_bound_report(np.eye(2), np.eye(2), C)
    assert exc.value.condition == "range-support"


def test_compression_makes_four_svds(monkeypatch):
    # polar(C), ||U U* B - B||, ||B|| and the bound's ||A + U* B U||
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    rng = trial_rng(12, 0)
    A, B, C = gram_blocks(rng, 3)
    assert compression_bound_report(A, B, C).holds
    assert len(calls) == 4


def test_compression_non_psd_block_raises():
    with pytest.raises(HypothesisUnmet) as exc:
        compression_bound_report(np.eye(2), np.eye(2), 2 * np.eye(2))
    assert exc.value.condition == "block-psd"


# ------------------------------------------------------------ mixed Schwarz


def test_mixed_schwarz_identity_equality():
    x = np.array([1.0, 0.0])
    r = mixed_schwarz(np.eye(2), x, x, 1.0)
    assert r.lhs == pytest.approx(1.0) and r.rhs == pytest.approx(1.0)
    assert r.slack == pytest.approx(0.0, abs=1e-12)


def test_mixed_schwarz_alpha_two_is_cauchy_schwarz():
    rng = np.random.default_rng(5)
    T = random_complex(rng, 3)
    x = random_complex(rng, 3, 1).ravel()
    y = random_complex(rng, 3, 1).ravel()
    r = mixed_schwarz(T, x, y, 2.0)
    expect_rhs = np.linalg.norm(T @ x) ** 2 * np.linalg.norm(y) ** 2
    assert r.rhs == pytest.approx(expect_rhs, rel=1e-9)
    assert r.holds


def test_mixed_schwarz_rectangular_and_endpoints():
    rng = np.random.default_rng(6)
    T = random_complex(rng, 3, 2)
    x = random_complex(rng, 2, 1).ravel()
    y = random_complex(rng, 3, 1).ravel()
    for alpha in (0.0, 0.5, 1.0, 1.5, 2.0):
        assert mixed_schwarz(T, x, y, alpha).holds


def test_mixed_schwarz_sides_beyond_float_range_are_non_finite():
    # both sides are about 1e320: an input error, not an OverflowError
    T = 1e160 * np.array([[1, 1], [0, 1]], dtype=complex)
    x = np.array([1.0, 1.0]) / math.sqrt(2)
    for alpha in (0.0, 1.0, 2.0):
        with pytest.raises(NonFinite):
            mixed_schwarz(T, x, x, alpha)


def test_mixed_schwarz_fuzz():
    for i in range(150):
        rng = trial_rng(12, i)
        n = int(rng.integers(1, 7))
        T = sample_matrix(rng, "unit-disc", n)
        x = random_complex(rng, n, 1).ravel()
        y = random_complex(rng, n, 1).ravel()
        alpha = float(rng.uniform(0, 2))
        r = mixed_schwarz(T, x, y, alpha)
        assert r.slack >= -1e-9 * (1 + r.rhs)


# ------------------------------------------------------- half-diff radii


def test_half_difference_hermitian_collapse():
    rng = np.random.default_rng(15)
    G = random_complex(rng, 3)
    H = G + G.conj().T
    reports = {r.name: r for r in half_difference_reports(H)}
    nrm = spectral_norm(H)
    # |H| = |H*|, so the Re-variants equal w(i H) = ||H|| = rhs exactly
    assert reports["half-diff-plus-re"].lhs == pytest.approx(nrm, rel=1e-9)
    assert reports["half-diff-plus-re"].slack == pytest.approx(0.0, abs=1e-8 * (1 + nrm))
    assert reports["half-diff-plus-im"].lhs == pytest.approx(0.0, abs=1e-9 * (1 + nrm))
    assert all(r.holds for r in reports.values())


def test_half_difference_golden_row():
    T = np.array([[5 + 7j, 9 + 6j], [5j, 10 + 3j]])
    reports = {r.name: r for r in half_difference_reports(T)}
    assert reports["half-diff-plus-re"].lhs == pytest.approx(12.672, abs=5e-3)
    T5 = np.array([[8 + 9j, 6 + 4j], [3 + 1j, 8]])
    reports = {r.name: r for r in half_difference_reports(T5)}
    assert reports["half-diff-plus-re"].lhs == pytest.approx(12.7434, abs=5e-3)


def test_half_difference_lower_bounds_hold():
    for i in range(60):
        rng = trial_rng(16, i)
        n = int(rng.integers(1, 5))
        T = sample_matrix(rng, "unit-disc", n)
        reports = {r.name: r for r in half_difference_reports(T)}
        assert all(r.holds for r in reports.values())


def test_abs_difference_norm_bounded_by_sum():
    for i in range(60):
        rng = trial_rng(17, i)
        n = int(rng.integers(1, 6))
        T = sample_matrix(rng, "unit-disc", n)
        absT, absTs = matrix_abs(T), matrix_abs(T.conj().T)
        scale = 1 + spectral_norm(T)
        assert spectral_norm(absT - absTs) <= spectral_norm(absT + absTs) + 1e-9 * scale


# ------------------------------------------------------------- block pair


def test_block_pair_equal_inputs():
    rng = np.random.default_rng(18)
    A = random_complex(rng, 2)
    r = block_pair_report(A, A)
    assert r.lhs == pytest.approx(0.0, abs=1e-9 * (1 + r.rhs))
    assert r.holds


def test_block_pair_zero_second():
    rng = np.random.default_rng(19)
    A = random_complex(rng, 2)
    assert block_pair_report(A, np.zeros((2, 2))).holds


def test_block_pair_radius_is_shared_by_the_paired_blocks():
    # D P D with D = diag(I, -I) is the paired block, and w is unitarily invariant
    for i in range(40):
        rng = trial_rng(21, i)
        n = int(rng.integers(1, 5))
        A, B = random_complex(rng, n), random_complex(rng, n)
        absA, absAs = matrix_abs(A), matrix_abs(A.conj().T)
        absB, absBs = matrix_abs(B), matrix_abs(B.conj().T)
        d = A - B
        P1 = np.block([[absBs - absAs, d], [-d.conj().T, absA - absB]])
        P2 = np.block([[absBs - absAs, -d], [d.conj().T, absA - absB]])
        w1, w2 = numerical_radius(P1).omega, numerical_radius(P2).omega
        assert w2 == pytest.approx(w1, rel=1e-12, abs=1e-12)
        assert block_pair_report(A, B).lhs == w1


def test_block_pair_makes_one_radius_call(monkeypatch):
    calls = []
    radius = inequalities.numerical_radius
    monkeypatch.setattr(inequalities, "numerical_radius", lambda *a: calls.append(1) or radius(*a))
    rng = trial_rng(22, 0)
    block_pair_report(random_complex(rng, 3), random_complex(rng, 3))
    assert len(calls) == 1


def test_block_pair_fuzz():
    for i in range(60):
        rng = trial_rng(20, i)
        n = int(rng.integers(1, 4))
        A = sample_matrix(rng, "unit-disc", n)
        B = sample_matrix(rng, "unit-disc", n)
        r = block_pair_report(A, B)
        assert r.slack >= -1e-9 * (1 + r.rhs)


# ---------------------------------------------------------- radius upper


def test_radius_upper_golden_values():
    r1, r2 = radius_upper_reports(np.array([[2, 1], [2, 9]], dtype=complex))
    assert r1.lhs == pytest.approx(9.30789, abs=5e-4)
    assert r1.rhs == pytest.approx(9.3146, abs=5e-4)
    assert r2.rhs == pytest.approx(9.31493, abs=5e-4)
    r1, r2 = radius_upper_reports(np.array([[0, 0], [9, 10]], dtype=complex))
    assert r1.lhs == pytest.approx(11.7268, abs=5e-4)
    assert r1.rhs == pytest.approx(12.1437, abs=5e-4)
    assert r2.rhs == pytest.approx(11.7268, abs=5e-4)
    r1, r2 = radius_upper_reports(np.array([[0, 2], [6, 0]], dtype=complex))
    assert r1.lhs == pytest.approx(4.0, abs=1e-6)
    assert r1.rhs == pytest.approx(4.23607, abs=5e-4)
    assert r2.rhs == pytest.approx(4.0, abs=1e-6)


def test_radius_upper_fuzz():
    for i in range(80):
        rng = trial_rng(21, i)
        n = int(rng.integers(1, 7))
        T = sample_matrix(rng, "unit-disc", n)
        for r in radius_upper_reports(T):
            assert r.slack >= -1e-8 * (1 + r.rhs)


@pytest.mark.parametrize("reports", [radius_upper_reports, beta_chain_reports])
def test_implicit_and_beta_chain_bounds_scale_to_1e160(reports):
    # sqrt(w**2 + d**2/4) and sqrt(d**2 + 4 w**2) overflow as written at this scale
    T = np.array([[1, 1], [0, 1]], dtype=complex)
    for big, unit in zip(reports(1e160 * T), reports(T)):
        assert big.name == unit.name
        assert big.lhs == pytest.approx(1e160 * unit.lhs, rel=1e-12)
        assert big.rhs == pytest.approx(1e160 * unit.rhs, rel=1e-12)


@pytest.mark.parametrize("reports", [half_difference_reports, radius_upper_reports, beta_chain_reports])
def test_abs_pair_suites_reject_non_square(reports):
    with pytest.raises(NotSquare):
        reports(np.ones((2, 3)))


# ------------------------------------------------------------- beta chain


def test_beta_chain_nilpotent_closed_form():
    reports = beta_chain_reports(np.array([[0, 1], [0, 0]], dtype=complex))
    by_name = {r.name: r for r in reports}
    beta1 = (1 + math.sqrt(2)) / 4
    assert by_name["beta-chain-omegas-le-beta1"].rhs == pytest.approx(beta1, abs=1e-9)
    assert by_name["beta-chain-beta1-le-beta2"].lhs == pytest.approx(beta1, abs=1e-9)
    assert by_name["beta-chain-beta1-le-beta2"].rhs == pytest.approx(0.75, abs=1e-9)
    assert all(r.holds for r in reports)


def test_beta_chain_hermitian_collapse():
    rng = np.random.default_rng(22)
    G = random_complex(rng, 3)
    H = G + G.conj().T
    by_name = {r.name: r for r in beta_chain_reports(H)}
    nrm = spectral_norm(H)
    assert by_name["beta-chain-beta1-le-beta2"].lhs == pytest.approx(nrm, rel=1e-9)
    assert by_name["beta-chain-beta1-le-beta2"].rhs == pytest.approx(nrm, rel=1e-9)
    assert all(r.holds for r in by_name.values())


def test_beta_chain_endpoint_links_fuzz():
    # the two sup-derived links hold for random draws
    for i in range(60):
        rng = trial_rng(23, i)
        n = int(rng.integers(1, 6))
        by_name = {r.name: r for r in beta_chain_reports(sample_matrix(rng, "unit-disc", n))}
        assert by_name["beta-chain-omegas-le-beta1"].holds
        assert by_name["beta-chain-omegas-le-beta2"].holds


def test_beta_chain_middle_link_counterexample():
    """beta1 <= beta2 is NOT a theorem: beta1 mixes suprema of different
    maximizers, and at n >= 3 random matrices routinely order the two
    constants the other way.  Frozen 4x4 counterexample; the endpoint
    links still hold there.  This pins the detection behavior."""
    rng = trial_rng(1, 0)
    T = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    by_name = {r.name: r for r in beta_chain_reports(T)}
    middle = by_name["beta-chain-beta1-le-beta2"]
    assert middle.slack < -0.05  # far beyond any numerical tolerance
    assert not middle.holds
    assert by_name["beta-chain-omegas-le-beta1"].holds
    assert by_name["beta-chain-omegas-le-beta2"].holds


def test_beta_chain_middle_link_closed_form_witness():
    """T = [1] (+) [[0, 1], [0, 0]]: |T| = diag(1, 0, 1), |T*| = diag(1, 1, 0),
    so s = 2, d = 1, w(T) = ||T|| = 1 and beta1 = (2 + sqrt 5)/4 > 1 = beta2.
    Exact values, so the middle link is false independently of any fuzzing."""
    T = np.zeros((3, 3), dtype=complex)
    T[0, 0] = 1.0
    T[1, 2] = 1.0
    by_name = {r.name: r for r in beta_chain_reports(T)}
    beta1 = (2 + math.sqrt(5)) / 4
    middle = by_name["beta-chain-beta1-le-beta2"]
    assert middle.lhs == pytest.approx(beta1, abs=1e-9)
    assert middle.rhs == pytest.approx(1.0, abs=1e-9)
    assert middle.slack == pytest.approx(-(math.sqrt(5) - 2) / 4, abs=1e-9)
    assert not middle.holds
    assert by_name["beta-chain-omegas-le-beta1"].holds
    assert by_name["beta-chain-omegas-le-beta2"].holds


# ----------------------------------------------------------- aluthge bounds


def test_aluthge_golden_values():
    b1, b2, _ = aluthge_bound_reports(np.array([[1, -2], [2, -3]], dtype=complex))
    assert b1.rhs == pytest.approx(3.11788, abs=5e-4)
    assert b2.rhs == pytest.approx(3.06525, abs=5e-4)
    b1, b2, _ = aluthge_bound_reports(np.array([[10, 10], [5, 0]], dtype=complex))
    assert b1.rhs == pytest.approx(14.0272, abs=5e-4)
    assert b2.rhs == pytest.approx(14.0287, abs=5e-4)
    assert b1.rhs < b2.rhs  # the ordering of the two bounds flips here
    b1, b2, _ = aluthge_bound_reports(np.array([[6, 7], [10, 7]], dtype=complex))
    assert b1.rhs == pytest.approx(15.0159, abs=5e-4)
    assert b2.rhs == pytest.approx(15.0164, abs=5e-4)


@pytest.mark.parametrize("c", [1e155, 1e160, 1e200])
def test_aluthge_bounds_are_scale_free(c):
    # |T|^2 and |t|^2 reach c**2, beyond the float range
    T = np.array([[1, 1], [0, 1]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = aluthge_bound_reports(c * T)
    for r, unit in zip(big, aluthge_bound_reports(T)):
        assert r.name == unit.name
        assert r.lhs == pytest.approx(c * unit.lhs, rel=1e-12)
        assert r.rhs == pytest.approx(c * unit.rhs, rel=1e-12)


def test_aluthge_bounds_fuzz():
    for i in range(60):
        rng = trial_rng(24, i)
        n = int(rng.integers(1, 5))
        T = sample_matrix(rng, "unit-disc", n)
        for r in aluthge_bound_reports(T):
            assert r.slack >= -1e-8 * (1 + r.rhs)


# ------------------------------------------------------------ default tol


def test_default_tol():
    assert default_tol(0.0) == pytest.approx(1e-8)
    assert default_tol(9.0) == pytest.approx(1e-7)
