import math

import numpy as np
import pytest

from opineq import (
    HypothesisUnmet,
    InvalidSpec,
    NotPSD,
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
    positivity_consistent,
    radius_upper_reports,
    re_im_parts,
    schwarz_gram,
    spectral_norm,
)
from opineq.ensembles import trial_rng, unit_disc_matrix
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


def test_block_positivity_rejects_no_samples():
    for samples in (0, -3):
        with pytest.raises(InvalidSpec):
            block_positivity(np.eye(2), np.eye(2), np.eye(2), samples=samples)


def test_positivity_consistent():
    I2 = np.eye(2)
    psd = block_positivity(I2, I2, 0.5 * I2, seed=1)
    assert psd.is_psd and positivity_consistent(psd, I2, I2)
    non_psd = block_positivity(I2, I2, 2 * I2, seed=1)
    assert not non_psd.is_psd and positivity_consistent(non_psd, I2, I2)
    # routes that disagree: a PSD verdict with a ratio above 1, and a
    # non-PSD verdict that neither the ratio nor the Schur route catches
    assert not positivity_consistent(PositivityVerdict(True, 0.0, 0.0, 1.5, 1), I2, I2)
    assert not positivity_consistent(PositivityVerdict(False, -1.0, 0.0, 0.5, 1), I2, I2)


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
        assert positivity_consistent(v, A, B)


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


def test_mixed_schwarz_fuzz():
    for i in range(150):
        rng = trial_rng(12, i)
        n = int(rng.integers(1, 7))
        T = unit_disc_matrix(rng, n)
        x = random_complex(rng, n, 1).ravel()
        y = random_complex(rng, n, 1).ravel()
        alpha = float(rng.uniform(0, 2))
        r = mixed_schwarz(T, x, y, alpha)
        assert r.slack >= -1e-9 * (1 + r.rhs)


# -------------------------------------------------------------- Gram matrices


def test_schwarz_gram_frozen_example():
    T = np.array([[0, 1], [0, 0]], dtype=complex)
    x = np.array([1.0, 1.0]) / math.sqrt(2)
    gram, rot1, rot2 = schwarz_gram(T, x)
    np.testing.assert_allclose(gram, np.full((2, 2), 0.5), atol=1e-12)
    for M in (gram, rot1, rot2):
        assert float(np.linalg.eigvalsh(M)[0]) >= -1e-12


def test_schwarz_gram_hermitian_eigvector():
    P = np.diag([3.0, 1.0])
    x = np.array([2.0, 0.0])  # eigenvector, eigenvalue 3, ||x||^2 = 4
    gram, _, _ = schwarz_gram(P, x)
    np.testing.assert_allclose(gram, 12 * np.ones((2, 2)), atol=1e-10)


def test_schwarz_gram_structure_and_psd():
    for i in range(100):
        rng = trial_rng(13, i)
        n = int(rng.integers(1, 7))
        T = unit_disc_matrix(rng, n)
        x = random_complex(rng, n, 1).ravel()
        gram, rot1, rot2 = schwarz_gram(T, x)
        scale = 1 + spectral_norm(T) * float(np.linalg.norm(x)) ** 2
        w0 = np.linalg.eigvalsh(gram)
        for M in (gram, rot1, rot2):
            w = np.linalg.eigvalsh(M)
            assert w[0] >= -1e-9 * scale
            np.testing.assert_allclose(w, w0, atol=1e-10 * scale)

    # the second Gram matrix matches its stated entries
    rng = np.random.default_rng(14)
    T = random_complex(rng, 3)
    x = random_complex(rng, 3, 1).ravel()
    _, rot1, rot2 = schwarz_gram(T, x)
    absT, absTs = matrix_abs(T), matrix_abs(T.conj().T)
    reT, imT = re_im_parts(T)
    half_sum = (absT + absTs) / 2
    half_diff_star = (absTs - absT) / 2
    def ip(M):
        return np.vdot(x, M @ x)
    expect_b11 = ip(half_sum - imT)
    expect_b12 = ip(half_diff_star + 1j * reT)
    assert rot1[0, 0] == pytest.approx(expect_b11, abs=1e-10)
    assert rot1[0, 1] == pytest.approx(expect_b12, abs=1e-10)
    expect_c11 = ip(half_sum - reT)
    expect_c12 = ip(-half_diff_star + 1j * imT)
    assert rot2[0, 0] == pytest.approx(expect_c11, abs=1e-10)
    assert rot2[0, 1] == pytest.approx(expect_c12, abs=1e-10)


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
        T = unit_disc_matrix(rng, n)
        reports = {r.name: r for r in half_difference_reports(T)}
        assert all(r.holds for r in reports.values())


def test_abs_difference_norm_bounded_by_sum():
    for i in range(60):
        rng = trial_rng(17, i)
        n = int(rng.integers(1, 6))
        T = unit_disc_matrix(rng, n)
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


def test_block_pair_fuzz():
    for i in range(60):
        rng = trial_rng(20, i)
        n = int(rng.integers(1, 4))
        A = unit_disc_matrix(rng, n)
        B = unit_disc_matrix(rng, n)
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
        T = unit_disc_matrix(rng, n)
        for r in radius_upper_reports(T):
            assert r.slack >= -1e-8 * (1 + r.rhs)


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
        by_name = {r.name: r for r in beta_chain_reports(unit_disc_matrix(rng, n))}
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


def test_aluthge_bounds_fuzz():
    for i in range(60):
        rng = trial_rng(24, i)
        n = int(rng.integers(1, 5))
        T = unit_disc_matrix(rng, n)
        for r in aluthge_bound_reports(T):
            assert r.slack >= -1e-8 * (1 + r.rhs)


# ------------------------------------------------------------ default tol


def test_default_tol():
    assert default_tol(0.0) == pytest.approx(1e-8)
    assert default_tol(9.0) == pytest.approx(1e-7)
