import math

import numpy as np
import pytest

from opineq import (
    DimensionMismatch,
    NotHermitian,
    NotPSD,
    block2,
    fro_norm,
    herm_eig,
    matrix_abs,
    matrix_power_psd,
    re_im_parts,
    spectral_norm,
    svd,
)
from opineq.linalg import is_hermitian


def random_complex(rng, n, m=None):
    m = m or n
    return rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))


def test_herm_eig_diagonal():
    e = herm_eig(np.diag([2.0, -1.0]))
    np.testing.assert_allclose(e.values, [-1.0, 2.0])
    # eigenvectors of a diagonal matrix are a permutation of the identity
    np.testing.assert_allclose(np.abs(e.vectors), [[0, 1], [1, 0]], atol=1e-14)


def test_herm_eig_pauli_x():
    e = herm_eig(np.array([[0, 1], [1, 0]], dtype=complex))
    np.testing.assert_allclose(e.values, [-1.0, 1.0], atol=1e-14)


def test_herm_eig_reconstruction_random():
    rng = np.random.default_rng(11)
    G = random_complex(rng, 5)
    H = G + G.conj().T
    e = herm_eig(H)
    recon = (e.vectors * e.values) @ e.vectors.conj().T
    assert fro_norm(recon - H) <= 1e-11 * (1 + fro_norm(H))
    assert fro_norm(e.vectors.conj().T @ e.vectors - np.eye(5)) <= 1e-12 * 5


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(NotHermitian):
        herm_eig(np.zeros((2, 3)))


def test_svd_examples():
    f = svd(np.array([[0, 1], [0, 0]], dtype=complex))
    np.testing.assert_allclose(f.sigmas, [1.0, 0.0], atol=1e-14)
    f = svd(np.diag([-3.0, 2.0]))
    np.testing.assert_allclose(f.sigmas, [3.0, 2.0], atol=1e-14)


def test_svd_reconstruction_rectangular():
    rng = np.random.default_rng(5)
    T = random_complex(rng, 4, 3)
    f = svd(T)
    recon = (f.left * f.sigmas) @ f.right.conj().T
    assert fro_norm(recon - T) <= 1e-10 * (1 + fro_norm(T))
    assert fro_norm(f.left.conj().T @ f.left - np.eye(3)) <= 1e-12 * 4
    assert fro_norm(f.right.conj().T @ f.right - np.eye(3)) <= 1e-12 * 4


def test_eig_svd_reconstruction_bulk():
    rng = np.random.default_rng(2024)
    for k in range(1000):
        n = int(rng.integers(1, 9))
        G = random_complex(rng, n)
        H = G + G.conj().T
        e = herm_eig(H)
        assert fro_norm((e.vectors * e.values) @ e.vectors.conj().T - H) <= 1e-11 * (1 + fro_norm(H))
        assert np.all(np.diff(e.values) >= -1e-13)
        m = int(rng.integers(1, 9))
        T = random_complex(rng, n, m)
        f = svd(T)
        assert fro_norm((f.left * f.sigmas) @ f.right.conj().T - T) <= 1e-10 * (1 + fro_norm(T))
        assert np.all(np.diff(f.sigmas) <= 1e-13)
        assert np.all(f.sigmas >= -1e-15)


def test_matrix_abs_examples():
    np.testing.assert_allclose(matrix_abs([[0, 1], [0, 0]]), np.diag([0.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(matrix_abs(np.diag([-3.0, 2.0])), np.diag([3.0, 2.0]), atol=1e-12)
    # T*T = [[81, 90], [90, 100]] has trace 181 and det 0, so |||T||| = sqrt(181)
    T = np.array([[0, 0], [9, 10]], dtype=complex)
    assert spectral_norm(matrix_abs(T)) == pytest.approx(math.sqrt(181), abs=1e-10)


def test_matrix_abs_isometry_property():
    rng = np.random.default_rng(8)
    for n in (1, 2, 4, 6):
        T = random_complex(rng, n)
        absT = matrix_abs(T)
        for _ in range(100):
            x = random_complex(rng, n, 1).ravel()
            lhs = np.linalg.norm(absT @ x)
            rhs = np.linalg.norm(T @ x)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_matrix_abs_square_is_tstar_t():
    rng = np.random.default_rng(9)
    T = random_complex(rng, 4)
    absT = matrix_abs(T)
    assert fro_norm(absT @ absT - T.conj().T @ T) <= 1e-10 * (1 + spectral_norm(T) ** 2)


def test_matrix_power_psd_examples():
    np.testing.assert_allclose(
        matrix_power_psd(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]), atol=1e-12
    )
    # alpha = 0 gives the range projection (0**0 := 0)
    P = np.diag([2.0, 0.0])
    np.testing.assert_allclose(matrix_power_psd(P, 0.0), np.diag([1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(matrix_power_psd(P, 1.0), P, atol=1e-12)


def test_matrix_power_psd_inverse_power_oracle():
    rng = np.random.default_rng(3)
    G = random_complex(rng, 3)
    P = G.conj().T @ G
    R = matrix_power_psd(P, 0.37)
    np.testing.assert_allclose(matrix_power_psd(R, 1 / 0.37), P, atol=1e-8)


def test_matrix_power_psd_multiplicative():
    rng = np.random.default_rng(4)
    G = random_complex(rng, 4)
    P = G.conj().T @ G
    for a, b in ((0.5, 0.5), (0.3, 1.1), (0.25, 1.75)):
        lhs = matrix_power_psd(P, a) @ matrix_power_psd(P, b)
        rhs = matrix_power_psd(P, a + b)
        assert fro_norm(lhs - rhs) <= 1e-9 * (1 + spectral_norm(P) ** (a + b))


def test_matrix_power_psd_rejects_indefinite():
    with pytest.raises(NotPSD):
        matrix_power_psd(np.diag([1.0, -1.0]), 0.5)


def test_fro_norm_and_is_hermitian_at_extreme_scale():
    # the squares of the entries underflow or overflow
    H = np.array([[1.0, 2j], [-2j, 3.0]])
    for c in (1e-200, 1e155, 1e200):
        assert fro_norm(c * H) == pytest.approx(c * math.sqrt(18), rel=1e-14)
    for c in (1e155, 1e200):
        assert is_hermitian(c * H)
        assert not is_hermitian(c * (H + np.triu(H)))
    # a subnormal largest entry: dividing the complex entries by it overflowed
    assert is_hermitian(1e-310 * H)
    assert fro_norm(1e-310 * H) == pytest.approx(1e-310 * math.sqrt(18), rel=1e-12)
    # NaN stays NaN, inf stays inf, and zero stays zero
    assert math.isnan(fro_norm(np.array([[1.0, np.nan], [0.0, 1.0]])))
    assert not is_hermitian(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    assert fro_norm(np.array([[1.0, np.inf], [0.0, 1.0]])) == math.inf
    assert fro_norm(np.array([[1.0, 1j * np.inf], [0.0, 1.0]])) == math.inf
    assert fro_norm(np.zeros((2, 2))) == 0.0


def test_spectral_norm_examples():
    assert spectral_norm(np.eye(3)) == pytest.approx(1.0)
    assert spectral_norm([[0, 2], [6, 0]]) == pytest.approx(6.0)
    # known value exceeding the matrix's numerical radius 16.4629
    T = np.array([[5 + 7j, 9 + 6j], [5j, 10 + 3j]])
    assert spectral_norm(T) >= 16.4629 - 5e-3


def test_re_im_parts():
    H = np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex)
    re, im = re_im_parts(H)
    np.testing.assert_allclose(re, H, atol=1e-15)
    np.testing.assert_allclose(im, 0 * H, atol=1e-15)
    re, im = re_im_parts(1j * H)
    np.testing.assert_allclose(re, 0 * H, atol=1e-15)
    np.testing.assert_allclose(im, H, atol=1e-15)
    T = np.array([[1, -2], [2, -3]], dtype=complex)
    re, im = re_im_parts(T)
    np.testing.assert_allclose(re, [[1, 0], [0, -3]], atol=1e-15)
    np.testing.assert_allclose(re + 1j * im, T, atol=1e-15)


def test_block2_examples_and_roundtrip():
    np.testing.assert_allclose(
        block2([[1]], [[1]], [[1]], [[1]]), np.ones((2, 2)), atol=0
    )
    rng = np.random.default_rng(7)
    A = random_complex(rng, 2)
    A = A + A.conj().T
    B = random_complex(rng, 3)
    B = B + B.conj().T
    C = random_complex(rng, 3, 2)
    T = block2(A, C.conj().T, C, B)
    np.testing.assert_array_equal(T[:2, :2], A)
    np.testing.assert_array_equal(T[2:, 2:], B)
    np.testing.assert_array_equal(T[2:, :2], C)
    np.testing.assert_array_equal(T[:2, 2:], C.conj().T)

    with pytest.raises(DimensionMismatch):
        block2(A, C.conj().T, C, np.eye(2))


def test_block_diagonal_when_corner_zero():
    A = np.eye(2)
    B = 2 * np.eye(2)
    C = np.zeros((2, 2))
    T = block2(A, C.conj().T, C, B)
    np.testing.assert_allclose(T, np.diag([1.0, 1.0, 2.0, 2.0]), atol=0)
