import math

import numpy as np
import pytest

from opineq import (
    DimensionMismatch,
    InvalidSpec,
    NonFinite,
    OpineqError,
    SweepConfig,
    f_theta,
    numerical_radius,
    off_diag_radius,
    rayleigh_radius,
    spectral_norm,
    sup_theta_norm,
)


def random_complex(rng, n, m=None):
    m = m or n
    return rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_f_theta_psd_at_zero():
    H = np.diag([1.0, 3.0])
    assert f_theta(H, 0.0) == pytest.approx(3.0)


def test_f_theta_constant_for_nilpotent():
    T = np.array([[0, 1], [0, 0]], dtype=complex)
    for theta in (0.0, 0.4, 1.7, 3.9, 6.0):
        assert f_theta(T, theta) == pytest.approx(0.5, abs=1e-14)


def test_f_theta_rotation_identity():
    rng = np.random.default_rng(1)
    T = random_complex(rng, 4)
    for theta in rng.uniform(0, 2 * math.pi, size=10):
        assert f_theta(T, theta) == pytest.approx(
            f_theta(np.exp(1j * theta) * T, 0.0), abs=1e-12
        )


def test_radius_golden_values():
    assert numerical_radius([[0, 2], [6, 0]]).omega == pytest.approx(4.0, abs=1e-9)
    assert numerical_radius([[2, 1], [2, 9]]).omega == pytest.approx(9.30789, abs=5e-4)
    T = np.array([[5 + 7j, 9 + 6j], [5j, 10 + 3j]])
    assert numerical_radius(T).omega == pytest.approx(16.4629, abs=5e-3)


def test_sweep_result_invariants():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        T = random_complex(rng, n)
        res = numerical_radius(T)
        assert 0.0 <= res.theta_star < 2 * math.pi
        attained = abs(np.vdot(res.witness, T @ res.witness))
        assert attained >= res.omega - 1e-8 * (1 + res.omega)
        nrm = spectral_norm(T)
        assert res.omega >= nrm / 2 - 1e-9 * (1 + nrm)
        assert res.omega <= nrm + 1e-9


def test_radius_homogeneity_adjoint_similarity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        T = random_complex(rng, n)
        w = numerical_radius(T).omega
        c = complex(rng.normal(), rng.normal())
        assert numerical_radius(c * T).omega == pytest.approx(abs(c) * w, rel=1e-10, abs=1e-12)
        assert numerical_radius(T.conj().T).omega == pytest.approx(w, rel=1e-10)
        Q = random_unitary(rng, n)
        assert abs(numerical_radius(Q.conj().T @ T @ Q).omega - w) <= 1e-9 * (1 + w)


def test_radius_hermitian_equals_norm():
    rng = np.random.default_rng(4)
    G = random_complex(rng, 4)
    H = G + G.conj().T
    assert numerical_radius(H).omega == pytest.approx(spectral_norm(H), rel=1e-10)


def test_radius_dominates_hermitian_parts():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        A = random_complex(rng, n)
        A = A + A.conj().T
        B = random_complex(rng, n)
        B = B + B.conj().T
        w = numerical_radius(A + 1j * B).omega
        scale = 1 + max(spectral_norm(A), spectral_norm(B))
        assert w >= max(spectral_norm(A), spectral_norm(B)) - 1e-9 * scale


def test_radius_nilpotent_shift_closed_form():
    for n in range(2, 9):
        w = numerical_radius(np.eye(n, k=1)).omega
        assert abs(w - math.cos(math.pi / (n + 1))) <= 1e-13


def test_radius_top_eigenvalue_repeated_for_every_angle():
    rng = np.random.default_rng(10)
    S = random_complex(rng, 3)
    w = numerical_radius(S).omega
    Z = np.zeros((3, 3))
    SS = np.block([[S, Z], [Z, S]])
    Q = random_unitary(rng, 6)
    for T in (SS, np.kron(S, np.eye(3)), Q.conj().T @ SS @ Q):
        assert numerical_radius(T).omega == pytest.approx(w, rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_radius_homogeneity_at_extreme_scales():
    rng = np.random.default_rng(11)
    for n in (1, 3, 6):
        T = random_complex(rng, n)
        w = numerical_radius(T).omega
        for c in (1e-300, 1e-150, 1e150, 1e300):
            assert numerical_radius(c * T).omega == pytest.approx(c * w, rel=1e-12)


def test_radius_attained_and_above_dense_grid():
    rng = np.random.default_rng(12)
    thetas = np.arange(4096) * (2 * math.pi / 4096)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        T = random_complex(rng, n)
        res = numerical_radius(T)
        assert f_theta(T, res.theta_star) == pytest.approx(res.omega, rel=1e-13)
        A = (T + T.conj().T) / 2
        B = (T - T.conj().T) / 2j
        H = np.cos(thetas)[:, None, None] * A - np.sin(thetas)[:, None, None] * B
        dense = np.linalg.eigvalsh(H)[:, -1].max()
        assert res.omega >= dense - 1e-13 * (1 + spectral_norm(T))


def test_newton_refinement_converges_in_few_steps(monkeypatch):
    # Exact f'' makes the refinement quadratic: a handful of batched eigh
    # steps per call, where a wrong curvature needs tens of them.
    eigh, steps = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda M: steps.append(M.ndim == 3) or eigh(M))
    rng = np.random.default_rng(14)
    for _ in range(60):
        S = random_complex(rng, int(rng.integers(2, 7)))
        # S (+) S repeats the top eigenvalue at every angle
        for T in (S, np.kron(np.eye(2), S)):
            steps.clear()
            numerical_radius(T)
            assert sum(steps) <= 6


def test_radius_rejects_non_finite_entries():
    for bad in (math.nan, math.inf):
        with pytest.raises(NonFinite) as info:
            numerical_radius([[bad, 0], [0, 1]])
        assert isinstance(info.value, OpineqError) and isinstance(info.value, ValueError)


def test_rayleigh_examples():
    val, _ = rayleigh_radius(np.diag([1.0, 1j]), trials=8, seed=0)
    assert val == pytest.approx(1.0, abs=1e-9)
    val, _ = rayleigh_radius([[0, 1], [0, 0]], trials=8, seed=0)
    assert val == pytest.approx(0.5, abs=1e-6)


def test_rayleigh_cross_validates_sweep():
    rng = np.random.default_rng(6)
    for i in range(100):
        n = int(rng.integers(2, 7))
        T = random_complex(rng, n)
        om = numerical_radius(T).omega
        lower, witness = rayleigh_radius(T, trials=16, seed=i)
        assert lower <= om + 1e-8
        assert abs(lower - om) <= 1e-6 * max(om, 1e-12)
        assert abs(np.vdot(witness, T @ witness)) == pytest.approx(lower, abs=1e-12)


def test_off_diag_examples():
    assert off_diag_radius([[1]], [[1]]) == pytest.approx(1.0, abs=1e-10)
    rng = np.random.default_rng(7)
    X = random_complex(rng, 3)
    assert off_diag_radius(X, np.zeros((3, 3))) == pytest.approx(
        spectral_norm(X) / 2, abs=1e-9
    )


def test_off_diag_identity_random():
    rng = np.random.default_rng(8)
    for _ in range(30):
        X = random_complex(rng, 2)
        Y = random_complex(rng, 2)
        # off_diag_radius raises IdentityMismatch internally if the two
        # routes disagree; reaching here means they matched to 1e-8*scale.
        omega = off_diag_radius(X, Y)
        assert 2 * omega == pytest.approx(sup_theta_norm(X, Y), abs=1e-7)


def test_sup_theta_norm_against_dense_svd_grid():
    rng = np.random.default_rng(13)
    thetas = np.arange(4096) * (2 * math.pi / 4096)
    for _ in range(20):
        p, q = (int(k) for k in rng.integers(1, 6, size=2))
        X = random_complex(rng, p, q)
        Y = random_complex(rng, p, q)
        sup = sup_theta_norm(X, Y)
        M = X[None] + np.exp(1j * thetas)[:, None, None] * Y[None]
        dense = np.linalg.svd(M, compute_uv=False)[:, 0].max()
        ny = spectral_norm(Y)
        scale = 1 + spectral_norm(X) + ny
        # The top eigenvalue of the dilation has second derivative at
        # least -||Y||, so the nearest grid angle, at most pi/4096 from
        # the maximizer, loses at most ||Y|| (pi/4096)^2 / 2.
        assert dense - 1e-12 * scale <= sup
        assert sup <= dense + ny * (math.pi / 4096) ** 2 / 2 + 1e-12 * scale


def test_off_diag_shape_check():
    with pytest.raises(DimensionMismatch):
        off_diag_radius(np.eye(2), np.eye(3))


def test_sweep_config_validation():
    with pytest.raises(InvalidSpec):
        SweepConfig(grid_points=4)
    with pytest.raises(InvalidSpec):
        SweepConfig(tol=0.0)
    with pytest.raises(InvalidSpec):
        SweepConfig(top_k=0)


def test_sweep_deterministic():
    rng = np.random.default_rng(9)
    T = random_complex(rng, 5)
    a = numerical_radius(T)
    b = numerical_radius(T)
    assert a.omega == b.omega and a.theta_star == b.theta_star
    np.testing.assert_array_equal(a.witness, b.witness)
