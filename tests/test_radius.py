import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opineq import (
    DimensionMismatch,
    InvalidSpec,
    NonFinite,
    NotSquare,
    OpineqError,
    SweepConfig,
    f_theta,
    numerical_radius,
    off_diag_radius,
    rayleigh_radius,
    spectral_norm,
    sup_theta_norm,
)
from opineq import radius

pytest_plugins = ["pytester"]


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
    # f(theta) is constant for the shift, so every angle is a maximizer
    # and the level-set pencil sits next to a disc-shaped range.
    for n in range(2, 9):
        res = numerical_radius(np.eye(n, k=1))
        assert abs(res.omega - math.cos(math.pi / (n + 1))) <= 1e-13
        assert res.certified and 0.0 < res.margin <= 1e-8


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
    # a non-finite tolerance would stop refinement after one step (inf)
    # or run every bracket to the step cap (nan)
    for tol in (math.inf, math.nan):
        with pytest.raises(InvalidSpec):
            SweepConfig(tol=tol)
    with pytest.raises(InvalidSpec):
        SweepConfig(top_k=0)


def test_non_square_raises_not_square():
    T = np.ones((2, 3))
    with pytest.raises(NotSquare):
        numerical_radius(T)
    with pytest.raises(NotSquare):
        f_theta(T, 0.0)
    with pytest.raises(NotSquare):
        rayleigh_radius(T)


def test_sweep_deterministic():
    rng = np.random.default_rng(9)
    T = random_complex(rng, 5)
    a = numerical_radius(T)
    b = numerical_radius(T)
    assert a.omega == b.omega and a.theta_star == b.theta_star
    np.testing.assert_array_equal(a.witness, b.witness)


def test_singular_repeated_and_extreme_scale_inputs_are_certified():
    rng = np.random.default_rng(15)
    S = np.eye(3, k=1)
    G = random_complex(rng, 3)
    u, v = random_complex(rng, 4, 1), random_complex(rng, 4, 1)
    base = [np.kron(np.eye(2), S), np.kron(S, np.eye(3)), np.kron(np.eye(2), G),
            np.kron(G, np.eye(3)), u @ v.conj().T, np.outer([1, 2, 3], [1, 0, 1])]
    for T in base:
        w = numerical_radius(T).omega
        for c in (1.0, 1e-300, 1e-150, 1e150, 1e300):
            res = numerical_radius(c * T)
            assert res.certified, (T, c)
            assert res.omega == pytest.approx(c * w, rel=1e-12)
            assert res.margin <= 1e-8 * res.omega


def hermitian_stacks(Ts):
    """The (k, n, n) stacks A, B and C = 0 that numerical_radius hands the kernel."""
    A = np.stack([(T + T.conj().T) / 2 for T in Ts])
    B = np.stack([(T - T.conj().T) / 2j for T in Ts])
    return A, B, np.zeros_like(A)


def assert_stack_matches_single_calls(A, B, C, cfg):
    """Each stacked result equals its own k = 1 call bitwise."""
    stacked = radius._max_on_circle(A, B, C, cfg)
    assert len(stacked) == len(A)
    for i, s in enumerate(stacked):
        (r,) = radius._max_on_circle(A[i : i + 1], B[i : i + 1], C[i : i + 1], cfg)
        assert (s.omega, s.theta_star, s.certified, s.margin) == (r.omega, r.theta_star, r.certified, r.margin)
        np.testing.assert_array_equal(s.witness, r.witness)
    return stacked


def test_coarse_grid_misses_are_found_by_restarts(monkeypatch):
    # Eight grid points and one bracket miss the global peak on about one
    # draw in twenty; the level-set test must find each and restart Newton,
    # also when the draws of one size run as one stack.
    refine, calls = radius._refine, []
    monkeypatch.setattr(radius, "_refine", lambda *a: calls.append(1) or refine(*a))
    coarse = SweepConfig(grid_points=8, top_k=1)
    fine = SweepConfig(grid_points=5760, top_k=8)
    rng = np.random.default_rng(16)
    restarted = 0
    draws = {6: [], 12: []}
    for i in range(400):
        T = random_complex(rng, 6 if i % 2 else 12)
        draws[T.shape[0]].append(T)
        calls.clear()
        res = numerical_radius(T, coarse)
        restarted += len(calls) > 1
        assert res.certified
        assert res.omega == pytest.approx(numerical_radius(T, fine).omega, rel=1e-12)
    assert restarted >= 1
    for Ts in draws.values():
        calls.clear()
        assert_stack_matches_single_calls(*hermitian_stacks(Ts), coarse)
        assert len(calls) > 1


def test_each_matrix_of_a_stack_refines_its_top_k_grid_maxima(monkeypatch):
    # The first refinement gets, per matrix, its top_k largest grid maxima.
    refine, calls = radius._refine, []
    monkeypatch.setattr(radius, "_refine", lambda M, own, t, lo, *a: calls.append((own, lo)) or refine(M, own, t, lo, *a))
    rng = np.random.default_rng(22)
    A, B, C = hermitian_stacks([random_complex(rng, 5) for _ in range(6)])
    radius._max_on_circle(A, B, C, SweepConfig(grid_points=64, top_k=2))
    own, lo = calls[0]
    h = 2 * math.pi / 64
    thetas = np.arange(64) * h
    for i in range(6):
        vals = np.linalg.eigvalsh(np.cos(thetas)[:, None, None] * A[i] - np.sin(thetas)[:, None, None] * B[i])[:, -1]
        peaks = np.flatnonzero((vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1)))
        top = peaks[np.argsort(vals[peaks])[::-1][:2]]
        assert np.rint((lo[own == i] + h) / h).astype(int).tolist() == top.tolist()
    assert len(own) == 12


def stack_member(kind, n, seed, scale):
    rng = np.random.default_rng(seed)
    if kind == "shift":
        T = np.eye(n, k=1)
    elif kind == "rank-one":
        T = random_complex(rng, n, 1) @ random_complex(rng, 1, n)
    elif kind == "S+S":
        S = random_complex(rng, n // 2)
        T = np.kron(np.eye(2), S)
    else:
        T = random_complex(rng, n)
    return scale * T


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([2, 4, 6]),
    members=st.lists(
        st.tuples(st.sampled_from(["random", "shift", "rank-one", "S+S"]),
                  st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1e150, 1e-150])),
        min_size=1, max_size=6),
    grid=st.sampled_from([8, 16, 720]),
)
def test_stacked_kernel_equals_single_calls_bitwise(n, members, grid):
    Ts = [stack_member(kind, n, seed, scale) for kind, seed, scale in members]
    for r in assert_stack_matches_single_calls(*hermitian_stacks(Ts), SweepConfig(grid_points=grid)):
        assert r.certified


def test_pencil_failure_leaves_only_its_own_matrix_uncertified(monkeypatch, sweeps):
    # The level-set pencil of matrix 2 raises LinAlgError; the stacked call
    # must fall back to one matrix at a time and certify all the others.
    rng = np.random.default_rng(19)
    A, B, C = hermitian_stacks([random_complex(rng, 4) for _ in range(5)])
    cfg = SweepConfig(grid_points=16)
    solve, leads = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve", lambda L, rhs: leads.append(L) or solve(L, rhs))
    singles = [radius._max_on_circle(A[i : i + 1], B[i : i + 1], C[i : i + 1], cfg)[0] for i in range(5)]
    poisoned = leads[2][0]

    def failing(L, rhs):
        if any(np.array_equal(M, poisoned) for M in L):
            raise np.linalg.LinAlgError("injected")
        return solve(L, rhs)

    monkeypatch.setattr(np.linalg, "solve", failing)
    stacked = radius._max_on_circle(A, B, C, cfg)
    assert not stacked[2].certified and stacked[2].margin == math.inf
    assert stacked[2].omega == singles[2].omega
    for i in (0, 1, 3, 4):
        s, r = stacked[i], singles[i]
        assert s.certified
        assert (s.omega, s.theta_star, s.margin) == (r.omega, r.theta_star, r.margin)
        np.testing.assert_array_equal(s.witness, r.witness)
    # the one deliberately uncertified result is not a missed certificate
    sweeps[:] = [r for r in sweeps if r is not stacked[2]]


def test_sweeps_fixture_records_every_matrix_of_a_stacked_call(sweeps):
    rng = np.random.default_rng(20)
    A, B, C = hermitian_stacks([random_complex(rng, 3) for _ in range(4)])
    stacked = radius._max_on_circle(A, B, C, SweepConfig(grid_points=16))
    assert len(sweeps) == 4 and all(a is b for a, b in zip(sweeps, stacked))


def test_sweeps_fixture_fails_a_test_with_an_uncertified_stacked_result(pytester, monkeypatch):
    # The inner session runs in its own interpreter, apart from this test's fixture.
    monkeypatch.setenv("PYTHONPATH", str(Path(radius.__file__).parents[1]))
    pytester.makeconftest((Path(__file__).parent / "conftest.py").read_text())
    pytester.makepyfile(test_inner="""
        import numpy as np
        from opineq import SweepConfig, radius

        def test_one_pencil_fails(monkeypatch):
            solve = np.linalg.solve
            def failing(L, rhs):
                if any(M[0, 0].real < 0 for M in L):
                    raise np.linalg.LinAlgError("injected")
                return solve(L, rhs)
            monkeypatch.setattr(np.linalg, "solve", failing)
            A = np.stack([np.diag([1.0, 0.5]), np.diag([-1.0, -2.0])]).astype(complex)
            B = np.zeros_like(A)
            results = radius._max_on_circle(A, B, B, SweepConfig(grid_points=16))
            assert [r.certified for r in results] == [True, False]
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(passed=1, errors=1)
    result.stdout.fnmatch_lines(["*1 of 2 radius results are not certified*"])


def test_level_test_drops_near_circle_roots_below_the_level(monkeypatch):
    # A hair above a peak, its two crossings become a pair of roots off the
    # unit circle by about sqrt(2 eta / |f''|), inside the unimodular
    # tolerance; f at their angles, below the level, must drop them.
    eigvalsh, batches = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: batches.append(len(M)) or eigvalsh(M))
    rng = np.random.default_rng(18)
    for _ in range(20):
        T = random_complex(rng, 4)
        omega = numerical_radius(T).omega
        A, B, C = hermitian_stacks([T])
        batches.clear()
        clear, own, t = radius._angles_above(A, B, C, np.array([omega]), np.array([1e-14 * omega]))
        assert t.size == 0 and own.size == 0 and clear.tolist() == [True]
        assert batches and batches[0] >= 2


def test_subnormal_scale_is_certified_and_homogeneous():
    # At a subnormal power-of-two scale, complex division by the scale
    # overflowed and left no grid maximum; the parts now divide exactly.
    c = 2.0**-1064
    rng = np.random.default_rng(21)
    T = np.round(random_complex(rng, 3) * 64) / 64  # c * T is exact
    for M in (np.eye(3, k=1), T):
        res, w = numerical_radius(c * M), numerical_radius(M).omega
        assert res.certified and res.omega > 0.0
        # c * M is the same scaled problem as M, so homogeneity is exact, well within 1e-12
        assert res.omega == c * w


def test_sup_theta_norm_and_off_diag_radius_are_certified(sweeps):
    rng = np.random.default_rng(17)
    for _ in range(20):
        X, Y = random_complex(rng, 3), random_complex(rng, 3)
        sup_theta_norm(X, Y)
        off_diag_radius(X, Y)
    # each off_diag_radius runs one sup_theta_norm sweep and one radius sweep
    assert len(sweeps) == 60
    assert all(r.certified and r.margin <= 1e-8 * r.omega for r in sweeps)
