import dataclasses
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
    numerical_radius,
    rayleigh_radius,
    re_im_parts,
    spectral_norm,
)
from opineq import radius

pytest_plugins = ["pytester"]


def random_complex(rng, n, m=None):
    m = m or n
    return rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_radius_golden_values():
    assert numerical_radius([[0, 2], [6, 0]]).omega == pytest.approx(4.0, abs=1e-9)
    assert numerical_radius([[2, 1], [2, 9]]).omega == pytest.approx(9.30789, abs=5e-4)
    T = np.array([[5 + 7j, 9 + 6j], [5j, 10 + 3j]])
    assert numerical_radius(T).omega == pytest.approx(16.4629, abs=5e-3)


def test_off_diag_examples():
    # off-diagonal blocks: w([[0, 1], [1, 0]]) = 1 and w([[0, X], [0, 0]]) = ||X|| / 2
    assert numerical_radius([[0, 1], [1, 0]]).omega == pytest.approx(1.0, abs=1e-10)
    X, Z = random_complex(np.random.default_rng(7), 3), np.zeros((3, 3))
    assert numerical_radius(np.block([[Z, X], [Z, Z]])).omega == pytest.approx(spectral_norm(X) / 2, abs=1e-9)


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


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 8), grid=st.sampled_from([8, 10, 16, 720]))
def test_radius_nilpotent_shift_closed_form(n, grid):
    # f(theta) is constant for the shift, so every angle is a maximizer
    # and the level-set pencil sits next to a disc-shaped range.
    res = numerical_radius(np.eye(n, k=1), SweepConfig(grid_points=grid))
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
    # Entries near overflow: T +- T* would overflow, so T is halved first.
    for T, w in ((np.diag([1e308, 1e308j]), 1e308), (np.array([[1e308, 1e308], [0.0, 1e308]]), 1.5e308)):
        res = numerical_radius(T)
        assert res.certified and res.omega == pytest.approx(w, rel=1e-12)
        assert res.omega == 16.0 * numerical_radius(T / 16.0).omega
        assert np.isfinite(res.witness).all()
    with pytest.raises(NonFinite, match="float range"):  # w = 2e308
        numerical_radius(np.full((2, 2), 1e308))


def test_radius_attained_and_above_dense_grid():
    rng = np.random.default_rng(12)
    thetas = np.arange(4096) * (2 * math.pi / 4096)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        T = random_complex(rng, n)
        res = numerical_radius(T)
        A = (T + T.conj().T) / 2
        B = (T - T.conj().T) / 2j
        top = np.linalg.eigvalsh(math.cos(res.theta_star) * A - math.sin(res.theta_star) * B)[-1]
        assert top == pytest.approx(res.omega, rel=1e-13)
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


def test_off_diag_radius_against_dense_svd_grid(off_diag_identity):
    rng = np.random.default_rng(24)
    for _ in range(20):
        p, q = (int(k) for k in rng.integers(1, 6, size=2))
        off_diag_identity(random_complex(rng, p, q), random_complex(rng, p, q))


def test_off_diag_identity_holds_for_a_block_and_its_adjoint(off_diag_identity):
    # both [[0, X], [Y*, 0]] and its adjoint [[0, Y], [X*, 0]], as w(T*) = w(T)
    rng = np.random.default_rng(13)
    for _ in range(20):
        p, q = (int(k) for k in rng.integers(1, 6, size=2))
        X = random_complex(rng, p, q)
        Y = random_complex(rng, p, q)
        assert off_diag_identity(X, Y).omega == pytest.approx(off_diag_identity(Y, X).omega, rel=1e-12)


def test_sweep_config_validation():
    for grid in (4, 9, 63, 721, 8.5, 16.0, "16", None):
        with pytest.raises(InvalidSpec):
            SweepConfig(grid_points=grid)
    # the grid is the only knob: one bracket per matrix, a fixed angle stop
    assert [f.name for f in dataclasses.fields(SweepConfig)] == ["grid_points"]
    # a plain int, so that np.int64(16) and 16 give one radius memo key
    cfg = SweepConfig(grid_points=np.int64(16))
    assert type(cfg.grid_points) is int
    assert cfg == SweepConfig(grid_points=16) and hash(cfg) == hash(SweepConfig(grid_points=16))


def test_radius_memo_computes_each_matrix_and_grid_once(kernel_calls):
    T = random_complex(np.random.default_rng(12), 4)
    cfg = SweepConfig(grid_points=16)
    with radius.radius_memo():
        first = numerical_radius(T, cfg)
        again = numerical_radius(T.tolist(), SweepConfig(grid_points=np.int64(16)))  # same values and grid
        assert len(kernel_calls) == 1
        numerical_radius(T, SweepConfig(grid_points=24))
        numerical_radius(T.T, cfg)
        assert len(kernel_calls) == 3
        with pytest.raises(NotSquare):  # the same bytes in another shape
            numerical_radius(T.reshape(2, 8), cfg)
    fresh = numerical_radius(T, cfg)
    for field in ("omega", "theta_star", "certified", "margin"):
        assert getattr(again, field) == getattr(first, field) == getattr(fresh, field)
    assert np.array_equal(again.witness, fresh.witness)
    # a hit cannot see a caller's mutation; unscoped results stay writable
    assert not again.witness.flags.writeable and not first.witness.flags.writeable
    with pytest.raises(ValueError):
        again.witness[0] = 0.0
    assert fresh.witness.flags.writeable


def test_radius_calls_outside_a_memo_block_share_nothing(kernel_calls):
    T = random_complex(np.random.default_rng(13), 3)
    cfg = SweepConfig(grid_points=16)
    assert numerical_radius(T, cfg).omega == numerical_radius(T, cfg).omega
    assert len(kernel_calls) == 2
    with radius.radius_memo():
        numerical_radius(T, cfg)
    numerical_radius(T, cfg)
    assert len(kernel_calls) == 4


def test_radius_batch_equals_single_calls_bitwise(kernel_calls):
    rng = np.random.default_rng(16)
    mats = [random_complex(rng, n) for n in (3, 6, 3, 3, 6)] + [np.diag([1.0, 0.0, 0.0]), np.zeros((3, 3))]
    singles = [numerical_radius(T) for T in mats]
    kernel_calls.clear()
    with radius.radius_memo():
        batch = radius._radii(mats)
        assert kernel_calls == [5, 2]  # one stack per shape, in first-seen order
        assert all(numerical_radius(T) is r for T, r in zip(mats, batch))  # each read is a hit
    assert len(kernel_calls) == 2
    for b, r in zip(batch, singles):
        assert (b.omega, b.theta_star, b.certified, b.margin) == (r.omega, r.theta_star, r.certified, r.margin)
        assert b.witness.tobytes() == r.witness.tobytes()


def test_radius_batch_solves_duplicates_once_freezes_stored_witnesses_and_joins_an_open_block(kernel_calls):
    rng = np.random.default_rng(17)
    T, S = random_complex(rng, 4), random_complex(rng, 4)
    first, again, other = radius._radii([T, T.tolist(), S])  # duplicates: the same values
    assert kernel_calls == [2] and first is again
    assert first.witness.flags.writeable and radius._MEMO.get() is None  # outside a block: nothing kept
    kernel_calls.clear()
    with radius.radius_memo():
        outer = radius._MEMO.get()
        stored = numerical_radius(T)
        with pytest.raises(ValueError):  # a hit cannot see a caller's mutation
            stored.witness[0] = 0.0
        with radius.radius_memo():  # joins: the inner block sees, and keeps, the outer results
            assert radius._MEMO.get() is outer
            assert radius._radii([T, S])[0] is stored
        assert radius._MEMO.get() is outer and numerical_radius(S) is radius._radii([S])[0]
    assert kernel_calls == [1, 1]
    assert radius._MEMO.get() is None


def test_non_square_raises_not_square():
    T = np.ones((2, 3))
    with pytest.raises(NotSquare):
        numerical_radius(T)
    with pytest.raises(NotSquare):
        rayleigh_radius(T)
    with pytest.raises(DimensionMismatch):  # a stack is no matrix
        numerical_radius(np.ones((2, 3, 3)))


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


def assert_stack_matches_single_calls(T, cfg):
    """Each stacked result equals its own k = 1 call bitwise."""
    stacked = radius._max_on_circle(T, cfg)
    assert len(stacked) == len(T)
    for i, s in enumerate(stacked):
        (r,) = radius._max_on_circle(T[i : i + 1], cfg)
        assert (s.omega, s.theta_star, s.certified, s.margin) == (r.omega, r.theta_star, r.certified, r.margin)
        np.testing.assert_array_equal(s.witness, r.witness)
    return stacked


def test_coarse_grid_misses_are_found_by_restarts(monkeypatch):
    # Eight grid points and one bracket miss the global peak on about one
    # draw in twenty; the level-set test must find each and restart Newton,
    # also when the draws of one size run as one stack.
    refine, calls = radius._refine, []
    monkeypatch.setattr(radius, "_refine", lambda *a: calls.append(1) or refine(*a))
    coarse = SweepConfig(grid_points=8)
    fine = SweepConfig(grid_points=5760)
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
        assert_stack_matches_single_calls(np.stack(Ts), coarse)
        assert len(calls) > 1


def test_each_matrix_of_a_stack_refines_one_bracket_at_its_grid_maximum(monkeypatch):
    # The first refinement gets one bracket per matrix, around its largest
    # grid value; on a tie the later angle wins, as for the zero matrix,
    # whose f is the same at every angle.
    # The grid 64 folds: diag(1, -1) ties at 0 and pi, across its two halves,
    # and takes pi; the zero matrix takes the last angle, 63.
    refine, calls = radius._refine, []
    monkeypatch.setattr(radius, "_refine", lambda M, own, t, lo, *a: calls.append((own, lo)) or refine(M, own, t, lo, *a))
    rng = np.random.default_rng(22)
    Ts = [random_complex(rng, 5) for _ in range(6)]
    T = np.stack([*Ts, np.diag([1.0, -1.0, 0.0, 0.0, 0.0]), np.zeros((5, 5))])
    A, B = re_im_parts(T)
    grid = 64
    h = 2 * math.pi / grid
    thetas = np.arange(grid) * h
    radius._max_on_circle(T, SweepConfig(grid_points=grid))
    own, lo = calls[0]
    assert own.tolist() == list(range(len(T)))
    picks = [round((x + h) / h) for x in lo]
    for i in range(len(T)):
        H = np.cos(thetas)[:, None, None] * A[i] - np.sin(thetas)[:, None, None] * B[i]
        vals = np.linalg.eigvalsh(H)[:, -1]
        assert picks[i] == np.flatnonzero(vals == vals.max())[-1]
    assert picks[6:] == [32, 63]


def test_even_grids_solve_half_the_circle(monkeypatch):
    # Re(exp(1j*(theta + pi)) T) = -Re(exp(1j*theta) T): a radius call
    # solves the angles in [0, pi) only, an odd count of them at grid 10.
    eigvalsh, grids = np.linalg.eigvalsh, []

    def counting(M):
        if M.ndim == 4:  # (matrices, angles, n, n): the grid batch
            grids.append(M.shape[:2])
        return eigvalsh(M)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    rng = np.random.default_rng(23)
    T = random_complex(rng, 3)
    for grid, solved in ((16, 8), (720, 360), (10, 5)):
        grids.clear()
        numerical_radius(T, SweepConfig(grid_points=grid))
        assert grids == [(1, solved)]


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
    grid=st.sampled_from([8, 10, 16, 720]),
)
def test_stacked_kernel_equals_single_calls_bitwise(n, members, grid):
    Ts = [stack_member(kind, n, seed, scale) for kind, seed, scale in members]
    for r in assert_stack_matches_single_calls(np.stack(Ts), SweepConfig(grid_points=grid)):
        assert r.certified


def test_pencil_failure_leaves_only_its_own_matrix_uncertified(monkeypatch, sweeps):
    # The level-set pencil of matrix 2 raises LinAlgError; the stacked call
    # must fall back to one matrix at a time and certify all the others.
    rng = np.random.default_rng(19)
    T = np.stack([random_complex(rng, 4) for _ in range(5)])
    cfg = SweepConfig(grid_points=16)
    solve, leads = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve", lambda L, rhs: leads.append(L) or solve(L, rhs))
    singles = [radius._max_on_circle(T[i : i + 1], cfg)[0] for i in range(5)]
    poisoned = leads[2][0]

    def failing(L, rhs):
        if any(np.array_equal(M, poisoned) for M in L):
            raise np.linalg.LinAlgError("injected")
        return solve(L, rhs)

    monkeypatch.setattr(np.linalg, "solve", failing)
    stacked = radius._max_on_circle(T, cfg)
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
    T = np.stack([random_complex(rng, 3) for _ in range(4)])
    stacked = radius._max_on_circle(T, SweepConfig(grid_points=16))
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
            T = np.stack([np.diag([1.0, 0.5]), np.diag([-1.0, -2.0])]).astype(complex)
            results = radius._max_on_circle(T, SweepConfig(grid_points=16))
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
        A, B = re_im_parts(T[None])
        batches.clear()
        clear, own, t = radius._angles_above(A, B, np.array([omega]), np.array([1e-14 * omega]))
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


def test_off_diag_blocks_are_certified(sweeps):
    rng = np.random.default_rng(17)
    Z = np.zeros((3, 3))
    for _ in range(20):
        X, Y = random_complex(rng, 3), random_complex(rng, 3)
        numerical_radius(np.block([[Z, X], [Y.conj().T, Z]]))
        numerical_radius(np.block([[Z, Y], [X.conj().T, Z]]))
    assert len(sweeps) == 40
    assert all(r.certified and r.margin <= 1e-8 * r.omega for r in sweeps)


# Exact oracles for the one-bracket kernel: each property runs at the folded
# grids 8, 16 and 720 and the odd grid 9, and the sweeps fixture fails any
# uncertified result.
oracle_draws = dict(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), grid=st.sampled_from([8, 10, 16, 720]))


@settings(max_examples=40, deadline=None)
@given(**oracle_draws)
def test_hermitian_radius_is_the_norm(n, seed, grid):
    G = random_complex(np.random.default_rng(seed), n)
    H = G + G.conj().T
    res = numerical_radius(H, SweepConfig(grid_points=grid))
    assert res.certified
    assert res.omega == pytest.approx(spectral_norm(H), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(**oracle_draws)
def test_normal_radius_is_the_spectral_radius(n, seed, grid):
    rng = np.random.default_rng(seed)
    lam = rng.normal(size=n) + 1j * rng.normal(size=n)
    U = random_unitary(rng, n)
    res = numerical_radius(U @ np.diag(lam) @ U.conj().T, SweepConfig(grid_points=grid))
    assert res.certified
    assert res.omega == pytest.approx(np.abs(lam).max(), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(**oracle_draws, scale=st.sampled_from([1e-150, 1e150]), phase=st.floats(0.0, 2 * math.pi))
def test_radius_homogeneous_and_unitarily_invariant_at_extreme_scales(n, seed, grid, scale, phase):
    rng = np.random.default_rng(seed)
    T, U = random_complex(rng, n), random_unitary(rng, n)
    cfg = SweepConfig(grid_points=grid)
    w = numerical_radius(T, cfg).omega
    res = numerical_radius(scale * np.exp(1j * phase) * (U @ T @ U.conj().T), cfg)
    assert res.certified
    assert res.omega == pytest.approx(scale * w, rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(**oracle_draws, kind=st.sampled_from(["random", "rank-one"]))
def test_level_test_is_never_clear_below_the_radius(n, seed, grid, kind):
    # w >= omega, as the witness attains omega, so the level is below w.  The
    # kernel asks only at levels above a value f takes, as clear means "no
    # crossing"; so no constant f (the shift), which never crosses a lower level.
    T = stack_member(kind, n, seed, 1.0)
    res = numerical_radius(T, SweepConfig(grid_points=grid))
    A, B = re_im_parts(T[None])
    eta = radius._CERT_RTOL * (1.0 + res.omega)
    level = res.omega - 1e-6 * (1.0 + res.omega)
    clear, _, _ = radius._angles_above(A, B, np.array([level - eta]), np.array([eta]))
    assert clear.tolist() == [False]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["random", "shift", "rank-one", "S+S", "hermitian", "zero"]),
       scale=st.sampled_from([1.0, 1e150, 1e-150]))
def test_gap_above_is_a_certified_lower_bound_on_the_radius_gap(n, seed, kind, scale):
    # Whenever the pair test returns b, gap < b <= w(T) - w(S) as the kernel computes
    # them (the sweeps fixture checks that both are certified): so no gap at or above
    # the kernel's w(T) - w(S) is ever returned.  Gaps well below it are, as the
    # floor is within cos(pi/16) of w(T).
    if kind == "hermitian":
        G = random_complex(np.random.default_rng(seed), n)
        T = scale * (G + G.conj().T)
    else:
        T = np.zeros((n, n)) if kind == "zero" else stack_member(kind, max(n, 2) if kind == "S+S" else n, seed, scale)
    T = T.astype(complex)
    S = 0.5 * scale * random_complex(np.random.default_rng(seed + 1), len(T))
    w_t, w_s = numerical_radius(T).omega, numerical_radius(S).omega
    exact = w_t - w_s
    returned = []
    for gap in (exact - 0.5 * w_t, exact - 0.01 * w_t, exact - 1e-6 * w_t, exact - 1e-12 * w_t, exact,
                exact + 1e-12 * w_t, exact + w_t, -math.inf):
        b = radius.gap_above(T, S, gap)
        if b is not None:
            assert gap < b <= exact
            returned.append(gap)
    if w_t > 0.0:
        assert exact - 0.5 * w_t in returned


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["random", "shift", "rank-one", "S+S"]),
       scale=st.sampled_from([1.0, 1e150, 1e-150]))
def test_radius_below_is_never_true_at_or_below_the_radius(n, seed, kind, scale):
    # gap_above's level test on S, at level floor(T) - gap - 2 eta: T = t I, t = 2**k, is
    # its own floor, with eta = 2 _CERT_RTOL t.  w(S) >= omega, so no level <= omega may be
    # certified; the certificate puts w(S) below omega + margin, so omega + 2 margin must be.
    S = stack_member(kind, max(n, 2) if kind == "S+S" else n, seed, scale).astype(complex)
    res = numerical_radius(S)
    assert res.certified
    w = res.omega
    t = 2.0 ** math.frexp(w)[1]
    T, eta = t * np.eye(len(S), dtype=complex), 2.0 * radius._CERT_RTOL * t
    for level in (w, w * (1.0 - 1e-12), w / 2.0, -1.0):
        assert radius.gap_above(T, S, t - 2.0 * eta - level) is None
    assert radius.gap_above(T, S, t - 2.0 * eta - (w + 2.0 * res.margin)) is not None


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["random", "shift", "rank-one", "hermitian", "zero"]),
       scale=st.sampled_from([1.0, 1e150, 1e-150]))
def test_radius_floor_is_at_least_the_grid_maximum_and_at_most_the_radius(n, seed, kind, scale):
    # gap_above's floor, read through its level test on S = s I, s = 2**k > eta, where
    # w(S) = f_S(0) = s: the test passes where floor - gap - 2 eta clears s by its margin,
    # ~3 _CERT_RTOL s, and returns gap + eta/2.  Every candidate of the floor is a value
    # of f, so at most w, which the certified omega is within rounding of; the grid
    # maximum is one candidate.
    if kind == "hermitian":
        G = random_complex(np.random.default_rng(seed), n)
        T = scale * (G + G.conj().T)
    else:
        T = np.zeros((n, n)) if kind == "zero" else stack_member(kind, n, seed, scale)
    T = T.astype(complex)
    res = numerical_radius(T)
    assert res.certified
    s = 2.0 ** math.frexp(1e-8 * (np.abs(T).max() or 1.0))[1]  # eta <= 7e-9 max |T_ij|
    S = s * np.eye(n, dtype=complex)
    eta = 2.0 * (radius.gap_above(T, S, -4.0 * s) + 4.0 * s)
    A, B = re_im_parts(T)
    thetas = np.arange(radius.DEFAULT_SWEEP.grid_points) * (2 * math.pi / radius.DEFAULT_SWEEP.grid_points)
    grid = np.linalg.eigvalsh(np.cos(thetas)[:, None, None] * A - np.sin(thetas)[:, None, None] * B)[:, -1]
    assert 0.0 <= 1e-9 * grid.max() <= eta < s
    assert radius.gap_above(T, S, res.omega * (1.0 + 1e-14) - 2.0 * eta - s) is None
    assert radius.gap_above(T, S, grid.max() * (1.0 - 1e-14) - 2.0 * eta - s * (1.0 + 1e-7)) is not None


def test_gap_above_gives_none_at_a_non_finite_gap_an_overflowing_level_or_a_failed_solve(monkeypatch):
    T = np.array([[1.0, 2.0], [0.0, 1j]])
    S = 0.1 * T
    assert radius.gap_above(T, S, 0.0) is not None
    for gap in (math.inf, -math.inf, math.nan):
        assert radius.gap_above(T, S, gap) is None
    assert radius.gap_above(T, 1e-300 * S, -1e300) is None  # the scaled level overflows

    def failing(*args):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    assert radius.gap_above(T, S, 0.0) is None


def ellipse_radius(T):
    """max |z| over the elliptical range of a 2x2 T: W(T) is the ellipse with
    foci lam1, lam2 and minor axis sqrt(tr T*T - |lam1|^2 - |lam2|^2)."""
    tr, d = np.trace(T), np.sqrt(np.trace(T) ** 2 - 4 * np.linalg.det(T) + 0j)  # d = lam1 - lam2
    minor2 = max(float(np.sum(np.abs(T) ** 2)) - (abs(tr) ** 2 + abs(d) ** 2) / 2, 0.0)
    a, b = math.sqrt(minor2 + abs(d) ** 2) / 2, math.sqrt(minor2) / 2
    u = d / abs(d) if abs(d) else 1.0
    # boundary z(t) = tr/2 + u (a cos t + 1j b sin t) = tr/2 + u m / w + u p w, w = exp(1j t);
    # |z|^2 = sum_k F_k w^k (k = -2..2) is stationary where sum_k k F_k w^(k+2) = 0
    p, m = (a + b) / 2, (a - b) / 2
    F = np.convolve([u * m, tr / 2, u * p], np.conj([u * p, tr / 2, u * m]))
    t = np.append(np.angle(np.roots((np.arange(-2, 3) * F)[::-1])), 0.0)
    return np.abs(tr / 2 + u * (a * np.cos(t) + 1j * b * np.sin(t))).max()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), grid=st.sampled_from([8, 10, 16, 720]),
       kind=st.sampled_from(["random", "real", "nilpotent", "normal", "repeated"]))
def test_two_by_two_radius_is_the_elliptical_range_maximum(seed, grid, kind):
    rng = np.random.default_rng(seed)
    T = random_complex(rng, 2)
    if kind == "real":
        T = T.real
    elif kind == "nilpotent":
        T = np.triu(T, 1)
    elif kind == "normal":
        U = random_unitary(rng, 2)
        T = U @ np.diag(np.diag(T)) @ U.conj().T
    elif kind == "repeated":
        T = np.triu(T) + (T[0, 0] - T[1, 1]) * np.diag([0.0, 1.0])
    res = numerical_radius(T, SweepConfig(grid_points=grid))
    assert res.certified
    assert res.omega == pytest.approx(ellipse_radius(T), rel=1e-12)
