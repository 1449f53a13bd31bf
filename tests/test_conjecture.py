import numpy as np
import pytest

from opineq import EnsembleSpec, SweepConfig, conjecture, conjecture_search, half_diff_slack, radius
from opineq.ensembles import generate


def test_slack_on_golden_matrix():
    T = np.array([[5 + 7j, 9 + 6j], [5j, 10 + 3j]])
    # 16.4629 - 12.672 from the golden half-diff table
    assert half_diff_slack(T) == pytest.approx(3.7909, abs=1e-2)
    assert half_diff_slack(T) > 0


def test_slack_hermitian_boundary():
    rng = np.random.default_rng(1)
    G = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    H = G + G.conj().T
    # |H| = |H*| and Re H = H, so both radii equal ||H||
    assert half_diff_slack(H) == pytest.approx(0.0, abs=1e-8 * (1 + np.linalg.norm(H, 2)))


def test_small_campaign_deterministic_and_nonnegative():
    spec = EnsembleSpec(kind="integer-complex", dim=2, count=40, seed=3)
    cfg = SweepConfig(grid_points=240)
    a = conjecture_search(spec, ascend_iters=2, cfg=cfg, keep=2, perturbations=10)
    b = conjecture_search(spec, ascend_iters=2, cfg=cfg, keep=2, perturbations=10)
    assert a.min_slack == b.min_slack
    np.testing.assert_array_equal(a.argmin_matrix, b.argmin_matrix)
    assert a.trials == 40 + 2 * 2 * 10
    scale = 1 + np.linalg.norm(a.argmin_matrix, 2)
    assert a.violated == (a.min_slack < -1e-7 * scale)
    assert not a.violated


@pytest.mark.parametrize("count, budget", [(1, None), (61, None), (23, 3 * 2 * 16 * 9 * 16)])
def test_stacked_scan_equals_serial_slacks(monkeypatch, count, budget):
    # The default budget stacks 28 draws of dim 3 at grid 16, so 61 draws
    # end in a short chunk; a 3-draw budget makes 23 draws 8 chunks.
    if budget is not None:
        monkeypatch.setattr(conjecture, "SCAN_STACK_BYTES", budget)
    spec = EnsembleSpec(kind="integer-complex", dim=3, count=count, seed=5)
    cfg = SweepConfig(grid_points=16)
    scored = list(conjecture._scan(spec, cfg))
    draws = list(generate(spec))
    assert [s for s, _ in scored] == [half_diff_slack(T, cfg) for T in draws]
    for (_, T), D in zip(scored, draws):
        np.testing.assert_array_equal(T, D)


def test_scan_chunk_grid_stack_stays_within_the_byte_budget(monkeypatch, sweeps):
    # an even grid folds onto [0, pi), so the stack fills half the budget
    grids = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: grids.append(M.nbytes) or eigvalsh(M))
    list(conjecture._scan(EnsembleSpec(kind="gaussian-complex", dim=4, count=50, seed=6), SweepConfig(grid_points=16)))
    assert max(grids) <= conjecture.SCAN_STACK_BYTES // 2
    assert len(sweeps) == 100


def test_scan_holds_one_chunk_of_draws_at_a_time(monkeypatch):
    # 28 draws of dim 3 at grid 16 make a chunk; each kernel call comes
    # before the next chunk is drawn, so memory does not grow with count.
    pulled, at_kernel = [], []
    draws, kernel = conjecture.generate, radius._max_on_circle

    def counting(spec):
        for T in draws(spec):
            pulled.append(T)
            yield T

    def scoring(*args):
        at_kernel.append(len(pulled))
        return kernel(*args)

    monkeypatch.setattr(conjecture, "generate", counting)
    monkeypatch.setattr(radius, "_max_on_circle", scoring)
    spec = EnsembleSpec(kind="integer-complex", dim=3, count=100, seed=5)
    assert len(list(conjecture._scan(spec, SweepConfig(grid_points=16)))) == 100
    assert at_kernel == [28, 56, 84, 100]
