from collections import Counter

import numpy as np
import pytest

from opineq import EnsembleSpec, InvalidSpec, conjecture, conjecture_search, half_diff_slack, radius
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
    a = conjecture_search(spec, ascend_iters=1)
    b = conjecture_search(spec, ascend_iters=1)
    assert a.min_slack == b.min_slack
    np.testing.assert_array_equal(a.argmin_matrix, b.argmin_matrix)
    assert a.trials == 40 + 5 * 1 * 50
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
    scored = list(conjecture._scan(spec))
    draws = list(generate(spec))
    assert [s for s, _ in scored] == [half_diff_slack(T) for T in draws]
    for (_, T), D in zip(scored, draws):
        np.testing.assert_array_equal(T, D)


def test_scan_chunk_grid_stack_stays_within_the_byte_budget(monkeypatch, sweeps):
    # an even grid folds onto [0, pi), so the stack fills half the budget
    grids = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: grids.append(M.nbytes) or eigvalsh(M))
    list(conjecture._scan(EnsembleSpec(kind="gaussian-complex", dim=4, count=50, seed=6)))
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
    assert len(list(conjecture._scan(spec))) == 100
    assert at_kernel == [28, 56, 84, 100]


def test_slack_call_counts(monkeypatch, kernel_calls):
    counts = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(conjecture, "numerical_radius", counted("radius", conjecture.numerical_radius))
    monkeypatch.setattr(radius, "radius_floor", counted("floor", radius.radius_floor))
    monkeypatch.setattr(radius, "radius_below", counted("level", radius.radius_below))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    T = np.array([[5 + 7j, 9 + 6j, 1], [5j, 10 + 3j, 2 - 1j], [3, 0, 4j]])
    exact = half_diff_slack(T)
    assert counts == {"radius": 2, "svd": 2}
    assert kernel_calls == [1, 1]
    # A descent trial makes no radius call.  One that beats to_beat is scored
    # as [T, S] in one stacked kernel call, bitwise as without to_beat.
    counts.clear()
    kernel_calls.clear()
    assert half_diff_slack(T, to_beat=exact + 1.0) == exact
    assert counts == {"floor": 1, "level": 1, "svd": 2}
    assert kernel_calls == [2]
    # One that cannot is pruned: no kernel call, and a bound between to_beat and the slack.
    counts.clear()
    kernel_calls.clear()
    to_beat = exact - 1.0
    assert to_beat < half_diff_slack(T, to_beat=to_beat) <= exact
    assert counts == {"floor": 1, "level": 1, "svd": 2}
    assert kernel_calls == []


def test_floor_prune_rejects_most_descent_trials(monkeypatch):
    # The grid floor of w(T) sits a little below w(T), so it prunes somewhat
    # fewer candidates than an exact level would; most must still go.
    pruned, below = [], radius.radius_below
    monkeypatch.setattr(radius, "radius_below", lambda T, level: pruned.append(below(T, level)) or pruned[-1])
    spec = EnsembleSpec(kind="integer-complex", dim=3, count=50, seed=1)
    conjecture_search(spec, ascend_iters=2)
    assert len(pruned) == 500
    assert sum(pruned) >= 0.7 * len(pruned)


@pytest.mark.parametrize("kind", ["integer-complex", "gaussian-complex", "unit-disc"])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_pruned_descent_equals_the_unpruned_run(monkeypatch, dim, kind):
    spec = EnsembleSpec(kind=kind, dim=dim, count=30, seed=11 + dim)
    pruned, below = [], radius.radius_below
    monkeypatch.setattr(radius, "radius_below", lambda T, level: pruned.append(below(T, level)) or pruned[-1])
    a = conjecture_search(spec, ascend_iters=1)
    monkeypatch.setattr(radius, "radius_below", lambda T, level: False)
    b = conjecture_search(spec, ascend_iters=1)
    assert a.min_slack.hex() == b.min_slack.hex()
    assert a.argmin_matrix.tobytes() == b.argmin_matrix.tobytes()
    assert a.trials == b.trials == 30 + 5 * 1 * 50
    assert len(pruned) == 250 and any(pruned)


def test_descent_makes_fewer_kernel_calls_than_trials(kernel_calls):
    # Without pruning, each descent trial makes 2 kernel calls.
    spec = EnsembleSpec(kind="integer-complex", dim=3, count=20, seed=4)
    conjecture_search(spec, ascend_iters=0)
    scan_and_verify = len(kernel_calls)
    kernel_calls.clear()
    result = conjecture_search(spec, ascend_iters=2)
    descent_trials = result.trials - spec.count
    assert descent_trials == 500
    assert (len(kernel_calls) - scan_and_verify) / descent_trials < 1.2


# The ids keep the names of the cases this test had when it also covered
# the keep= and perturbations= parameters, which are now module constants.
@pytest.mark.parametrize(
    "knob",
    [pytest.param({"ascend_iters": -10}, id="knob0"), pytest.param({"ascend_iters": -1}, id="knob3")],
)
def test_search_knobs_out_of_range_raise(knob):
    spec = EnsembleSpec(kind="integer-complex", dim=2, count=3, seed=1)
    with pytest.raises(InvalidSpec, match=next(iter(knob))):
        conjecture_search(spec, **knob)
