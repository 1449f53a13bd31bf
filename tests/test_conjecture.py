import hashlib
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
    monkeypatch.setattr(radius, "gap_above", counted("pair", radius.gap_above))
    for name in ("svd", "eigvalsh", "solve", "eigvals"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    T = np.array([[5 + 7j, 9 + 6j, 1], [5j, 10 + 3j, 2 - 1j], [3, 0, 4j]])
    exact = half_diff_slack(T)
    assert counts["radius"] == 2 and counts["svd"] == 2 and counts["pair"] == 0
    assert kernel_calls == [1, 1]
    # A descent trial makes no radius call.  One that beats to_beat is scored
    # as [T, S] in one stacked kernel call, bitwise as without to_beat.
    counts.clear()
    kernel_calls.clear()
    assert half_diff_slack(T, to_beat=exact + 1.0) == exact
    assert counts["radius"] == 0 and counts["pair"] == 1 and counts["svd"] == 2
    assert kernel_calls == [2]
    # One that cannot is pruned: no kernel call, and a bound between to_beat and
    # the slack.  The pair test solves T's grid and S at theta = 0 in one batch,
    # T's parabola vertex in a second, and makes one level test (a solve and its
    # companion eigvals; no root near the unit circle here, so no filter batch).
    counts.clear()
    kernel_calls.clear()
    to_beat = exact - 1.0
    assert to_beat < half_diff_slack(T, to_beat=to_beat) <= exact
    assert counts == {"pair": 1, "svd": 2, "eigvalsh": 2, "solve": 1, "eigvals": 1}
    assert kernel_calls == []


def recording_pair_test(monkeypatch):
    """Record whether each radius.gap_above call pruned its trial."""
    pruned, pair = [], radius.gap_above

    def recording(T, S, gap):
        bound = pair(T, S, gap)
        pruned.append(bound is not None)
        return bound

    monkeypatch.setattr(radius, "gap_above", recording)
    return pruned


def test_floor_prune_rejects_most_descent_trials(monkeypatch):
    # The grid floor of w(T) sits a little below w(T), so it prunes somewhat
    # fewer candidates than an exact level would; most must still go.
    pruned = recording_pair_test(monkeypatch)
    spec = EnsembleSpec(kind="integer-complex", dim=3, count=50, seed=1)
    conjecture_search(spec, ascend_iters=2)
    assert len(pruned) == 500
    assert sum(pruned) >= 0.7 * len(pruned)


@pytest.mark.parametrize("kind", ["integer-complex", "gaussian-complex", "unit-disc"])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_pruned_descent_equals_the_unpruned_run(monkeypatch, dim, kind):
    spec = EnsembleSpec(kind=kind, dim=dim, count=30, seed=11 + dim)
    pruned = recording_pair_test(monkeypatch)
    a = conjecture_search(spec, ascend_iters=1)
    monkeypatch.setattr(radius, "gap_above", lambda T, S, gap: None)
    b = conjecture_search(spec, ascend_iters=1)
    assert a.min_slack.hex() == b.min_slack.hex()
    assert a.argmin_matrix.tobytes() == b.argmin_matrix.tobytes()
    assert a.trials == b.trials == 30 + 5 * 1 * 50
    assert len(pruned) == 250 and any(pruned)


# Descent results recorded before the pair test and the one-call perturbation
# draws: (dim, kind, min_slack.hex(), trials, SHA-256 of argmin_matrix.tobytes())
# for seed 40 + dim, count 30 and ascend_iters=2.  Both changes had to keep
# every accept decision, so every bit of the result.
FROZEN_DESCENTS = [
    (2, "integer-complex", "0x1.187f7f4000000p-23", 530, "0d683ffa55a363f51424539b303142de665c538e320cbe980f3c6690fa5a7963"),
    (2, "gaussian-complex", "0x1.39d6f7d000000p-23", 530, "ca23cef3a681ab6ea6e69f785c253a41b78b985f42ce14a45e0c4383c54bc484"),
    (3, "integer-complex", "-0x1.33c48c4758000p-10", 530, "f8f1df4fbdcd67332a759d6f554df62b05b8d6efe65f4ac4734d23ccd6c6bb42"),
    (3, "gaussian-complex", "-0x1.6c6a036863800p-10", 530, "3c1d3fe50286620cd6d8cd0823b879b4992e0e1bb6666527e2528537687a5430"),
    (4, "integer-complex", "-0x1.67f59944a0000p-12", 530, "172799302a04baa26c1ad2bff5c3ec116bea6823712278919a9b783db8c67a92"),
    (4, "gaussian-complex", "-0x1.739aef344b800p-8", 530, "eb69f13adc999d26b69a22350734856aae561ca62c9bb6ee42e71ce3bbcd4921"),
]


@pytest.mark.parametrize("dim, kind, slack_hex, trials, digest",
                         [pytest.param(*row, id=f"{row[0]}-{row[1]}") for row in FROZEN_DESCENTS])
def test_descent_results_are_frozen(dim, kind, slack_hex, trials, digest):
    result = conjecture_search(EnsembleSpec(kind=kind, dim=dim, count=30, seed=40 + dim), ascend_iters=2)
    assert result.min_slack.hex() == slack_hex
    assert result.trials == trials
    assert hashlib.sha256(result.argmin_matrix.tobytes()).hexdigest() == digest


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


def test_ascend_iters_must_be_an_integer():
    # read through operator.index, as EnsembleSpec reads its sizes
    spec = EnsembleSpec(kind="integer-complex", dim=2, count=3, seed=1)
    for value in (1.5, np.float64(1.0), "1"):
        with pytest.raises(InvalidSpec, match="ascend_iters must be an integer"):
            conjecture_search(spec, ascend_iters=value)
    a, b = (conjecture_search(spec, ascend_iters=k) for k in (np.int64(1), 1))
    assert (a.min_slack, a.trials) == (b.min_slack, b.trials)
    assert a.argmin_matrix.tobytes() == b.argmin_matrix.tobytes()
