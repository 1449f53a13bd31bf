import numpy as np
import pytest

from opineq import EnsembleSpec, InvalidSpec, generate
from opineq.ensembles import KINDS, sample_matrix, trial_rng


def test_deterministic_for_fixed_seed():
    spec = EnsembleSpec(kind="integer-complex", dim=2, count=1, seed=42)
    a = next(generate(spec))
    b = next(generate(spec))
    np.testing.assert_array_equal(a, b)


def test_trials_are_independent_streams():
    spec = EnsembleSpec(kind="gaussian-complex", dim=3, count=5, seed=9)
    mats = list(generate(spec))
    # drawing trial k directly reproduces the streamed value
    direct = sample_matrix(trial_rng(9, 3), "gaussian-complex", 3)
    np.testing.assert_array_equal(mats[3], direct)


def test_integer_entries_statistics():
    spec = EnsembleSpec(kind="integer-complex", dim=2, count=1000, seed=5)
    total = np.zeros((), dtype=complex)
    count = 0
    for T in generate(spec):
        assert np.all(T.real == np.round(T.real)) and np.all(T.imag == np.round(T.imag))
        assert T.real.min() >= 0 and T.real.max() <= 10
        total = total + T.sum()
        count += T.size
    mean = total / count
    assert mean.real == pytest.approx(5.0, abs=0.3)
    assert mean.imag == pytest.approx(5.0, abs=0.3)


def test_integer_real_kind():
    T = sample_matrix(trial_rng(1, 0), "integer-real", 4)
    assert np.all(T.imag == 0)


def test_unit_disc_entries():
    T = sample_matrix(trial_rng(3, 0), "unit-disc", 50)
    assert np.abs(T).max() <= 1.0


def test_invalid_specs():
    with pytest.raises(InvalidSpec):
        EnsembleSpec(kind="nope", dim=2, count=1, seed=0)
    with pytest.raises(InvalidSpec):
        EnsembleSpec(kind="integer-real", dim=0, count=1, seed=0)
    with pytest.raises(InvalidSpec):
        EnsembleSpec(kind="integer-real", dim=2, count=0, seed=0)


@pytest.mark.parametrize("field, value", [("dim", 2.5), ("count", 3.5), ("seed", 1.5), ("seed", "1"), ("dim", None)])
def test_non_integer_sizes_and_seeds_are_invalid(field, value):
    # a float seed would otherwise be truncated to an integer one without a word
    sizes = {"dim": 2, "count": 3, "seed": 1, field: value}
    with pytest.raises(InvalidSpec, match=field):
        EnsembleSpec(kind="integer-complex", **sizes)


def test_integer_like_sizes_and_seeds_are_stored_as_ints():
    spec = EnsembleSpec(kind="integer-complex", dim=np.int64(2), count=np.uint8(3), seed=np.int32(-4))
    assert [type(getattr(spec, f)) for f in ("dim", "count", "seed")] == [int, int, int]
    assert spec == EnsembleSpec(kind="integer-complex", dim=2, count=3, seed=-4)


def test_unit_disc_is_an_ensemble_kind():
    assert "unit-disc" in KINDS
    assert sample_matrix(trial_rng(5, 1), "unit-disc", 4).shape == (4, 4)
    spec = EnsembleSpec(kind="unit-disc", dim=3, count=2, seed=4)
    assert all(np.abs(M).max() <= 1.0 for M in generate(spec))
