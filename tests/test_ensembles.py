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


def test_degenerate_range_gives_zero_matrix():
    spec = EnsembleSpec(kind="integer-complex", dim=3, count=2, seed=0, int_range=(0, 0))
    for T in generate(spec):
        np.testing.assert_array_equal(T, np.zeros((3, 3)))


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


def test_gram_kind_is_psd_block():
    T = sample_matrix(trial_rng(2, 0), "gram-psd-block", 3)
    assert T.shape == (6, 6)
    w = np.linalg.eigvalsh((T + T.conj().T) / 2)
    assert w[0] >= -1e-10 * (1 + w[-1])


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
    with pytest.raises(InvalidSpec):
        EnsembleSpec(kind="integer-real", dim=2, count=1, seed=0, int_range=(3, 1))


def test_unit_disc_is_an_ensemble_kind():
    assert "unit-disc" in KINDS
    assert sample_matrix(trial_rng(5, 1), "unit-disc", 4).shape == (4, 4)
    spec = EnsembleSpec(kind="unit-disc", dim=3, count=2, seed=4)
    assert all(np.abs(M).max() <= 1.0 for M in generate(spec))
