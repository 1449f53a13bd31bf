"""Deterministic seeded random-matrix ensembles.

Streams are counter-based (Philox) and keyed by (seed, trial index), so
trials are reproducible, order-independent, and safe to parallelize.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import InvalidSpec

KINDS = ("integer-complex", "integer-real", "gaussian-complex", "unit-disc")

__all__ = ["KINDS", "EnsembleSpec", "trial_rng", "sample_matrix", "generate"]


@dataclass(frozen=True)
class EnsembleSpec:
    """Which matrices to draw: kind, size, how many, and the seed.

    integer-complex draws Re and Im independently uniform on the integers
    0..10; integer-real leaves Im = 0; gaussian-complex uses standard
    normal components; unit-disc draws every entry uniformly from the
    closed unit disc.  ``dim``, ``count`` and ``seed`` are stored as plain ints.
    """

    kind: str
    dim: int
    count: int
    seed: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown ensemble kind {self.kind!r}; choose from {KINDS}")
        for name in ("dim", "count", "seed"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        if self.dim < 1:
            raise InvalidSpec("dim must be >= 1")
        if self.count < 1:
            raise InvalidSpec("count must be >= 1")


def _as_int(name: str, value) -> int:
    """``value`` as a plain int, read through ``operator.index``; else InvalidSpec naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidSpec(f"{name} must be an integer, got {value!r}") from None


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based generator for one trial, keyed by (seed, index)."""
    key = np.array([seed % 2**64, index % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_matrix(rng: np.random.Generator, kind: str, dim: int) -> np.ndarray:
    if kind == "integer-complex":
        re = rng.integers(0, 11, size=(dim, dim))
        im = rng.integers(0, 11, size=(dim, dim))
        return re + 1j * im
    if kind == "integer-real":
        return rng.integers(0, 11, size=(dim, dim)).astype(np.complex128)
    if kind == "gaussian-complex":
        return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    if kind == "unit-disc":
        r = np.sqrt(rng.uniform(size=(dim, dim)))
        return r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(dim, dim)))
    raise InvalidSpec(f"unknown ensemble kind {kind!r}")


def generate(spec: EnsembleSpec) -> Iterator[np.ndarray]:
    """Yield spec.count matrices, deterministic for a fixed seed."""
    for i in range(spec.count):
        yield sample_matrix(trial_rng(spec.seed, i), spec.kind, spec.dim)
