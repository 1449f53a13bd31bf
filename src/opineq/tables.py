"""Golden comparison tables.

Five small tables of 2x2 matrices with reference values that were
computed independently with a computer-algebra system (6 significant
digits).  ``reproduce_tables`` recomputes every column with this
library; agreement within TABLE_TOL = 5e-3 absolute guards against both
transcription and solver regressions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .inequalities import _half_diff_matrices, aluthge_bound_reports, radius_upper_reports
from .linalg import matrix_abs, spectral_norm
from .radius import SweepConfig, numerical_radius

TABLE_TOL = 5e-3

__all__ = ["TABLE_TOL", "HALF_DIFF_ROWS", "TableRow", "GoldenTable", "reproduce_tables"]


@dataclass(frozen=True)
class TableRow:
    label: str
    matrix: np.ndarray
    computed: dict[str, float]
    reference: dict[str, float]

    @property
    def max_error(self) -> float:
        return max(abs(self.computed[k] - self.reference[k]) for k in self.reference)

    def ok(self, tol: float = TABLE_TOL) -> bool:
        return self.max_error <= tol


@dataclass(frozen=True)
class GoldenTable:
    name: str
    columns: tuple[str, ...]
    rows: tuple[TableRow, ...]

    def ok(self, tol: float = TABLE_TOL) -> bool:
        return all(r.ok(tol) for r in self.rows)


def _m(rows) -> np.ndarray:
    return np.array(rows, dtype=np.complex128)


# (label, matrix, (half_diff_re_radius, radius)); `opineq conjecture` also
# reports the searched slack on these rows.
HALF_DIFF_ROWS = (
    ("hd-1", _m([[5 + 7j, 9 + 6j], [5j, 10 + 3j]]), (12.672, 16.4629)),
    ("hd-2", _m([[8 + 8j, 10 + 6j], [1j, 4 + 6j]]), (11.9372, 15.8452)),
    ("hd-3", _m([[6 + 3j, 6 + 9j], [9, 7 + 1j]]), (15.2607, 16.6345)),
    ("hd-4", _m([[2, 2 + 10j], [4 + 5j, 7 + 2j]]), (9.13681, 12.0998)),
    ("hd-5", _m([[8 + 9j, 6 + 4j], [3 + 1j, 8]]), (12.7434, 14.8809)),
)

# (label, matrix, (radius, implicit_bound, abs_sum_half))
_UPPER_A_ROWS = (
    ("ub-a1", _m([[2, 1], [2, 9]]), (9.30789, 9.3146, 9.31493)),
    ("ub-a2", _m([[5, 7], [0, 6]]), (9.03553, 9.36738, 9.502)),
)
_UPPER_B_ROWS = (
    ("ub-b1", _m([[0, 0], [9, 10]]), (11.7268, 12.1437, 11.7268)),
    ("ub-b2", _m([[0, 2], [6, 0]]), (4.0, 4.23607, 4.0)),
)

# (label, matrix, (aluthge_bound_1, aluthge_bound_2, abs_sum_half))
_ALUTHGE_ROWS = (
    ("al-1", _m([[1, -2], [2, -3]]), (3.11788, 3.06525, 3.1305)),
    ("al-2", _m([[10, 10], [5, 0]]), (14.0272, 14.0287, 14.0139)),
)

# (label, matrix, (aluthge_bound_1, aluthge_bound_2, norm_radius_mean))
_ALUTHGE_MEAN_ROWS = (
    ("am-1", _m([[6, 7], [10, 7]]), (15.0159, 15.0164, 15.1001)),
)


def reproduce_tables(cfg: SweepConfig | None = None) -> list[GoldenTable]:
    tables = []

    cols = ("half_diff_re_radius", "radius")
    rows = []
    for label, T, ref in HALF_DIFF_ROWS:
        computed = {
            "half_diff_re_radius": numerical_radius(_half_diff_matrices(T)["plus-re"], cfg).omega,
            "radius": numerical_radius(T, cfg).omega,
        }
        rows.append(TableRow(label, T, computed, dict(zip(cols, ref))))
    tables.append(GoldenTable("half-diff-vs-radius", cols, tuple(rows)))

    cols = ("radius", "implicit_bound", "abs_sum_half")
    for name, data in (("radius-upper-bounds-a", _UPPER_A_ROWS),
                       ("radius-upper-bounds-b", _UPPER_B_ROWS)):
        rows = []
        for label, T, ref in data:
            implicit, half_sum = radius_upper_reports(T, cfg)
            computed = {
                "radius": implicit.lhs,
                "implicit_bound": implicit.rhs,
                "abs_sum_half": half_sum.rhs,
            }
            rows.append(TableRow(label, T, computed, dict(zip(cols, ref))))
        tables.append(GoldenTable(name, cols, tuple(rows)))

    cols = ("aluthge_bound_1", "aluthge_bound_2", "abs_sum_half")
    rows = []
    for label, T, ref in _ALUTHGE_ROWS:
        b1, b2, _mean = aluthge_bound_reports(T, cfg)
        absT = matrix_abs(T)
        absTs = matrix_abs(T.conj().T)
        computed = {
            "aluthge_bound_1": b1.rhs,
            "aluthge_bound_2": b2.rhs,
            "abs_sum_half": spectral_norm(absT + absTs) / 2.0,
        }
        rows.append(TableRow(label, T, computed, dict(zip(cols, ref))))
    tables.append(GoldenTable("aluthge-bounds", cols, tuple(rows)))

    cols = ("aluthge_bound_1", "aluthge_bound_2", "norm_radius_mean")
    rows = []
    for label, T, ref in _ALUTHGE_MEAN_ROWS:
        b1, b2, _mean = aluthge_bound_reports(T, cfg)
        computed = {
            "aluthge_bound_1": b1.rhs,
            "aluthge_bound_2": b2.rhs,
            "norm_radius_mean": (spectral_norm(T) + numerical_radius(T, cfg).omega) / 2.0,
        }
        rows.append(TableRow(label, T, computed, dict(zip(cols, ref))))
    tables.append(GoldenTable("aluthge-vs-mean", cols, tuple(rows)))

    return tables
