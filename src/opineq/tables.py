"""Golden comparison tables.

Five small tables of 2x2 matrices with reference values that were
computed independently with a computer-algebra system (6 significant
digits).  ``reproduce_tables`` reads each bound column by name off the
report in ``inequalities`` that defines it, and each radius column off
``numerical_radius``; agreement within TABLE_TOL = 5e-3 absolute guards
against both transcription and solver regressions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .inequalities import (
    BoundReport,
    _half_diff_plus_re,
    aluthge_bound_reports,
    beta_chain_reports,
    radius_upper_reports,
)
from .radius import numerical_radius

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

    def ok(self) -> bool:
        return self.max_error <= TABLE_TOL


@dataclass(frozen=True)
class GoldenTable:
    name: str
    columns: tuple[str, ...]
    rows: tuple[TableRow, ...]


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
_MEAN_ROWS = (
    ("am-1", _m([[6, 7], [10, 7]]), (15.0159, 15.0164, 15.1001)),
)


def _named(report_fn, T) -> dict[str, BoundReport]:
    return {r.name: r for r in report_fn(T)}


def _half_diff_columns(T):
    return numerical_radius(_half_diff_plus_re(T[None])[0]).omega, numerical_radius(T).omega


def _upper_columns(T):
    up = _named(radius_upper_reports, T)
    return up["implicit-radius-bound"].lhs, up["implicit-radius-bound"].rhs, up["abs-sum-half-bound"].rhs


def _aluthge_columns(T):
    al, up = _named(aluthge_bound_reports, T), _named(radius_upper_reports, T)
    return al["aluthge-bound-1"].rhs, al["aluthge-bound-2"].rhs, up["abs-sum-half-bound"].rhs


def _aluthge_mean_columns(T):
    al, beta = _named(aluthge_bound_reports, T), _named(beta_chain_reports, T)
    return al["aluthge-bound-1"].rhs, al["aluthge-bound-2"].rhs, beta["beta-chain-beta1-le-beta2"].rhs


_UPPER_COLUMNS = ("radius", "implicit_bound", "abs_sum_half")
_ALUTHGE_COLUMNS = ("aluthge_bound_1", "aluthge_bound_2")

# (name, columns, rows, column function): the function maps T to the
# row's values in column order.  norm_radius_mean is beta2 = (||T|| + w(T))/2.
_TABLES = (
    ("half-diff-vs-radius", ("half_diff_re_radius", "radius"), HALF_DIFF_ROWS, _half_diff_columns),
    ("radius-upper-bounds-a", _UPPER_COLUMNS, _UPPER_A_ROWS, _upper_columns),
    ("radius-upper-bounds-b", _UPPER_COLUMNS, _UPPER_B_ROWS, _upper_columns),
    ("aluthge-bounds", _ALUTHGE_COLUMNS + ("abs_sum_half",), _ALUTHGE_ROWS, _aluthge_columns),
    ("aluthge-vs-mean", _ALUTHGE_COLUMNS + ("norm_radius_mean",), _MEAN_ROWS, _aluthge_mean_columns),
)


def reproduce_tables() -> list[GoldenTable]:
    return [
        GoldenTable(name, cols, tuple(
            TableRow(label, T, dict(zip(cols, fn(T))), dict(zip(cols, ref)))
            for label, T, ref in rows
        ))
        for name, cols, rows, fn in _TABLES
    ]
