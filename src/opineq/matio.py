"""JSON wire format for dense complex matrices.

Layout: {"rows": n, "cols": m, "entries": [[entry, ...], ...]} with one
inner list per row.  An entry is either a [re, im] pair of decimal
numbers, a bare real number, or a string "a+bi" / "a-bi" with integer or
decimal parts.  parse-format-parse is idempotent (bit-exact text
round-trip is not promised).
"""

from __future__ import annotations

import json

import numpy as np

from .errors import MatrixFormatError
from .linalg import as_matrix


def complex_to_str(z: complex) -> str:
    re, im = float(np.real(z)), float(np.imag(z))
    sign = "+" if im >= 0 else "-"
    return f"{re:.12g}{sign}{abs(im):.12g}i"


def _is_number(x) -> bool:
    """A JSON number: bool is an int subclass, but true/false are no numbers."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _parse_entry(e) -> complex:
    if _is_number(e):
        return complex(e, 0.0)
    if isinstance(e, str):
        s = e.strip().replace(" ", "").replace("i", "j")
        try:
            return complex(s)
        except ValueError as exc:
            raise MatrixFormatError(f"cannot parse complex entry {e!r}") from exc
    if isinstance(e, (list, tuple)) and len(e) == 2:
        re, im = e
        if _is_number(re) and _is_number(im):
            return complex(re, im)
    raise MatrixFormatError(f"entry {e!r} is not [re, im], a number, or an a+bi string")


def matrix_from_dict(d) -> np.ndarray:
    if not isinstance(d, dict):
        raise MatrixFormatError("matrix document must be a JSON object")
    try:
        rows, cols, entries = d["rows"], d["cols"], d["entries"]
    except KeyError as exc:
        raise MatrixFormatError(f"missing key {exc.args[0]!r}") from exc
    if not (type(rows) is int and type(cols) is int) or rows < 1 or cols < 1:  # a bool is no size
        raise MatrixFormatError("rows/cols must be positive integers")
    if not isinstance(entries, list) or len(entries) != rows:
        raise MatrixFormatError(f"expected {rows} entry rows")
    for i, row in enumerate(entries):  # every row before any allocation: cols may be huge
        if not isinstance(row, list) or len(row) != cols:
            raise MatrixFormatError(f"row {i} must hold {cols} entries")
    out = np.array([[_parse_entry(e) for e in row] for row in entries], dtype=np.complex128)
    if not np.isfinite(out).all():
        raise MatrixFormatError("matrix entries must be finite")
    return out


def matrix_to_dict(T) -> dict:
    T = as_matrix(T)
    rows, cols = T.shape
    return {
        "rows": int(rows),
        "cols": int(cols),
        "entries": [
            [[float(T[i, j].real), float(T[i, j].imag)] for j in range(cols)]
            for i in range(rows)
        ],
    }


def loads_matrix(text: str) -> np.ndarray:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"invalid JSON: {exc}") from exc
    return matrix_from_dict(doc)


def dumps_matrix(T) -> str:
    return json.dumps(matrix_to_dict(T))


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_matrix(fh.read())


def save_matrix(T, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_matrix(T))
        fh.write("\n")
