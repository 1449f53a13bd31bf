import json

import numpy as np
import pytest

from opineq import MatrixFormatError, dumps_matrix, load_matrix, loads_matrix, save_matrix
from opineq.matio import complex_to_str, matrix_from_dict, matrix_to_dict


def test_roundtrip_pairs():
    T = np.array([[1.5 + 2j, -3.25], [0, 4 - 0.5j]])
    doc = matrix_to_dict(T)
    assert doc["rows"] == 2 and doc["cols"] == 2
    np.testing.assert_array_equal(matrix_from_dict(doc), T)


def test_parse_format_parse_idempotent():
    T = np.array([[0.1 + 0.2j, 1e-17], [3, -4j]])
    once = dumps_matrix(loads_matrix(dumps_matrix(T)))
    twice = dumps_matrix(loads_matrix(once))
    assert once == twice


def test_string_entries():
    doc = {
        "rows": 2,
        "cols": 2,
        "entries": [["5+7i", "9+6i"], ["0+5i", "10-3i"]],
    }
    T = matrix_from_dict(doc)
    np.testing.assert_array_equal(T, np.array([[5 + 7j, 9 + 6j], [5j, 10 - 3j]]))


def test_bare_number_and_decimal_string_entries():
    doc = {"rows": 1, "cols": 3, "entries": [[3, "1.5-2.25i", [0, 1]]]}
    T = matrix_from_dict(doc)
    np.testing.assert_array_equal(T, np.array([[3.0, 1.5 - 2.25j, 1j]]))


def test_file_roundtrip(tmp_path):
    T = np.array([[1 + 1j]])
    path = tmp_path / "m.json"
    save_matrix(T, path)
    np.testing.assert_array_equal(load_matrix(path), T)


def test_errors():
    with pytest.raises(MatrixFormatError):
        loads_matrix("not json")
    with pytest.raises(MatrixFormatError):
        matrix_from_dict({"rows": 2, "cols": 2, "entries": [[1, 2]]})
    with pytest.raises(MatrixFormatError):
        matrix_from_dict({"rows": 1, "cols": 1, "entries": [["5+?i"]]})
    with pytest.raises(MatrixFormatError):
        matrix_from_dict({"rows": 1, "cols": 1})
    with pytest.raises(MatrixFormatError):
        matrix_from_dict({"rows": 1, "cols": 1, "entries": [[float("nan")]]})


def test_json_booleans_are_rejected():
    # bool is an int subclass: true was a size of 1 and [false, true] the entry 1j
    for rows, cols in ((True, True), (True, 1), (1, True), (False, 1)):
        with pytest.raises(MatrixFormatError):
            matrix_from_dict({"rows": rows, "cols": cols, "entries": [[1]]})
    for entry in (True, False, [False, True], [1, True], [True, 0.5]):
        with pytest.raises(MatrixFormatError):
            matrix_from_dict({"rows": 1, "cols": 1, "entries": [[entry]]})
    with pytest.raises(MatrixFormatError):
        loads_matrix('{"rows": true, "cols": true, "entries": [[true]]}')


def test_complex_to_str():
    assert complex_to_str(5 + 7j) == "5+7i"
    assert complex_to_str(10 - 3j) == "10-3i"
    assert complex_to_str(0.5) == "0.5+0i"
    assert complex_to_str(0.1234567890123 - 1e-7j) == "0.123456789012-1e-07i"  # %.12g, as reporting


def test_json_is_plain_lists():
    # wire entries are [[re, im], ...] rows of pairs
    doc = json.loads(dumps_matrix(np.array([[1j]])))
    assert doc["entries"] == [[[0.0, 1.0]]]
