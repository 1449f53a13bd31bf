import time

from opineq import TABLE_TOL, reproduce_tables


def test_all_golden_rows_match():
    t0 = time.perf_counter()
    tables = reproduce_tables()
    elapsed = time.perf_counter() - t0
    names = [t.name for t in tables]
    assert names == [
        "half-diff-vs-radius",
        "radius-upper-bounds-a",
        "radius-upper-bounds-b",
        "aluthge-bounds",
        "aluthge-vs-mean",
    ]
    assert sum(len(t.rows) for t in tables) == 12
    for table in tables:
        for row in table.rows:
            assert row.ok(), f"{table.name}/{row.label}: err {row.max_error:.2e}"
    assert elapsed < 10.0


def test_row_error_is_reported_not_thrown():
    tables = reproduce_tables()
    row = tables[0].rows[0]
    assert 0 <= row.max_error < TABLE_TOL
    # a deliberately wrong reference flags the row without raising
    bad = type(row)(row.label, row.matrix, row.computed, {"radius": 0.0})
    assert not bad.ok()
