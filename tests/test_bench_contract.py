"""The benchmark's recorder self-test, run as a unit test.

``perfbench/spans.py`` pins the span counts of one ``bounds`` run and one
``half_diff_slack`` call; a library change that moves them fails here, not
only in a traced benchmark run.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_recorder_self_test_passes(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    assert spans.self_test(tmp_path) == []
