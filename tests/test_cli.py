import json

import numpy as np
import pytest

from opineq import cli, conjecture, inequalities, radius
from opineq.cli import main
from opineq.ensembles import sample_matrix, trial_rng
from opineq.fuzz import MATRIX_SUITE_NAMES, SUITES
from opineq.matio import load_matrix, save_matrix


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "t.json"
    save_matrix(np.array([[5 + 7j, 9 + 6j], [5j, 10 + 3j]]), path)
    return str(path)


def test_radius_command(matrix_file, capsys):
    assert main(["radius", matrix_file]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\r\n")
    assert lines[0] == "quantity,value"
    values = dict(line.split(",", 1) for line in lines[1:])
    assert float(values["omega"]) == pytest.approx(16.4629, abs=5e-3)
    assert "witness_0" in values
    assert values["certified"] == "true"
    assert 0.0 < float(values["margin"]) <= 1e-8 * float(values["omega"])


def test_radius_deterministic_output(matrix_file, capsys):
    main(["radius", matrix_file])
    first = capsys.readouterr().out
    main(["radius", matrix_file])
    second = capsys.readouterr().out
    assert first == second


def test_radius_markdown(matrix_file, capsys):
    assert main(["radius", matrix_file, "--format", "md"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("| quantity | value |")


def test_bounds_command(matrix_file, capsys):
    assert main(["bounds", matrix_file, "--suite", "half-diff,implicit"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("name,lhs,rhs,slack,holds")
    assert "implicit-radius-bound" in out


def test_bounds_json(matrix_file, capsys):
    assert main(["bounds", matrix_file, "--suite", "implicit", "--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert {r["name"] for r in reports} == {"implicit-radius-bound", "abs-sum-half-bound"}
    for r in reports:
        assert set(r) == {"name", "lhs", "rhs", "slack", "tol", "holds"}


def test_bounds_rejects_block_suite(matrix_file, capsys):
    assert main(["bounds", matrix_file, "--suite", "corner"]) == 2


def test_bounds_runs_the_registry_rules(matrix_file, capsys):
    assert MATRIX_SUITE_NAMES == ("half-diff", "implicit", "beta-chain", "aluthge", "mixed-schwarz")
    argv = ["bounds", matrix_file, "--suite", ",".join(MATRIX_SUITE_NAMES), "--seed", "5"]
    assert main(argv + ["--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)
    T = load_matrix(matrix_file)
    expected = []
    for name in MATRIX_SUITE_NAMES:
        expected += SUITES[name].on_matrix(T, trial_rng(5, 0), None)
    assert got == [r.to_json_dict() for r in expected]


def test_bounds_computes_each_radius_once(tmp_path, capsys, monkeypatch, kernel_calls):
    # the matrix and suites of the benchmark's recorder self-test
    path = tmp_path / "t.json"
    save_matrix(sample_matrix(trial_rng(2024, 0), "gaussian-complex", 6), path)
    api = []
    radius_call = inequalities.numerical_radius

    def counting(T, cfg=None):
        api.append(1)
        return radius_call(T, cfg)

    monkeypatch.setattr(inequalities, "numerical_radius", counting)
    assert main(["bounds", str(path), "--suite", "half-diff,implicit,beta-chain,aluthge"]) in (0, 1)
    assert (len(api), len(kernel_calls)) == (15, 9)
    assert radius._MEMO.get() is None


def test_tables_command(tmp_path, capsys):
    out_dir = tmp_path / "tables"
    assert main(["tables", "--out", str(out_dir), "--format", "csv"]) == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == [
        "aluthge-bounds.csv",
        "aluthge-vs-mean.csv",
        "half-diff-vs-radius.csv",
        "radius-upper-bounds-a.csv",
        "radius-upper-bounds-b.csv",
    ]
    text = (out_dir / "half-diff-vs-radius.csv").read_text()
    assert text.splitlines()[0].startswith("row,half_diff_re_radius,half_diff_re_radius_ref")
    assert "false" not in text


def test_positivity_command(tmp_path, capsys):
    rng = np.random.default_rng(0)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    T = g.conj().T @ g
    pa, pb, pc = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    save_matrix(T[:2, :2], pa)
    save_matrix(T[2:, 2:], pb)
    save_matrix(T[2:, :2], pc)
    assert main(["positivity", str(pa), str(pb), str(pc)]) == 0
    out = capsys.readouterr().out
    assert "is_psd,true" in out


def test_fuzz_command(capsys):
    code = main([
        "fuzz", "--suite", "implicit,corner", "--dim", "2", "--count", "10",
        "--seed", "1", "--kind", "integer-complex",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("suite,trials,reports,violations")


def test_fuzz_detects_beta_chain_break(capsys):
    # at n = 3 the beta-chain middle link genuinely fails for some draws,
    # and the harness must exit nonzero when it happens
    code = main([
        "fuzz", "--suite", "beta-chain", "--dim", "3", "--count", "60",
        "--seed", "99", "--kind", "integer-complex",
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "beta-chain-beta1-le-beta2" in out


def test_conjecture_command(capsys):
    code = main([
        "conjecture", "--dim", "2", "--count", "10", "--seed", "3",
        "--ascend-iters", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "min_slack," in out
    assert "golden_slack_hd-1," in out


@pytest.mark.parametrize("argv, grid", [([], 16), (["--grid", "24"], 24)])
def test_conjecture_scores_every_slack_at_the_campaign_grid(monkeypatch, capsys, argv, grid):
    # The golden calibration rows and the descent both call half_diff_slack;
    # every call must run at the grid the campaign itself uses.
    grids = []
    slack = conjecture.half_diff_slack

    def recording(T, cfg=None):
        grids.append(None if cfg is None else cfg.grid_points)
        return slack(T, cfg)

    monkeypatch.setattr(cli, "half_diff_slack", recording)
    monkeypatch.setattr(conjecture, "half_diff_slack", recording)
    assert main(["conjecture", "--dim", "2", "--count", "6", "--ascend-iters", "1", *argv]) == 0
    capsys.readouterr()
    golden = len(cli.HALF_DIFF_ROWS)
    assert len(grids) == 5 * 50 + golden
    assert set(grids) == {grid}


def test_conjecture_runs_on_the_coarse_certified_grid(monkeypatch, capsys):
    grids = []
    search = cli.conjecture_search
    monkeypatch.setattr(cli, "conjecture_search",
                        lambda spec, **kw: grids.append(kw["cfg"].grid_points) or search(spec, **kw))
    assert main(["conjecture", "--dim", "2", "--count", "20"]) == 0
    rows = dict(line.split(",", 1) for line in capsys.readouterr().out.strip().split("\r\n")[1:])
    assert grids == [16]
    assert rows["certified"] == "true" and rows["violated"] == "false"
    assert main(["conjecture", "--help"]) == 0
    assert "(default 16)" in " ".join(capsys.readouterr().out.split())


def test_fuzz_gram_kind_majorization_runs(capsys):
    # the gram kind yields a 2*dim matrix; the contraction must match it
    assert main(["fuzz", "--suite", "majorization", "--dim", "3",
                 "--kind", "gram-psd-block", "--count", "4"]) == 0
    row = capsys.readouterr().out.strip().split("\r\n")[1].split(",")
    assert row[:5] == ["majorization", "4", "8", "0", "0"]


def test_fuzz_gram_kind_compression_tests_square_corners(capsys):
    # even trials draw the documented 2*dim gram block, so dim x dim corners
    # meet the range hypothesis; odd trials are rank-deficient by design
    assert main(["fuzz", "--suite", "compression", "--dim", "3",
                 "--kind", "gram-psd-block", "--count", "20"]) == 0
    row = capsys.readouterr().out.strip().split("\r\n")[1].split(",")
    assert row[:5] == ["compression", "20", "10", "0", "10"]


def test_input_errors(tmp_path, capsys):
    assert main(["radius", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["radius", str(bad)]) == 2
    nonsquare = tmp_path / "rect.json"
    save_matrix(np.ones((1, 2)), nonsquare)
    assert main(["radius", str(nonsquare)]) == 2
    assert main(["fuzz", "--suite", "nope", "--dim", "2", "--count", "2"]) == 2
    good = tmp_path / "good.json"
    save_matrix(np.eye(2), good)
    # a zero grid is invalid, not a request for the default
    assert main(["radius", str(good), "--grid", "0"]) == 2
    # the angle tolerance is fixed; --tol is no option
    for cmd in (["radius", str(good)], ["bounds", str(good), "--suite", "implicit"], ["tables"],
                ["fuzz", "--suite", "implicit", "--dim", "2", "--count", "1"]):
        assert main([*cmd, "--tol", "1e-11"]) == 2
    assert main(["conjecture", "--dim", "2", "--count", "1", "--grid", "0"]) == 2
    # a negative descent count is invalid, not a request for no descent
    assert main(["conjecture", "--dim", "2", "--count", "2", "--ascend-iters", "-1"]) == 2
    # a suite list that names no suite
    assert main(["bounds", str(good), "--suite", ""]) == 2
    assert main(["fuzz", "--suite", " , ", "--dim", "2", "--count", "2"]) == 2
    # no sampled pairs: block_positivity has no ratio to report
    assert main(["positivity", str(good), str(good), str(good), "--samples", "0"]) == 2


def test_bounds_at_extreme_scale(tmp_path, capsys):
    big = tmp_path / "big.json"
    save_matrix(1e160 * np.array([[1, 1], [0, 1]]), big)
    for suite in ("implicit", "beta-chain", "aluthge"):
        assert main(["bounds", str(big), "--suite", suite]) == 0
    # sides of about 1e320 are no floats: an input error, not a violation
    capsys.readouterr()
    assert main(["bounds", str(big), "--suite", "mixed-schwarz"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_positivity_at_extreme_scale(tmp_path, capsys):
    block = tmp_path / "c.json"
    save_matrix(1e160 * np.eye(2), block)
    assert main(["positivity", str(block), str(block), str(block)]) == 0
    values = dict(line.split(",") for line in capsys.readouterr().out.split()[1:])
    assert float(values["condition_ii_max_ratio"]) == pytest.approx(1.0, rel=1e-12)


def test_bounds_rejects_non_square_matrix(tmp_path, capsys):
    rect = tmp_path / "rect.json"
    save_matrix(np.ones((2, 3)), rect)
    for suite in ("half-diff", "implicit", "beta-chain"):
        assert main(["bounds", str(rect), "--suite", suite]) == 2
        assert "square" in capsys.readouterr().err


def test_boolean_matrix_json_is_an_input_error(tmp_path, capsys):
    # JSON true/false are no sizes or entries; exit 1 would claim a violation
    path = tmp_path / "bool.json"
    for doc in ({"rows": True, "cols": True, "entries": [[True]]},
                {"rows": 1, "cols": 1, "entries": [[[False, True]]]}):
        path.write_text(json.dumps(doc))
        assert main(["radius", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
