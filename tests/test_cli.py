import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from opineq import cli, conjecture, inequalities, radius
from opineq.cli import main
from opineq.ensembles import KINDS, sample_matrix, trial_rng
from opineq.fuzz import MATRIX_SUITE_NAMES, SUITE_NAMES, SUITES, run_suites
from opineq.matio import load_matrix, loads_matrix, save_matrix
from opineq.tables import reproduce_tables


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
    argv = ["bounds", matrix_file, "--suite", ",".join(MATRIX_SUITE_NAMES)]
    assert main(argv + ["--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)
    T = load_matrix(matrix_file)
    expected = []
    for name in MATRIX_SUITE_NAMES:
        expected += SUITES[name].on_matrix(T)
    assert got == [r.to_json_dict() for r in expected]


def test_bounds_computes_each_radius_once(tmp_path, capsys, monkeypatch, kernel_calls):
    # the matrix and suites of the benchmark's recorder self-test
    path = tmp_path / "t.json"
    save_matrix(sample_matrix(trial_rng(2024, 0), "gaussian-complex", 6), path)
    api = []
    radius_call = inequalities.numerical_radius

    def counting(T):
        api.append(1)
        return radius_call(T)

    monkeypatch.setattr(inequalities, "numerical_radius", counting)
    assert main(["bounds", str(path), "--suite", "half-diff,implicit,beta-chain,aluthge"]) in (0, 1)
    # 15 reads (6 of them repeats); the matrices a report needs are solved as one stack per shape:
    # half-diff's four, implicit's w(T), then aluthge's 12x12 corner block and its three 6x6 radii
    assert (len(api), kernel_calls) == (15, [4, 1, 1, 3])
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


def test_conjecture_scores_every_slack_at_the_campaign_grid(monkeypatch, capsys):
    # The golden calibration rows and the descent both call half_diff_slack,
    # and none passes a grid: every call runs at the campaign's DEFAULT_SWEEP.
    grids = []
    slack = conjecture.half_diff_slack

    def recording(T, cfg=None, **kwargs):
        grids.append(cfg)
        return slack(T, cfg, **kwargs)

    monkeypatch.setattr(cli, "half_diff_slack", recording)
    monkeypatch.setattr(conjecture, "half_diff_slack", recording)
    assert main(["conjecture", "--dim", "2", "--count", "6", "--ascend-iters", "1"]) == 0
    capsys.readouterr()
    golden = len(cli.HALF_DIFF_ROWS)
    assert len(grids) == 5 * 50 + golden
    assert set(grids) == {None}


@pytest.mark.parametrize("command", ["radius", "bounds", "tables", "fuzz", "conjecture"])
def test_subcommands_sweep_only_their_one_grid(monkeypatch, capsys, matrix_file, kernel_grids, command):
    # A grid of 24 for the library default shows any call that does not read it.
    monkeypatch.setattr(radius, "DEFAULT_SWEEP", radius.SweepConfig(24))
    argv = {
        "radius": [matrix_file],
        "bounds": [matrix_file, "--suite", ",".join(MATRIX_SUITE_NAMES)],
        "tables": [],
        "fuzz": ["--suite", "half-diff,block-pair,implicit,beta-chain,aluthge", "--dim", "2",
                 "--count", "3"],
        "conjecture": ["--dim", "2", "--count", "20", "--ascend-iters", "1"],
    }[command]
    assert main([command, *argv]) == 0
    capsys.readouterr()
    expected = cli.RADIUS_SWEEP if command == "radius" else radius.DEFAULT_SWEEP
    assert kernel_grids and set(kernel_grids) == {expected.grid_points}


def test_fuzz_gram_kind_compression_tests_square_corners(capsys):
    # even trials draw the documented 2*dim gram block, so dim x dim corners
    # meet the range hypothesis; odd trials are rank-deficient by design
    assert main(["fuzz", "--suite", "compression", "--dim", "3",
                 "--kind", "gaussian-complex", "--count", "20"]) == 0
    row = capsys.readouterr().out.strip().split("\r\n")[1].split(",")
    assert row[:5] == ["compression", "20", "10", "0", "10"]


def test_closed_stdout_is_not_an_input_error(matrix_file):
    # The pipe has no reader before the CLI starts, so its first flush fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    try:
        proc = subprocess.run([sys.executable, "-m", "opineq", "radius", matrix_file],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_input_errors(tmp_path, capsys):
    assert main(["radius", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["radius", str(bad)]) == 2
    nonsquare = tmp_path / "rect.json"
    save_matrix(np.ones((2, 3)), nonsquare)
    capsys.readouterr()
    assert main(["radius", str(nonsquare)]) == 2
    # the error names the file's shape, not the kernel's (1, 2, 3) stack
    err = capsys.readouterr().err
    assert "(2, 3)" in err and "(1, 2, 3)" not in err
    assert main(["fuzz", "--suite", "nope", "--dim", "2", "--count", "2"]) == 2
    good = tmp_path / "good.json"
    save_matrix(np.eye(2), good)
    # the angle tolerance and the sweep grid are fixed; --tol and --grid are no options
    for cmd in (["radius", str(good)], ["bounds", str(good), "--suite", "implicit"], ["tables"],
                ["positivity", str(good), str(good), str(good)],
                ["fuzz", "--suite", "implicit", "--dim", "2", "--count", "1"],
                ["conjecture", "--dim", "2", "--count", "1"]):
        assert main([*cmd, "--tol", "1e-11"]) == 2
        assert main([*cmd, "--grid", "16"]) == 2
    # a negative descent count is invalid, not a request for no descent
    assert main(["conjecture", "--dim", "2", "--count", "2", "--ascend-iters", "-1"]) == 2
    # a suite list that names no suite
    assert main(["bounds", str(good), "--suite", ""]) == 2
    assert main(["fuzz", "--suite", " , ", "--dim", "2", "--count", "2"]) == 2
    # no route samples vectors, and the integer range is 0..10: no options either
    assert main(["positivity", str(good), str(good), str(good), "--samples", "5"]) == 2
    assert main(["positivity", str(good), str(good), str(good), "--seed", "5"]) == 2
    assert main(["bounds", str(good), "--suite", "mixed-schwarz", "--seed", "5"]) == 2
    assert main(["fuzz", "--suite", "implicit", "--dim", "2", "--count", "1", "--int-range", "0", "10"]) == 2
    # every suite that needs a PSD block draws its own Gram block from any kind
    assert main(["fuzz", "--suite", "corner", "--dim", "2", "--count", "1", "--kind", "gram-psd-block"]) == 2


def test_bounds_at_extreme_scale(tmp_path, capsys):
    big = tmp_path / "big.json"
    save_matrix(1e160 * np.array([[1, 1], [0, 1]]), big)
    for suite in ("implicit", "beta-chain", "aluthge"):
        assert main(["bounds", str(big), "--suite", suite]) == 0
    # the suite runs on T scaled by an exact power of 4: at its extremal pair
    # both sides are 1, where on T itself they would be about 1e320
    capsys.readouterr()
    assert main(["bounds", str(big), "--suite", "mixed-schwarz", "--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 18
    assert all(r["rhs"] == pytest.approx(1.0, rel=1e-12) for r in reports)
    # subnormal entries: the Hermitian |T| must pass the Hermitian check
    tiny = tmp_path / "tiny.json"
    save_matrix(1e-310 * np.array([[1, 1], [0, 1]]), tiny)
    assert main(["bounds", str(tiny), "--suite", "mixed-schwarz"]) == 0
    assert capsys.readouterr().err == ""


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bounds_near_overflow_names_the_norm_that_leaves_the_float_range(tmp_path, capsys):
    # w(T) = 1e308 is finite, but ||(|T| + |T*|)|| = 2e308 is not; the input file is finite
    path = tmp_path / "huge.json"
    save_matrix(np.diag([1e308, 1e308j]), path)
    for suite in ("half-diff", "implicit", "beta-chain"):
        assert main(["bounds", str(path), "--suite", suite]) == 2
        err = capsys.readouterr().err
        assert "||(|T|+|T*|)|| exceeds the float range" in err and "entries must be finite" not in err
    assert main(["bounds", str(path), "--suite", "aluthge", "--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 3 and all(np.isfinite([r["lhs"], r["rhs"]]).all() for r in reports)


def test_boolean_matrix_json_is_an_input_error(tmp_path, capsys):
    # JSON true/false are no sizes or entries; exit 1 would claim a violation
    path = tmp_path / "bool.json"
    for doc in ({"rows": True, "cols": True, "entries": [[True]]},
                {"rows": 1, "cols": 1, "entries": [[[False, True]]]}):
        path.write_text(json.dumps(doc))
        assert main(["radius", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_matrix_sizes_are_checked_before_allocating(tmp_path, capsys):
    # a short row under a vast `cols` is an input error that names the row
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"rows": 1, "cols": 2**62, "entries": [[1]]}))
    assert main(["radius", str(path)]) == 2
    assert capsys.readouterr().err == f"error: row 0 must hold {2**62} entries\n"


def test_memory_exhaustion_is_an_input_error(matrix_file, capsys, monkeypatch):
    def exhausted(T, cfg=None):
        raise MemoryError("cannot allocate the grid")

    monkeypatch.setattr(cli, "numerical_radius", exhausted)
    assert main(["radius", matrix_file]) == 2
    assert capsys.readouterr().err == "error: cannot allocate the grid\n"


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_readme_synopsis_names_every_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```")[1]
    synopsis = {line.split()[1]: set(re.findall(r"--[a-z-]+", line))
                for line in block.splitlines() if line.startswith("opineq ")}
    declared = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
                for name, p in _subcommands().items()}
    assert synopsis == declared


def test_readme_lists_every_suite_and_kind():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

    def listed(label):
        # the backticked names of the first sentence after the label, asides in parentheses dropped
        sentence = re.split(r"\.\s", readme.split(label, 1)[1], maxsplit=1)[0]
        return tuple(re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", sentence)))

    assert listed("Fuzz suites:") == SUITE_NAMES
    assert listed("Ensemble kinds:") == KINDS


def test_parser_owns_the_defaults():
    sub = _subcommands()
    expected = {
        "radius": {"format": "csv"},
        "bounds": {"format": "csv"},
        "tables": {"format": "csv"},
        "positivity": {"format": "csv"},
        "fuzz": {"seed": 1, "format": "csv", "kind": "integer-complex"},
        "conjecture": {"seed": 1, "format": "csv", "kind": "integer-complex",
                       "ascend_iters": 10},
    }
    assert set(sub) == set(expected)
    for name, defaults in expected.items():
        got = {dest: sub[name].get_default(dest) for dest in defaults}
        assert got == defaults, name


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * (1.0 + abs(b))


# The level-set certificate, not the grid, fixes each radius, so the default
# grid 16 must give every verdict that grid 720 gives: each fine run sets
# radius.DEFAULT_SWEEP to 720 points.
FUZZ_BOUNDS_ARGV = ["fuzz", "--suite", "half-diff,implicit,beta-chain,aluthge,block-pair",
                    "--dim", "6", "--kind", "gaussian-complex", "--count", "12"]


@pytest.mark.parametrize("seed", [1, 11, 9001])
def test_fuzz_grid_16_agrees_with_grid_720(monkeypatch, seed):
    args = cli.build_parser().parse_args([*FUZZ_BOUNDS_ARGV, "--seed", str(seed)])
    coarse = run_suites(args.suite, cli._ensemble(args))
    monkeypatch.setattr(radius, "DEFAULT_SWEEP", radius.SweepConfig(720))
    fine = run_suites(args.suite, cli._ensemble(args))
    counts = ("suite", "trials", "reports", "violations", "hypothesis_unmet", "worst_name")
    for a, b in zip(coarse, fine, strict=True):
        assert [getattr(a, c) for c in counts] == [getattr(b, c) for c in counts]
        assert _close(a.worst_slack, b.worst_slack), (a.suite, a.worst_slack, b.worst_slack)


def test_bounds_and_tables_grid_16_agree_with_grid_720(monkeypatch, tmp_path, capsys):
    path = tmp_path / "t.json"
    save_matrix(sample_matrix(trial_rng(11, 0), "gaussian-complex", 6), path)
    runs, tables = [], []
    for grid in (16, 720):
        monkeypatch.setattr(radius, "DEFAULT_SWEEP", radius.SweepConfig(grid))
        main(["bounds", str(path), "--suite", ",".join(MATRIX_SUITE_NAMES), "--format", "json"])
        runs.append(json.loads(capsys.readouterr().out))
        tables.append(reproduce_tables())
    for a, b in zip(*runs, strict=True):
        assert (a["name"], a["holds"]) == (b["name"], b["holds"])
        assert all(_close(a[q], b[q]) for q in ("lhs", "rhs", "slack")), a["name"]
    for ta, tb in zip(*tables, strict=True):
        for ra, rb in zip(ta.rows, tb.rows, strict=True):
            assert ra.ok() and rb.ok(), ra.label
            assert all(_close(ra.computed[c], rb.computed[c]) for c in ta.columns), ra.label


def test_radius_witness_reproduces_omega(tmp_path, capsys):
    # the printed unit witness must give the printed omega far inside its margin
    path, out = tmp_path / "t.json", tmp_path / "r.csv"
    T = sample_matrix(trial_rng(3, 0), "gaussian-complex", 5)
    save_matrix(T, path)
    assert main(["radius", str(path), "--out", str(out)]) == 0
    rows = dict(line.split(",", 1) for line in out.read_text().splitlines()[1:])
    x = loads_matrix(json.dumps({"rows": 5, "cols": 1, "entries": [
        [rows[f"witness_{k}"]] for k in range(5)]}))[:, 0]
    omega = float(rows["omega"])
    assert abs(np.vdot(x, T @ x)) == pytest.approx(omega, rel=1e-10)
