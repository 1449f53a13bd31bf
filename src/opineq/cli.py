"""Command-line front end.

Exit codes: 0 success, 1 violation found (a failed bound, a mismatched
golden table, or a conjecture counterexample), 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .conjecture import conjecture_search, half_diff_slack
from .ensembles import KINDS, EnsembleSpec, trial_rng
from .errors import OpineqError
from .fuzz import MATRIX_SUITE_NAMES, SUITE_NAMES, SUITES, run_suites
from .inequalities import block_positivity
from .matio import complex_to_str, dumps_matrix, load_matrix
from .radius import SweepConfig, numerical_radius, radius_memo
from .reporting import render_table, reports_json, reports_table
from .tables import HALF_DIFF_ROWS, TABLE_TOL, reproduce_tables


def _sweep_config(args) -> SweepConfig:
    return SweepConfig() if args.grid is None else SweepConfig(grid_points=args.grid)


def _suite_list(text: str) -> list[str]:
    """Parse a comma-separated --suite value; naming no suite is an error."""
    suites = [s.strip() for s in text.split(",") if s.strip()]
    if not suites:
        raise argparse.ArgumentTypeError("no suite named")
    return suites


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_radius(args) -> int:
    T = load_matrix(args.matrix)
    result = numerical_radius(T, _sweep_config(args))
    rows = [("omega", result.omega), ("theta_star", result.theta_star),
            ("certified", result.certified), ("margin", result.margin)]
    rows += [
        (f"witness_{k}", complex_to_str(z)) for k, z in enumerate(result.witness)
    ]
    _emit(render_table(("quantity", "value"), rows, args.format), args.out)
    return 0


def cmd_bounds(args) -> int:
    T = load_matrix(args.matrix)
    cfg = _sweep_config(args)
    for s in args.suite:
        if s not in MATRIX_SUITE_NAMES:
            raise OpineqError(
                f"suite {s!r} is not available here; choose from {MATRIX_SUITE_NAMES}"
                " (block-input suites run under `fuzz`)"
            )
    reports = []
    with radius_memo():
        for s in args.suite:
            # every suite that samples vectors draws them from stream (seed, 0)
            reports += SUITES[s].on_matrix(T, trial_rng(args.seed, 0), cfg)
    if args.format == "json":
        _emit(reports_json(reports) + "\n", args.out)
    else:
        _emit(reports_table(reports, args.format), args.out)
    return 0 if all(r.holds for r in reports) else 1


def cmd_tables(args) -> int:
    tables = reproduce_tables(_sweep_config(args))
    ext = "csv" if args.format == "csv" else "md"
    all_ok = all(r.ok() for table in tables for r in table.rows)
    for table in tables:
        value_columns = [name for c in table.columns for name in (c, f"{c}_ref")]
        columns = ["row", *value_columns, "max_error", "ok"]
        rows = []
        for r in table.rows:
            row = [r.label]
            for c in table.columns:
                row += [r.computed[c], r.reference[c]]
            row += [r.max_error, r.ok()]
            rows.append(row)
        text = render_table(columns, rows, args.format)
        if args.out:
            path = Path(args.out)
            path.mkdir(parents=True, exist_ok=True)
            (path / f"{table.name}.{ext}").write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(f"# {table.name}\n{text}\n")
    sys.stdout.write(
        f"tables: {'all rows match' if all_ok else 'MISMATCH'} (tolerance {TABLE_TOL:g})\n"
    )
    return 0 if all_ok else 1


def cmd_positivity(args) -> int:
    A = load_matrix(args.A)
    B = load_matrix(args.B)
    C = load_matrix(args.C)
    verdict = block_positivity(A, B, C, samples=args.samples, seed=args.seed)
    rows = [
        ("is_psd", verdict.is_psd),
        ("min_eig", verdict.min_eig),
        ("schur_residual", verdict.schur_residual),
        ("condition_ii_max_ratio", verdict.condition_ii_max_ratio),
        ("sampled_pairs", verdict.sampled_pairs),
    ]
    _emit(render_table(("quantity", "value"), rows, args.format), args.out)
    return 0 if verdict.consistent else 1


def cmd_fuzz(args) -> int:
    spec = EnsembleSpec(
        kind=args.kind,
        dim=args.dim,
        count=args.count,
        seed=args.seed,
        int_range=tuple(args.int_range),
    )
    summaries = run_suites(args.suite, spec, _sweep_config(args))
    columns = ("suite", "trials", "reports", "violations", "hypothesis_unmet",
               "worst_slack", "worst_name")
    rows = [
        (s.suite, s.trials, s.reports, s.violations, s.hypothesis_unmet,
         s.worst_slack, s.worst_name or "")
        for s in summaries
    ]
    _emit(render_table(columns, rows, args.format), args.out)
    return 0 if all(s.passed for s in summaries) else 1


def cmd_conjecture(args) -> int:
    spec = EnsembleSpec(
        kind=args.kind, dim=args.dim, count=args.count, seed=args.seed
    )
    cfg = SweepConfig(grid_points=16 if args.grid is None else args.grid)
    result = conjecture_search(spec, ascend_iters=args.ascend_iters, cfg=cfg)
    rows = [
        ("min_slack", result.min_slack),
        ("trials", result.trials),
        ("violated", result.violated),
        ("certified", result.certified),
    ]
    # Reference slacks on the golden half-diff table rows, as a calibration
    # check that the searched quantity is computed correctly.
    for label, T, (half_diff_ref, radius_ref) in HALF_DIFF_ROWS:
        rows.append((f"golden_slack_{label}", half_diff_slack(T, cfg)))
        rows.append((f"golden_slack_{label}_ref", radius_ref - half_diff_ref))
    _emit(render_table(("quantity", "value"), rows, args.format), args.out)
    if args.witness_out or result.violated:
        doc = dumps_matrix(result.argmin_matrix)
        if args.witness_out:
            Path(args.witness_out).write_text(doc + "\n", encoding="utf-8")
        else:
            sys.stdout.write(doc + "\n")
    return 1 if result.violated else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opineq",
        description="Numerical radius and operator-inequality verification for complex matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, with_json=False):
        choices = ["csv", "md"] + (["json"] if with_json else [])
        p.add_argument("--format", choices=choices, default="csv")
        p.add_argument("--out", default=None, help="write output to this file")

    p = sub.add_parser("radius", help="numerical radius of a matrix")
    p.add_argument("matrix", help="matrix JSON file")
    p.add_argument("--grid", type=int, default=None, help="sweep grid points")
    add_format(p)
    p.set_defaults(func=cmd_radius)

    p = sub.add_parser("bounds", help="evaluate inequality suites on one matrix")
    p.add_argument("matrix")
    p.add_argument("--suite", required=True, type=_suite_list,
                   help="comma-separated: " + ",".join(MATRIX_SUITE_NAMES))
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--seed", type=int, default=0, help="seed for sampled vectors")
    add_format(p, with_json=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("tables", help="recompute the golden comparison tables")
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--out", default=None, help="directory for one file per table")
    p.add_argument("--format", choices=["csv", "md"], default="csv")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("positivity", help="two-route block positivity check")
    p.add_argument("A")
    p.add_argument("B")
    p.add_argument("C")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    add_format(p)
    p.set_defaults(func=cmd_positivity)

    p = sub.add_parser("fuzz", help="run inequality suites over a random ensemble")
    p.add_argument("--suite", required=True, type=_suite_list,
                   help="comma-separated: " + ",".join(SUITE_NAMES))
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--kind", choices=KINDS, default="integer-complex")
    p.add_argument("--int-range", type=int, nargs=2, default=(0, 10), metavar=("LO", "HI"))
    p.add_argument("--grid", type=int, default=None)
    add_format(p)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("conjecture", help="search for a half-diff counterexample")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--kind", choices=KINDS, default="integer-complex")
    p.add_argument("--ascend-iters", type=int, default=10)
    p.add_argument("--grid", type=int, default=None,
                   help="sweep grid for the campaign (default 16)")
    p.add_argument("--witness-out", default=None,
                   help="write the argmin matrix JSON to this file")
    add_format(p)
    p.set_defaults(func=cmd_conjecture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OpineqError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
