"""Command-line front end.

Exit codes: 0 success, 1 violation found (a failed bound, a mismatched
golden table, or a conjecture counterexample), 2 input error, 141 stdout
closed by its reader (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import os
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

# `radius` starts from 720 grid points, not radius.DEFAULT_SWEEP's 16: the benchmark's
# radius-large workload checks each query with an ~80 ms Rayleigh ascent, and faster
# grid-16 queries would queue more checking than its DEADLINE_S allows (ROADMAP 1, 7).
RADIUS_SWEEP = SweepConfig(720)


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


def _emit_quantities(rows, args) -> None:
    _emit(render_table(("quantity", "value"), rows, args.format), args.out)


def _ensemble(args) -> EnsembleSpec:
    return EnsembleSpec(kind=args.kind, dim=args.dim, count=args.count, seed=args.seed)


def cmd_radius(args) -> int:
    result = numerical_radius(load_matrix(args.matrix), RADIUS_SWEEP)
    rows = [(q, getattr(result, q)) for q in ("omega", "theta_star", "certified", "margin")]
    rows += [(f"witness_{k}", complex_to_str(z)) for k, z in enumerate(result.witness)]
    _emit_quantities(rows, args)
    return 0


def cmd_bounds(args) -> int:
    T = load_matrix(args.matrix)
    unknown = [s for s in args.suite if s not in MATRIX_SUITE_NAMES]
    if unknown:
        raise OpineqError(f"suite {unknown[0]!r} is not available here; choose from "
                          f"{MATRIX_SUITE_NAMES} (block-input suites run under `fuzz`)")
    with radius_memo():
        # every suite that samples vectors draws them from stream (seed, 0)
        reports = [r for s in args.suite
                   for r in SUITES[s].on_matrix(T, trial_rng(args.seed, 0))]
    if args.format == "json":
        _emit(reports_json(reports) + "\n", args.out)
    else:
        _emit(reports_table(reports, args.format), args.out)
    return 0 if all(r.holds for r in reports) else 1


def cmd_tables(args) -> int:
    tables = reproduce_tables()
    all_ok = all(r.ok() for table in tables for r in table.rows)
    for table in tables:
        columns = ["row", *(n for c in table.columns for n in (c, f"{c}_ref")), "max_error", "ok"]
        rows = [[r.label, *(v for c in table.columns for v in (r.computed[c], r.reference[c])),
                 r.max_error, r.ok()] for r in table.rows]
        text = render_table(columns, rows, args.format)
        if args.out:
            Path(args.out).mkdir(parents=True, exist_ok=True)
            Path(args.out, f"{table.name}.{args.format}").write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(f"# {table.name}\n{text}\n")
    verdict = "all rows match" if all_ok else "MISMATCH"
    sys.stdout.write(f"tables: {verdict} (tolerance {TABLE_TOL:g})\n")
    return 0 if all_ok else 1


def cmd_positivity(args) -> int:
    A, B, C = (load_matrix(path) for path in (args.A, args.B, args.C))
    verdict = block_positivity(A, B, C, seed=args.seed)
    names = ("is_psd", "min_eig", "schur_residual", "condition_ii_max_ratio", "sampled_pairs")
    _emit_quantities([(q, getattr(verdict, q)) for q in names], args)
    return 0 if verdict.consistent else 1


def cmd_fuzz(args) -> int:
    summaries = run_suites(args.suite, _ensemble(args))
    columns = ("suite", "trials", "reports", "violations", "hypothesis_unmet", "worst_slack")
    rows = [(*(getattr(s, c) for c in columns), s.worst_name or "") for s in summaries]
    _emit(render_table((*columns, "worst_name"), rows, args.format), args.out)
    return 0 if all(s.passed for s in summaries) else 1


def cmd_conjecture(args) -> int:
    result = conjecture_search(_ensemble(args), ascend_iters=args.ascend_iters)
    rows = [(q, getattr(result, q)) for q in ("min_slack", "trials", "violated", "certified")]
    # Reference slacks on the golden half-diff table rows, as a calibration
    # check that the searched quantity is computed correctly.
    for label, T, (half_diff_ref, radius_ref) in HALF_DIFF_ROWS:
        rows += [(f"golden_slack_{label}", half_diff_slack(T)),
                 (f"golden_slack_{label}_ref", radius_ref - half_diff_ref)]
    _emit_quantities(rows, args)
    if args.witness_out or result.violated:
        _emit(dumps_matrix(result.argmin_matrix) + "\n", args.witness_out)
    return 1 if result.violated else 0


def _add_common(p, seed=None, formats=("csv", "md"), out_help="write output to this file") -> None:
    """--seed (if seed is given), --format and --out."""
    if seed is not None:
        p.add_argument("--seed", type=int, default=seed, help="seed for sampled vectors")
    p.add_argument("--format", choices=formats, default="csv")
    p.add_argument("--out", help=out_help)


def _add_ensemble(p) -> None:
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--kind", choices=KINDS, default="integer-complex")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="opineq", description=(
        "Numerical radius and operator-inequality verification for complex matrices"))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("radius", help="numerical radius of a matrix")
    p.add_argument("matrix", help="matrix JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_radius)

    p = sub.add_parser("bounds", help="evaluate inequality suites on one matrix")
    p.add_argument("matrix")
    p.add_argument("--suite", required=True, type=_suite_list,
                   help="comma-separated: " + ",".join(MATRIX_SUITE_NAMES))
    _add_common(p, seed=0, formats=("csv", "md", "json"))
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("tables", help="recompute the golden comparison tables")
    _add_common(p, out_help="directory for one file per table")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("positivity", help="block positivity by three routes")
    for name in ("A", "B", "C"):
        p.add_argument(name)
    _add_common(p, seed=0)
    p.set_defaults(func=cmd_positivity)

    p = sub.add_parser("fuzz", help="run inequality suites over a random ensemble")
    p.add_argument("--suite", required=True, type=_suite_list,
                   help="comma-separated: " + ",".join(SUITE_NAMES))
    _add_ensemble(p)
    _add_common(p)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("conjecture", help="search for a half-diff counterexample")
    _add_ensemble(p)
    p.add_argument("--ascend-iters", type=int, default=10)
    p.add_argument("--witness-out", help="write the argmin matrix JSON to this file")
    _add_common(p)
    p.set_defaults(func=cmd_conjecture)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter shutdown
        return code
    except BrokenPipeError:  # the reader left; shutdown flushes into devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (OpineqError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
