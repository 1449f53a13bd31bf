"""One workload process of the opineq benchmark.

``run.py`` starts this file in a fresh interpreter with one BLAS thread.
Every operation is one call of the real CLI entry point,
``opineq.cli.main(argv)``, in-process, writing its output to files.

Roles:
  timed   warm up, then run operations for at least ``--seconds`` of CLI time.
  check   hash and check the outputs of every timed operation.
  trace   run a fixed number of operations untraced, run the recorder
          self-test, run the same operations under the span recorder,
          then check and hash and compute the per-layer metrics.

The result is written as JSON to ``<work>/<role>.json``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import sys
import time
from contextlib import contextmanager, nullcontext, redirect_stderr
from io import StringIO
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import opineq  # noqa: E402
from opineq import cli, conjecture, fuzz  # noqa: E402
from opineq.ensembles import sample_matrix, trial_rng  # noqa: E402
from opineq.linalg import spectral_norm  # noqa: E402
from opineq.matio import load_matrix, save_matrix  # noqa: E402
from opineq.radius import SweepConfig, rayleigh_radius  # noqa: E402

import spans  # noqa: E402

CAMPAIGN_COUNT = 1000
# Trials the CLI's descent adds to the scan: conjecture_search's keep=5
# candidates x the CLI's 10 ascend iterations x 50 perturbations.
CAMPAIGN_DESCENT = 5 * 10 * 50
CAMPAIGN_VERIFY_GRID = 1440  # conjecture_search's verify grid at the CLI's default 240
FUZZ_SUITES = ",".join(spans.FUZZ_SUITES)
FUZZ_COUNT = 12
cpu_clock = time.process_time
RADIUS_SIZES = tuple(range(16, 41))


def cli_seed(seed: int, i: int) -> int:
    """Seed handed to the CLI for operation i of a run at benchmark seed ``seed``."""
    return seed * 1000 + i


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class Workload:
    """Defaults: one operation per step, inputs carried in the argv."""

    unit = 1  # operations per indivisible step of a run

    def prepare(self, seed, i, inputs: Path) -> None:
        pass


class Campaign(Workload):
    """`opineq conjecture --dim 3 --kind integer-complex` at the CLI defaults.

    The paper's headline counterexample search: every trial is one
    ``half_diff_slack`` on a 3x3 matrix, two radius calls each.
    """

    name = "campaign-n3"
    nominal_s = 18.0  # seconds per operation on a 2-core x86 box; sizes traced runs

    def argv(self, seed, i, inputs: Path, out: Path) -> list[str]:
        return ["conjecture", "--dim", "3", "--kind", "integer-complex",
                "--count", str(CAMPAIGN_COUNT), "--seed", str(cli_seed(seed, i)),
                "--out", str(out / f"{i}.csv"), "--witness-out", str(out / f"{i}.json")]

    def warmup(self, out: Path) -> list[str]:
        return ["conjecture", "--dim", "3", "--count", "5", "--ascend-iters", "0",
                "--seed", "0", "--out", str(out / "w.csv"), "--witness-out", str(out / "w.json")]

    @contextmanager
    def trial_clock(self, samples: list):
        """Time every half_diff_slack call that conjecture_search makes."""
        original = conjecture.half_diff_slack

        def timed(*args, **kwargs):
            t0 = cpu_clock()
            try:
                return original(*args, **kwargs)
            finally:
                samples.append(cpu_clock() - t0)

        conjecture.half_diff_slack = timed
        try:
            yield
        finally:
            conjecture.half_diff_slack = original

    def recorder(self) -> spans.Recorder:
        return spans.Recorder(opener=spans.SLACK)

    def check(self, seed, i, code, inputs: Path, out: Path, samples: list) -> dict:
        rows = dict(read_csv(out / f"{i}.csv")[1:])
        trials = int(rows["trials"])
        if trials != CAMPAIGN_COUNT + CAMPAIGN_DESCENT:
            return {"problem": f"trials {trials}, expected {CAMPAIGN_COUNT + CAMPAIGN_DESCENT}"}
        violated = rows["violated"] == "true"
        if violated != (code == 1):
            return {"problem": f"violated={violated} but exit code {code}"}
        T = load_matrix(out / f"{i}.json")
        rescored = conjecture.half_diff_slack(T, SweepConfig(grid_points=4 * CAMPAIGN_VERIFY_GRID))
        gap = abs(rescored - float(rows["min_slack"]))
        if not gap <= 1e-6 * (1.0 + spectral_norm(T)):
            return {"problem": f"witness re-scored at grid {4 * CAMPAIGN_VERIFY_GRID} differs by {gap:.3e}"}
        # The calls after the scan and the descent are the verify step, not trials.
        return {"trials": trials, "samples_s": samples[:trials]}


class FuzzBounds(Workload):
    """`opineq fuzz` over five suites on gaussian-complex 6x6 draws at grid 720.

    The single-matrix suites recompute |T|, |T*| and w(T) for the same
    matrix; block-pair runs the radius on 12x12 blocks; beta-chain's middle
    link really fails.  The positivity suite is left out: on some draws
    block_positivity raises NotHermitian on its Schur complement, so the
    operation exits 2 (see README).
    """

    name = "fuzz-bounds"
    nominal_s = 1.9

    def argv(self, seed, i, inputs, out):
        return ["fuzz", "--suite", FUZZ_SUITES, "--dim", "6", "--kind", "gaussian-complex",
                "--count", str(FUZZ_COUNT), "--seed", str(cli_seed(seed, i)),
                "--out", str(out / f"{i}.csv")]

    def warmup(self, out):
        return ["fuzz", "--suite", FUZZ_SUITES, "--dim", "6", "--kind", "gaussian-complex",
                "--count", "1", "--seed", "0", "--out", str(out / "w.csv")]

    @contextmanager
    def trial_clock(self, samples: list):
        """Time every (suite, trial) call that run_suite makes."""
        originals = dict(fuzz.SUITES)

        def timed(fn):
            def run(*args, **kwargs):
                t0 = cpu_clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    samples.append(cpu_clock() - t0)
            return run

        fuzz.SUITES.update({k: timed(fn) for k, fn in originals.items()})
        try:
            yield
        finally:
            fuzz.SUITES.update(originals)

    def recorder(self) -> spans.Recorder:
        # The suites of one ensemble index draw the same matrix, so
        # they share a trial id: repeated work on one matrix shows up.
        return spans.Recorder(opener=spans.SUITE_PREFIX,
                              trial_key=lambda args, kwargs: (args[1].seed, args[2]))

    def check(self, seed, i, code, inputs, out, samples) -> dict:
        rows = read_csv(out / f"{i}.csv")
        header, body = rows[0], rows[1:]
        table = {r[0]: dict(zip(header, r)) for r in body}
        expected = FUZZ_SUITES.split(",")
        if [r[0] for r in body] != expected:
            return {"problem": f"suites {[r[0] for r in body]}, expected {expected}"}
        if any(int(table[s]["trials"]) != FUZZ_COUNT for s in expected):
            return {"problem": "a suite ran the wrong number of trials"}
        dirty = [s for s in expected if s != "beta-chain" and int(table[s]["violations"])]
        if dirty:
            return {"problem": f"violations in {dirty}"}
        any_violation = any(int(table[s]["violations"]) for s in expected)
        if code != (1 if any_violation else 0):
            return {"problem": f"exit code {code} with violations={any_violation}"}
        return {"trials": FUZZ_COUNT * len(expected), "samples_s": samples}


class RadiusLarge(Workload):
    """`opineq radius <matrix.json>` on gaussian-complex matrices, n in 16..40.

    Sizes come in rounds: each round of 25 queries visits n = 16..40 in
    order, so every run sees the same size mix and the same allocation
    sequence; the seed picks the matrices.
    """

    name = "radius-large"
    unit = len(RADIUS_SIZES)
    nominal_s = 1.9  # per round of 25 queries

    def argv(self, seed, i, inputs, out):
        return ["radius", str(inputs / f"{i}.json"), "--out", str(out / f"{i}.csv")]

    def warmup(self, out):
        T = sample_matrix(trial_rng(2**41, 0), "gaussian-complex", RADIUS_SIZES[0])
        save_matrix(T, out / "w.json")
        return ["radius", str(out / "w.json"), "--out", str(out / "w.csv")]

    def prepare(self, seed, i, inputs):
        path = inputs / f"{i}.json"
        if not path.exists():
            n = RADIUS_SIZES[i % self.unit]
            save_matrix(sample_matrix(trial_rng(seed, i), "gaussian-complex", n), path)

    def trial_clock(self, samples: list):
        return nullcontext()  # each query is one trial; run_ops times it

    def recorder(self) -> spans.Recorder:
        return spans.Recorder(opener="cli.main")

    def check(self, seed, i, code, inputs, out, samples) -> dict:
        """ω must be attained and must not fall below the Rayleigh oracle.

        Both the sweep and rayleigh_radius give lower bounds on w(T).  A
        sweep below the oracle missed a peak.  A sweep above it is right
        only if λ_max(Re(exp(iθ*) T)) at the reported θ* equals ω; at
        n >= 16 the 16-start oracle often stalls below w(T), which is
        recorded as a note, not a failure.
        """
        if code != 0:
            return {"problem": f"exit code {code}"}
        rows = dict(read_csv(out / f"{i}.csv")[1:])
        omega, theta = float(rows["omega"]), float(rows["theta_star"])
        T = load_matrix(inputs / f"{i}.json")
        R = np.exp(1j * theta) * T
        attained = float(np.linalg.eigvalsh((R + R.conj().T) / 2.0)[-1])
        if not abs(attained - omega) <= 1e-9 * omega:
            return {"problem": f"omega {omega!r} but lambda_max at theta* is {attained!r}"}
        lower, _ = rayleigh_radius(T, trials=16)
        if not omega >= lower - 1e-6 * omega:
            return {"problem": f"omega {omega!r} below the Rayleigh bound {lower!r}"}
        note = None if omega - lower <= 1e-6 * omega else f"oracle short by {(omega - lower) / omega:.2e}"
        return {"trials": 1, "samples_s": samples, "note": note}


WORKLOADS = {w.name: w for w in (Campaign(), FuzzBounds(), RadiusLarge())}


def call_cli(argv) -> tuple[int | None, str]:
    """Exit code (None if it raised) and what the CLI wrote to stderr."""
    err = StringIO()
    try:
        with redirect_stderr(err):
            return cli.main(argv), err.getvalue()
    except Exception as exc:  # an escaping exception is a failed operation
        return None, f"{err.getvalue()}{type(exc).__name__}: {exc}"


def run_ops(w, seed, inputs, out, count=None, seconds=None, clock=True):
    """Run operations 0..count-1, or, given ``seconds``, whole steps of
    ``w.unit`` operations until ``seconds`` of CLI wall time have passed.  Only the CLI call is timed; inputs are written before
    it.  Trial samples are process CPU seconds: on a shared host, wall
    time adds preemption that no change to the program can move."""
    out.mkdir(parents=True, exist_ok=True)
    ops = []
    elapsed = 0.0

    i = 0
    while (i < count) if count is not None else (elapsed < seconds or i % w.unit):
        w.prepare(seed, i, inputs)
        argv = w.argv(seed, i, inputs, out)
        samples = []
        with w.trial_clock(samples) if clock else nullcontext():
            t0, c0 = time.perf_counter(), cpu_clock()
            code, stderr = call_cli(argv)
            wall, cpu = time.perf_counter() - t0, cpu_clock() - c0
        elapsed += wall
        ops.append({"i": i, "argv": argv, "exit": code, "stderr": stderr, "wall_s": wall,
                    "samples_s": samples or [cpu]})
        i += 1
    return ops


def hash_outputs(out: Path, i: int) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob(f"{i}.*"))}


def check_ops(w, seed, ops, inputs, out):
    """Hash and check every operation's output; fills trials/ok/problem."""
    for op in ops:
        op["hashes"] = hash_outputs(out, op["i"])
        if op["exit"] not in (0, 1):
            op.update(trials=0, samples_s=[], ok=False, note=None,
                      problem=f"exit code {op['exit']}: {op['stderr'].strip()}")
            continue
        try:
            verdict = w.check(seed, op["i"], op["exit"], inputs, out, op["samples_s"])
        except (OSError, KeyError, ValueError, IndexError) as exc:
            verdict = {"problem": f"output unreadable: {type(exc).__name__}: {exc}"}
        op.update(trials=verdict.get("trials", 0), samples_s=verdict.get("samples_s", []),
                  ok="problem" not in verdict, problem=verdict.get("problem"),
                  note=verdict.get("note"))


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=("timed", "check", "trace"), required=True)
    ap.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--work", type=Path, required=True)
    args = ap.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(opineq.__file__).resolve().parents:
        print(f"opineq imported from {opineq.__file__}, not from {src}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    work = args.work
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    result = {"machine": machine()}

    if args.role == "check":
        ops = json.loads((work / "timed.json").read_text())["ops"]
        check_ops(w, args.seed, ops, inputs, work / "timed")
        result["ops"] = ops
    else:
        call_cli(w.warmup(inputs))
        if args.role == "timed":
            result["ops"] = run_ops(w, args.seed, inputs, work / "timed", seconds=args.seconds)
            result["peak_rss_mb"] = peak_rss_mb()
        else:
            steps = max(1, round(args.seconds / w.nominal_s))
            ops = run_ops(w, args.seed, inputs, work / "untraced", count=steps * w.unit)
            result["selftest_problems"] = spans.self_test(work / "selftest")
            rec = w.recorder()
            with rec.recording():
                traced = run_ops(w, args.seed, inputs, work / "traced", count=len(ops), clock=False)
            rec.save(ROOT / ".bench_out" / f"spans-{w.name}.npz")
            metrics = spans.layer_metrics(rec)
            untraced_s = sum(op["wall_s"] for op in ops)
            traced_s = sum(op["wall_s"] for op in traced)
            metrics["trace.overhead_share"] = (traced_s / untraced_s - 1.0, "ratio")
            result["layers"] = metrics
            result["hashes"] = [hash_outputs(work / "traced", op["i"]) for op in traced]
            check_ops(w, args.seed, ops, inputs, work / "untraced")
            result["ops"] = ops
    (work / f"{args.role}.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
