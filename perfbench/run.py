"""opineq benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout; it imports ``src/opineq``
and installs nothing.  Workloads (see worker.py for the exact commands):

  campaign-n3   the paper's counterexample search, `conjecture --dim 3`
  fuzz-bounds   five inequality suites, `fuzz --dim 6` on gaussian draws
  radius-large  one `radius` query per gaussian matrix, n in 16..40

``--trace 0`` measures set-up in fresh interpreters, then runs the
workload in a fresh single-process interpreter with one BLAS thread for
at least ``--seconds`` of CLI time.  Afterwards fresh interpreters check
every output, and output hashes are compared with earlier runs of the
same sources at the same seed.  It prints the
end-to-end metrics.  ``--trace 1`` runs a fixed number of operations
untraced and then under the span recorder (spans.py), and prints the
per-layer metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Work files go to
``.bench_work/`` and are removed; traced spans are kept in ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("campaign-n3", "fuzz-bounds", "radius-large")
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_RUNS = 7
SETUP_SNIPPET = (
    "import opineq\n"
    "opineq.numerical_radius([[1, 2j, 0], [0, 1, 3], [1j, 0, 2]])\n"
)
DEADLINE_S = 170.0
TAIL_BEYOND = 10
TAIL_SHARE = 0.05


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(ONE_BLAS_THREAD)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def start_child(argv) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, *argv], env=child_env(), cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def finish_child(proc: subprocess.Popen, deadline: float) -> None:
    """Wait for a child, killing it at the deadline; raise unless it exited 0."""
    try:
        _, err = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child {proc.args[1:3]} ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"child {proc.args[1:3]} exited {proc.returncode}:\n{err[-2000:]}")


def run_child(argv, deadline: float) -> None:
    finish_child(start_child(argv), deadline)


def measure_setup(deadline: float) -> list[float]:
    """Wall time of fresh interpreters that import opineq and compute one
    3x3 radius.  The first, untimed, run writes the bytecode caches."""
    run_child(["-c", SETUP_SNIPPET], deadline)
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        run_child(["-c", SETUP_SNIPPET], deadline)
        times.append(time.perf_counter() - t0)
    return times


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples, and at
    least a TAIL_SHARE of the samples, beyond it: the sample, the
    percentile it sits at and the number of samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    beyond = max(TAIL_BEYOND, int(TAIL_SHARE * n))
    if n <= beyond:
        return ordered[-1], 100.0, 0
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def worker(role, args, work, deadline) -> dict:
    """Run one worker role in a fresh interpreter and return its result."""
    run_child([str(HERE / "worker.py"), "--role", role, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--work", str(work)],
              deadline)
    return json.loads((work / f"{role}.json").read_text())


def source_digest() -> str:
    """Digest of the opineq sources and the benchmark's own code: outputs
    are compared only between runs of identical sources."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "opineq").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def compare_with_earlier_runs(args, ops) -> None:
    """Compare output hashes with earlier runs of the same sources at the
    same seed, keyed by the operation's arguments; record the new ones."""
    store = ROOT / ".bench_out" / f"hashes-{args.workload}-{source_digest()}.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    for op in ops:
        key = json.dumps([args.seed, op["i"], [Path(a).name for a in op["argv"]]])
        if key in known and known[key] != op["hashes"] and op["ok"]:
            op.update(ok=False, problem="output differs from an earlier run at the same seed")
        known.setdefault(key, op["hashes"])
    store.parent.mkdir(exist_ok=True)
    tmp = store.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known))
    os.replace(tmp, store)


def failures(ops, rerun_hashes) -> list[str]:
    """One line per failed operation: error, exit code 2, failed check, or
    output bytes that differ from the re-run of the same operation (a
    traced run re-runs every operation; an untraced run passes none)."""
    out = []
    for k, op in enumerate(ops):
        if not op["ok"]:
            out.append(f"op {op['i']}: {op['problem']}")
        elif k < len(rerun_hashes) and op["hashes"] != rerun_hashes[k]:
            out.append(f"op {op['i']}: output differs between two runs at the same seed")
    return out


def print_ops(ops, failed) -> None:
    print(f"failed_share = {len(failed) / len(ops):.6g} ({len(failed)} of {len(ops)} operations)")
    for line in failed:
        print(f"  FAILED {line}")
    notes = [op for op in ops if op.get("note")]
    if notes:
        print(f"notes on {len(notes)} of {len(ops)} operations, e.g. op {notes[0]['i']}: {notes[0]['note']}")


def print_machine(m: dict) -> None:
    print(f"machine: nproc={m['nproc']} usable={m['cpus_usable']} python={m['python']} "
          f"numpy={m['numpy']} blas={m['blas']} threads={m['threads']}")
    print(f"blas build: {m['blas_config']}")


def untraced(args, work, deadline) -> dict:
    setup = measure_setup(deadline)
    timed = worker("timed", args, work, deadline)
    t0 = time.perf_counter()
    ops = worker("check", args, work, deadline)["ops"]
    check_s = time.perf_counter() - t0
    compare_with_earlier_runs(args, ops)
    failed = failures(ops, [])
    # Failed operations count in `failed` only; rate and latency use the same sample.
    good = [op for op in ops if op["ok"]]
    if not good:
        raise BenchError("no operation succeeded: " + "; ".join(failed[:3]))
    trials = sum(op["trials"] for op in good)
    wall = sum(op["wall_s"] for op in good)
    samples_ms = [1e3 * t for op in good for t in op["samples_s"]]
    tail_ms, tail_pct, beyond = tail(samples_ms)

    print_machine(timed["machine"])
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations, "
          f"{trials} trials in {wall:.3f} s of CLI time (successful operations); "
          f"checks took {check_s:.1f} s")
    metrics = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh interpreters"),
        "trials_per_s": (trials / wall, "1/s", f"{trials} trials / {wall:.3f} s wall"),
        "trial_p50_ms": (statistics.median(samples_ms), "ms",
                         f"CPU time per trial, n={len(samples_ms)}"),
        "trial_tail_ms": (tail_ms, "ms", f"CPU time per trial, p{tail_pct:.2f}, "
                                         f"{beyond} samples beyond, n={len(samples_ms)}"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB", "workload process"),
    }
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value:.6g} {unit} ({note})")
    print_ops(ops, failed)
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}


def traced(args, work, deadline) -> dict:
    res = worker("trace", args, work, deadline)
    ops = res["ops"]
    compare_with_earlier_runs(args, ops)
    failed = failures(ops, res["hashes"])
    problems = res["selftest_problems"]
    print_machine(res["machine"])
    print(f"workload {args.workload} seed {args.seed} traced: {len(ops)} operations")
    print("recorder self-test: " + ("pass" if not problems else "FAIL: " + "; ".join(problems)))
    for name, (value, unit) in res["layers"].items():
        print(f"{name} = {value:.6g} {unit}")
    print_ops(ops, failed)
    return {"correct": not failed and not problems, "attempted": len(ops), "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "opineq" / "__init__.py").is_file():
        print(f"error: no opineq sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = (traced if args.trace else untraced)(args, work, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
