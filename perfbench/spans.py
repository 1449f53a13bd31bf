"""In-memory span recorder for the benchmark's traced runs.

The recorder wraps, from outside the library, every public function of
every ``opineq`` module plus the three ``numpy.linalg`` kernels the
library calls (``eigvalsh``, ``eigh``, ``svd``).  It rebinds every
reference the library holds to a wrapped function: module attributes
(``from .radius import numerical_radius`` makes one in each importing
module), values of module-level registries such as ``fuzz.SUITES``, and
closure cells of those registry values (``fuzz._single_matrix_suite``
closes over the report function).  Leaving the ``with`` block puts
every original back.

One span is kept per call, in start order, in six parallel arrays:
name id, start, end, parent span index (-1 at top level), trial id and
an ``info`` integer (batch size for ``eigvalsh``, an input-digest id for
``numerical_radius`` and ``svd``, the grid for ``half_diff_slack`` and
the scan count for ``conjecture_search``).
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MODULES = (
    "linalg", "transforms", "radius", "inequalities", "ensembles", "fuzz",
    "tables", "conjecture", "cli", "matio", "reporting",
)
KERNELS = ("eigvalsh", "eigh", "svd")
RADIUS = "radius.numerical_radius"
SLACK = "conjecture.half_diff_slack"
SEARCH = "conjecture.conjecture_search"
SUITE_PREFIX = "fuzz.suite."
REPORT_FNS = (
    "half_difference_reports", "radius_upper_reports", "beta_chain_reports",
    "aluthge_bound_reports", "block_pair_report",
)
FUZZ_SUITES = ("half-diff", "implicit", "beta-chain", "aluthge", "block-pair")


def _public_functions(mod):
    names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
    for name in names:
        fn = getattr(mod, name)
        if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                and not inspect.isgeneratorfunction(fn)):
            yield name, fn


def _grid(args, kwargs) -> int:
    cfg = kwargs.get("cfg", args[1] if len(args) > 1 else None)
    return cfg.grid_points if cfg is not None else 0


class Recorder:
    """Spans of one traced pass.

    Every span whose name starts with ``opener`` starts a trial;
    ``trial_key`` maps its call arguments to a key shared by every call of
    the same trial, or returns None for a fresh trial per call.
    """

    def __init__(self, opener: str, trial_key=None):
        self.opener = opener
        self.trial_key = trial_key or (lambda args, kwargs: None)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trial = array("i")
        self.info = array("q")
        self.openers = 0
        self._stack = [-1]
        self._trials = [-1]
        self._trial_ids: dict = {}
        self._digests: dict[bytes, int] = {}
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def digest(self, a) -> int:
        """Small integer naming the bytes and shape of an array."""
        a = np.ascontiguousarray(a, dtype=np.complex128)
        h = hashlib.blake2b(a.tobytes(), digest_size=16)
        h.update(repr(a.shape).encode())
        return self._digests.setdefault(h.digest(), len(self._digests))

    def _new_trial(self, key) -> int:
        self.openers += 1
        if key is None:
            key = ("fresh", self.openers)
        return self._trial_ids.setdefault(key, len(self._trial_ids))

    def wrap(self, name: str, fn, info=None):
        nid = self._name_id(name)
        opens = name.startswith(self.opener)
        perf = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(self.start)
            trial = self._new_trial(self.trial_key(args, kwargs)) if opens else self._trials[-1]
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.trial.append(trial)
            self.info.append(info(args, kwargs) if info else 0)
            self.end.append(0.0)
            self._stack.append(i)
            self._trials.append(trial)
            self.start.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = perf()
                self._stack.pop()
                self._trials.pop()

        span.recorder_original = fn
        return span

    def _set(self, obj, attr, value):
        old = getattr(obj, attr)
        setattr(obj, attr, value)
        self._undo.append(lambda: setattr(obj, attr, old))

    def _install(self):
        import opineq

        infos = {
            RADIUS: lambda a, k: self.digest(a[0]),
            SLACK: _grid,
            SEARCH: lambda a, k: a[0].count,
            "kernel.svd": lambda a, k: self.digest(a[0]),
            "kernel.eigvalsh": lambda a, k: int(np.prod(np.shape(a[0])[:-2], dtype=np.int64)),
        }
        mods = [importlib.import_module(f"opineq.{m}") for m in MODULES]
        wrapped = {}
        for layer, mod in zip(MODULES, mods):
            for name, fn in _public_functions(mod):
                full = f"{layer}.{name}"
                wrapped[id(fn)] = self.wrap(full, fn, infos.get(full))
        for k in KERNELS:
            full = f"kernel.{k}"
            self._set(np.linalg, k, self.wrap(full, getattr(np.linalg, k), infos.get(full)))

        for mod in [opineq, *mods]:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped:
                    self._set(mod, attr, wrapped[id(val)])
                elif isinstance(val, dict):
                    self._rebind_registry(val, wrapped)

        suites = mods[MODULES.index("fuzz")].SUITES
        for key, fn in list(suites.items()):
            suites[key] = self.wrap(SUITE_PREFIX + key, fn)
            self._undo.append(lambda key=key, fn=fn: suites.__setitem__(key, fn))

    def _rebind_registry(self, registry: dict, wrapped: dict):
        for key, val in list(registry.items()):
            if id(val) in wrapped:
                registry[key] = wrapped[id(val)]
                self._undo.append(lambda key=key, val=val: registry.__setitem__(key, val))
            for cell in getattr(val, "__closure__", None) or ():
                inner = cell.cell_contents
                if id(inner) in wrapped:
                    cell.cell_contents = wrapped[id(inner)]
                    self._undo.append(lambda cell=cell, inner=inner: setattr(cell, "cell_contents", inner))

    @contextmanager
    def recording(self):
        try:
            self._install()
            yield self
        finally:
            for undo in reversed(self._undo):
                undo()
            self._undo.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "trial": np.frombuffer(self.trial, dtype=np.int32).copy(),
            "info": np.frombuffer(self.info, dtype=np.int64).copy(),
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def leftovers() -> list[str]:
    """Names still bound to a recorder wrapper; empty once originals are back."""
    import opineq

    found = [f"numpy.linalg.{k}" for k in KERNELS
             if hasattr(getattr(np.linalg, k), "recorder_original")]
    for mod in [opineq] + [importlib.import_module(f"opineq.{m}") for m in MODULES]:
        for attr, val in vars(mod).items():
            values = val.values() if isinstance(val, dict) else (val,)
            for v in values:
                cells = getattr(v, "__closure__", None) or ()
                if hasattr(v, "recorder_original") or any(
                        hasattr(c.cell_contents, "recorder_original") for c in cells):
                    found.append(f"{mod.__name__}.{attr}")
    return found


class Spans:
    """Read-only view of a recorder's spans with the per-layer queries."""

    def __init__(self, rec: Recorder):
        a = rec.arrays()
        self.rec = rec
        self.name, self.parent, self.trial, self.info = a["name"], a["parent"], a["trial"], a["info"]
        self.start, self.end = a["start"], a["end"]
        self.dur = self.end - self.start
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                              minlength=self.dur.size)
        self.self_time = self.dur - covered

    def ids(self, name: str) -> np.ndarray:
        nid = self.rec._name_ids.get(name)
        return np.flatnonzero(self.name == nid) if nid is not None else np.array([], dtype=np.int64)

    def ids_prefix(self, prefix: str) -> np.ndarray:
        nids = [i for n, i in self.rec._name_ids.items() if n.startswith(prefix)]
        return np.flatnonzero(np.isin(self.name, nids))

    def busy(self, name: str) -> float:
        return float(self.dur[self.ids(name)].sum())

    def children(self, parents: np.ndarray, name: str) -> np.ndarray:
        """Spans called ``name`` whose parent is in ``parents``, in start order."""
        idx = self.ids(name)
        return idx[np.isin(self.parent[idx], parents)]

    def repeated_share(self, idx: np.ndarray) -> float:
        """Share of spans whose (trial, input digest) was seen earlier.
        Spans outside any trial (trial -1) count in the base only."""
        seen, repeats = set(), 0
        for key in zip(self.trial[idx].tolist(), self.info[idx].tolist()):
            repeats += key[0] >= 0 and key in seen
            seen.add(key)
        return repeats / idx.size if idx.size else 0.0

    def under(self, idx: np.ndarray, prefix: str) -> int:
        """How many spans in ``idx`` have an ancestor whose name starts with ``prefix``."""
        marked = {i for n, i in self.rec._name_ids.items() if n.startswith(prefix)}
        count = 0
        for i in idx.tolist():
            p = int(self.parent[i])
            while p >= 0 and int(self.name[p]) not in marked:
                p = int(self.parent[p])
            count += p >= 0
        return count


def _per(num: float, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from one traced pass."""
    s = Spans(rec)
    trials = rec.openers
    radius = s.ids(RADIUS)
    n_radius = int(radius.size)
    batches = s.children(radius, "kernel.eigvalsh")
    grid_of, witness_of = {}, {}
    for i in batches.tolist():
        grid_of.setdefault(int(s.parent[i]), i)
    for i in s.children(radius, "kernel.eigh").tolist():
        witness_of[int(s.parent[i])] = i
    grid_s = float(sum(s.dur[i] for i in grid_of.values()))
    refine_s = float(sum(s.start[witness_of[r]] - s.end[g]
                         for r, g in grid_of.items() if r in witness_of))
    svd = s.ids("kernel.svd")

    m = {
        "radius.calls": (n_radius, "count"),
        "radius.busy_s": (float(s.dur[radius].sum()), "s"),
        "radius.self_s": (float(s.self_time[radius].sum()), "s"),
        "radius.grid_s": (grid_s, "s"),
        "radius.refine_s": (refine_s, "s"),
        "radius.eig_batches_per_call": (_per(batches.size, n_radius), "count"),
        "radius.angles_per_call": (_per(int(s.info[batches].sum()), n_radius), "count"),
        "radius.duplicate_share": (s.repeated_share(radius), "ratio"),
    }
    for k in KERNELS:
        idx = s.ids(f"kernel.{k}")
        m[f"kernel.{k}.calls"] = (int(idx.size), "count")
        if k == "eigvalsh":
            m["kernel.eigvalsh.matrices"] = (int(s.info[idx].sum()), "count")
        m[f"kernel.{k}.busy_s"] = (float(s.dur[idx].sum()), "s")
    m["linalg.svd_calls_per_trial"] = (_per(svd.size, trials), "count")
    m["linalg.duplicate_svd_share"] = (s.repeated_share(svd), "ratio")
    for fn in ("matrix_abs", "spectral_norm"):
        m[f"linalg.{fn}.busy_s"] = (s.busy(f"linalg.{fn}"), "s")
    m["transforms.aluthge.calls"] = (int(s.ids("transforms.aluthge").size), "count")
    m["transforms.aluthge.busy_s"] = (s.busy("transforms.aluthge"), "s")
    for fn in REPORT_FNS:
        m[f"inequalities.{fn}.busy_s"] = (s.busy(f"inequalities.{fn}"), "s")
    m["inequalities.radius_calls_per_trial"] = (_per(s.under(radius, "inequalities."), trials), "count")
    for suite in FUZZ_SUITES:
        idx = s.ids(SUITE_PREFIX + suite)
        m[f"fuzz.{suite}.ms_per_trial"] = (1e3 * _per(float(s.dur[idx].sum()), idx.size), "ms")

    phases = {"scan": 0.0, "descent": 0.0, "verify": 0.0}
    for c in s.ids(SEARCH).tolist():
        calls = s.children(np.array([c]), SLACK)
        if calls.size == 0:
            continue
        campaign_grid = s.info[calls[0]]
        for k, i in enumerate(calls.tolist()):
            if k < s.info[c]:
                phase = "scan"
            elif s.info[i] != campaign_grid:
                phase = "verify"
            else:
                phase = "descent"
            phases[phase] += float(s.dur[i])
    m["conjecture.half_diff_slack.calls"] = (int(s.ids(SLACK).size), "count")
    for phase, t in phases.items():
        m[f"conjecture.{phase}_s"] = (t, "s")

    m["ensembles.sample_s"] = (s.busy("ensembles.sample_matrix") + s.busy("ensembles.trial_rng"), "s")
    m["tables.reproduce_tables.busy_s"] = (s.busy("tables.reproduce_tables"), "s")
    m["matio.load_matrix.busy_s"] = (s.busy("matio.load_matrix"), "s")
    m["reporting.render_table.busy_s"] = (s.busy("reporting.render_table"), "s")
    m["cli.self_s"] = (float(s.self_time[s.ids_prefix("cli.")].sum()), "s")
    m["trace.trials"] = (trials, "count")
    m["trace.spans"] = (int(s.dur.size), "count")
    return m


def self_test(work: Path) -> list[str]:
    """Check the recorder against span counts known from reading the library.

    The four single-matrix suites of ``bounds`` on one 6x6 matrix make 15
    radius calls (6 of them on an input already seen) and 21 SVDs; one
    ``half_diff_slack`` makes 2 radius calls and 2 SVDs.  Returns the
    problems found; an empty list means the recorder is sound.
    """
    import opineq
    from opineq.ensembles import sample_matrix, trial_rng
    from opineq.matio import save_matrix

    T = sample_matrix(trial_rng(2024, 0), "gaussian-complex", 6)
    problems = []
    work.mkdir(parents=True, exist_ok=True)
    src = work / "selftest.json"
    save_matrix(T, src)
    rec = Recorder(opener="cli.main")
    with rec.recording():
        code = opineq.cli.main(["bounds", str(src), "--suite", "half-diff,implicit,beta-chain,aluthge",
                                "--out", str(work / "selftest.csv")])
    s = Spans(rec)
    radius, svd = s.ids(RADIUS), s.ids("kernel.svd")
    repeats = round(s.repeated_share(radius) * radius.size)
    if code not in (0, 1):
        problems.append(f"bounds exited {code}")
    if (radius.size, repeats, svd.size) != (15, 6, 21):
        problems.append(f"bounds: {radius.size} radius spans ({repeats} repeated), "
                        f"{svd.size} SVD spans; expected 15 (6), 21")

    rec = Recorder(opener=SLACK)
    with rec.recording():
        opineq.half_diff_slack(T[:3, :3])
    s = Spans(rec)
    if (s.ids(RADIUS).size, s.ids("kernel.svd").size) != (2, 2):
        problems.append(f"half_diff_slack: {s.ids(RADIUS).size} radius spans, "
                        f"{s.ids('kernel.svd').size} SVD spans; expected 2, 2")
    problems += [f"not restored: {name}" for name in leftovers()]
    return problems
