"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 3 requires every theorem link to fuzz clean and asserts that
the beta-chain's middle link (beta1 <= beta2), which is not a theorem,
is refuted: by the closed-form witness T = [1] (+) [[0, 1], [0, 0]]
(see REFUTED_LINK below) and by random draws at n >= 3 (see also
test_inequalities.test_beta_chain_middle_link_counterexample for a
frozen 4x4 counterexample).
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from opineq import (
    EnsembleSpec,
    aluthge_bound_reports,
    beta_chain_reports,
    block_pair_report,
    block_positivity,
    conjecture_search,
    corner_norm_report,
    fro_norm,
    generalized_polar,
    half_diff_slack,
    half_difference_reports,
    herm_eig,
    majorization_equiv,
    matrix_power_psd,
    mixed_schwarz,
    numerical_radius,
    polar,
    radius_upper_reports,
    rayleigh_radius,
    reproduce_tables,
    spectral_norm,
    svd,
)
from opineq.ensembles import sample_matrix, trial_rng
from opineq.fuzz import MIXED_SCHWARZ_ALPHAS
from opineq.matio import matrix_from_dict
from opineq.tables import TABLE_TOL


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


def random_complex(rng, n, m=None):
    m = m or n
    return rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))


def test_criterion_1_table_reproduction():
    t0 = time.perf_counter()
    tables = reproduce_tables()
    elapsed = time.perf_counter() - t0

    errors = []
    for table in tables:
        for row in table.rows:
            if not row.ok():
                errors.append(f"{table.name}/{row.label}: {row.max_error:.2e}")
    by_name = {t.name: t for t in tables}

    # spot-check the enumerated values
    hd1 = by_name["half-diff-vs-radius"].rows[0]
    assert hd1.computed["half_diff_re_radius"] == pytest.approx(12.672, abs=TABLE_TOL)
    assert hd1.computed["radius"] == pytest.approx(16.4629, abs=TABLE_TOL)
    ubb2 = by_name["radius-upper-bounds-b"].rows[1]
    assert ubb2.computed["radius"] == pytest.approx(4.0, abs=TABLE_TOL)
    assert ubb2.computed["implicit_bound"] == pytest.approx(4.23607, abs=TABLE_TOL)
    assert ubb2.computed["abs_sum_half"] == pytest.approx(4.0, abs=TABLE_TOL)
    al = by_name["aluthge-bounds"].rows
    assert al[0].computed["aluthge_bound_1"] == pytest.approx(3.11788, abs=TABLE_TOL)
    assert al[0].computed["aluthge_bound_2"] == pytest.approx(3.06525, abs=TABLE_TOL)
    assert al[0].computed["abs_sum_half"] == pytest.approx(3.1305, abs=TABLE_TOL)
    assert al[1].computed["aluthge_bound_1"] == pytest.approx(14.0272, abs=TABLE_TOL)
    assert al[1].computed["aluthge_bound_2"] == pytest.approx(14.0287, abs=TABLE_TOL)
    assert al[1].computed["aluthge_bound_1"] < al[1].computed["aluthge_bound_2"]
    am = by_name["aluthge-vs-mean"].rows[0]
    assert am.computed["aluthge_bound_1"] == pytest.approx(15.0159, abs=TABLE_TOL)
    assert am.computed["aluthge_bound_2"] == pytest.approx(15.0164, abs=TABLE_TOL)
    assert am.computed["norm_radius_mean"] == pytest.approx(15.1001, abs=TABLE_TOL)

    ok = not errors and elapsed < 10.0
    _line(1, ok, f"12 golden rows within {TABLE_TOL:g} in {elapsed:.2f}s")
    assert not errors, errors
    assert elapsed < 10.0


def test_criterion_2_cross_oracle_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(500):
        rng = trial_rng(202, i)
        n = int(rng.integers(2, 7))
        T = random_complex(rng, n)
        omega = numerical_radius(T).omega
        lower, _ = rayleigh_radius(T, trials=16, seed=i)
        worst = max(worst, abs(omega - lower) / max(omega, 1e-12))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    _line(2, ok, f"500 matrices, worst relative gap {worst:.2e} in {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 60.0


def _fuzz_suite(reports_fn, trials, seed, dims=(1, 2, 3, 4, 5, 6)):
    """Run a single-matrix suite over unit-disc draws; return violations."""
    violations = []
    for i in range(trials):
        rng = trial_rng(seed, i)
        n = dims[i % len(dims)]
        T = sample_matrix(rng, "unit-disc", n)
        for rep in reports_fn(T):
            if not rep.holds:
                violations.append((i, rep.name, rep.slack))
    return violations


# The one bundled link that is not a theorem.  For T = [1] (+) [[0, a], [0, 0]]
# with 0 < a <= 1: |T| = diag(1, 0, a) and |T*| = diag(1, a, 0), so
# s = || |T|+|T*| || = 2, d = || |T|-|T*| || = a and w(T) = ||T|| = 1, hence
# beta1 = (s + sqrt(d^2 + 4 w^2))/4 = (2 + sqrt(a^2 + 4))/4 > 1 = beta2.
REFUTED_LINK = "beta-chain-beta1-le-beta2"
BETA_CHAIN_LINKS = ("beta-chain-omegas-le-beta1", REFUTED_LINK, "beta-chain-omegas-le-beta2")


def _beta_chain_all_links(T):
    reports = beta_chain_reports(T)
    assert tuple(r.name for r in reports) == BETA_CHAIN_LINKS
    return reports


def test_criterion_3_theorem_fuzz_suite():
    t0 = time.perf_counter()
    trials = 1000
    failures: dict[str, list] = {}

    failures["half-diff"] = _fuzz_suite(half_difference_reports, trials, 301)
    failures["implicit"] = _fuzz_suite(radius_upper_reports, trials, 302)
    beta = _fuzz_suite(_beta_chain_all_links, trials, 303)
    failures["beta-chain"] = [v for v in beta if v[1] != REFUTED_LINK]
    refuted_draws = [v for v in beta if v[1] == REFUTED_LINK]
    failures["aluthge"] = _fuzz_suite(aluthge_bound_reports, trials, 304)

    viol = []
    for i in range(trials):
        rng = trial_rng(305, i)
        n = (i % 4) + 1
        A = sample_matrix(rng, "unit-disc", n)
        B = sample_matrix(rng, "unit-disc", n)
        rep = block_pair_report(A, B)
        if not rep.holds:
            viol.append((i, rep.name, rep.slack))
    failures["block-pair"] = viol

    viol = []
    for i in range(trials):
        rng = trial_rng(306, i)
        n = (i % 6) + 1
        T = sample_matrix(rng, "unit-disc", n)
        x = random_complex(rng, n, 1).ravel()
        y = random_complex(rng, n, 1).ravel()
        for alpha in MIXED_SCHWARZ_ALPHAS:
            rep = mixed_schwarz(T, x, y, alpha)
            if not rep.holds:
                viol.append((i, rep.name, rep.slack))
    failures["mixed-schwarz"] = viol

    viol = []
    for i in range(trials):
        rng = trial_rng(307, i)
        n = (i % 3) + 1
        g = random_complex(rng, 2 * n)
        G = g.conj().T @ g
        rep = corner_norm_report(G[:n, :n], G[n:, n:], G[n:, :n])
        if not rep.holds:
            viol.append((i, rep.name, rep.slack))
    failures["corner"] = viol

    viol = []
    for i in range(trials):
        rng = trial_rng(308, i)
        n = (i % 4) + 1
        S = sample_matrix(rng, "unit-disc", n)
        if i % 2 == 0:
            T = S @ np.diag(rng.uniform(0, 1, size=n)).astype(complex)
        else:
            T = sample_matrix(rng, "unit-disc", n)
        for rep in majorization_equiv(T, S, seed=i):
            if not rep.holds:
                viol.append((i, rep.name, rep.slack))
    failures["majorization"] = viol

    viol = []
    for i in range(200):
        rng = trial_rng(309, i)
        n = (i % 3) + 1
        g = random_complex(rng, 2 * n)
        G = g.conj().T @ g
        A, B = G[:n, :n], G[n:, n:]
        v = block_positivity(A, B, G[n:, :n], seed=i)
        if not (v.is_psd and v.consistent):
            viol.append((i, "gram", v.condition_ii_max_ratio))
    for i in range(200):
        rng = trial_rng(310, i)
        n = (i % 3) + 1
        ga, gb = random_complex(rng, n), random_complex(rng, n)
        A, B = ga.conj().T @ ga, gb.conj().T @ gb
        C = random_complex(rng, n)
        scale = 1 + max(spectral_norm(A), spectral_norm(B))
        while True:
            block = np.block([[A, C.conj().T], [C, B]])
            if float(np.linalg.eigvalsh((block + block.conj().T) / 2)[0]) < -1e-4 * scale:
                break
            C = 2 * C
        v = block_positivity(A, B, C, seed=i)
        if v.is_psd or not v.consistent:
            viol.append((i, "non-psd", v.condition_ii_max_ratio))
    failures["positivity"] = viol

    witness = np.zeros((3, 3), dtype=complex)
    witness[0, 0] = 1.0
    witness[1, 2] = 1.0
    middle = {r.name: r for r in beta_chain_reports(witness)}[REFUTED_LINK]
    witness_refutes = (
        abs(middle.lhs - (2.0 + math.sqrt(5.0)) / 4.0) <= 1e-9
        and abs(middle.rhs - 1.0) <= 1e-9
        and not middle.holds
    )

    elapsed = time.perf_counter() - t0
    for suite, fl in sorted(failures.items()):
        print(f"    suite {suite:14s}: {len(fl)} violation(s)")
    print(f"    refuted {REFUTED_LINK}: {len(refuted_draws)} of {trials} draws,"
          f" witness slack {middle.slack:.6f}")
    total = sum(len(v) for v in failures.values())
    ok = total == 0 and bool(refuted_draws) and witness_refutes and elapsed < 300.0
    _line(3, ok, f"{total} theorem violation(s) across suites in {elapsed:.1f}s; "
          f"{REFUTED_LINK} refuted"
          + ("" if refuted_draws and witness_refutes else
             " NOT detected (expected on the witness [1] (+) [[0,1],[0,0]]"
             " and on random draws at n>=3, see"
             " test_beta_chain_middle_link_counterexample)"))
    assert elapsed < 300.0
    assert total == 0, {k: v[:3] for k, v in failures.items() if v}
    assert witness_refutes, middle.to_json_dict()
    assert refuted_draws, f"{REFUTED_LINK} held on all {trials} fuzz draws"


def test_criterion_4_structural_identities(off_diag_identity):
    t0 = time.perf_counter()

    # fractional polar factor properties for 200 (T, alpha) pairs
    for i in range(200):
        rng = trial_rng(401, i)
        n = int(rng.integers(1, 6))
        T = random_complex(rng, n)
        alpha = float(rng.uniform(0.05, 0.95))
        g = generalized_polar(T, alpha)
        absT = g.abs_factor
        f = svd(T)
        absTs = (f.left * f.sigmas) @ f.left.conj().T
        scale = (1 + spectral_norm(T)) ** 3
        assert fro_norm(g.u @ matrix_power_psd(absT, alpha) - T) <= 1e-9 * scale
        assert fro_norm(g.u.conj().T @ matrix_power_psd(absTs, alpha) - T.conj().T) <= 1e-9 * scale
        assert fro_norm(g.u.conj().T @ g.u - matrix_power_psd(absT, 2 * (1 - alpha))) <= 1e-9 * scale
        assert fro_norm(g.u @ g.u.conj().T - matrix_power_psd(absTs, 2 * (1 - alpha))) <= 1e-9 * scale
        for beta in (0.5, 1.0, 2.0):
            assert fro_norm(
                g.u @ matrix_power_psd(absT, beta) - matrix_power_psd(absTs, beta) @ g.u
            ) <= 1e-9 * scale

    # off-diagonal radius identity for 200 pairs: 2 w([[0, X], [Y*, 0]])
    # against a dense SVD sweep of ||X + e^{i theta} Y|| (tests/conftest.py)
    for i in range(200):
        rng = trial_rng(402, i)
        n = int(rng.integers(1, 4))
        X = random_complex(rng, n)
        Y = random_complex(rng, n)
        off_diag_identity(X, Y)

    # reconstruction residuals on 1000 random matrices
    for i in range(1000):
        rng = trial_rng(403, i)
        n = int(rng.integers(1, 9))
        G = random_complex(rng, n)
        H = G + G.conj().T
        e = herm_eig(H)
        assert fro_norm((e.vectors * e.values) @ e.vectors.conj().T - H) <= 1e-11 * (1 + fro_norm(H))
        assert fro_norm(e.vectors.conj().T @ e.vectors - np.eye(n)) <= 1e-12 * n
        m = int(rng.integers(1, 9))
        T = random_complex(rng, n, m)
        f = svd(T)
        assert fro_norm((f.left * f.sigmas) @ f.right.conj().T - T) <= 1e-10 * (1 + fro_norm(T))
        Tsq = random_complex(rng, n)
        p = polar(Tsq)
        assert fro_norm(p.u @ p.abs_factor - Tsq) <= 1e-10 * (1 + fro_norm(Tsq))

    elapsed = time.perf_counter() - t0
    _line(4, True, f"polar-factor properties, off-diagonal identity, and "
                   f"reconstructions all within tolerance in {elapsed:.1f}s")


def test_criterion_5_conjecture_campaign():
    t0 = time.perf_counter()
    results = {}
    for dim in (2, 3):
        spec = EnsembleSpec(kind="integer-complex", dim=dim, count=10000, seed=1)
        results[dim] = conjecture_search(spec, ascend_iters=10)

    # the dim-3 counterexample stays the frozen one
    frozen = json.loads((Path(__file__).parent / "data" / "campaign_dim3_seed1.json").read_text())
    found = results[3]
    assert found.min_slack == pytest.approx(frozen["min_slack"], rel=1e-10)
    np.testing.assert_allclose(found.argmin_matrix, matrix_from_dict(frozen["argmin"]), rtol=0, atol=1e-9)
    assert found.trials == frozen["trials"]
    assert found.violated and found.certified

    # deterministic under a fixed seed
    small = EnsembleSpec(kind="integer-complex", dim=2, count=50, seed=7)
    a = conjecture_search(small, ascend_iters=1)
    b = conjecture_search(small, ascend_iters=1)
    assert a.min_slack == b.min_slack
    np.testing.assert_array_equal(a.argmin_matrix, b.argmin_matrix)

    # searched quantity calibrates against the golden half-diff rows
    golden = reproduce_tables()[0]
    for row in golden.rows:
        got_radius = numerical_radius(row.matrix).omega
        got_half = got_radius - half_diff_slack(row.matrix)
        assert got_radius == pytest.approx(row.reference["radius"], abs=TABLE_TOL)
        assert got_half == pytest.approx(row.reference["half_diff_re_radius"], abs=TABLE_TOL)

    elapsed = time.perf_counter() - t0
    detail = ", ".join(
        f"dim {d}: min_slack {r.min_slack:.6f} over {r.trials} evals"
        + (" (counterexample!)" if r.violated else "")
        for d, r in results.items()
    )
    _line(5, True, f"{detail}; deterministic; golden slacks match in {elapsed:.0f}s")
    # the expected outcome is no counterexample, but a found one is an
    # accepted alternative — it would have been serialized by the CLI path
    for r in results.values():
        scale = 1 + spectral_norm(r.argmin_matrix)
        assert r.violated == (r.min_slack < -1e-7 * scale)
