"""Acceptance suite: the canonical replicated runs and exact-check batteries.

Each test is one acceptance criterion and prints one line per verdict with the
observed value and its bound, so a failure names the criterion that broke.
The statistical runs pin ``master_seed = 20240801``; tolerances are the ones
the library reports in experiment verdicts.
"""

import hashlib
import math
import os
import time

import numpy as np
import pytest

from htspec.cli import main
from htspec.experiments import (
    make_config,
    run_edge_experiment,
    run_hermitian_experiment,
    run_invariant_suite,
    run_poisson_experiment,
    run_truncation_experiment,
)
from htspec.limits import c_np, frechet_cdf, mp_density
from htspec.matrices import SparseMatrix, norms
from htspec.seeding import mix64
from htspec.spectral import eig_dense_symmetric, top_eigs
from htspec.stats import ks_statistic
from htspec.tails import EnsembleSpec, SparsitySpec, TailLaw, sample_matrix

MASTER_SEED = 20240801


def report_lines(report):
    for v in report.verdicts:
        status = "PASS" if v["pass"] else "FAIL"
        print(f"[{status}] {v['criterion']}: observed={v['observed']} bound={v['bound']}")
    failed = [v["criterion"] for v in report.verdicts if not v["pass"]]
    return failed


def test_invariant_suite_zero_violations():
    t0 = time.perf_counter()
    out = run_invariant_suite()
    elapsed = time.perf_counter() - t0
    for check in out["checks"]:
        status = "PASS" if check["pass"] else "FAIL"
        print(
            f"[{status}] {check['name']}: {check['violations']} violations in "
            f"{check['instances']} instances"
        )
    print(f"gap bound evaluated {out['gap_bound_evaluated']} times, {elapsed:.1f}s")
    assert out["pass"], [c["name"] for c in out["checks"] if not c["pass"]]
    assert out["gap_bound_evaluated"] >= 100
    assert elapsed < 60.0


def test_lanczos_dense_cross_check_battery():
    # 100 random instances across shapes, sizes, and tail exponents: the two
    # solver routes agree to 1e-8 relative error, and eigenvectors align to
    # 1e-6 except where the spectrum is numerically degenerate
    value_failures = []
    align_failures = []
    alignments_checked = 0
    for case in range(100):
        s = mix64(MASTER_SEED, 40000 + case)
        n = 30 + s % 90
        shape = "hermitian" if s % 2 else "rectangular"
        alpha = (0.8, 1.6, 3.0, 8.0)[s % 4]
        mu = (0.4, 0.7, 1.0)[(s >> 8) % 3]
        spec = EnsembleSpec(
            shape=shape, n=int(n), law=TailLaw(alpha=alpha),
            sparsity=SparsitySpec.bernoulli(mu), seed=mix64(s, 1),
        )
        m = sample_matrix(spec)
        k = 1 + s % 4
        got = top_eigs(m, k, tol=1e-11, seed=mix64(s, 2))
        dense = m.to_dense()
        target = dense if shape == "hermitian" else dense @ dense.T
        want = eig_dense_symmetric(target, dense_limit=target.shape[0])
        scale = max(1.0, abs(float(want.eigenvalues[0])))
        if np.max(np.abs(got.eigenvalues - want.eigenvalues[:k])) > 1e-8 * scale:
            value_failures.append(case)
            continue
        for l in range(k):
            gap = float(
                np.min(np.abs(np.delete(want.eigenvalues, l) - want.eigenvalues[l]))
            )
            if gap < 1e-8 * scale:
                continue
            alignments_checked += 1
            overlap = abs(float(got.eigenvectors[:, l] @ want.eigenvectors[:, l]))
            if overlap < 1.0 - 1e-6:
                align_failures.append((case, l, overlap))
    status = "PASS" if not (value_failures or align_failures) else "FAIL"
    print(
        f"[{status}] lanczos vs dense on 100 instances: "
        f"{len(value_failures)} value mismatches, {len(align_failures)} alignment "
        f"mismatches ({alignments_checked} alignments checked)"
    )
    assert not value_failures
    assert not align_failures
    assert alignments_checked >= 150


def test_poissonian_covariance_run():
    cfg = make_config(
        alpha=1.0, mu=1.0, n=500, replicates=200, top_k=5, master_seed=MASTER_SEED
    )
    report = run_poisson_experiment(cfg)
    failed = report_lines(report)
    print(f"elapsed {report.elapsed_s:.1f}s")
    assert not failed, failed


def test_edge_covariance_run():
    cfg = make_config(
        alpha=8.0, mu=1.0, n=1024, replicates=40, top_k=5,
        master_seed=MASTER_SEED, standardize=True,
    )
    report = run_edge_experiment(cfg)
    failed = report_lines(report)
    print(f"elapsed {report.elapsed_s:.1f}s")
    # at rho = 1 the edge criterion is lambda_1 / n in [3.4, 4.6]
    assert 3.4 <= report.aggregates["mean_top_over_n_mu"] <= 4.6
    assert not failed, failed


def test_hermitian_poissonian_run():
    cfg = make_config(
        alpha=1.0, mu=1.0, n=500, replicates=200, shape="hermitian", top_k=5,
        master_seed=MASTER_SEED,
    )
    report = run_hermitian_experiment(cfg)
    failed = report_lines(report)
    print(f"elapsed {report.elapsed_s:.1f}s")
    assert not failed, failed


def test_hermitian_edge_run():
    cfg = make_config(
        alpha=8.0, mu=1.0, n=800, replicates=40, shape="hermitian", top_k=5,
        master_seed=MASTER_SEED, standardize=True,
    )
    report = run_hermitian_experiment(cfg)
    failed = report_lines(report)
    print(f"elapsed {report.elapsed_s:.1f}s")
    assert not failed, failed


def test_truncation_run():
    cfg = make_config(
        alpha=8.0, mu=1.0, n=500, replicates=50, master_seed=MASTER_SEED,
        standardize=True,
    )
    report = run_truncation_experiment(cfg, gamma=0.2, gamma_prime=0.5, kappa=1.5)
    failed = report_lines(report)
    print(f"elapsed {report.elapsed_s:.1f}s")
    assert not failed, failed


def test_closed_form_examples():
    checks = []

    m = SparseMatrix.from_dense(np.array([[1.0, -2.0], [0.0, 3.0]]))
    checks.append(("norms of [[1,-2],[0,3]] = (3, 5)", norms(m) == (3.0, 5.0)))

    value = c_np(TailLaw(alpha=2.0), 100, 100, 1.0)
    checks.append(("c_np(alpha=2, n=p=100, mu=1) = 100", value == pytest.approx(100.0)))

    checks.append(
        ("mp density at 2 (square case) = 1/(2 pi)",
         mp_density(2.0, 1.0) == pytest.approx(1.0 / (2.0 * math.pi))))

    checks.append(
        ("Frechet cdf at 1 = exp(-1)",
         frechet_cdf(1.0, 0.5) == pytest.approx(math.exp(-1.0))))

    checks.append(
        ("KS({0.5}, uniform) = 1/2",
         ks_statistic([0.5], lambda x: x) == pytest.approx(0.5)))
    checks.append(
        ("KS({0.25, 0.75}, uniform) = 1/4",
         ks_statistic([0.25, 0.75], lambda x: x) == pytest.approx(0.25)))

    checks.append(
        ("mix64(0, 0) matches the reference stream",
         mix64(0, 0) == 16294208416658607535))

    for name, ok in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert all(ok for _, ok in checks), [name for name, ok in checks if not ok]


def test_reproducibility_and_exit_codes(monkeypatch, tmp_path, capsys):
    cfg = make_config(
        alpha=1.0, mu=1.0, n=120, replicates=10, top_k=3, master_seed=MASTER_SEED
    )
    digests = []
    for cpus in (1, 3, 1):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        payload = run_poisson_experiment(cfg).to_json(include_timing=False)
        digests.append(hashlib.sha256(payload.encode()).hexdigest())
    monkeypatch.undo()
    same = len(set(digests)) == 1
    with capsys.disabled():
        print(f"[{'PASS' if same else 'FAIL'}] report digest stable across "
              f"schedules and reruns: {digests[0][:16]}")
    assert same, digests

    code_ok = main(
        ["verify", "--seed", "7", "--instances", "10", "--lemma-instances", "5"]
    )
    code_usage = main(["sample", "--alpha", "1"])
    # three replicates force KS >= 1/6 > 0.12, so the verdict fails
    code_verdict = main(
        ["experiment", "--kind", "poisson", "--alpha", "1", "--mu", "1",
         "--n", "40", "--replicates", "3", "--top-k", "2"]
    )
    capsys.readouterr()
    codes = (code_ok, code_usage, code_verdict)
    with capsys.disabled():
        print(f"[{'PASS' if codes == (0, 1, 2) else 'FAIL'}] "
              f"exit codes (success, usage, failed verdict) = {codes}")
    assert codes == (0, 1, 2)
