import json
import math
import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from htspec import experiments
from htspec.experiments import (
    ExperimentConfig,
    derive_replicate_seed,
    make_config,
    run_edge_experiment,
    run_hermitian_experiment,
    run_invariant_suite,
    run_phase_sweep,
    run_poisson_experiment,
    run_truncation_experiment,
    sweep_to_csv,
    truncation_window,
    _map_replicates,
)
from htspec.limits import EDGE, POISSONIAN, RegimeParams
from htspec.seeding import mix64
from htspec.spectral import top_eigs
from htspec.tails import SparsitySpec, TailLaw

VERDICT_KEYS = {"criterion", "pass", "observed", "bound"}


def poisson_cfg(**kw):
    base = dict(alpha=1.0, mu=1.0, n=60, replicates=4, top_k=2, master_seed=11)
    base.update(kw)
    return make_config(**base)


def edge_cfg(**kw):
    base = dict(
        alpha=8.0, mu=1.0, n=48, replicates=3, top_k=2, master_seed=13,
        standardize=True,
    )
    base.update(kw)
    return make_config(**base)


# ---------------------------------------------------------------------------
# seeding and scheduling


def test_derive_replicate_seed_is_mix64():
    for master, r in [(0, 0), (20240801, 7), (123456789, 199)]:
        assert derive_replicate_seed(master, r) == mix64(master, r)


def test_replicate_pool_capped_at_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)

    def replicate(r):
        time.sleep(0.01)  # long enough for a larger pool to spread the work
        return r, threading.get_ident()

    out = _map_replicates(replicate, 8)
    assert [r for r, _ in out] == list(range(8))
    assert len({ident for _, ident in out}) <= 2


def test_dense_edge_run_starts_no_thread(monkeypatch):
    # The dense route runs its replicates on the calling thread whatever the
    # CPU count, and HTSPEC_WORKERS is not read.
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    serial = payload(RUNS["edge"]())
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setenv("HTSPEC_WORKERS", "0")

    def refuse(self):
        raise AssertionError("the dense route started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert payload(RUNS["edge"]()) == serial


RUNS = {
    "poisson": lambda: run_poisson_experiment(poisson_cfg()),
    "edge": lambda: run_edge_experiment(edge_cfg()),
    "hermitian-poissonian": lambda: run_hermitian_experiment(poisson_cfg(shape="hermitian")),
    "hermitian-edge": lambda: run_hermitian_experiment(edge_cfg(shape="hermitian")),
    "truncation": lambda: run_truncation_experiment(edge_cfg(n=60), gamma=0.2, gamma_prime=0.5),
    "sweep": lambda: run_phase_sweep((1.0, 8.0), (1.0,), n=40, replicates=3, master_seed=3),
}


def payload(out) -> str:
    if isinstance(out, dict):
        return json.dumps(out, sort_keys=True)
    return out.to_json(include_timing=False)


def test_reports_identical_across_worker_counts(monkeypatch):
    for name, run in RUNS.items():
        payloads = []
        for cpus in (1, 4):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            payloads.append(payload(run()))
        assert payloads[0] == payloads[1], name


@pytest.mark.parametrize("run", ["poisson", "hermitian-poissonian", "truncation", "sweep"])
def test_nonconverged_solve_aborts_the_run(monkeypatch, run):
    def stalled(*args, **kwargs):
        return replace(top_eigs(*args, **kwargs), converged=False)

    monkeypatch.setattr(experiments, "top_eigs", stalled)
    with pytest.raises(RuntimeError, match="did not reach tol"):
        RUNS[run]()


def test_rerun_is_bit_identical():
    cfg = poisson_cfg()
    a = run_poisson_experiment(cfg).to_json(include_timing=False)
    b = run_poisson_experiment(cfg).to_json(include_timing=False)
    assert a == b


# ---------------------------------------------------------------------------
# config validation


def test_config_cross_checks():
    with pytest.raises(ValueError):
        make_config(alpha=1.0, mu=1.0, n=50, replicates=2, rho=0.5, shape="hermitian")
    # alpha and mu are stored once, in the law and the mask
    law, sparsity = TailLaw(alpha=1.5), SparsitySpec.bernoulli(0.5)
    cfg = ExperimentConfig(law=law, sparsity=sparsity, n=50, rho=0.5)
    assert cfg.regime == RegimeParams(alpha=1.5, mu=0.5, rho=0.5, n=50)
    with pytest.raises(ValueError):  # the regime is still validated
        ExperimentConfig(law=law, sparsity=sparsity, n=0)


def test_config_bounds():
    with pytest.raises(ValueError):
        poisson_cfg(replicates=0)
    with pytest.raises(ValueError):
        poisson_cfg(top_k=51)
    with pytest.raises(ValueError):
        poisson_cfg(n=10, top_k=11)  # p = 10 caps top_k
    with pytest.raises(ValueError):
        poisson_cfg(thresholds=())
    with pytest.raises(ValueError):
        poisson_cfg(thresholds=(0.0,))
    with pytest.raises(ValueError):
        poisson_cfg(solver_tol=1e-13)


# ---------------------------------------------------------------------------
# regime guards


def test_poisson_refuses_other_regimes():
    with pytest.raises(ValueError, match="critical"):
        run_poisson_experiment(poisson_cfg(alpha=4.0))  # on the line at mu = 1
    with pytest.raises(ValueError, match="poissonian"):
        run_poisson_experiment(edge_cfg())
    with pytest.raises(ValueError, match="rectangular"):
        run_poisson_experiment(poisson_cfg(shape="hermitian"))


def test_edge_refuses_other_regimes_and_raw_laws():
    with pytest.raises(ValueError, match="edge"):
        run_edge_experiment(poisson_cfg())
    with pytest.raises(ValueError, match="standardized"):
        run_edge_experiment(edge_cfg(standardize=False))
    with pytest.raises(ValueError, match="critical"):
        run_edge_experiment(edge_cfg(alpha=4.0, standardize=False))


def test_hermitian_refuses_wrong_shape_and_critical():
    with pytest.raises(ValueError, match="hermitian"):
        run_hermitian_experiment(poisson_cfg())
    with pytest.raises(ValueError, match="critical"):
        run_hermitian_experiment(poisson_cfg(alpha=4.0, shape="hermitian"))
    with pytest.raises(ValueError, match="standardized"):
        run_hermitian_experiment(edge_cfg(shape="hermitian", standardize=False))


def test_truncation_guards():
    with pytest.raises(ValueError, match="alpha > 2"):
        run_truncation_experiment(poisson_cfg())
    with pytest.raises(ValueError, match="standardized"):
        run_truncation_experiment(edge_cfg(standardize=False))
    cfg = edge_cfg()
    with pytest.raises(ValueError, match="gamma_prime > gamma"):
        run_truncation_experiment(cfg, gamma=0.5, gamma_prime=0.5)
    with pytest.raises(ValueError, match="mu/2"):
        run_truncation_experiment(cfg, gamma=0.2, gamma_prime=0.4)
    with pytest.raises(ValueError, match="kappa"):
        run_truncation_experiment(cfg, gamma=0.2, gamma_prime=0.5, kappa=1.0)


# ---------------------------------------------------------------------------
# truncation window defaults


def test_truncation_window_edge_regime():
    gamma, gp = truncation_window(8.0, 1.0)
    assert gp == 0.5
    assert gamma == pytest.approx(0.5 * (1.0 / 14.0 + 0.5))
    assert gamma < gp


def test_truncation_window_poissonian_regime():
    # alpha = 2.5, mu = 1 lies below the critical line 2 (1 + 1/mu) = 4
    gamma, gp = truncation_window(2.5, 1.0)
    assert gamma == pytest.approx(0.5 * (0.4 - 1.0 / 3.75 + 0.8))
    assert gp == pytest.approx(0.5 * (0.5 + 0.8))
    assert gp > gamma and gp >= 0.5


def test_truncation_window_validation():
    with pytest.raises(ValueError):
        truncation_window(2.0, 1.0)
    with pytest.raises(ValueError):
        truncation_window(8.0, 0.0)


# ---------------------------------------------------------------------------
# small runs of each kind: structure, not statistics


def check_report_shape(report, kind, replicates):
    assert report.kind == kind
    assert len(report.records) == replicates
    assert [rec.r for rec in report.records] == list(range(replicates))
    for v in report.verdicts:
        assert set(v) >= VERDICT_KEYS
        assert isinstance(v["pass"], bool)
    assert report.passed() == all(v["pass"] for v in report.verdicts)
    assert report.config["replicates"] == replicates


def test_poisson_small_run():
    report = run_poisson_experiment(poisson_cfg())
    check_report_shape(report, "poisson", 4)
    agg = report.aggregates
    for key in (
        "c_np", "median_ratio_entry_1", "ks_frechet_top1", "count_test",
        "basis_dist_freq_02", "interlacing_spot",
    ):
        assert key in agg
    assert agg["interlacing_spot"]["holds"]
    assert len(report.verdicts) == 5
    # points are the top eigenvalues on the c_np^2 scale
    rec = report.records[0]
    assert rec.points[0] == pytest.approx(rec.eigs[0] / agg["c_np"] ** 2)


def test_poisson_run_with_empty_replicates():
    # At mu = 0 and n = 3, replicates 0, 11 and 17 of seed 1 store no entry.
    cfg = poisson_cfg(mu=0.0, n=3, replicates=20, top_k=1, master_seed=1)
    report = run_poisson_experiment(cfg)
    empty = [rec.r for rec in report.records if not rec.entries]
    assert empty == [0, 11, 17]
    kept = [rec.residuals[0] for rec in report.records if rec.entries]
    assert report.aggregates["mean_residual_1"] == pytest.approx(np.mean(kept))
    # With only replicate 0 nothing is ranked, and the mean is null in JSON.
    report = run_poisson_experiment(replace(cfg, replicates=1))
    assert math.isnan(report.aggregates["mean_residual_1"])
    assert json.loads(report.to_json())["aggregates"]["mean_residual_1"] is None


def test_edge_small_run_dense_path():
    report = run_edge_experiment(edge_cfg())
    check_report_shape(report, "edge", 3)
    agg = report.aggregates
    assert math.isfinite(agg["mean_ks_mp"])  # dense path computed an ESD
    assert set(agg["localized_freq"]) == {0.1, 0.2, 0.3, 0.4, 0.5}
    assert len(report.verdicts) == 4
    assert agg["mean_top_over_n_mu"] == pytest.approx(4.0 * agg["mean_ratio_edge_1"])


def test_hermitian_small_run_poissonian():
    report = run_hermitian_experiment(poisson_cfg(shape="hermitian"))
    check_report_shape(report, "hermitian", 4)
    agg = report.aggregates
    assert agg["regime"] == POISSONIAN
    assert "ks_frechet_top1" in agg and "c_n" in agg
    assert len(report.verdicts) == 5


def test_hermitian_small_run_edge():
    report = run_hermitian_experiment(edge_cfg(shape="hermitian"))
    check_report_shape(report, "hermitian", 3)
    agg = report.aggregates
    assert agg["regime"] == EDGE
    assert "mean_top_over_n_half_mu" in agg
    assert len(report.verdicts) == 3


def test_truncation_small_run():
    cfg = edge_cfg(n=60, replicates=4)
    report = run_truncation_experiment(cfg, gamma=0.2, gamma_prime=0.5)
    check_report_shape(report, "truncation", 4)
    agg = report.aggregates
    assert agg["level"] == pytest.approx(60.0**0.2)
    assert agg["norm_bound"] == pytest.approx(1.5 * 60.0 * 4.0)
    assert report.config["gamma"] == 0.2
    assert len(report.verdicts) == 2


def test_truncation_defaults_applied():
    cfg = edge_cfg(n=60)
    report = run_truncation_experiment(cfg)
    gamma, gp = truncation_window(8.0, 1.0)
    assert report.aggregates["gamma"] == pytest.approx(gamma)
    assert report.aggregates["gamma_prime"] == pytest.approx(gp)


# ---------------------------------------------------------------------------
# report serialization


def test_save_json_roundtrip(tmp_path):
    report = run_poisson_experiment(poisson_cfg(replicates=2))
    path = tmp_path / "report.json"
    report.save_json(path)
    payload = json.loads(path.read_text())
    assert set(payload) == {
        "format_version", "kind", "config", "replicates", "aggregates", "verdicts",
        "elapsed_s",
    }
    assert payload["kind"] == "poisson"
    assert len(payload["replicates"]) == 2
    assert payload["config"]["alpha"] == 1.0
    assert "sparsity" not in payload["config"]  # one mask: mu is the whole spec
    # timing-free form drops elapsed_s and per-replicate time_s
    report.save_json(path, include_timing=False)
    bare = json.loads(path.read_text())
    assert "elapsed_s" not in bare
    assert bare["format_version"] == payload["format_version"] == 3
    assert all("time_s" not in rec for rec in bare["replicates"])


def test_save_csv_parses(tmp_path):
    report = run_poisson_experiment(poisson_cfg(replicates=3))
    path = tmp_path / "report.csv"
    report.save_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "r,lambda1,entry1_sq,ratio_entry,ratio_edge,loc_dist,norm_inf,norm_one"
    assert len(lines) == 4
    for line, rec in zip(lines[1:], report.records):
        cells = line.split(",")
        assert int(cells[0]) == rec.r
        assert float(cells[1]) == rec.eigs[0]
        assert float(cells[2]) == pytest.approx(rec.entries[0][2] ** 2)


# ---------------------------------------------------------------------------
# phase sweep


def test_phase_sweep_structure(tmp_path):
    sweep = run_phase_sweep((1.0, 8.0), (1.0,), n=40, replicates=2, master_seed=3)
    assert sweep["n"] == 40 and sweep["replicates"] == 2
    assert len(sweep["cells"]) == 2
    by_alpha = {cell["alpha"]: cell for cell in sweep["cells"]}
    assert by_alpha[1.0]["regime"] == POISSONIAN
    assert by_alpha[8.0]["regime"] == EDGE
    for cell in sweep["cells"]:
        assert math.isfinite(cell["median_ratio_entry"])
        assert math.isfinite(cell["median_ratio_edge"])

    path = tmp_path / "sweep.csv"
    sweep_to_csv(sweep, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "alpha,mu,regime,median_ratio_entry,median_ratio_edge,median_loc_dist"
    assert len(lines) == 3
    cells = lines[1].split(",")
    assert float(cells[0]) == 1.0 and cells[2] == POISSONIAN


def test_phase_sweep_validation():
    with pytest.raises(ValueError):
        run_phase_sweep((), (1.0,), n=40)
    with pytest.raises(ValueError):
        run_phase_sweep((1.0,), (), n=40)


def test_phase_sweep_separates_regimes():
    # the headline ratio each regime predicts to be near 1 is near 1
    sweep = run_phase_sweep((1.0, 8.0), (1.0,), n=120, replicates=3, master_seed=29)
    by_alpha = {cell["alpha"]: cell for cell in sweep["cells"]}
    assert 0.8 <= by_alpha[1.0]["median_ratio_entry"] <= 1.2
    assert 0.5 <= by_alpha[8.0]["median_ratio_edge"] <= 1.5
    # and the competing normalization is far from 1 on the other side
    assert by_alpha[1.0]["median_ratio_edge"] > 3.0
    assert by_alpha[8.0]["median_ratio_entry"] > 3.0


# ---------------------------------------------------------------------------
# invariant suite


def test_invariant_suite_small():
    out = run_invariant_suite(seed=123, instances=25, lemma_instances=10, size_cap=20)
    assert out["pass"]
    names = {c["name"] for c in out["checks"]}
    assert names == {
        "rayleigh_lower_bound",
        "norm_product_upper_bound",
        "interlacing_hermitian_minor",
        "interlacing_row_deletion",
        "interlacing_col_deletion",
        "residual_ball_enclosure",
        "eigenvector_gap_bound",
        "localized_submatrix_bound",
    }
    assert all(c["violations"] == 0 for c in out["checks"])
    assert out["gap_bound_evaluated"] > 0
    lemma = next(c for c in out["checks"] if c["name"] == "localized_submatrix_bound")
    assert lemma["instances"] == 10
