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
    run_experiment,
    run_invariant_suite,
    run_phase_sweep,
    run_poisson_experiment,
    sweep_to_csv,
    truncation_window,
    _map_replicates,
)
from htspec.limits import EDGE, POISSONIAN
from htspec.matrices import SparseMatrix, norms, top_entries
from htspec.seeding import mix64
from htspec.spectral import top_eigs
from htspec.tails import EnsembleSpec, SparsitySpec, TailLaw, sample_matrix

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


def edge_lanczos_run():
    # p = 48 lies above the lowered limit, so the edge run solves by Lanczos.
    cfg = edge_cfg()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "DENSE_DIM_LIMIT", cfg.ensemble(0).p - 1)
        return run_edge_experiment(cfg)


RUNS = {
    "poisson": lambda: run_poisson_experiment(poisson_cfg()),
    "edge": lambda: run_edge_experiment(edge_cfg()),
    "edge-lanczos": edge_lanczos_run,
    "hermitian-poissonian": lambda: run_experiment(poisson_cfg(shape="hermitian"), "hermitian"),
    "hermitian-edge": lambda: run_experiment(edge_cfg(shape="hermitian"), "hermitian"),
    "truncation": lambda: run_experiment(edge_cfg(n=60), "truncation", gamma=0.2),
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


@pytest.mark.parametrize("run", ["poisson", "hermitian-poissonian"])
def test_halved_eigenvalues_abort_the_run(monkeypatch, run):
    # A converged-looking solve whose values are half the truth must trip the
    # inline Rayleigh bound: the slack at SOLVER_TOL is far below a factor 2.
    def halved(*args, **kwargs):
        spec = top_eigs(*args, **kwargs)
        return replace(spec, eigenvalues=spec.eigenvalues * 0.5)

    monkeypatch.setattr(experiments, "top_eigs", halved)
    with pytest.raises(RuntimeError, match="Rayleigh lower bound violated"):
        RUNS[run]()


# A bulk-dominated lambda_1 is about four times the max row square sum, so a
# value off by a factor 2 can still sit above it; a tenth cannot.  The runs
# reach the truncation's small-part solve, the dense Gram route and the
# symmetric edge route.
@pytest.mark.parametrize("run", ["truncation", "edge", "hermitian-edge"])
def test_tenth_of_the_top_value_aborts_the_run(monkeypatch, run):
    def tenth(solver):
        def solve(*args, **kwargs):
            spec = solver(*args, **kwargs)
            return replace(spec, eigenvalues=spec.eigenvalues * 0.1)

        return solve

    for name in ("top_eigs", "eig_dense_symmetric"):
        monkeypatch.setattr(experiments, name, tenth(getattr(experiments, name)))
    with pytest.raises(RuntimeError, match="Rayleigh lower bound violated"):
        RUNS[run]()


def test_rerun_is_bit_identical():
    cfg = poisson_cfg()
    a = run_poisson_experiment(cfg).to_json(include_timing=False)
    b = run_poisson_experiment(cfg).to_json(include_timing=False)
    assert a == b


# ---------------------------------------------------------------------------
# config validation


def test_config_cross_checks():
    # alpha and mu are stored once, in the law and the mask, and replicate r
    # samples the ensemble they describe, seeded by its replicate seed.
    law, sparsity = TailLaw(alpha=1.5), SparsitySpec.bernoulli(0.5)
    cfg = ExperimentConfig(law=law, sparsity=sparsity, n=50, rho=0.5, master_seed=7)
    spec = cfg.ensemble(3)
    assert spec == EnsembleSpec(
        shape="rectangular", n=50, law=law, sparsity=sparsity,
        seed=derive_replicate_seed(7, 3), rho=0.5,
    )
    assert spec.p == 25


# Each bad ensemble and the message that refuses it.
BAD_ENSEMBLES = {
    "alpha=0": ({"alpha": 0.0}, "alpha must be finite and positive"),
    "mu=1.5": ({"mu": 1.5}, "mu must lie in"),
    "n=0": ({"n": 0}, "n must be a positive integer"),
    "rho=0": ({"rho": 0.0}, "rho must lie in"),
    "zero-rows": ({"n": 10, "rho": 0.04}, "rounds to zero rows"),
    "hermitian-rho": ({"shape": "hermitian", "rho": 0.5}, "hermitian matrices are square"),
    "unknown-shape": ({"shape": "square"}, "unknown shape"),
    "seed=-1": ({"master_seed": -1}, "master seed must be an integer"),
    "seed=2**64": ({"master_seed": 2 ** 64}, "master seed must be an integer"),
}


@pytest.mark.parametrize("case", sorted(BAD_ENSEMBLES))
def test_config_refuses_a_bad_ensemble(case):
    # A bad ensemble is refused when the config is built, before any
    # replicate runs, by make_config and ExperimentConfig alike.
    bad, message = BAD_ENSEMBLES[case]
    fields = {"alpha": 1.0, "mu": 1.0, "n": 50, "replicates": 2, "top_k": 1, **bad}
    with pytest.raises(ValueError, match=message):
        make_config(**fields)
    alpha, mu = fields.pop("alpha"), fields.pop("mu")
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(law=TailLaw(alpha=alpha), sparsity=SparsitySpec.bernoulli(mu), **fields)


def test_config_bounds():
    with pytest.raises(ValueError):
        poisson_cfg(replicates=0)
    with pytest.raises(ValueError):
        poisson_cfg(top_k=51)
    with pytest.raises(ValueError):
        poisson_cfg(n=10, top_k=11)  # p = 10 caps top_k


def test_solver_tolerance_and_kappa_are_constants():
    with pytest.raises(TypeError):
        poisson_cfg(solver_tol=1e-9)
    law, sparsity = TailLaw(alpha=1.5), SparsitySpec.bernoulli(0.5)
    with pytest.raises(TypeError):
        ExperimentConfig(law=law, sparsity=sparsity, n=50, solver_tol=1e-9)
    for knob in ({"kappa": 2.0}, {"gamma_prime": 0.5}):
        with pytest.raises(TypeError):
            run_experiment(edge_cfg(), "truncation", gamma=0.2, **knob)
    assert poisson_cfg().solver_tol == experiments.SOLVER_TOL == 1e-8
    config = json.loads(payload(run_poisson_experiment(poisson_cfg(replicates=1))))["config"]
    assert config["solver_tol"] == 1e-8
    report = json.loads(payload(RUNS["truncation"]()))
    assert report["config"]["kappa"] == report["aggregates"]["kappa"] == 1.5


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
        run_experiment(poisson_cfg(), "hermitian")
    with pytest.raises(ValueError, match="critical"):
        run_experiment(poisson_cfg(alpha=4.0, shape="hermitian"), "hermitian")
    with pytest.raises(ValueError, match="standardized"):
        run_experiment(edge_cfg(shape="hermitian", standardize=False), "hermitian")


def test_truncation_guards():
    with pytest.raises(ValueError, match="alpha > 2"):
        run_experiment(poisson_cfg(), "truncation")
    with pytest.raises(ValueError, match="standardized"):
        run_experiment(edge_cfg(standardize=False), "truncation")
    # gamma' is the window's mu/2 = 0.5 here, and gamma must lie below it
    with pytest.raises(ValueError, match="gamma_prime > gamma"):
        run_experiment(edge_cfg(), "truncation", gamma=0.5)


def test_truncation_refuses_gamma_outside_its_window():
    # The window is (mu / (2 (alpha - 1)), mu / 2) at the edge and
    # (max(0, mu/alpha - 1/(alpha (alpha - 1))), (mu + 1)/alpha) otherwise;
    # below it the small part can be empty and the norm verdict vacuous.
    edge, poissonian = edge_cfg(replicates=1), poisson_cfg(alpha=2.5, standardize=True)
    for cfg, lo in ((edge, 1.0 / (2.0 * 7.0)), (poissonian, 1.0 / 2.5 - 1.0 / (2.5 * 1.5))):
        for gamma in (-1.0, lo):
            with pytest.raises(ValueError, match="window"):
                run_experiment(cfg, "truncation", gamma=gamma)
    assert run_experiment(edge, "truncation", gamma=0.2).config["gamma"] == 0.2


def test_gamma_refused_by_kinds_that_do_not_truncate():
    for kind, cfg in (("poisson", poisson_cfg()), ("edge", edge_cfg()),
                      ("hermitian", poisson_cfg(shape="hermitian"))):
        with pytest.raises(ValueError, match="takes no truncation exponent"):
            run_experiment(cfg, kind, gamma=0.3)
    with pytest.raises(ValueError, match="unknown experiment kind"):
        run_experiment(poisson_cfg(), "critical")


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
    # At mu = 0 and n = 3, replicates 0 and 14 of seed 60 store no entry; 60 is
    # the smallest master seed whose replicate 0 is empty.
    cfg = poisson_cfg(mu=0.0, n=3, replicates=20, top_k=1, master_seed=60)
    report = run_poisson_experiment(cfg)
    empty = [rec.r for rec in report.records if not rec.entries]
    assert empty == [0, 14]
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


def test_edge_small_run_lanczos_path():
    # Lanczos returns no whole spectrum: no ESD, no KS row, a null mean KS.
    report = RUNS["edge-lanczos"]()
    check_report_shape(report, "edge", 3)
    assert all(rec.extra["ks_mp"] is None for rec in report.records)
    assert json.loads(report.to_json())["aggregates"]["mean_ks_mp"] is None
    assert len(report.verdicts) == 3


def test_hermitian_small_run_poissonian():
    report = run_experiment(poisson_cfg(shape="hermitian"), "hermitian")
    check_report_shape(report, "hermitian", 4)
    agg = report.aggregates
    assert agg["regime"] == POISSONIAN
    assert "ks_frechet_top1" in agg and "c_n" in agg
    assert len(report.verdicts) == 5


def test_hermitian_small_run_edge():
    report = run_experiment(edge_cfg(shape="hermitian"), "hermitian")
    check_report_shape(report, "hermitian", 3)
    agg = report.aggregates
    assert agg["regime"] == EDGE
    assert "mean_top_over_n_half_mu" in agg
    assert len(report.verdicts) == 3


def test_truncation_small_run():
    cfg = edge_cfg(n=60, replicates=4)
    report = run_experiment(cfg, "truncation", gamma=0.2)
    check_report_shape(report, "truncation", 4)
    agg = report.aggregates
    assert agg["level"] == pytest.approx(60.0**0.2)
    assert agg["norm_bound"] == pytest.approx(1.5 * 60.0 * 4.0)
    assert report.config["gamma"] == 0.2
    assert len(report.verdicts) == 2


def test_truncation_defaults_applied():
    cfg = edge_cfg(n=60)
    report = run_experiment(cfg, "truncation")
    gamma, gp = truncation_window(8.0, 1.0)
    assert report.aggregates["gamma"] == pytest.approx(gamma)
    assert report.aggregates["gamma_prime"] == pytest.approx(gp)


def test_truncation_run_with_empty_replicates():
    # At mu = 0.1 and n = 3 some replicates store no entry; their large part
    # is empty too, so the ratios are NaN and the verdict counts a failure.
    cfg = edge_cfg(mu=0.1, n=3, replicates=200, top_k=1, master_seed=1)
    report = run_experiment(cfg, "truncation")
    empty = [rec for rec in report.records if not rec.entries]
    assert empty
    for rec in empty:
        assert rec.extra["mprime_nnz"] == 0
        assert math.isnan(rec.extra["ratio_inf"]) and math.isnan(rec.extra["ratio_one"])
    agg = report.aggregates
    assert agg["undefined_count"] >= len(empty)
    assert agg["ratio_inf_freq_12"] <= 1.0 - len(empty) / 200
    assert json.loads(report.to_json())["replicates"][empty[0].r]["extra"]["ratio_inf"] is None


_SPOT = "interlacing spot check"
_ENTRY_RATIO = "median entry ratio in [0.9, 1.1]"
_COUNT = "mean count above 1 within 0.3 of prediction"
_PAIRING = ["invalid_pairing_count", "ambiguous_count", "interlacing_spot"]
_HERMITIAN_HEAD = ["c_n", "regime", "median_ratio_entry_1", "median_pair_dist_1",
                   "pair_dist_freq_025", *_PAIRING]

# Per run: the aggregate keys and the verdict criteria, each in report order.
REPORT_LAYOUT = {
    "poisson": (
        ["c_np", "median_ratio_entry_1", "median_ratio_entry_rest", "ks_frechet_top1",
         "count_test", "median_basis_dist_1", "basis_dist_freq_02", "mean_residual_1",
         "ambiguous_count", "interlacing_spot"],
        [_ENTRY_RATIO, "KS(top eigenvalue / c_np^2, Frechet(alpha/2)) <= 0.12", _COUNT,
         "basis distance <= 0.2 in >= 80% of replicates", _SPOT],
    ),
    "edge": (
        ["mean_ratio_edge_1", "mean_top_over_n_mu", "mean_ks_mp", "localized_freq",
         "mean_mass", "ambiguous_count", "interlacing_spot"],
        ["mean top eigenvalue / (n^mu (1+sqrt(rho))^2) in [0.85, 1.15]",
         "mean KS(ESD, Marchenko-Pastur) <= 0.08",
         "localization frequency at (floor(p^0.3), 0.3) <= 10%", _SPOT],
    ),
    "edge-lanczos": (
        ["mean_ratio_edge_1", "mean_top_over_n_mu", "mean_ks_mp", "localized_freq",
         "mean_mass", "ambiguous_count", "interlacing_spot"],
        ["mean top eigenvalue / (n^mu (1+sqrt(rho))^2) in [0.85, 1.15]",
         "localization frequency at (floor(p^0.3), 0.3) <= 10%", _SPOT],
    ),
    "hermitian-poissonian": (
        [*_HERMITIAN_HEAD, "ks_frechet_top1", "count_test"],
        [_ENTRY_RATIO, "KS(top eigenvalue / c_n, Frechet(alpha)) <= 0.12", _COUNT,
         "pair distance <= 0.25 in >= 75% of replicates", _SPOT],
    ),
    "hermitian-edge": (
        [*_HERMITIAN_HEAD, "mean_top_over_n_half_mu", "localized_freq_headline"],
        ["mean top eigenvalue / n^(mu/2) in [1.7, 2.3]",
         "localization frequency at (floor(n^0.3), 0.3) <= 10%", _SPOT],
    ),
    "truncation": (
        ["gamma", "gamma_prime", "kappa", "level", "norm_bound", "exceed_freq",
         "mean_hat_norm", "ratio_inf_freq_12", "median_ratio_inf", "undefined_count"],
        ["truncated Gram norm exceedance frequency <= 5%",
         "residual infinity norm <= 1.2 x top entry in >= 90% of replicates"],
    ),
}


@pytest.mark.parametrize("run", sorted(REPORT_LAYOUT))
def test_report_layout(run):
    # Key and row order are part of the report bytes; the values are not pinned.
    report = RUNS[run]()
    keys, criteria = REPORT_LAYOUT[run]
    assert list(report.aggregates) == keys
    assert [v["criterion"] for v in report.verdicts] == criteria
    head = ["alpha", "mu", "rho", "n", "p", "shape", "law", "replicates", "top_k",
            "thresholds", "master_seed", "solver_tol"]
    window = ["gamma", "gamma_prime", "kappa"] if run == "truncation" else []
    assert list(report.config) == head + window


def test_interlacing_spot_on_empty_minors():
    # p = 1 rows and a 1 x 1 hermitian matrix leave an empty minor to compare.
    poisson = run_poisson_experiment(poisson_cfg(n=2, rho=0.5, replicates=3, top_k=1))
    hermitian = run_experiment(
        poisson_cfg(shape="hermitian", n=1, alpha=1.2, mu=0.4, replicates=3, top_k=1), "hermitian"
    )
    for report, mode in ((poisson, "row_deletion"), (hermitian, "hermitian_minor")):
        spot = report.aggregates["interlacing_spot"]
        assert spot["mode"] == mode
        assert spot["holds"] and spot["max_violation"] == 0.0


def test_poissonian_runs_judge_one_count_threshold():
    # Both ensembles count exceedances of 0.5, 1 and 2 and judge threshold 1.
    for report in (
        run_poisson_experiment(poisson_cfg()),
        run_experiment(poisson_cfg(shape="hermitian"), "hermitian"),
    ):
        criteria = [v["criterion"] for v in report.verdicts]
        assert sum(c.startswith("mean count above 1") for c in criteria) == 1
        counts = report.aggregates["count_test"]
        assert [rec["threshold"] for rec in counts] == [0.5, 1.0, 2.0]
        assert report.config["thresholds"] == [0.5, 1.0, 2.0]


def test_symmetric_bound_with_diagonal_top_entry():
    # The largest entry is a_00 = 5, and e_0 gives lambda_1 >= a_00 exactly.
    a = np.array([[5.0, 1.0], [1.0, -2.0]])
    m = SparseMatrix.from_dense(a, symmetric=True)
    (top,), _ = top_entries(m, 1)
    assert (top.i, top.j) == (0, 0)
    lower, upper = experiments._exact_bounds(m, top, *norms(m))
    assert (lower, upper) == (5.0, 6.0)
    lam1 = float(np.linalg.eigvalsh(a)[-1])
    assert experiments._outside_bounds(lam1, lower, upper, 0.0) == (False, False)
    assert experiments._outside_bounds(4.9, lower, upper, 0.0) == (True, False)


@pytest.mark.parametrize("shape", ["rectangular", "hermitian"])
def test_exact_bounds_bracket_the_top_eigenvalue(shape):
    # Raw and standardized laws (the latter with negative diagonal entries),
    # empty to full masks, and both ensembles at n <= 12.
    laws = (TailLaw(alpha=0.8), TailLaw(alpha=1.5), TailLaw(alpha=4.0, standardize=True))
    checked = 0
    for mu in (0.0, 0.5, 1.0):
        for seed in range(24):
            rho = 1.0 if shape == "hermitian" else (0.4, 0.7, 1.0)[seed // 3 % 3]
            spec = EnsembleSpec(
                shape=shape, n=3 + seed % 10, law=laws[seed % 3],
                sparsity=SparsitySpec.bernoulli(mu), seed=seed, rho=rho,
            )
            m = sample_matrix(spec)
            a = m.to_dense()
            top_value = float(np.linalg.eigvalsh(a if m.symmetric else a @ a.T)[-1])
            entries, _ = top_entries(m, 1)
            lower, upper = experiments._exact_bounds(m, entries[0] if entries else None, *norms(m))
            assert experiments._outside_bounds(top_value, lower, upper, 0.0) == (False, False)
            checked += m.nnz > 0
    assert checked > 50
    empty = SparseMatrix.from_dense(np.zeros((3, 3)), symmetric=True)
    assert experiments._exact_bounds(empty, None, *norms(empty)) == (-math.inf, 0.0)


# Per run: the kind, its config, and whether some record ranks a negative
# diagonal entry, so that the pairing rule is exercised.
ENSEMBLE_RUNS = {
    "poisson": ("poisson", poisson_cfg(n=12, replicates=20, top_k=5, master_seed=0), True),
    "edge": ("edge", edge_cfg(n=12, top_k=5), False),
    "hermitian-poissonian": (
        "hermitian",
        poisson_cfg(shape="hermitian", n=12, replicates=20, top_k=5, master_seed=0),
        True,
    ),
    "hermitian-edge": ("hermitian", edge_cfg(shape="hermitian", n=12, top_k=5), False),
}


@pytest.mark.parametrize("run", sorted(ENSEMBLE_RUNS))
def test_replicates_follow_their_ensemble(run):
    # Covariance eigenvalues pair with squared entries at the Marchenko-Pastur
    # edge (1 + sqrt rho)^2 n^mu; symmetric ones pair with entries at the
    # semicircle edge 2 n^(mu/2), except a negative diagonal entry, which pairs
    # with the bottom of the spectrum.  Each record is checked against its
    # resampled matrix.
    kind, cfg, exercised = ENSEMBLE_RUNS[run]
    report = run_experiment(cfg, kind)
    n, mu, rho, k = cfg.n, cfg.sparsity.mu, cfg.rho, cfg.top_k
    symmetric = cfg.shape == "hermitian"
    if symmetric:
        power, edge_scale = 1, 2.0 * float(n) ** (mu / 2.0)
        scale = report.aggregates["c_n"]
    else:
        power, edge_scale = 2, (1.0 + math.sqrt(rho)) ** 2 * float(n) ** mu
        scale = report.aggregates["c_np"] ** 2 if kind == "poisson" else None
    negative_diagonal = invalid = 0
    for rec in report.records:
        m = sample_matrix(EnsembleSpec(
            shape=cfg.shape, n=n, law=cfg.law, sparsity=cfg.sparsity,
            seed=derive_replicate_seed(cfg.master_seed, rec.r), rho=rho,
        ))
        assert m.symmetric == symmetric
        ranked = top_entries(m, k + 1)[0][:k]
        assert rec.entries == [[e.i, e.j, e.magnitude, e.theta] for e in ranked]
        assert rec.ratios["entry"] == [x / e.magnitude ** power for x, e in zip(rec.eigs, ranked)]
        assert rec.ratios["edge"] == [x / edge_scale for x in rec.eigs]
        assert rec.points == ([x / scale for x in rec.eigs] if scale is not None else [])
        flagged = [e.i == e.j and e.theta != 0.0 for e in ranked]
        assert rec.pairing_valid == [not (symmetric and f) for f in flagged]
        negative_diagonal += any(flagged)
        invalid += not all(rec.pairing_valid)
    if exercised:
        assert negative_diagonal > 0
        assert invalid == (negative_diagonal if symmetric else 0)


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
    assert bare["format_version"] == payload["format_version"] == 4
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
    out = run_invariant_suite(seed=123, instances=25, lemma_instances=10)
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


def test_invariant_suite_refuses_counts_below_one():
    for instances, lemma_instances in ((0, 10), (-3, 10), (25, 0), (-3, -1)):
        with pytest.raises(ValueError, match=">= 1"):
            run_invariant_suite(seed=123, instances=instances, lemma_instances=lemma_instances)
