"""Replicated Monte Carlo experiments and the exact-invariant verification suite.

Each experiment samples many independent matrices, extracts extreme
eigenvalues and eigenvectors, and aggregates the statistics that the phase
picture predicts: entry/eigenvalue ratios, Frechet fit of the rescaled top
eigenvalue, Poisson exceedance counts, Marchenko-Pastur fit of the bulk, and
localization frequencies.  Every aggregate is accompanied by a verdict with
the tolerance it was calibrated at, so a report is self-judging.

Replicate ``r`` of a run draws everything from
``derive_replicate_seed(master_seed, r)``; reports are therefore a pure
function of their configuration, byte-identical across runs and worker
schedules once timing fields are stripped.  The worker count is capped by
the ``HTSPEC_WORKERS`` environment variable and by the CPU count.

Exact algebraic facts (Rayleigh lower bound, norm product upper bound,
triangle inequality of a truncation split) are asserted inline on every
replicate and abort the run on failure: they hold for every sample, so a
violation means a bug, not bad luck.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import limits
from .limits import (
    CRITICAL,
    EDGE,
    POISSONIAN,
    RegimeParams,
    c_n,
    c_np,
    classify_regime,
    frechet_cdf,
    mp_edges,
)
from .localization import (
    distance_to_basis_vector,
    distance_to_pair_vector,
    is_localized,
    localization_profile,
)
from .matrices import SparseMatrix, gram_matvec, norms, top_entries, truncate_split
from .seeding import mix64
from .spectral import (
    DENSE_DIM_LIMIT,
    INTERLACE_COL_DELETION,
    INTERLACE_HERMITIAN_MINOR,
    INTERLACE_ROW_DELETION,
    SpectralResult,
    check_interlacing,
    eig_dense_symmetric,
    localization_bound_check,
    perturbation_check,
    top_eigs,
)
from .stats import ks_statistic, esd, poisson_count_test
from .tails import (
    BERNOULLI,
    HERMITIAN,
    RECTANGULAR,
    SV_CONSTANT,
    EnsembleSpec,
    SparsitySpec,
    TailLaw,
    sample_matrix,
)

WORKERS_ENV = "HTSPEC_WORKERS"

# Localization sweep for delocalization checks: support sizes floor(p**beta).
LOC_BETAS = (0.1, 0.2, 0.3, 0.4, 0.5)
LOC_BETA_HEADLINE = 0.3
LOC_ETA = 0.3

# Ranked entries closer than this relative gap make the eigenvalue/entry
# pairing ambiguous at finite size; such replicates are excluded from ratio
# aggregates beyond the top pair.
AMBIGUOUS_REL_GAP = 1e-6

_TAG_SOLVER = 2
_SPOT_REPLICATE_TAG = 999983
_SPOT_INDEX_TAG = 999979


def derive_replicate_seed(master_seed: int, r: int) -> int:
    """Seed of replicate ``r``: ``mix64(master_seed, r)``.

    Children are order-independent, so replicates can run on any schedule and
    still reproduce bit-identically.
    """
    return mix64(master_seed, r)


def _worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV)
    if raw is not None:
        try:
            value = int(raw)
        except ValueError as exc:
            raise ValueError(f"{WORKERS_ENV} must be an integer: {raw!r}") from exc
        if value < 1:
            raise ValueError(f"{WORKERS_ENV} must be >= 1: {value}")
        return value
    return os.cpu_count() or 1


def _map_replicates(fn, count: int) -> list:
    # More threads than CPUs only add contention for the interpreter lock.
    workers = min(_worker_count(), os.cpu_count() or 1, count)
    if workers <= 1:
        return [fn(r) for r in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))


@dataclass(frozen=True)
class ExperimentConfig:
    """Immutable description of a replicated run."""

    regime: RegimeParams
    law: TailLaw
    sparsity: SparsitySpec
    shape: str = RECTANGULAR
    replicates: int = 10
    top_k: int = 5
    thresholds: tuple[float, ...] = (0.5, 1.0, 2.0)
    master_seed: int = 0
    esd_bins: int = 64
    solver_tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.shape not in (RECTANGULAR, HERMITIAN):
            raise ValueError(f"unknown shape: {self.shape!r}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1: {self.replicates}")
        if self.law.alpha != self.regime.alpha:
            raise ValueError(
                f"law alpha {self.law.alpha} disagrees with regime alpha {self.regime.alpha}"
            )
        if self.sparsity.mu != self.regime.mu:
            raise ValueError(
                f"sparsity mu {self.sparsity.mu} disagrees with regime mu {self.regime.mu}"
            )
        if self.shape == HERMITIAN and self.regime.rho != 1.0:
            raise ValueError("hermitian runs are square; rho must be 1")
        if not 1 <= self.top_k <= min(self.regime.p, 50):
            raise ValueError(
                f"top_k must lie in [1, min(p, 50)] = [1, {min(self.regime.p, 50)}]: {self.top_k}"
            )
        if not self.thresholds or any(not (math.isfinite(t) and t > 0) for t in self.thresholds):
            raise ValueError("thresholds must be positive and nonempty")
        if not isinstance(self.esd_bins, int) or self.esd_bins < 1:
            raise ValueError(f"esd_bins must be a positive integer: {self.esd_bins!r}")
        if not (math.isfinite(self.solver_tol) and self.solver_tol >= 1e-12):
            raise ValueError(f"solver_tol must be >= 1e-12: {self.solver_tol!r}")


def make_config(
    *,
    alpha: float,
    mu: float,
    n: int,
    replicates: int,
    rho: float = 1.0,
    shape: str = RECTANGULAR,
    top_k: int = 5,
    thresholds: tuple[float, ...] = (0.5, 1.0, 2.0),
    master_seed: int = 0,
    standardize: bool = False,
    sv_kind: str = SV_CONSTANT,
    sv_c: float = 1.0,
    sv_beta: float = 0.0,
    support_min: float = 1.0,
    sparsity_kind: str = BERNOULLI,
    halfwidth: int | None = None,
    count: int | None = None,
    esd_bins: int = 64,
    solver_tol: float = 1e-8,
) -> ExperimentConfig:
    """Convenience constructor wiring the law, mask, and regime together."""
    law = TailLaw(
        alpha=alpha,
        sv_kind=sv_kind,
        sv_c=sv_c,
        sv_beta=sv_beta,
        support_min=support_min,
        standardize=standardize,
    )
    sparsity = SparsitySpec(kind=sparsity_kind, mu=mu, halfwidth=halfwidth, count=count)
    regime = RegimeParams(alpha=alpha, mu=mu, rho=rho, n=n)
    return ExperimentConfig(
        regime=regime,
        law=law,
        sparsity=sparsity,
        shape=shape,
        replicates=replicates,
        top_k=top_k,
        thresholds=tuple(float(t) for t in thresholds),
        master_seed=master_seed,
        esd_bins=esd_bins,
        solver_tol=solver_tol,
    )


def _config_dict(cfg: ExperimentConfig) -> dict:
    return {
        "alpha": cfg.regime.alpha,
        "mu": cfg.regime.mu,
        "rho": cfg.regime.rho,
        "n": cfg.regime.n,
        "p": cfg.regime.p,
        "shape": cfg.shape,
        "law": {
            "sv_kind": cfg.law.sv_kind,
            "sv_c": cfg.law.sv_c,
            "sv_beta": cfg.law.sv_beta,
            "support_min": cfg.law.support_min,
            "standardize": cfg.law.standardize,
        },
        "sparsity": {
            "kind": cfg.sparsity.kind,
            "halfwidth": cfg.sparsity.halfwidth,
            "count": cfg.sparsity.count,
        },
        "replicates": cfg.replicates,
        "top_k": cfg.top_k,
        "thresholds": list(cfg.thresholds),
        "master_seed": cfg.master_seed,
        "esd_bins": cfg.esd_bins,
        "solver_tol": cfg.solver_tol,
    }


@dataclass
class ReplicateRecord:
    """One replicate's measurements; ``extra`` holds kind-specific scalars."""

    r: int
    eigs: list
    entries: list
    ratios: dict
    localization: dict
    norms: dict
    points: list
    loc_dist: float
    residuals: list | None = None
    ambiguous: bool = False
    pairing_valid: list | None = None
    extra: dict = field(default_factory=dict)
    time_s: float = 0.0

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "r": self.r,
            "eigs": self.eigs,
            "entries": self.entries,
            "ratios": self.ratios,
            "localization": self.localization,
            "norms": self.norms,
            "points": self.points,
            "loc_dist": self.loc_dist,
            "residuals": self.residuals,
            "ambiguous": self.ambiguous,
            "pairing_valid": self.pairing_valid,
            "extra": self.extra,
        }
        if include_timing:
            out["time_s"] = self.time_s
        return out


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return value if math.isfinite(value) else None
    return obj


@dataclass
class ExperimentReport:
    kind: str
    config: dict
    records: list[ReplicateRecord]
    aggregates: dict
    verdicts: list[dict]
    elapsed_s: float = 0.0

    def passed(self) -> bool:
        return all(v["pass"] for v in self.verdicts)

    def to_json(self, include_timing: bool = True) -> str:
        import json

        payload = {
            "kind": self.kind,
            "config": _jsonable(self.config),
            "replicates": [_jsonable(rec.to_dict(include_timing)) for rec in self.records],
            "aggregates": _jsonable(self.aggregates),
            "verdicts": _jsonable(self.verdicts),
        }
        if include_timing:
            payload["elapsed_s"] = self.elapsed_s
        return json.dumps(payload, indent=2)

    def save_json(self, path, include_timing: bool = True) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json(include_timing))
            fh.write("\n")

    def save_csv(self, path) -> None:
        """Per-replicate summary table; undefined cells are written as nan."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("r,lambda1,entry1_sq,ratio_entry,ratio_edge,loc_dist,norm_inf,norm_one\n")
            for rec in self.records:
                lambda1 = rec.eigs[0] if rec.eigs else math.nan
                entry1_sq = rec.entries[0][2] ** 2 if rec.entries else math.nan
                ratio_entry = rec.ratios["entry"][0] if rec.ratios.get("entry") else math.nan
                ratio_edge = rec.ratios["edge"][0] if rec.ratios.get("edge") else math.nan
                fh.write(
                    f"{rec.r},{lambda1!r},{entry1_sq!r},{ratio_entry!r},"
                    f"{ratio_edge!r},{rec.loc_dist!r},{rec.norms['inf']!r},{rec.norms['one']!r}\n"
                )


def _ensemble(cfg: ExperimentConfig, r: int) -> EnsembleSpec:
    return EnsembleSpec(
        shape=cfg.shape,
        n=cfg.regime.n,
        law=cfg.law,
        sparsity=cfg.sparsity,
        seed=derive_replicate_seed(cfg.master_seed, r),
        rho=cfg.regime.rho,
    )


def _max_row_square_sum(m: SparseMatrix) -> float:
    if m.nnz == 0:
        return 0.0
    sq = m.values * m.values
    starts = m.indptr[:-1][np.diff(m.indptr) > 0]
    return float(np.add.reduceat(sq, starts).max())


def _entry_at(m: SparseMatrix, i: int, j: int) -> float:
    row = m.indices[m.indptr[i]: m.indptr[i + 1]]
    pos = np.searchsorted(row, j)
    if pos < row.size and row[pos] == j:
        return float(m.values[m.indptr[i] + pos])
    return 0.0


def _assert_gram_bounds(lam1: float, m: SparseMatrix, tol: float) -> tuple[float, float]:
    """Exact sandwich for the top Gram eigenvalue; ``tol`` covers solver error."""
    inf_n, one_n = norms(m)
    lower = _max_row_square_sum(m)
    slack = 1e-9 * max(1.0, lower) + 10.0 * tol * max(1.0, abs(lam1))
    if lam1 < lower - slack:
        raise RuntimeError(
            f"Rayleigh lower bound violated: lambda1 = {lam1} < max row square sum {lower}"
        )
    if lam1 > inf_n * one_n * (1.0 + 1e-9) + 1e-12:
        raise RuntimeError(
            f"norm product upper bound violated: lambda1 = {lam1} > {inf_n * one_n}"
        )
    return inf_n, one_n


def _assert_symmetric_bounds(lam1: float, m: SparseMatrix, tol: float) -> tuple[float, float]:
    """Norm bound and two-site Rayleigh bound for a symmetric matrix."""
    inf_n, one_n = norms(m)
    if lam1 > inf_n * (1.0 + 1e-9) + 1e-12:
        raise RuntimeError(
            f"infinity norm bound violated: lambda1 = {lam1} > {inf_n}"
        )
    entries, _ = top_entries(m, 1)
    if entries:
        ent = entries[0]
        if ent.i != ent.j:
            diag = 0.5 * (_entry_at(m, ent.i, ent.i) + _entry_at(m, ent.j, ent.j))
            lower = diag + ent.magnitude
            slack = 1e-9 * max(1.0, abs(lower)) + 10.0 * tol * max(1.0, abs(lam1))
            if lam1 < lower - slack:
                raise RuntimeError(
                    f"two-site Rayleigh bound violated: lambda1 = {lam1} < {lower}"
                )
    return inf_n, one_n


def _ranked_lists(entries) -> list[list]:
    return [[e.i, e.j, e.magnitude, e.theta] for e in entries]


def _is_ambiguous(entries, k: int) -> bool:
    upto = min(k + 1, len(entries))
    for a, b in zip(entries[: upto - 1], entries[1: upto]):
        if a.magnitude - b.magnitude < AMBIGUOUS_REL_GAP * a.magnitude:
            return True
    return False


def _row_residual_norm(m: SparseMatrix, ent) -> float:
    e = np.zeros(m.rows)
    e[ent.i] = 1.0
    r = gram_matvec(m, e)
    r[ent.i] -= ent.magnitude ** 2
    return float(np.linalg.norm(r))


def _median(values: list[float]) -> float:
    return float(np.median(values)) if values else math.nan


def _check_critical(cfg: ExperimentConfig, wanted: str, name: str) -> None:
    regime = classify_regime(cfg.regime.alpha, cfg.regime.mu)
    if regime == CRITICAL:
        raise ValueError(
            f"(alpha, mu) = ({cfg.regime.alpha}, {cfg.regime.mu}) sits on the critical "
            "line alpha = 2 (1 + 1/mu); no limit is claimed there"
        )
    if regime != wanted:
        raise ValueError(
            f"{name} experiment requires the {wanted} regime but "
            f"(alpha, mu) = ({cfg.regime.alpha}, {cfg.regime.mu}) classifies as {regime}"
        )


def _interlacing_spot(cfg: ExperimentConfig, records_count: int) -> dict:
    """Deterministically chosen replicate gets a full interlacing verification."""
    r_star = mix64(cfg.master_seed, _SPOT_REPLICATE_TAG) % records_count
    m = sample_matrix(_ensemble(cfg, r_star))
    dense = m.to_dense()
    if cfg.shape == HERMITIAN:
        idx = mix64(cfg.master_seed, _SPOT_INDEX_TAG) % dense.shape[0]
        minor = np.delete(np.delete(dense, idx, axis=0), idx, axis=1)
        result = check_interlacing(dense, minor, INTERLACE_HERMITIAN_MINOR)
        mode = INTERLACE_HERMITIAN_MINOR
    else:
        idx = mix64(cfg.master_seed, _SPOT_INDEX_TAG) % dense.shape[0]
        minor = np.delete(dense, idx, axis=0)
        result = check_interlacing(dense, minor, INTERLACE_ROW_DELETION)
        mode = INTERLACE_ROW_DELETION
    return {"replicate": int(r_star), "deleted": int(idx), "mode": mode, **result}


# ---------------------------------------------------------------------------
# Poissonian regime, covariance ensemble


def _poisson_replicate(cfg: ExperimentConfig, r: int, cnp: float) -> ReplicateRecord:
    t0 = time.perf_counter()
    m = sample_matrix(_ensemble(cfg, r))
    k = cfg.top_k
    entries, _ = top_entries(m, k + 1)
    solver_seed = mix64(derive_replicate_seed(cfg.master_seed, r), _TAG_SOLVER)
    spec = top_eigs(m, k, tol=cfg.solver_tol, seed=solver_seed)
    lam = [float(x) for x in spec.eigenvalues]
    inf_n, one_n = _assert_gram_bounds(lam[0], m, cfg.solver_tol)

    usable = min(k, len(entries))
    ratio_entry = [lam[l] / entries[l].magnitude ** 2 for l in range(usable)]
    edge_scale = (1.0 + math.sqrt(cfg.regime.rho)) ** 2 * float(cfg.regime.n) ** cfg.regime.mu
    ratio_edge = [x / edge_scale for x in lam]
    basis_dist = [
        distance_to_basis_vector(spec.eigenvectors[:, l], entries[l].i) for l in range(usable)
    ]
    residuals = [_row_residual_norm(m, entries[l]) / cnp ** 2 for l in range(usable)]
    points = [x / cnp ** 2 for x in lam]
    return ReplicateRecord(
        r=r,
        eigs=lam,
        entries=_ranked_lists(entries[:usable]),
        ratios={"entry": ratio_entry, "edge": ratio_edge},
        localization={"basis_dist": basis_dist},
        norms={"inf": inf_n, "one": one_n},
        points=points,
        loc_dist=basis_dist[0] if basis_dist else math.nan,
        residuals=residuals,
        ambiguous=_is_ambiguous(entries, k),
        pairing_valid=[True] * usable,
        time_s=time.perf_counter() - t0,
    )


def run_poisson_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Heavy-tailed covariance run: extremes follow the largest entries.

    Verdict tolerances are calibrated for the canonical scale (n = 500,
    200 replicates, alpha = 1, mu = 1); smaller runs still report them.
    """
    if cfg.shape != RECTANGULAR:
        raise ValueError("poisson experiment runs the rectangular ensemble")
    _check_critical(cfg, POISSONIAN, "poisson")
    t0 = time.perf_counter()
    reg = cfg.regime
    cnp = c_np(cfg.law, reg.n, reg.p, reg.mu)
    records = _map_replicates(lambda r: _poisson_replicate(cfg, r, cnp), cfg.replicates)

    ratio1 = [rec.ratios["entry"][0] for rec in records if rec.ratios["entry"]]
    deeper = [
        x
        for rec in records
        if not rec.ambiguous
        for x in rec.ratios["entry"][1:]
    ]
    top_points = [rec.points[0] for rec in records]
    ks = ks_statistic(np.array(top_points), lambda x: frechet_cdf(x, reg.alpha / 2.0))
    count_records = poisson_count_test(
        [rec.points for rec in records], cfg.thresholds, reg.alpha, limits.COVARIANCE
    )
    dist1 = [rec.loc_dist for rec in records]
    loc_freq = float(np.mean([d <= 0.2 for d in dist1]))
    spot = _interlacing_spot(cfg, cfg.replicates)

    aggregates = {
        "c_np": cnp,
        "median_ratio_entry_1": _median(ratio1),
        "median_ratio_entry_rest": _median(deeper),
        "ks_frechet_top1": ks,
        "count_test": count_records,
        "median_basis_dist_1": _median(dist1),
        "basis_dist_freq_02": loc_freq,
        "mean_residual_1": float(np.mean([rec.residuals[0] for rec in records])),
        "ambiguous_count": int(sum(rec.ambiguous for rec in records)),
        "interlacing_spot": spot,
    }
    verdicts = [
        {
            "criterion": "median entry ratio in [0.9, 1.1]",
            "pass": bool(0.9 <= aggregates["median_ratio_entry_1"] <= 1.1),
            "observed": aggregates["median_ratio_entry_1"],
            "bound": [0.9, 1.1],
        },
        {
            "criterion": "KS(top eigenvalue / c_np^2, Frechet(alpha/2)) <= 0.12",
            "pass": bool(ks <= 0.12),
            "observed": ks,
            "bound": 0.12,
        },
        {
            "criterion": "basis distance <= 0.2 in >= 80% of replicates",
            "pass": bool(loc_freq >= 0.8),
            "observed": loc_freq,
            "bound": 0.8,
        },
        {
            "criterion": "interlacing spot check",
            "pass": bool(spot["holds"]),
            "observed": spot["max_violation"],
            "bound": 0.0,
        },
    ]
    for rec in count_records:
        if rec["threshold"] == 1.0:
            gap = abs(rec["observed_mean"] - rec["expected"])
            verdicts.insert(
                2,
                {
                    "criterion": "mean count above 1 within 0.3 of prediction",
                    "pass": bool(gap <= 0.3),
                    "observed": rec["observed_mean"],
                    "bound": [rec["expected"] - 0.3, rec["expected"] + 0.3],
                },
            )
            break
    return ExperimentReport(
        kind="poisson",
        config=_config_dict(cfg),
        records=records,
        aggregates=aggregates,
        verdicts=verdicts,
        elapsed_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Edge regime, covariance ensemble


def _edge_replicate(cfg: ExperimentConfig, r: int) -> ReplicateRecord:
    t0 = time.perf_counter()
    m = sample_matrix(_ensemble(cfg, r))
    reg = cfg.regime
    k = cfg.top_k
    entries, _ = top_entries(m, k + 1)
    dense_path = reg.p <= DENSE_DIM_LIMIT
    extra: dict = {}
    if dense_path:
        x = m.to_dense()
        sigma = x @ x.T
        spec = eig_dense_symmetric(sigma)
        lam_full = spec.eigenvalues
        lam = [float(v) for v in lam_full[:k]]
        hist = esd(lam_full, scale=float(reg.n) ** reg.mu, bins=cfg.esd_bins, rho=reg.rho)
        extra["ks_mp"] = hist.ks_mp
        solver_tol = 0.0
    else:
        solver_seed = mix64(derive_replicate_seed(cfg.master_seed, r), _TAG_SOLVER)
        spec = top_eigs(m, k, tol=cfg.solver_tol, seed=solver_seed)
        lam = [float(v) for v in spec.eigenvalues]
        extra["ks_mp"] = None
        solver_tol = cfg.solver_tol
    inf_n, one_n = _assert_gram_bounds(lam[0], m, solver_tol)

    v1 = spec.eigenvectors[:, 0]
    profile = localization_profile(v1)
    mass = {}
    flags = {}
    for beta in LOC_BETAS:
        size = max(1, int(math.floor(reg.p ** beta + 1e-9)))
        size = min(size, reg.p)
        mass[f"{beta:.1f}"] = float(profile.mass_curve[size - 1])
        flags[f"{beta:.1f}"] = bool(profile.mass_curve[size - 1] > 1.0 - LOC_ETA)

    usable = min(k, len(entries))
    ratio_entry = [lam[l] / entries[l].magnitude ** 2 for l in range(usable)]
    edge_scale = (1.0 + math.sqrt(reg.rho)) ** 2 * float(reg.n) ** reg.mu
    ratio_edge = [v / edge_scale for v in lam]
    basis1 = distance_to_basis_vector(v1, entries[0].i) if entries else math.nan
    return ReplicateRecord(
        r=r,
        eigs=lam,
        entries=_ranked_lists(entries[:usable]),
        ratios={"entry": ratio_entry, "edge": ratio_edge},
        localization={"mass": mass, "localized": flags},
        norms={"inf": inf_n, "one": one_n},
        points=[],
        loc_dist=basis1,
        ambiguous=_is_ambiguous(entries, k),
        pairing_valid=[True] * usable,
        extra=extra,
        time_s=time.perf_counter() - t0,
    )


def run_edge_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Light-tailed covariance run: Marchenko-Pastur bulk and edge,
    delocalized top eigenvector.

    Standardization is part of the hypothesis, so unstandardized laws are
    refused.  When ``p`` fits the dense limit the full spectrum feeds an ESD
    comparison; otherwise only the top eigenvalues are computed.
    """
    if cfg.shape != RECTANGULAR:
        raise ValueError("edge experiment runs the rectangular ensemble")
    _check_critical(cfg, EDGE, "edge")
    if not cfg.law.standardize:
        raise ValueError(
            "edge experiment requires a standardized law (mean zero, variance one)"
        )
    t0 = time.perf_counter()
    reg = cfg.regime
    records = _map_replicates(lambda r: _edge_replicate(cfg, r), cfg.replicates)

    headline = f"{LOC_BETA_HEADLINE:.1f}"
    mean_edge1 = float(np.mean([rec.ratios["edge"][0] for rec in records]))
    ks_values = [rec.extra["ks_mp"] for rec in records if rec.extra["ks_mp"] is not None]
    mean_ks = float(np.mean(ks_values)) if ks_values else math.nan
    loc_freq = float(np.mean([rec.localization["localized"][headline] for rec in records]))
    spot = _interlacing_spot(cfg, cfg.replicates)
    edge_const = (1.0 + math.sqrt(reg.rho)) ** 2

    aggregates = {
        "mean_ratio_edge_1": mean_edge1,
        "mean_top_over_n_mu": mean_edge1 * edge_const,
        "mean_ks_mp": mean_ks,
        "localized_freq": {b: float(np.mean([rec.localization["localized"][f"{b:.1f}"] for rec in records])) for b in LOC_BETAS},
        "mean_mass": {b: float(np.mean([rec.localization["mass"][f"{b:.1f}"] for rec in records])) for b in LOC_BETAS},
        "ambiguous_count": int(sum(rec.ambiguous for rec in records)),
        "interlacing_spot": spot,
    }
    verdicts = [
        {
            "criterion": "mean top eigenvalue / (n^mu (1+sqrt(rho))^2) in [0.85, 1.15]",
            "pass": bool(0.85 <= mean_edge1 <= 1.15),
            "observed": mean_edge1,
            "bound": [0.85, 1.15],
        },
        {
            "criterion": "localization frequency at (floor(p^0.3), 0.3) <= 10%",
            "pass": bool(loc_freq <= 0.10),
            "observed": loc_freq,
            "bound": 0.10,
        },
        {
            "criterion": "interlacing spot check",
            "pass": bool(spot["holds"]),
            "observed": spot["max_violation"],
            "bound": 0.0,
        },
    ]
    if ks_values:
        verdicts.insert(
            1,
            {
                "criterion": "mean KS(ESD, Marchenko-Pastur) <= 0.08",
                "pass": bool(mean_ks <= 0.08),
                "observed": mean_ks,
                "bound": 0.08,
            },
        )
    return ExperimentReport(
        kind="edge",
        config=_config_dict(cfg),
        records=records,
        aggregates=aggregates,
        verdicts=verdicts,
        elapsed_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Hermitian ensemble, both regimes


def _hermitian_replicate(cfg: ExperimentConfig, r: int, scale_c: float, regime: str) -> ReplicateRecord:
    t0 = time.perf_counter()
    m = sample_matrix(_ensemble(cfg, r))
    reg = cfg.regime
    k = cfg.top_k
    entries, _ = top_entries(m, k + 1)
    solver_seed = mix64(derive_replicate_seed(cfg.master_seed, r), _TAG_SOLVER)
    spec = top_eigs(m, k, tol=cfg.solver_tol, seed=solver_seed)
    lam = [float(v) for v in spec.eigenvalues]
    inf_n, one_n = _assert_symmetric_bounds(lam[0], m, cfg.solver_tol)

    usable = min(k, len(entries))
    # A negative diagonal extreme entry pairs with the bottom of the spectrum,
    # not the top, so its rank is excluded from ratio aggregates.
    pairing_valid = [
        not (entries[l].i == entries[l].j and entries[l].theta != 0.0)
        for l in range(usable)
    ]
    ratio_entry = [lam[l] / entries[l].magnitude for l in range(usable)]
    edge_scale = 2.0 * float(reg.n) ** (reg.mu / 2.0)
    ratio_edge = [v / edge_scale for v in lam]
    pair_dist = []
    for l in range(usable):
        ent = entries[l]
        vec = spec.eigenvectors[:, l]
        if ent.i == ent.j:
            pair_dist.append(distance_to_basis_vector(vec, ent.i))
        else:
            pair_dist.append(distance_to_pair_vector(vec, ent.i, ent.j, ent.theta))
    points = [v / scale_c for v in lam]

    extra: dict = {}
    if regime == EDGE:
        v1 = spec.eigenvectors[:, 0]
        profile = localization_profile(v1)
        size = max(1, min(reg.n, int(math.floor(reg.n ** LOC_BETA_HEADLINE + 1e-9))))
        extra["localized_headline"] = bool(profile.mass_curve[size - 1] > 1.0 - LOC_ETA)
        extra["mass_headline"] = float(profile.mass_curve[size - 1])
    return ReplicateRecord(
        r=r,
        eigs=lam,
        entries=_ranked_lists(entries[:usable]),
        ratios={"entry": ratio_entry, "edge": ratio_edge},
        localization={"pair_dist": pair_dist},
        norms={"inf": inf_n, "one": one_n},
        points=points,
        loc_dist=pair_dist[0] if pair_dist else math.nan,
        ambiguous=_is_ambiguous(entries, k),
        pairing_valid=pairing_valid,
        extra=extra,
        time_s=time.perf_counter() - t0,
    )


def run_hermitian_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Symmetric-matrix run; the regime decides which limit is checked.

    Poissonian: eigenvalues follow entry magnitudes (``c_n`` normalization,
    Frechet(alpha), hermitian point process intensity) and eigenvectors match
    two-site pair vectors.  Edge: the top eigenvalue sits at twice the
    semicircle scale ``n^(mu/2)`` and the top eigenvector delocalizes.
    """
    if cfg.shape != HERMITIAN:
        raise ValueError("hermitian experiment needs shape = 'hermitian'")
    regime = classify_regime(cfg.regime.alpha, cfg.regime.mu)
    if regime == CRITICAL:
        raise ValueError(
            f"(alpha, mu) = ({cfg.regime.alpha}, {cfg.regime.mu}) sits on the critical "
            "line alpha = 2 (1 + 1/mu); no limit is claimed there"
        )
    if regime == EDGE and not cfg.law.standardize:
        raise ValueError(
            "edge-regime hermitian experiment requires a standardized law"
        )
    t0 = time.perf_counter()
    reg = cfg.regime
    scale_c = c_n(cfg.law, reg.n, reg.mu)
    records = _map_replicates(
        lambda r: _hermitian_replicate(cfg, r, scale_c, regime), cfg.replicates
    )
    spot = _interlacing_spot(cfg, cfg.replicates)

    ratio1 = [
        rec.ratios["entry"][0]
        for rec in records
        if rec.pairing_valid and rec.pairing_valid[0]
    ]
    pair1 = [rec.loc_dist for rec in records]
    pair_freq = float(np.mean([d <= 0.25 for d in pair1]))
    aggregates = {
        "c_n": scale_c,
        "regime": regime,
        "median_ratio_entry_1": _median(ratio1),
        "median_pair_dist_1": _median(pair1),
        "pair_dist_freq_025": pair_freq,
        "invalid_pairing_count": int(
            sum(1 for rec in records if rec.pairing_valid and not all(rec.pairing_valid))
        ),
        "ambiguous_count": int(sum(rec.ambiguous for rec in records)),
        "interlacing_spot": spot,
    }
    verdicts = [
        {
            "criterion": "interlacing spot check",
            "pass": bool(spot["holds"]),
            "observed": spot["max_violation"],
            "bound": 0.0,
        }
    ]
    if regime == POISSONIAN:
        top_points = [rec.points[0] for rec in records]
        ks = ks_statistic(np.array(top_points), lambda x: frechet_cdf(x, reg.alpha))
        count_records = poisson_count_test(
            [rec.points for rec in records], cfg.thresholds, reg.alpha, limits.HERMITIAN_KIND
        )
        aggregates["ks_frechet_top1"] = ks
        aggregates["count_test"] = count_records
        verdicts = [
            {
                "criterion": "median entry ratio in [0.9, 1.1]",
                "pass": bool(0.9 <= aggregates["median_ratio_entry_1"] <= 1.1),
                "observed": aggregates["median_ratio_entry_1"],
                "bound": [0.9, 1.1],
            },
            {
                "criterion": "KS(top eigenvalue / c_n, Frechet(alpha)) <= 0.12",
                "pass": bool(ks <= 0.12),
                "observed": ks,
                "bound": 0.12,
            },
            {
                "criterion": "pair distance <= 0.25 in >= 75% of replicates",
                "pass": bool(pair_freq >= 0.75),
                "observed": pair_freq,
                "bound": 0.75,
            },
        ] + verdicts
        for rec in count_records:
            if rec["threshold"] == 1.0:
                gap = abs(rec["observed_mean"] - rec["expected"])
                verdicts.insert(
                    2,
                    {
                        "criterion": "mean count above 1 within 0.3 of prediction",
                        "pass": bool(gap <= 0.3),
                        "observed": rec["observed_mean"],
                        "bound": [rec["expected"] - 0.3, rec["expected"] + 0.3],
                    },
                )
                break
    else:
        mean_top = float(
            np.mean([rec.eigs[0] / float(reg.n) ** (reg.mu / 2.0) for rec in records])
        )
        loc_freq = float(np.mean([rec.extra["localized_headline"] for rec in records]))
        aggregates["mean_top_over_n_half_mu"] = mean_top
        aggregates["localized_freq_headline"] = loc_freq
        verdicts = [
            {
                "criterion": "mean top eigenvalue / n^(mu/2) in [1.7, 2.3]",
                "pass": bool(1.7 <= mean_top <= 2.3),
                "observed": mean_top,
                "bound": [1.7, 2.3],
            },
            {
                "criterion": "localization frequency at (floor(n^0.3), 0.3) <= 10%",
                "pass": bool(loc_freq <= 0.10),
                "observed": loc_freq,
                "bound": 0.10,
            },
        ] + verdicts
    return ExperimentReport(
        kind="hermitian",
        config=_config_dict(cfg),
        records=records,
        aggregates=aggregates,
        verdicts=verdicts,
        elapsed_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Truncation experiment


def truncation_window(alpha: float, mu: float) -> tuple[float, float]:
    """Default truncation exponents ``(gamma, gamma_prime)``.

    In the edge regime ``gamma_prime = mu/2`` is sharp and ``gamma`` sits at
    the midpoint of its admissible interval ``(mu / (2 (alpha - 1)), mu / 2)``.
    In the Poissonian part with ``alpha > 1 + 1/mu`` a wider window applies;
    midpoints are returned there too.
    """
    if alpha <= 2:
        raise ValueError(f"truncation analysis requires alpha > 2: {alpha}")
    if mu == 0.0:
        raise ValueError("truncation window is undefined for mu = 0")
    regime = classify_regime(alpha, mu)
    if regime == EDGE:
        lo = mu / (2.0 * (alpha - 1.0))
        hi = mu / 2.0
        return 0.5 * (lo + hi), hi
    gamma_lo = max(0.0, mu / alpha - 1.0 / (alpha * (alpha - 1.0)))
    gamma_hi = (mu + 1.0) / alpha
    gamma = 0.5 * (gamma_lo + gamma_hi)
    gp_lo = max(gamma, mu / 2.0)
    return gamma, 0.5 * (gp_lo + gamma_hi)


def _truncation_replicate(
    cfg: ExperimentConfig, r: int, level: float, bound: float
) -> ReplicateRecord:
    t0 = time.perf_counter()
    m = sample_matrix(_ensemble(cfg, r))
    entries, _ = top_entries(m, 1)
    top_mag = entries[0].magnitude
    m_hat, m_prime = truncate_split(m, level)
    solver_seed = mix64(derive_replicate_seed(cfg.master_seed, r), _TAG_SOLVER)
    if m_hat.nnz:
        spec = top_eigs(m_hat, 1, tol=cfg.solver_tol, seed=solver_seed)
        hat_norm = float(spec.eigenvalues[0])
    else:
        hat_norm = 0.0
    inf_full, one_full = norms(m)
    inf_hat, _ = norms(m_hat)
    inf_prime, one_prime = norms(m_prime)
    if inf_hat + inf_prime < inf_full - 1e-12 * max(1.0, inf_full):
        raise RuntimeError(
            f"triangle inequality violated by truncation split: "
            f"{inf_hat} + {inf_prime} < {inf_full}"
        )
    defined = m_prime.nnz > 0
    ratio_inf = inf_prime / top_mag if defined else math.nan
    ratio_one = one_prime / top_mag if defined else math.nan
    return ReplicateRecord(
        r=r,
        eigs=[hat_norm],
        entries=_ranked_lists(entries),
        ratios={"entry": [ratio_inf], "edge": [hat_norm / bound]},
        localization={},
        norms={"inf": inf_full, "one": one_full},
        points=[],
        loc_dist=math.nan,
        extra={
            "exceeded": bool(hat_norm >= bound),
            "ratio_inf": ratio_inf,
            "ratio_one": ratio_one,
            "mprime_nnz": int(m_prime.nnz),
            "level": level,
        },
        time_s=time.perf_counter() - t0,
    )


def run_truncation_experiment(
    cfg: ExperimentConfig,
    gamma: float | None = None,
    gamma_prime: float | None = None,
    kappa: float = 1.5,
) -> ExperimentReport:
    """Split entries at ``n^gamma`` and verify the two truncation facts:
    the small part has Gram norm below ``kappa n^(2 gamma') (1+sqrt(rho))^2``
    and the large part is dominated by the single largest entry.
    """
    if cfg.shape != RECTANGULAR:
        raise ValueError("truncation experiment runs the rectangular ensemble")
    alpha, mu = cfg.regime.alpha, cfg.regime.mu
    if alpha <= 2:
        raise ValueError(f"truncation experiment requires alpha > 2, got alpha = {alpha}")
    if not cfg.law.standardize:
        raise ValueError("truncation experiment requires a standardized law")
    if gamma is None or gamma_prime is None:
        default_gamma, default_gp = truncation_window(alpha, mu)
        gamma = default_gamma if gamma is None else gamma
        gamma_prime = default_gp if gamma_prime is None else gamma_prime
    if not gamma_prime > gamma:
        raise ValueError(f"hypothesis gamma_prime > gamma violated: {gamma_prime} <= {gamma}")
    if not gamma_prime >= mu / 2.0:
        raise ValueError(
            f"hypothesis gamma_prime >= mu/2 violated: {gamma_prime} < {mu / 2.0}"
        )
    if not (math.isfinite(kappa) and kappa > 1.0):
        raise ValueError(f"kappa must exceed 1: {kappa!r}")
    t0 = time.perf_counter()
    reg = cfg.regime
    level = float(reg.n) ** gamma
    bound = kappa * float(reg.n) ** (2.0 * gamma_prime) * (1.0 + math.sqrt(reg.rho)) ** 2
    records = _map_replicates(
        lambda r: _truncation_replicate(cfg, r, level, bound), cfg.replicates
    )
    exceed_freq = float(np.mean([rec.extra["exceeded"] for rec in records]))
    defined = [rec.extra["ratio_inf"] for rec in records if rec.extra["mprime_nnz"] > 0]
    ratio_ok = [
        rec.extra["mprime_nnz"] > 0 and rec.extra["ratio_inf"] <= 1.2 for rec in records
    ]
    ratio_freq = float(np.mean(ratio_ok))
    aggregates = {
        "gamma": gamma,
        "gamma_prime": gamma_prime,
        "kappa": kappa,
        "level": level,
        "norm_bound": bound,
        "exceed_freq": exceed_freq,
        "mean_hat_norm": float(np.mean([rec.eigs[0] for rec in records])),
        "ratio_inf_freq_12": ratio_freq,
        "median_ratio_inf": _median(defined),
        "undefined_count": int(sum(rec.extra["mprime_nnz"] == 0 for rec in records)),
    }
    verdicts = [
        {
            "criterion": "truncated Gram norm exceedance frequency <= 5%",
            "pass": bool(exceed_freq <= 0.05),
            "observed": exceed_freq,
            "bound": 0.05,
        },
        {
            "criterion": "residual infinity norm <= 1.2 x top entry in >= 90% of replicates",
            "pass": bool(ratio_freq >= 0.90),
            "observed": ratio_freq,
            "bound": 0.90,
        },
    ]
    return ExperimentReport(
        kind="truncation",
        config={**_config_dict(cfg), "gamma": gamma, "gamma_prime": gamma_prime, "kappa": kappa},
        records=records,
        aggregates=aggregates,
        verdicts=verdicts,
        elapsed_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Phase sweep


def run_phase_sweep(
    alphas,
    mus,
    *,
    n: int,
    rho: float = 1.0,
    replicates: int = 5,
    top_k: int = 3,
    master_seed: int = 0,
) -> dict:
    """Medians of the two competing normalizations over an (alpha, mu) grid.

    Laws with ``alpha > 2`` are standardized so the edge column is comparable;
    heavier laws run raw.  Cells are seeded independently of each other.
    """
    alphas = [float(a) for a in alphas]
    mus = [float(m) for m in mus]
    if not alphas or not mus:
        raise ValueError("alpha and mu grids must be nonempty")
    cells = []
    for ia, alpha in enumerate(alphas):
        for im, mu in enumerate(mus):
            cell_seed = mix64(master_seed, ia * 10007 + im)
            cfg = make_config(
                alpha=alpha,
                mu=mu,
                n=n,
                rho=rho,
                replicates=replicates,
                top_k=top_k,
                master_seed=cell_seed,
                standardize=alpha > 2,
            )
            ratios_entry = []
            ratios_edge = []
            dists = []
            for r in range(replicates):
                m = sample_matrix(_ensemble(cfg, r))
                entries, _ = top_entries(m, 1)
                solver_seed = mix64(derive_replicate_seed(cell_seed, r), _TAG_SOLVER)
                spec = top_eigs(m, 1, tol=cfg.solver_tol, seed=solver_seed)
                lam1 = float(spec.eigenvalues[0])
                edge_scale = (1.0 + math.sqrt(rho)) ** 2 * float(n) ** mu
                if entries:
                    ratios_entry.append(lam1 / entries[0].magnitude ** 2)
                    dists.append(distance_to_basis_vector(spec.eigenvectors[:, 0], entries[0].i))
                ratios_edge.append(lam1 / edge_scale)
            cells.append(
                {
                    "alpha": alpha,
                    "mu": mu,
                    "regime": classify_regime(alpha, mu),
                    "median_ratio_entry": _median(ratios_entry),
                    "median_ratio_edge": _median(ratios_edge),
                    "median_loc_dist": _median(dists),
                }
            )
    return {
        "n": n,
        "rho": rho,
        "replicates": replicates,
        "master_seed": master_seed,
        "cells": cells,
    }


def sweep_to_csv(sweep: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("alpha,mu,regime,median_ratio_entry,median_ratio_edge,median_loc_dist\n")
        for cell in sweep["cells"]:
            fh.write(
                f"{cell['alpha']!r},{cell['mu']!r},{cell['regime']},"
                f"{cell['median_ratio_entry']!r},{cell['median_ratio_edge']!r},"
                f"{cell['median_loc_dist']!r}\n"
            )


# ---------------------------------------------------------------------------
# Exact-invariant verification suite


_VERIFY_ALPHAS = (0.8, 1.0, 1.6, 2.5, 4.0, 8.0)
_VERIFY_MUS = (0.0, 0.4, 0.7, 1.0)
_VERIFY_RHOS = (0.4, 0.7, 1.0)


def _verify_spec(seed: int, idx: int, size_cap: int) -> EnsembleSpec:
    s = mix64(seed, idx)
    alpha = _VERIFY_ALPHAS[s % len(_VERIFY_ALPHAS)]
    mu = _VERIFY_MUS[(s >> 8) % len(_VERIFY_MUS)]
    rho = _VERIFY_RHOS[(s >> 16) % len(_VERIFY_RHOS)]
    n = 3 + (s >> 24) % (size_cap - 2)
    law = TailLaw(alpha=alpha)
    return EnsembleSpec(
        shape=RECTANGULAR,
        n=int(n),
        law=law,
        sparsity=SparsitySpec.bernoulli(mu),
        seed=mix64(s, 1),
        rho=rho,
    )


def run_invariant_suite(
    seed: int = 20240801, instances: int = 500, lemma_instances: int = 100,
    size_cap: int = 40,
) -> dict:
    """Exercise every exact checker on randomized small ensembles.

    Counts violations of: the Rayleigh lower bound and norm-product upper
    bound for the top Gram eigenvalue (1e-9 relative slack, dense solver);
    the three interlacing chains; the residual-ball enclosure for random probe
    vectors (with the eigenvector bound whenever its hypotheses hold); and the
    principal-submatrix bound for localized eigenvectors on brute-forced
    symmetric instances.  All counts must be zero.
    """
    t0 = time.perf_counter()
    counts = {
        "rayleigh_lower_bound": 0,
        "norm_product_upper_bound": 0,
        "interlacing_hermitian_minor": 0,
        "interlacing_row_deletion": 0,
        "interlacing_col_deletion": 0,
        "residual_ball_enclosure": 0,
        "eigenvector_gap_bound": 0,
        "localized_submatrix_bound": 0,
    }
    gap_bound_evaluated = 0
    for idx in range(instances):
        spec = _verify_spec(seed, idx, size_cap)
        m = sample_matrix(spec)
        dense = m.to_dense()
        sigma = dense @ dense.T
        result = eig_dense_symmetric(sigma)
        lam1 = float(result.eigenvalues[0])
        lower = _max_row_square_sum(m)
        inf_n, one_n = norms(m)
        if lam1 < lower * (1.0 - 1e-9) - 1e-12:
            counts["rayleigh_lower_bound"] += 1
        if lam1 > inf_n * one_n * (1.0 + 1e-9) + 1e-12:
            counts["norm_product_upper_bound"] += 1

        s = mix64(seed, 10 ** 7 + idx)
        p, n = dense.shape
        if p >= 2:
            cut = s % p
            minor = np.delete(np.delete(sigma, cut, axis=0), cut, axis=1)
            if not check_interlacing(sigma, minor, INTERLACE_HERMITIAN_MINOR)["holds"]:
                counts["interlacing_hermitian_minor"] += 1
            if not check_interlacing(dense, np.delete(dense, cut, axis=0), INTERLACE_ROW_DELETION)["holds"]:
                counts["interlacing_row_deletion"] += 1
        if n >= 2:
            cut = s % n
            if not check_interlacing(dense, np.delete(dense, cut, axis=1), INTERLACE_COL_DELETION)["holds"]:
                counts["interlacing_col_deletion"] += 1

        rng = np.random.Generator(np.random.PCG64(mix64(seed, 2 * 10 ** 7 + idx)))
        probes = [rng.standard_normal(p)]
        # A perturbed eigenvector keeps the residual small, so the gap bound
        # is actually evaluated instead of skipped for lack of a unique
        # eigenvalue in the enclosing ball.
        which = int(rng.integers(p))
        probes.append(result.eigenvectors[:, which] + 0.01 * rng.standard_normal(p))
        for probe in probes:
            probe = probe / np.linalg.norm(probe)
            check = perturbation_check(sigma, probe, result)
            if not check.holds_a:
                counts["residual_ball_enclosure"] += 1
            if check.vector_bound is not None:
                gap_bound_evaluated += 1
                if not check.vector_bound["holds"]:
                    counts["eigenvector_gap_bound"] += 1

    for idx in range(lemma_instances):
        s = mix64(seed, 3 * 10 ** 7 + idx)
        dim = 4 + s % 9
        spec = EnsembleSpec(
            shape=HERMITIAN,
            n=int(dim),
            law=TailLaw(alpha=_VERIFY_ALPHAS[s % len(_VERIFY_ALPHAS)]),
            sparsity=SparsitySpec.bernoulli(_VERIFY_MUS[(s >> 8) % len(_VERIFY_MUS)]),
            seed=mix64(s, 1),
        )
        dense = sample_matrix(spec).to_dense()
        result = eig_dense_symmetric(dense)
        which = (s >> 16) % dim
        L = 1 + (s >> 24) % 3
        v = result.eigenvectors[:, which]
        mass = float(np.sum(np.sort(v * v)[::-1][:L]))
        eta = min(0.999, 1.0 - mass + 0.05)
        report = localization_bound_check(dense, float(result.eigenvalues[which]), v, L, eta)
        if not (report["holds"] and report["preconditions_ok"]):
            counts["localized_submatrix_bound"] += 1

    checks = [
        {
            "name": name,
            "instances": lemma_instances if name == "localized_submatrix_bound" else instances,
            "violations": value,
            "pass": value == 0,
        }
        for name, value in counts.items()
    ]
    return {
        "checks": checks,
        "gap_bound_evaluated": gap_bound_evaluated,
        "elapsed_s": time.perf_counter() - t0,
        "pass": all(c["pass"] for c in checks),
    }
