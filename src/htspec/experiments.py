"""Replicated Monte Carlo experiments and the exact-invariant verification suite.

Each experiment samples many independent matrices, extracts extreme
eigenvalues and eigenvectors, and aggregates the statistics that the phase
picture predicts: entry/eigenvalue ratios, Frechet fit of the rescaled top
eigenvalue, Poisson exceedance counts, Marchenko-Pastur fit of the bulk, and
localization frequencies.

Every replicate of the poisson, edge and hermitian runs and of the phase
sweep runs one staged pipeline (sample, rank entries, solve, exact bounds,
per-kind measurements); what sets the kinds apart is data on a ``_Kind``.
Each run judges its aggregates through one table of ``(criterion, observed,
bound)`` rows, so a report is self-judging: every verdict carries the
tolerance it was calibrated at.

Replicate ``r`` of a run draws everything from
``derive_replicate_seed(master_seed, r)``; reports are therefore a pure
function of their configuration, byte-identical across runs and worker
schedules once timing fields are stripped.

Exact algebraic facts (Rayleigh lower bound, norm product upper bound,
triangle inequality of a truncation split) are asserted inline on every
replicate and abort the run on failure: they hold for every sample, so a
violation means a bug, not bad luck.  A Lanczos solve that stops short of
its tolerance aborts the run too.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Callable

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
)
from .localization import (
    distance_to_basis_vector,
    distance_to_pair_vector,
    localization_profile,
)
from .matrices import SparseMatrix, norms, top_entries, truncate_split
from .seeding import mix64
from .spectral import (
    DENSE_DIM_LIMIT,
    INTERLACE_COL_DELETION,
    INTERLACE_HERMITIAN_MINOR,
    INTERLACE_ROW_DELETION,
    SOLVER_DENSE,
    check_interlacing,
    eig_dense_symmetric,
    localization_bound_check,
    perturbation_check,
    row_residual,
    top_eigs,
)
from .stats import ks_statistic, esd, poisson_count_test
from .tails import (
    HERMITIAN,
    RECTANGULAR,
    SV_CONSTANT,
    EnsembleSpec,
    SparsitySpec,
    TailLaw,
    sample_matrix,
)

# Not read by the package: the replicate pool follows the solver route.
# bench/child.py's provenance() still reads this name on every pass; delete
# it together with that read, when the harness next changes.
WORKERS_ENV = "HTSPEC_WORKERS"
# Bumped whenever report bytes change; reports without the field are version 1.
REPORT_FORMAT_VERSION = 3

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


def _map_replicates(fn, count: int, dense: bool = False) -> list:
    # A dense eigh already spreads over every CPU through BLAS, so dense
    # replicates run one at a time.  Sampling and Lanczos hold the interpreter
    # lock, so other routes take one thread per CPU and no more.
    workers = 1 if dense else min(os.cpu_count() or 1, count)
    if workers <= 1:
        return [fn(r) for r in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))


@dataclass(frozen=True)
class ExperimentConfig:
    """Immutable description of a replicated run.  Alpha comes from ``law``
    and mu from ``sparsity``; ``regime`` gathers them with ``rho`` and ``n``."""

    law: TailLaw
    sparsity: SparsitySpec
    n: int
    rho: float = 1.0
    shape: str = RECTANGULAR
    replicates: int = 10
    top_k: int = 5
    thresholds: tuple[float, ...] = (0.5, 1.0, 2.0)
    master_seed: int = 0
    solver_tol: float = 1e-8

    def __post_init__(self) -> None:
        regime = self.regime  # RegimeParams validates alpha, mu, rho and n
        if self.shape not in (RECTANGULAR, HERMITIAN):
            raise ValueError(f"unknown shape: {self.shape!r}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1: {self.replicates}")
        if self.shape == HERMITIAN and regime.rho != 1.0:
            raise ValueError("hermitian runs are square; rho must be 1")
        if not 1 <= self.top_k <= min(regime.p, 50):
            raise ValueError(
                f"top_k must lie in [1, min(p, 50)] = [1, {min(regime.p, 50)}]: {self.top_k}"
            )
        if not self.thresholds or any(not (math.isfinite(t) and t > 0) for t in self.thresholds):
            raise ValueError("thresholds must be positive and nonempty")
        if not (math.isfinite(self.solver_tol) and self.solver_tol >= 1e-12):
            raise ValueError(f"solver_tol must be >= 1e-12: {self.solver_tol!r}")

    @property
    def regime(self) -> RegimeParams:
        return RegimeParams(alpha=self.law.alpha, mu=self.sparsity.mu, rho=self.rho, n=self.n)


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
    return ExperimentConfig(
        law=law,
        sparsity=SparsitySpec.bernoulli(mu),
        n=n,
        rho=rho,
        shape=shape,
        replicates=replicates,
        top_k=top_k,
        thresholds=tuple(float(t) for t in thresholds),
        master_seed=master_seed,
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
        "replicates": cfg.replicates,
        "top_k": cfg.top_k,
        "thresholds": list(cfg.thresholds),
        "master_seed": cfg.master_seed,
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
        """The fields in declaration order; ``time_s`` only with timing."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if not include_timing:
            del out["time_s"]
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
            "format_version": REPORT_FORMAT_VERSION,
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


def _gram_sandwich(lam1: float, m: SparseMatrix, tol: float):
    """Exact sandwich for the top Gram eigenvalue: max row square sum <=
    lambda1 <= |m|_inf |m|_1.  ``tol`` covers solver error (0 for the dense
    solver).  Returns ``(lower, inf_n, one_n, below_lower, above_upper)``."""
    inf_n, one_n = norms(m)
    lower = _max_row_square_sum(m)
    slack = 1e-9 * max(1.0, lower) + 10.0 * tol * max(1.0, abs(lam1))
    below_lower = lam1 < lower - slack
    above_upper = lam1 > inf_n * one_n * (1.0 + 1e-9) + 1e-12
    return lower, inf_n, one_n, below_lower, above_upper


def _assert_gram_bounds(lam1: float, m: SparseMatrix, tol: float, top) -> tuple[float, float]:
    """Raise unless the Gram sandwich holds.  The sandwich reads whole rows,
    so ``top`` goes unused."""
    lower, inf_n, one_n, below_lower, above_upper = _gram_sandwich(lam1, m, tol)
    if below_lower:
        raise RuntimeError(
            f"Rayleigh lower bound violated: lambda1 = {lam1} < max row square sum {lower}"
        )
    if above_upper:
        raise RuntimeError(
            f"norm product upper bound violated: lambda1 = {lam1} > {inf_n * one_n}"
        )
    return inf_n, one_n


def _assert_symmetric_bounds(lam1: float, m: SparseMatrix, tol: float, top) -> tuple[float, float]:
    """Norm bound and two-site Rayleigh bound for a symmetric matrix whose
    largest entry is ``top`` (``None`` when it stores none)."""
    inf_n, one_n = norms(m)
    if lam1 > inf_n * (1.0 + 1e-9) + 1e-12:
        raise RuntimeError(
            f"infinity norm bound violated: lambda1 = {lam1} > {inf_n}"
        )
    if top is not None and top.i != top.j:
        a = m.to_scipy()
        diag = 0.5 * (float(a[top.i, top.i]) + float(a[top.j, top.j]))
        lower = diag + top.magnitude
        slack = 1e-9 * max(1.0, abs(lower)) + 10.0 * tol * max(1.0, abs(lam1))
        if lam1 < lower - slack:
            raise RuntimeError(
                f"two-site Rayleigh bound violated: lambda1 = {lam1} < {lower}"
            )
    return inf_n, one_n


def _ranked_lists(entries) -> list[list]:
    return [[e.i, e.j, e.magnitude, e.theta] for e in entries]


def _is_ambiguous(entries) -> bool:
    gaps = zip(entries, entries[1:])
    return any(a.magnitude - b.magnitude < AMBIGUOUS_REL_GAP * a.magnitude for a, b in gaps)


def _median(values: list[float]) -> float:
    return float(np.median(values)) if values else math.nan


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else math.nan


def _check_regime(cfg: ExperimentConfig, name: str, shape: str, wanted: str | None = None) -> str:
    """Regime of ``cfg`` once the run's guards pass: the ensemble ``shape``,
    not the critical line, ``wanted`` when given, and in the edge regime a
    standardized law, since standardization is part of that hypothesis."""
    if cfg.shape != shape:
        raise ValueError(f"{name} experiment runs the {shape} ensemble")
    regime = classify_regime(cfg.regime.alpha, cfg.regime.mu)
    if regime == CRITICAL:
        raise ValueError(
            f"(alpha, mu) = ({cfg.regime.alpha}, {cfg.regime.mu}) sits on the critical "
            "line alpha = 2 (1 + 1/mu); no limit is claimed there"
        )
    if wanted is not None and regime != wanted:
        raise ValueError(
            f"{name} experiment requires the {wanted} regime but "
            f"(alpha, mu) = ({cfg.regime.alpha}, {cfg.regime.mu}) classifies as {regime}"
        )
    if regime == EDGE and not cfg.law.standardize:
        raise ValueError(
            f"{name} experiment in the edge regime requires a standardized law "
            "(mean zero, variance one)"
        )
    return regime


def _interlacing_spot(cfg: ExperimentConfig) -> dict:
    """Deterministically chosen replicate gets a full interlacing verification."""
    r_star = mix64(cfg.master_seed, _SPOT_REPLICATE_TAG) % cfg.replicates
    m = sample_matrix(_ensemble(cfg, r_star))
    dense = m.to_dense()
    idx = mix64(cfg.master_seed, _SPOT_INDEX_TAG) % dense.shape[0]
    if cfg.shape == HERMITIAN:
        mode = INTERLACE_HERMITIAN_MINOR
        minor = np.delete(np.delete(dense, idx, axis=0), idx, axis=1)
    else:
        mode = INTERLACE_ROW_DELETION
        minor = np.delete(dense, idx, axis=0)
    result = check_interlacing(dense, minor, mode)
    return {"replicate": int(r_star), "deleted": int(idx), "mode": mode, **result}


def _verdicts(rows) -> list[dict]:
    """Verdicts from ``(criterion, observed, (lo, hi))`` rows, passing when
    ``lo <= observed <= hi``; a one-sided bound is reported as its finite end.
    A row judged otherwise (interlacing spot, count test) adds its result."""
    verdicts = []
    for criterion, observed, (lo, hi), *result in rows:
        passed = result[0] if result else lo <= observed <= hi
        bound = hi if lo == -math.inf else lo if hi == math.inf else [lo, hi]
        verdicts.append(
            {"criterion": criterion, "pass": bool(passed), "observed": observed, "bound": bound}
        )
    return verdicts


def _spot_row(spot: dict) -> tuple:
    return ("interlacing spot check", spot["max_violation"], (-math.inf, 0.0), spot["holds"])


def _count_rows(counts: list[dict]) -> list[tuple]:
    """The count-test row at threshold 1, or none when the run skips that threshold."""
    for rec in counts:
        if rec["threshold"] == 1.0:
            mean, expected = rec["observed_mean"], rec["expected"]
            window = (expected - 0.3, expected + 0.3)
            criterion = "mean count above 1 within 0.3 of prediction"
            return [(criterion, mean, window, abs(mean - expected) <= 0.3)]
    return []


# ---------------------------------------------------------------------------
# The staged replicate pipeline


@dataclass(frozen=True)
class _Kind:
    """What sets one experiment kind's replicates apart; the stages are shared."""

    entry_power: int  # lambda_l pairs with |m_l| ** entry_power
    assert_bounds: Callable  # (lambda_1, m, solver tol, top entry) -> (inf norm, one norm)
    pairs: Callable  # whether a ranked entry pairs with the top of the spectrum
    localize: Callable  # (cfg, spectrum, ranked entries) -> the record's localization fields
    edge_scale: float  # ratios["edge"] = lambda / edge_scale
    scale: float | None = None  # points = lambda / scale; None records no points
    residuals: bool = False  # row residuals of the ranked entries, on the points' scale
    dense: bool = False  # the full Gram spectrum by dense eigh instead of top-k Lanczos


def _gram_pairs(entry) -> bool:
    return True


def _symmetric_pairs(entry) -> bool:
    # A negative diagonal extreme entry pairs with the bottom of the spectrum,
    # not the top, so its rank is excluded from ratio aggregates.
    return not (entry.i == entry.j and entry.theta != 0.0)


def _covariance_kind(reg: RegimeParams, localize, **data) -> _Kind:
    edge_scale = (1.0 + math.sqrt(reg.rho)) ** 2 * float(reg.n) ** reg.mu
    return _Kind(2, _assert_gram_bounds, _gram_pairs, localize, edge_scale, **data)


def _solve(cfg: ExperimentConfig, m: SparseMatrix, r: int, k: int, dense: bool = False):
    """Top ``k`` eigenpairs of ``M M^T`` (or of symmetric ``m``) and the
    solver tolerance the exact bounds allow: the whole Gram spectrum by
    ``eigh`` when ``dense``, else Lanczos from replicate ``r``'s solver seed,
    raising when it stops short of its tolerance."""
    if dense:
        x = m.to_dense()
        return eig_dense_symmetric(x @ x.T), 0.0
    seed = mix64(derive_replicate_seed(cfg.master_seed, r), _TAG_SOLVER)
    spec = top_eigs(m, k, tol=cfg.solver_tol, seed=seed)
    if not spec.converged:
        raise RuntimeError(
            f"replicate {r}: Lanczos did not reach tol = {cfg.solver_tol} "
            f"in {spec.iterations} iterations"
        )
    return spec, cfg.solver_tol


def _replicate(cfg: ExperimentConfig, kind: _Kind, r: int) -> ReplicateRecord:
    """Replicate ``r`` through the stages sample, rank, solve, exact bounds
    and per-kind measurements; ``time_s`` spans them all."""
    t0 = time.perf_counter()
    m = sample_matrix(_ensemble(cfg, r))
    k = cfg.top_k
    entries, _ = top_entries(m, k + 1)
    spec, tol = _solve(cfg, m, r, k, kind.dense)
    lam = [float(x) for x in spec.eigenvalues[:k]]
    inf_n, one_n = kind.assert_bounds(lam[0], m, tol, entries[0] if entries else None)

    ranked = entries[:k]
    return ReplicateRecord(
        r=r,
        eigs=lam,
        entries=_ranked_lists(ranked),
        ratios={
            "entry": [x / e.magnitude ** kind.entry_power for x, e in zip(lam, ranked)],
            "edge": [x / kind.edge_scale for x in lam],
        },
        norms={"inf": inf_n, "one": one_n},
        points=[x / kind.scale for x in lam] if kind.scale is not None else [],
        residuals=[row_residual(m, e)[1] / kind.scale for e in ranked] if kind.residuals else None,
        ambiguous=_is_ambiguous(entries),
        pairing_valid=[kind.pairs(e) for e in ranked],
        **kind.localize(cfg, spec, ranked),
        time_s=time.perf_counter() - t0,
    )


def _support_mass(curve: np.ndarray, beta: float) -> float:
    """Largest squared mass on ``floor(dim ** beta)`` coordinates (at least one)."""
    dim = curve.size
    size = max(1, min(dim, int(math.floor(dim ** beta + 1e-9))))
    return float(curve[size - 1])


def _basis_fields(cfg: ExperimentConfig, spec, ranked) -> dict:
    """Distance of each eigenvector to its entry's basis vector."""
    dist = [distance_to_basis_vector(spec.eigenvectors[:, l], e.i) for l, e in enumerate(ranked)]
    return {"localization": {"basis_dist": dist}, "loc_dist": dist[0] if dist else math.nan}


def _mass_fields(cfg: ExperimentConfig, spec, ranked) -> dict:
    """Mass profile of the top eigenvector over ``LOC_BETAS``, its distance to
    the top entry's basis vector, and, when the solver returned the whole
    spectrum, the KS distance of its ESD to Marchenko-Pastur."""
    reg = cfg.regime
    v1 = spec.eigenvectors[:, 0]
    curve = localization_profile(v1)
    mass = {f"{beta:.1f}": _support_mass(curve, beta) for beta in LOC_BETAS}
    ks_mp = None
    if spec.solver == SOLVER_DENSE:
        scale = float(reg.n) ** reg.mu
        ks_mp = esd(spec.eigenvalues, scale=scale, rho=reg.rho)
    return {
        "localization": {
            "mass": mass,
            "localized": {beta: x > 1.0 - LOC_ETA for beta, x in mass.items()},
        },
        "loc_dist": distance_to_basis_vector(v1, ranked[0].i) if ranked else math.nan,
        "extra": {"ks_mp": ks_mp},
    }


def _pair_fields(cfg: ExperimentConfig, spec, ranked) -> dict:
    """Distance of each eigenvector to its entry's basis vector (diagonal
    entry) or two-site pair vector."""
    vectors = spec.eigenvectors
    dist = [
        distance_to_basis_vector(vectors[:, l], e.i) if e.i == e.j
        else distance_to_pair_vector(vectors[:, l], e.i, e.j, e.theta)
        for l, e in enumerate(ranked)
    ]
    return {"localization": {"pair_dist": dist}, "loc_dist": dist[0] if dist else math.nan}


def _pair_mass_fields(cfg: ExperimentConfig, spec, ranked) -> dict:
    """Pair distances plus the top eigenvector's mass on ``floor(n^0.3)`` sites."""
    mass = _support_mass(localization_profile(spec.eigenvectors[:, 0]), LOC_BETA_HEADLINE)
    extra = {"localized_headline": mass > 1.0 - LOC_ETA, "mass_headline": mass}
    return {**_pair_fields(cfg, spec, ranked), "extra": extra}


# ---------------------------------------------------------------------------
# Poissonian regime, covariance ensemble


def run_poisson_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Heavy-tailed covariance run: extremes follow the largest entries.

    Verdict tolerances are calibrated for the canonical scale (n = 500,
    200 replicates, alpha = 1, mu = 1); smaller runs still report them.
    """
    _check_regime(cfg, "poisson", RECTANGULAR, POISSONIAN)
    t0 = time.perf_counter()
    reg = cfg.regime
    cnp = c_np(cfg.law, reg.n, reg.p, reg.mu)
    kind = _covariance_kind(reg, _basis_fields, scale=cnp ** 2, residuals=True)
    records = _map_replicates(lambda r: _replicate(cfg, kind, r), cfg.replicates)

    ratio1 = [rec.ratios["entry"][0] for rec in records if rec.ratios["entry"]]
    deeper = [x for rec in records if not rec.ambiguous for x in rec.ratios["entry"][1:]]
    top_points = [rec.points[0] for rec in records]
    ks = ks_statistic(np.array(top_points), lambda x: frechet_cdf(x, reg.alpha / 2.0))
    count_records = poisson_count_test(
        [rec.points for rec in records], cfg.thresholds, reg.alpha, limits.COVARIANCE
    )
    dist1 = [rec.loc_dist for rec in records]
    loc_freq = float(np.mean([d <= 0.2 for d in dist1]))
    spot = _interlacing_spot(cfg)

    aggregates = {
        "c_np": cnp,
        "median_ratio_entry_1": _median(ratio1),
        "median_ratio_entry_rest": _median(deeper),
        "ks_frechet_top1": ks,
        "count_test": count_records,
        "median_basis_dist_1": _median(dist1),
        "basis_dist_freq_02": loc_freq,
        "mean_residual_1": _mean([rec.residuals[0] for rec in records if rec.residuals]),
        "ambiguous_count": int(sum(rec.ambiguous for rec in records)),
        "interlacing_spot": spot,
    }
    rows = [
        ("median entry ratio in [0.9, 1.1]", aggregates["median_ratio_entry_1"], (0.9, 1.1)),
        ("KS(top eigenvalue / c_np^2, Frechet(alpha/2)) <= 0.12", ks, (-math.inf, 0.12)),
        *_count_rows(count_records),
        ("basis distance <= 0.2 in >= 80% of replicates", loc_freq, (0.8, math.inf)),
        _spot_row(spot),
    ]
    return ExperimentReport(
        "poisson", _config_dict(cfg), records, aggregates, _verdicts(rows),
        time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Edge regime, covariance ensemble


def run_edge_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Light-tailed covariance run: Marchenko-Pastur bulk and edge,
    delocalized top eigenvector.

    Standardization is part of the hypothesis, so unstandardized laws are
    refused.  When ``p`` fits the dense limit the full spectrum feeds an ESD
    comparison; otherwise only the top eigenvalues are computed.
    """
    _check_regime(cfg, "edge", RECTANGULAR, EDGE)
    t0 = time.perf_counter()
    reg = cfg.regime
    kind = _covariance_kind(reg, _mass_fields, dense=reg.p <= DENSE_DIM_LIMIT)
    records = _map_replicates(lambda r: _replicate(cfg, kind, r), cfg.replicates, kind.dense)

    mean_edge1 = float(np.mean([rec.ratios["edge"][0] for rec in records]))
    ks_values = [rec.extra["ks_mp"] for rec in records if rec.extra["ks_mp"] is not None]
    mean_ks = _mean(ks_values)
    spot = _interlacing_spot(cfg)
    edge_const = (1.0 + math.sqrt(reg.rho)) ** 2

    def mean_over_records(key: str) -> dict:
        return {
            beta: float(np.mean([rec.localization[key][f"{beta:.1f}"] for rec in records]))
            for beta in LOC_BETAS
        }

    aggregates = {
        "mean_ratio_edge_1": mean_edge1,
        "mean_top_over_n_mu": mean_edge1 * edge_const,
        "mean_ks_mp": mean_ks,
        "localized_freq": mean_over_records("localized"),
        "mean_mass": mean_over_records("mass"),
        "ambiguous_count": int(sum(rec.ambiguous for rec in records)),
        "interlacing_spot": spot,
    }
    loc_freq = aggregates["localized_freq"][LOC_BETA_HEADLINE]
    ks_rows = [("mean KS(ESD, Marchenko-Pastur) <= 0.08", mean_ks, (-math.inf, 0.08))]
    rows = [
        (
            "mean top eigenvalue / (n^mu (1+sqrt(rho))^2) in [0.85, 1.15]",
            mean_edge1,
            (0.85, 1.15),
        ),
        *(ks_rows if ks_values else []),
        ("localization frequency at (floor(p^0.3), 0.3) <= 10%", loc_freq, (-math.inf, 0.10)),
        _spot_row(spot),
    ]
    return ExperimentReport(
        "edge", _config_dict(cfg), records, aggregates, _verdicts(rows), time.perf_counter() - t0
    )


# ---------------------------------------------------------------------------
# Hermitian ensemble, both regimes


def run_hermitian_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Symmetric-matrix run; the regime decides which limit is checked.

    Poissonian: eigenvalues follow entry magnitudes (``c_n`` normalization,
    Frechet(alpha), hermitian point process intensity) and eigenvectors match
    two-site pair vectors.  Edge: the top eigenvalue sits at twice the
    semicircle scale ``n^(mu/2)`` and the top eigenvector delocalizes.
    """
    regime = _check_regime(cfg, "hermitian", HERMITIAN)
    t0 = time.perf_counter()
    reg = cfg.regime
    scale_c = c_n(cfg.law, reg.n, reg.mu)
    localize = _pair_fields if regime == POISSONIAN else _pair_mass_fields
    edge_scale = 2.0 * float(reg.n) ** (reg.mu / 2.0)
    kind = _Kind(1, _assert_symmetric_bounds, _symmetric_pairs, localize, edge_scale, scale=scale_c)
    records = _map_replicates(lambda r: _replicate(cfg, kind, r), cfg.replicates)
    spot = _interlacing_spot(cfg)

    ratio1 = [
        rec.ratios["entry"][0] for rec in records if rec.pairing_valid and rec.pairing_valid[0]
    ]
    pair1 = [rec.loc_dist for rec in records]
    pair_freq = float(np.mean([d <= 0.25 for d in pair1]))
    aggregates = {
        "c_n": scale_c,
        "regime": regime,
        "median_ratio_entry_1": _median(ratio1),
        "median_pair_dist_1": _median(pair1),
        "pair_dist_freq_025": pair_freq,
        "invalid_pairing_count": int(sum(not all(rec.pairing_valid) for rec in records)),
        "ambiguous_count": int(sum(rec.ambiguous for rec in records)),
        "interlacing_spot": spot,
    }
    if regime == POISSONIAN:
        top_points = [rec.points[0] for rec in records]
        ks = ks_statistic(np.array(top_points), lambda x: frechet_cdf(x, reg.alpha))
        count_records = poisson_count_test(
            [rec.points for rec in records], cfg.thresholds, reg.alpha, limits.HERMITIAN_KIND
        )
        aggregates["ks_frechet_top1"] = ks
        aggregates["count_test"] = count_records
        rows = [
            ("median entry ratio in [0.9, 1.1]", aggregates["median_ratio_entry_1"], (0.9, 1.1)),
            ("KS(top eigenvalue / c_n, Frechet(alpha)) <= 0.12", ks, (-math.inf, 0.12)),
            *_count_rows(count_records),
            ("pair distance <= 0.25 in >= 75% of replicates", pair_freq, (0.75, math.inf)),
        ]
    else:
        mean_top = float(
            np.mean([rec.eigs[0] / float(reg.n) ** (reg.mu / 2.0) for rec in records])
        )
        loc_freq = float(np.mean([rec.extra["localized_headline"] for rec in records]))
        aggregates["mean_top_over_n_half_mu"] = mean_top
        aggregates["localized_freq_headline"] = loc_freq
        rows = [
            ("mean top eigenvalue / n^(mu/2) in [1.7, 2.3]", mean_top, (1.7, 2.3)),
            ("localization frequency at (floor(n^0.3), 0.3) <= 10%", loc_freq, (-math.inf, 0.10)),
        ]
    rows.append(_spot_row(spot))
    return ExperimentReport(
        "hermitian", _config_dict(cfg), records, aggregates, _verdicts(rows),
        time.perf_counter() - t0,
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
    hat_norm = float(_solve(cfg, m_hat, r, 1)[0].eigenvalues[0]) if m_hat.nnz else 0.0
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
    records = _map_replicates(lambda r: _truncation_replicate(cfg, r, level, bound), cfg.replicates)
    exceed_freq = float(np.mean([rec.extra["exceeded"] for rec in records]))
    defined = [rec.extra["ratio_inf"] for rec in records if rec.extra["mprime_nnz"] > 0]
    # An empty large part leaves ratio_inf undefined (nan), which fails the test.
    ratio_freq = float(np.mean([rec.extra["ratio_inf"] <= 1.2 for rec in records]))
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
    rows = [
        ("truncated Gram norm exceedance frequency <= 5%", exceed_freq, (-math.inf, 0.05)),
        (
            "residual infinity norm <= 1.2 x top entry in >= 90% of replicates",
            ratio_freq,
            (0.90, math.inf),
        ),
    ]
    config = {**_config_dict(cfg), "gamma": gamma, "gamma_prime": gamma_prime, "kappa": kappa}
    return ExperimentReport(
        "truncation", config, records, aggregates, _verdicts(rows), time.perf_counter() - t0
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
            cfg = make_config(
                alpha=alpha,
                mu=mu,
                n=n,
                rho=rho,
                replicates=replicates,
                top_k=1,
                master_seed=mix64(master_seed, ia * 10007 + im),
                standardize=alpha > 2,
            )
            kind = _covariance_kind(cfg.regime, _basis_fields)
            records = _map_replicates(lambda r: _replicate(cfg, kind, r), replicates)
            paired = [rec for rec in records if rec.entries]
            cells.append(
                {
                    "alpha": alpha,
                    "mu": mu,
                    "regime": classify_regime(alpha, mu),
                    "median_ratio_entry": _median([rec.ratios["entry"][0] for rec in paired]),
                    "median_ratio_edge": _median([rec.ratios["edge"][0] for rec in records]),
                    "median_loc_dist": _median([rec.loc_dist for rec in paired]),
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
    bound for the top Gram eigenvalue (``_gram_sandwich``, dense solver);
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
        *_, below_lower, above_upper = _gram_sandwich(float(result.eigenvalues[0]), m, 0.0)
        counts["rayleigh_lower_bound"] += int(below_lower)
        counts["norm_product_upper_bound"] += int(above_upper)

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
