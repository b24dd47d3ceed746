"""Replicated Monte Carlo experiments and the exact-invariant verification suite.

Each experiment samples many independent matrices, extracts extreme
eigenvalues and eigenvectors, and aggregates the statistics that the phase
picture predicts: entry/eigenvalue ratios, Frechet fit of the rescaled top
eigenvalue, Poisson exceedance counts, Marchenko-Pastur fit of the bulk, and
localization frequencies.

``run_experiment(cfg, kind)`` runs every kind named in ``RUN_KINDS``, whose
rows hold what sets a kind apart.  The poisson, edge and hermitian replicates
and the phase sweep's run one staged pipeline (sample, rank entries, checked
solve, per-kind measurements) that reads the ensemble's entry power, bounds,
pairing rule and edge scale off the sampled matrix.  Each run judges
its aggregates through one table of ``(criterion, observed, bound)`` rows, so
a report is self-judging: every verdict carries the tolerance it was
calibrated at.

Replicate ``r`` of a run samples ``cfg.ensemble(r)`` and draws everything
from its seed ``derive_replicate_seed(master_seed, r)``; reports are
therefore a pure function of their configuration, byte-identical across runs
and worker schedules once timing fields are stripped.

Exact algebraic facts abort the run on failure: they hold for every sample,
so a violation means a bug, not bad luck.  Every eigen-solve of a run, the
small part of a truncation split included, goes through ``_solve``, which
asserts the top eigenvalue's exact bracket (a Rayleigh lower bound and a norm
upper bound) and aborts on a Lanczos solve that stops short of its
tolerance; a truncation split also asserts its triangle inequality.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .limits import (
    CRITICAL,
    EDGE,
    POISSONIAN,
    c_n,
    c_np,
    classify_regime,
    frechet_cdf,
    mp_edges,
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

# Thresholds of the Poisson count test; its verdict reads threshold 1.
COUNT_THRESHOLDS = (0.5, 1.0, 2.0)

# Every Lanczos solve runs to this tolerance; the exact bounds allow ten times it.
SOLVER_TOL = 1e-8
# kappa of the truncated Gram norm bound kappa n^(2 gamma') (1 + sqrt(rho))^2.
TRUNCATION_KAPPA = 1.5

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
    """Immutable description of a replicated run.  Alpha comes from ``law``,
    mu from ``sparsity``, and ``shape``, ``n``, ``rho`` and ``master_seed``
    are validated by building the ``EnsembleSpec`` the replicates sample."""

    law: TailLaw
    sparsity: SparsitySpec
    n: int
    rho: float = 1.0
    shape: str = RECTANGULAR
    replicates: int = 10
    top_k: int = 5
    master_seed: int = 0

    def __post_init__(self) -> None:
        cap = min(self.ensemble(0).p, 50)
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1: {self.replicates}")
        if not 1 <= self.top_k <= cap:
            raise ValueError(f"top_k must lie in [1, min(p, 50)] = [1, {cap}]: {self.top_k}")

    def ensemble(self, r: int) -> EnsembleSpec:
        """The ensemble replicate ``r`` samples."""
        return EnsembleSpec(
            shape=self.shape,
            n=self.n,
            law=self.law,
            sparsity=self.sparsity,
            seed=derive_replicate_seed(self.master_seed, r),
            rho=self.rho,
        )

    @property
    def regime(self) -> ExperimentConfig:
        """The config itself; ``bench/child.py`` reads ``regime.n`` and ``regime.rho``."""
        return self

    @property
    def solver_tol(self) -> float:
        """The fixed ``SOLVER_TOL``; ``bench/child.py`` reads it here."""
        return SOLVER_TOL


def make_config(
    *,
    alpha: float,
    mu: float,
    n: int,
    replicates: int,
    rho: float = 1.0,
    shape: str = RECTANGULAR,
    top_k: int = 5,
    master_seed: int = 0,
    standardize: bool = False,
    sv_kind: str = SV_CONSTANT,
    sv_c: float = 1.0,
    sv_beta: float = 0.0,
    support_min: float = 1.0,
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
        master_seed=master_seed,
    )


def _config_dict(cfg: ExperimentConfig) -> dict:
    return {
        "alpha": cfg.law.alpha,
        "mu": cfg.sparsity.mu,
        "rho": cfg.rho,
        "n": cfg.n,
        "p": cfg.ensemble(0).p,
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
        "thresholds": list(COUNT_THRESHOLDS),
        "master_seed": cfg.master_seed,
        "solver_tol": SOLVER_TOL,
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


def _exact_bounds(m: SparseMatrix, top, inf_n: float, one_n: float) -> tuple[float, float]:
    """Exact bracket ``(lower, upper)`` of the top eigenvalue of ``M M^T``, or
    of symmetric ``m`` whose largest entry is ``top`` (``None`` when it stores
    none), given ``norms(m) = (inf_n, one_n)``.  Gram: the max row square sum
    and ``|m|_inf |m|_1``.  Symmetric: the Rayleigh quotient at ``top``, which
    is ``a_ii`` for a diagonal entry and else the two-site
    ``(a_ii + a_jj) / 2 + |a_ij|`` (``-inf`` without ``top``), and ``|m|_inf``."""
    if not m.symmetric:
        if m.nnz == 0:
            return 0.0, 0.0
        starts = m.indptr[:-1][np.diff(m.indptr) > 0]
        return float(np.add.reduceat(m.values * m.values, starts).max()), inf_n * one_n
    if top is None:
        return -math.inf, inf_n
    a = m.to_scipy()
    diag = 0.5 * (float(a[top.i, top.i]) + float(a[top.j, top.j]))
    return (diag if top.i == top.j else diag + top.magnitude), inf_n


def _outside_bounds(lam1: float, lower: float, upper: float, tol: float) -> tuple[bool, bool]:
    """Whether ``lam1`` lies below ``lower`` or above ``upper`` beyond rounding
    and ten times the solver tolerance ``tol`` (0 for the dense solver)."""
    slack = 1e-9 * max(1.0, abs(lower)) + 10.0 * tol * max(1.0, abs(lam1))
    return lam1 < lower - slack, lam1 > upper * (1.0 + 1e-9) + 1e-12


def _ranked_lists(entries) -> list[list]:
    return [[e.i, e.j, e.magnitude, e.theta] for e in entries]


def _is_ambiguous(entries) -> bool:
    gaps = zip(entries, entries[1:])
    return any(a.magnitude - b.magnitude < AMBIGUOUS_REL_GAP * a.magnitude for a, b in gaps)


def _median(values: list[float]) -> float:
    return float(np.median(values)) if values else math.nan


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else math.nan


def _interlacing_spot(cfg: ExperimentConfig) -> dict:
    """Deterministically chosen replicate gets a full interlacing verification."""
    r_star = mix64(cfg.master_seed, _SPOT_REPLICATE_TAG) % cfg.replicates
    m = sample_matrix(cfg.ensemble(r_star))
    dense = m.to_dense()
    idx = mix64(cfg.master_seed, _SPOT_INDEX_TAG) % dense.shape[0]
    keep = np.arange(dense.shape[0]) != idx
    if m.symmetric:
        mode = "hermitian_minor"
        big = np.linalg.eigvalsh(dense)
        small = np.linalg.eigvalsh(dense[np.ix_(keep, keep)])
    else:
        mode = "row_deletion"
        big = np.linalg.svd(dense, compute_uv=False)
        small = np.linalg.svd(dense[keep], compute_uv=False)
    result = check_interlacing(big, small)
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


def _poisson_limits(records, a: float, ks_label: str) -> tuple[dict, list[tuple]]:
    """Aggregates and verdict rows of the Poissonian limit laws: KS of the top
    points to Frechet(``a``), and the count test of all points at threshold 1."""
    ks = ks_statistic(np.array([rec.points[0] for rec in records]), lambda x: frechet_cdf(x, a))
    counts = poisson_count_test([rec.points for rec in records], COUNT_THRESHOLDS, a)
    at_one = counts[COUNT_THRESHOLDS.index(1.0)]
    mean, expected = at_one["observed_mean"], at_one["expected"]
    rows = [
        (f"{ks_label} <= 0.12", ks, (-math.inf, 0.12)),
        ("mean count above 1 within 0.3 of prediction", mean, (expected - 0.3, expected + 0.3),
         abs(mean - expected) <= 0.3),
    ]
    return {"ks_frechet_top1": ks, "count_test": counts}, rows


# ---------------------------------------------------------------------------
# The staged replicate pipeline


def _solve(cfg: ExperimentConfig, m: SparseMatrix, r: int, k: int, top=None, dense: bool = False):
    """Top ``k`` eigenpairs of ``M M^T`` (or of symmetric ``m``) and
    ``norms(m)``, as ``(spec, inf_n, one_n)``: the whole Gram spectrum by
    ``eigh`` when ``dense``, else Lanczos from replicate ``r``'s solver seed.
    Raises when Lanczos stops short of its tolerance and when the top
    eigenvalue leaves ``_exact_bounds`` for ``m`` and its largest entry ``top``."""
    if dense:
        x = m.to_dense()
        spec, tol = eig_dense_symmetric(x @ x.T), 0.0
    else:
        seed = mix64(derive_replicate_seed(cfg.master_seed, r), _TAG_SOLVER)
        spec, tol = top_eigs(m, k, tol=SOLVER_TOL, seed=seed), SOLVER_TOL
        if not spec.converged:
            raise RuntimeError(
                f"replicate {r}: Lanczos did not reach tol = {SOLVER_TOL} "
                f"in {spec.iterations} iterations"
            )
    inf_n, one_n = norms(m)
    lam1 = float(spec.eigenvalues[0])
    lower, upper = _exact_bounds(m, top, inf_n, one_n)
    below, above = _outside_bounds(lam1, lower, upper, tol)
    if below:
        raise RuntimeError(f"Rayleigh lower bound violated: lambda1 = {lam1} < {lower}")
    if above:
        raise RuntimeError(f"norm upper bound violated: lambda1 = {lam1} > {upper}")
    return spec, inf_n, one_n


def _replicate(
    cfg: ExperimentConfig,
    r: int,
    localize: Callable,
    scale: float | None = None,
    residuals: bool = False,
    dense: bool = False,
) -> ReplicateRecord:
    """Replicate ``r`` through the stages sample, rank, checked solve and
    per-kind measurements; ``time_s`` spans them all.

    The sampled matrix says its ensemble: Gram eigenvalues pair with squared
    entries at the Marchenko-Pastur edge, symmetric ones with entries at the
    semicircle edge.  ``localize(cfg, spectrum, ranked entries)`` gives the
    localization fields; ``points`` are the eigenvalues over ``scale`` (none
    without it), and ``residuals`` adds the ranked entries' row residuals on
    that scale; ``dense`` solves the whole Gram spectrum by ``eigh``.
    """
    t0 = time.perf_counter()
    m = sample_matrix(cfg.ensemble(r))
    k = cfg.top_k
    entries, _ = top_entries(m, k + 1)
    spec, inf_n, one_n = _solve(cfg, m, r, k, entries[0] if entries else None, dense)
    lam = [float(x) for x in spec.eigenvalues[:k]]
    mu = cfg.sparsity.mu
    if m.symmetric:
        power, edge_scale = 1, 2.0 * float(cfg.n) ** (mu / 2.0)
    else:
        power, edge_scale = 2, mp_edges(cfg.rho)[1] * float(cfg.n) ** mu

    ranked = entries[:k]
    return ReplicateRecord(
        r=r,
        eigs=lam,
        entries=_ranked_lists(ranked),
        ratios={
            "entry": [x / e.magnitude ** power for x, e in zip(lam, ranked)],
            "edge": [x / edge_scale for x in lam],
        },
        norms={"inf": inf_n, "one": one_n},
        points=[x / scale for x in lam] if scale is not None else [],
        residuals=[row_residual(m, e)[1] / scale for e in ranked] if residuals else None,
        ambiguous=_is_ambiguous(entries),
        # A negative diagonal extreme entry of a symmetric matrix pairs with
        # the bottom of the spectrum, not the top, so its rank is excluded
        # from ratio aggregates.
        pairing_valid=[not (m.symmetric and e.i == e.j and e.theta != 0.0) for e in ranked],
        **localize(cfg, spec, ranked),
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
    v1 = spec.eigenvectors[:, 0]
    curve = localization_profile(v1)
    mass = {f"{beta:.1f}": _support_mass(curve, beta) for beta in LOC_BETAS}
    ks_mp = None
    if spec.solver == SOLVER_DENSE:
        scale = float(cfg.n) ** cfg.sparsity.mu
        ks_mp = esd(spec.eigenvalues, scale=scale, rho=cfg.rho)
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
# Run kinds: a row of RUN_KINDS each, and one driver


@dataclass(frozen=True)
class _Setup:
    """A run's replicate function and the constants it was built from."""

    replicate: Callable  # r -> ReplicateRecord
    dense: bool = False  # dense-route replicates run one at a time
    constants: dict = field(default_factory=dict)  # the report's leading aggregates
    config: dict = field(default_factory=dict)  # added to the report's config


@dataclass(frozen=True)
class _RunKind:
    """One experiment kind: its guard, its replicates, and how they are judged."""

    shape: str
    regimes: tuple[str, ...]  # the classified regimes the run accepts
    standardized: bool  # a standardized law in every regime, not only at the edge
    setup: Callable  # (cfg, regime, gamma) -> _Setup
    aggregates_and_rows: Callable  # (cfg, regime, records, spot) -> (aggregates, rows)
    spot: bool = True  # an interlacing spot check, judged in the last row
    takes_gamma: bool = False  # accepts a truncation level exponent

    def standardizes(self, regime: str) -> bool:
        """Whether a run in ``regime`` needs a standardized law."""
        return self.standardized or regime == EDGE


def _check_regime(cfg: ExperimentConfig, name: str, run: _RunKind) -> str:
    """Regime of ``cfg`` once the run's guards pass: the row's ensemble shape,
    one of its regimes, and a standardized law wherever it needs one."""
    if cfg.shape != run.shape:
        raise ValueError(f"{name} experiment runs the {run.shape} ensemble")
    alpha, mu = cfg.law.alpha, cfg.sparsity.mu
    regime = classify_regime(alpha, mu)
    if regime not in run.regimes:
        if regime == CRITICAL:
            raise ValueError(
                f"(alpha, mu) = ({alpha}, {mu}) sits on the critical "
                "line alpha = 2 (1 + 1/mu); no limit is claimed there"
            )
        raise ValueError(
            f"{name} experiment requires the {' or '.join(run.regimes)} regime but "
            f"(alpha, mu) = ({alpha}, {mu}) classifies as {regime}"
        )
    if run.standardizes(regime) and not cfg.law.standardize:
        raise ValueError(
            f"{name} experiment in the {regime} regime requires a standardized law "
            "(alpha > 2, mean zero, variance one)"
        )
    return regime


def _poisson_setup(cfg: ExperimentConfig, regime: str, gamma) -> _Setup:
    cnp = c_np(cfg.law, cfg.n, cfg.ensemble(0).p, cfg.sparsity.mu)
    scale = cnp ** 2
    return _Setup(
        lambda r: _replicate(cfg, r, _basis_fields, scale, residuals=True),
        constants={"c_np": cnp},
    )


def _poisson_aggregates(cfg: ExperimentConfig, regime: str, records, spot):
    """Heavy-tailed covariance run: extremes follow the largest entries.

    Verdict tolerances are calibrated for the canonical scale (n = 500,
    200 replicates, alpha = 1, mu = 1); smaller runs still report them.
    """
    ratio1 = [rec.ratios["entry"][0] for rec in records if rec.ratios["entry"]]
    deeper = [x for rec in records if not rec.ambiguous for x in rec.ratios["entry"][1:]]
    law, law_rows = _poisson_limits(
        records, cfg.law.alpha / 2, "KS(top eigenvalue / c_np^2, Frechet(alpha/2))"
    )
    dist1 = [rec.loc_dist for rec in records]
    loc_freq = float(np.mean([d <= 0.2 for d in dist1]))
    aggregates = {
        "median_ratio_entry_1": _median(ratio1),
        "median_ratio_entry_rest": _median(deeper),
        **law,
        "median_basis_dist_1": _median(dist1),
        "basis_dist_freq_02": loc_freq,
        "mean_residual_1": _mean([rec.residuals[0] for rec in records if rec.residuals]),
        "ambiguous_count": int(sum(rec.ambiguous for rec in records)),
        "interlacing_spot": spot,
    }
    rows = [
        ("median entry ratio in [0.9, 1.1]", aggregates["median_ratio_entry_1"], (0.9, 1.1)),
        *law_rows,
        ("basis distance <= 0.2 in >= 80% of replicates", loc_freq, (0.8, math.inf)),
    ]
    return aggregates, rows


def _edge_setup(cfg: ExperimentConfig, regime: str, gamma) -> _Setup:
    dense = cfg.ensemble(0).p <= DENSE_DIM_LIMIT
    return _Setup(lambda r: _replicate(cfg, r, _mass_fields, dense=dense), dense=dense)


def _edge_aggregates(cfg: ExperimentConfig, regime: str, records, spot):
    """Light-tailed covariance run: Marchenko-Pastur bulk and edge, delocalized
    top eigenvector.  The ESD's KS row needs the dense route's full spectrum."""
    mean_edge1 = float(np.mean([rec.ratios["edge"][0] for rec in records]))
    ks_values = [rec.extra["ks_mp"] for rec in records if rec.extra["ks_mp"] is not None]
    mean_ks = _mean(ks_values)

    def mean_over_records(key: str) -> dict:
        return {
            beta: float(np.mean([rec.localization[key][f"{beta:.1f}"] for rec in records]))
            for beta in LOC_BETAS
        }

    aggregates = {
        "mean_ratio_edge_1": mean_edge1,
        "mean_top_over_n_mu": mean_edge1 * mp_edges(cfg.rho)[1],
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
    ]
    return aggregates, rows


def _hermitian_setup(cfg: ExperimentConfig, regime: str, gamma) -> _Setup:
    scale_c = c_n(cfg.law, cfg.n, cfg.sparsity.mu)
    localize = _pair_fields if regime == POISSONIAN else _pair_mass_fields
    return _Setup(lambda r: _replicate(cfg, r, localize, scale_c), constants={"c_n": scale_c})


def _hermitian_aggregates(cfg: ExperimentConfig, regime: str, records, spot):
    """Symmetric-matrix run; the regime decides which limit is checked.

    Poissonian: eigenvalues follow entry magnitudes (``c_n`` normalization,
    Frechet(alpha), hermitian point process intensity) and eigenvectors match
    two-site pair vectors.  Edge: the top eigenvalue sits at twice the
    semicircle scale ``n^(mu/2)`` and the top eigenvector delocalizes.
    """
    ratio1 = [
        rec.ratios["entry"][0] for rec in records if rec.pairing_valid and rec.pairing_valid[0]
    ]
    pair1 = [rec.loc_dist for rec in records]
    pair_freq = float(np.mean([d <= 0.25 for d in pair1]))
    aggregates = {
        "regime": regime,
        "median_ratio_entry_1": _median(ratio1),
        "median_pair_dist_1": _median(pair1),
        "pair_dist_freq_025": pair_freq,
        "invalid_pairing_count": int(sum(not all(rec.pairing_valid) for rec in records)),
        "ambiguous_count": int(sum(rec.ambiguous for rec in records)),
        "interlacing_spot": spot,
    }
    if regime == POISSONIAN:
        law, law_rows = _poisson_limits(records, cfg.law.alpha, "KS(top eigenvalue / c_n, Frechet(alpha))")
        aggregates.update(law)
        return aggregates, [
            ("median entry ratio in [0.9, 1.1]", aggregates["median_ratio_entry_1"], (0.9, 1.1)),
            *law_rows,
            ("pair distance <= 0.25 in >= 75% of replicates", pair_freq, (0.75, math.inf)),
        ]
    semicircle_scale = float(cfg.n) ** (cfg.sparsity.mu / 2.0)
    mean_top = float(np.mean([rec.eigs[0] / semicircle_scale for rec in records]))
    loc_freq = float(np.mean([rec.extra["localized_headline"] for rec in records]))
    aggregates["mean_top_over_n_half_mu"] = mean_top
    aggregates["localized_freq_headline"] = loc_freq
    return aggregates, [
        ("mean top eigenvalue / n^(mu/2) in [1.7, 2.3]", mean_top, (1.7, 2.3)),
        ("localization frequency at (floor(n^0.3), 0.3) <= 10%", loc_freq, (-math.inf, 0.10)),
    ]


def _gamma_window(alpha: float, mu: float) -> tuple[float, float]:
    """Ends of the open interval of admissible truncation exponents
    ``gamma``: ``(mu / (2 (alpha - 1)), mu / 2)`` in the edge regime, and the
    wider ``(max(0, mu/alpha - 1/(alpha (alpha - 1))), (mu + 1)/alpha)``
    elsewhere."""
    if alpha <= 2:
        raise ValueError(f"truncation analysis requires alpha > 2: {alpha}")
    if mu == 0.0:
        raise ValueError("truncation window is undefined for mu = 0")
    if classify_regime(alpha, mu) == EDGE:
        return mu / (2.0 * (alpha - 1.0)), mu / 2.0
    return max(0.0, mu / alpha - 1.0 / (alpha * (alpha - 1.0))), (mu + 1.0) / alpha


def truncation_window(alpha: float, mu: float) -> tuple[float, float]:
    """Default truncation exponents ``(gamma, gamma_prime)``.

    ``gamma`` is the midpoint of its window and ``gamma_prime`` the midpoint
    of ``(max(gamma, mu/2), hi)``, where ``hi`` is the window's upper end.  In
    the edge regime ``hi = mu/2``, so ``gamma_prime = mu/2``, which is sharp.
    """
    lo, hi = _gamma_window(alpha, mu)
    gamma = 0.5 * (lo + hi)
    return gamma, 0.5 * (max(gamma, mu / 2.0) + hi)


def _truncation_replicate(
    cfg: ExperimentConfig, r: int, level: float, bound: float
) -> ReplicateRecord:
    t0 = time.perf_counter()
    m = sample_matrix(cfg.ensemble(r))
    entries, _ = top_entries(m, 1)
    m_hat, m_prime = truncate_split(m, level)
    hat_norm, inf_hat = 0.0, 0.0
    if m_hat.nnz:
        spec, inf_hat, _ = _solve(cfg, m_hat, r, 1)
        hat_norm = float(spec.eigenvalues[0])
    inf_full, one_full = norms(m)
    inf_prime, one_prime = norms(m_prime)
    if inf_hat + inf_prime < inf_full - 1e-12 * max(1.0, inf_full):
        raise RuntimeError(
            f"triangle inequality violated by truncation split: "
            f"{inf_hat} + {inf_prime} < {inf_full}"
        )
    # m_prime is empty whenever m is, so entries[0] exists when defined.
    defined = m_prime.nnz > 0
    ratio_inf = inf_prime / entries[0].magnitude if defined else math.nan
    ratio_one = one_prime / entries[0].magnitude if defined else math.nan
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


def _truncation_setup(cfg: ExperimentConfig, regime: str, gamma: float | None) -> _Setup:
    """Split entries at ``n^gamma``; ``gamma`` defaults to the window's and
    must lie inside it, and ``gamma'`` is always the window's (``mu/2`` in the
    edge regime)."""
    alpha, mu = cfg.law.alpha, cfg.sparsity.mu
    default_gamma, gamma_prime = truncation_window(alpha, mu)
    gamma = default_gamma if gamma is None else gamma
    if not gamma_prime > gamma:
        raise ValueError(f"hypothesis gamma_prime > gamma violated: {gamma_prime} <= {gamma}")
    lo, hi = _gamma_window(alpha, mu)
    if not lo < gamma < hi:
        raise ValueError(f"gamma must lie inside its window ({lo}, {hi}): {gamma}")
    level = float(cfg.n) ** gamma
    bound = TRUNCATION_KAPPA * cfg.n ** (2.0 * gamma_prime) * mp_edges(cfg.rho)[1]
    window = {"gamma": gamma, "gamma_prime": gamma_prime, "kappa": TRUNCATION_KAPPA}
    return _Setup(
        lambda r: _truncation_replicate(cfg, r, level, bound),
        constants={**window, "level": level, "norm_bound": bound},
        config=window,
    )


def _truncation_aggregates(cfg: ExperimentConfig, regime: str, records, spot):
    """The two truncation facts: the small part has Gram norm below
    ``kappa n^(2 gamma') (1+sqrt(rho))^2`` (``kappa = TRUNCATION_KAPPA``) and
    the large part is dominated by the single largest entry."""
    exceed_freq = float(np.mean([rec.extra["exceeded"] for rec in records]))
    defined = [rec.extra["ratio_inf"] for rec in records if rec.extra["mprime_nnz"] > 0]
    # An empty large part leaves ratio_inf undefined (nan), which fails the test.
    ratio_freq = float(np.mean([rec.extra["ratio_inf"] <= 1.2 for rec in records]))
    aggregates = {
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
    return aggregates, rows


RUN_KINDS = {
    "poisson": _RunKind(RECTANGULAR, (POISSONIAN,), False, _poisson_setup, _poisson_aggregates),
    "edge": _RunKind(RECTANGULAR, (EDGE,), False, _edge_setup, _edge_aggregates),
    "hermitian": _RunKind(HERMITIAN, (POISSONIAN, EDGE), False, _hermitian_setup, _hermitian_aggregates),
    "truncation": _RunKind(RECTANGULAR, (POISSONIAN, CRITICAL, EDGE), True, _truncation_setup,
                           _truncation_aggregates, spot=False, takes_gamma=True),
}


def run_experiment(
    cfg: ExperimentConfig, kind: str, gamma: float | None = None
) -> ExperimentReport:
    """The ``RUN_KINDS`` run ``kind`` on ``cfg``: guard the regime, map the
    replicates, spot-check interlacing, and judge the aggregates.  Only a kind
    that truncates takes ``gamma``; ``None`` picks ``truncation_window``'s."""
    if kind not in RUN_KINDS:
        raise ValueError(f"unknown experiment kind {kind!r}; one of {tuple(RUN_KINDS)}")
    run = RUN_KINDS[kind]
    regime = _check_regime(cfg, kind, run)
    if gamma is not None and not run.takes_gamma:
        raise ValueError(f"{kind} experiment takes no truncation exponent gamma")
    t0 = time.perf_counter()
    setup = run.setup(cfg, regime, gamma)
    records = _map_replicates(setup.replicate, cfg.replicates, setup.dense)
    spot = _interlacing_spot(cfg) if run.spot else None
    aggregates, rows = run.aggregates_and_rows(cfg, regime, records, spot)
    if spot is not None:
        rows.append(_spot_row(spot))
    return ExperimentReport(
        kind, {**_config_dict(cfg), **setup.config}, records,
        {**setup.constants, **aggregates}, _verdicts(rows), time.perf_counter() - t0,
    )


# The two runs the benchmark (bench/child.py) calls by name.
def run_poisson_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    return run_experiment(cfg, "poisson")


def run_edge_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    return run_experiment(cfg, "edge")


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
            records = _map_replicates(lambda r: _replicate(cfg, r, _basis_fields), replicates)
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
# Column dimensions of the suite's rectangular instances lie in [3, 40].
_VERIFY_SIZE_CAP = 40


def _verify_spec(seed: int, idx: int) -> EnsembleSpec:
    s = mix64(seed, idx)
    alpha = _VERIFY_ALPHAS[s % len(_VERIFY_ALPHAS)]
    mu = _VERIFY_MUS[(s >> 8) % len(_VERIFY_MUS)]
    rho = _VERIFY_RHOS[(s >> 16) % len(_VERIFY_RHOS)]
    n = 3 + (s >> 24) % (_VERIFY_SIZE_CAP - 2)
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
    seed: int = 20240801, instances: int = 500, lemma_instances: int = 100
) -> dict:
    """Exercise every exact checker on randomized small ensembles:
    ``instances`` rectangular matrices with ``n <= 40`` and ``lemma_instances``
    symmetric ones with ``n <= 12``, both at least 1.

    Counts violations of: the Rayleigh lower bound and norm-product upper
    bound for the top Gram eigenvalue (``_exact_bounds``, dense solver);
    the three interlacing chains; the residual-ball enclosure for random probe
    vectors (with the eigenvector bound whenever its hypotheses hold); and the
    principal-submatrix bound for localized eigenvectors on brute-forced
    symmetric instances.  All counts must be zero.
    """
    if instances < 1 or lemma_instances < 1:
        raise ValueError(
            f"instances and lemma_instances must be >= 1: {instances}, {lemma_instances}"
        )
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
        spec = _verify_spec(seed, idx)
        m = sample_matrix(spec)
        dense = m.to_dense()
        sigma = dense @ dense.T
        result = eig_dense_symmetric(sigma)
        bounds = _exact_bounds(m, None, *norms(m))
        below, above = _outside_bounds(float(result.eigenvalues[0]), *bounds, 0.0)
        counts["rayleigh_lower_bound"] += int(below)
        counts["norm_product_upper_bound"] += int(above)

        s = mix64(seed, 10 ** 7 + idx)
        p, n = dense.shape
        keep = np.arange(p) != s % p
        values = np.linalg.svd(dense, compute_uv=False)
        chains = {
            "interlacing_hermitian_minor": (
                result.eigenvalues, np.linalg.eigvalsh(sigma[np.ix_(keep, keep)])
            ),
            "interlacing_row_deletion": (values, np.linalg.svd(dense[keep], compute_uv=False)),
            "interlacing_col_deletion": (
                values, np.linalg.svd(np.delete(dense, s % n, axis=1), compute_uv=False)
            ),
        }
        for name, (big, small) in chains.items():
            counts[name] += int(not check_interlacing(big, small)["holds"])

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
        mass = float(localization_profile(v)[L - 1])
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
