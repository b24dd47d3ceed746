"""Which program functions a traced pass wraps, and the per-layer metrics
computed from their spans.

Every module-level binding of a traced function inside ``htspec`` is
rebound, including the names other modules import directly (for example
``experiments.sample_matrix`` or ``stats.mp_cdf``), so calls between the
program's own modules are traced too.  ``SparseMatrix`` construction and
``to_dense`` are wrapped on the class.  ``mix64`` runs thousands of times per
matrix, so it is only counted.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from htspec import experiments, limits, localization, matrices, seeding, spectral, stats, tails
from spans import Rebinder, Tracer, counted, self_times, traced


def _result_nnz(args, result) -> dict:
    return {"nnz": result.nnz}


def _argument_nnz(args, result) -> dict:
    return {"nnz": args[0].nnz}


def _solver(args, result) -> dict:
    rel = result.residual_norms / np.maximum(1.0, np.abs(result.eigenvalues))
    return {
        "iterations": int(result.iterations),
        "restarts": int(result.restarts),
        "converged": bool(result.converged),
        "residual_rel": float(rel.max()) if rel.size else 0.0,
    }


TRACED = (
    (tails, "sample_matrix", _result_nnz),
    (matrices, "top_entries", _argument_nnz),
    (matrices, "norms", None),
    (matrices, "gram_matvec", None),
    (matrices, "matvec", None),
    (spectral, "top_eigs", _solver),
    (spectral, "eig_dense_symmetric", None),
    (spectral, "check_interlacing", None),
    (spectral, "perturbation_check", None),
    (spectral, "localization_bound_check", None),
    (limits, "mp_cdf", None),
    (stats, "esd", None),
    (stats, "ks_statistic", None),
    (stats, "poisson_count_test", None),
    (localization, "localization_profile", None),
    (localization, "is_localized", None),
    (localization, "distance_to_basis_vector", None),
    (localization, "distance_to_pair_vector", None),
    (experiments, "run_poisson_experiment", None),
    (experiments, "run_edge_experiment", None),
    (experiments, "run_invariant_suite", None),
)

_EXPERIMENT_RUNS = ("experiments.run_poisson_experiment", "experiments.run_edge_experiment")

# Per-layer metrics read from the spans of one traced pass.
SPAN_METRICS = (
    "tails.sample_matrix.calls",
    "tails.sample_matrix.self_s",
    "tails.sample_matrix.self_cpu_s",
    "tails.sample_matrix.nnz",
    "tails.sample_matrix.ns_per_nnz",
    "matrices.top_entries.calls",
    "matrices.top_entries.self_s",
    "matrices.top_entries.self_cpu_s",
    "matrices.top_entries.ns_per_nnz",
    "matrices.SparseMatrix.calls",
    "matrices.SparseMatrix.self_s",
    "matrices.SparseMatrix.to_dense.self_s",
    "matrices.norms.self_s",
    "matrices.gram_matvec.calls",
    "matrices.gram_matvec.self_s",
    "matrices.matvec.calls",
    "matrices.matvec.self_s",
    "spectral.top_eigs.calls",
    "spectral.top_eigs.self_s",
    "spectral.top_eigs.self_cpu_s",
    "spectral.top_eigs.iterations",
    "spectral.top_eigs.iterations_max",
    "spectral.top_eigs.restarts",
    "spectral.top_eigs.nonconverged",
    "spectral.top_eigs.residual_max_rel",
    "spectral.eig_dense_symmetric.calls",
    "spectral.eig_dense_symmetric.self_s",
    "spectral.eig_dense_symmetric.self_cpu_s",
    "spectral.check_interlacing.calls",
    "spectral.check_interlacing.self_s",
    "spectral.perturbation_check.self_s",
    "spectral.localization_bound_check.self_s",
    "limits.mp_cdf.calls",
    "limits.mp_cdf.self_s",
    "stats.esd.self_s",
    "stats.ks_statistic.self_s",
    "stats.poisson_count_test.self_s",
)

def install(tracer: Tracer) -> Rebinder:
    """Wrap every traced function; ``restore()`` on the result undoes it."""
    rebinder = Rebinder("htspec")
    for module, name, note in TRACED:
        fn = getattr(module, name)
        short = module.__name__.rpartition(".")[2]
        rebinder.rebind(fn, traced(tracer, f"{short}.{name}", fn, note))
    cls = matrices.SparseMatrix
    rebinder.set_attr(cls, "__init__", traced(tracer, "matrices.SparseMatrix", cls.__init__))
    rebinder.set_attr(cls, "to_dense", traced(tracer, "matrices.SparseMatrix.to_dense", cls.to_dense))
    rebinder.rebind(seeding.mix64, counted(tracer, "seeding.mix64", seeding.mix64))
    return rebinder


def _layer_totals(spans) -> dict[str, dict[str, float]]:
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, (self_wall, self_cpu) in zip(spans, self_times(spans)):
        agg = totals[span.name]
        agg["calls"] += 1
        agg["self_s"] += self_wall
        agg["self_cpu_s"] += self_cpu
        info = span.info or {}
        agg["nnz"] += info.get("nnz", 0)
        if "iterations" in info:
            agg["iterations"] += info["iterations"]
            agg["iterations_max"] = max(agg["iterations_max"], info["iterations"])
            agg["restarts"] += info["restarts"]
            agg["nonconverged"] += not info["converged"]
            agg["residual_max_rel"] = max(agg["residual_max_rel"], info["residual_rel"])
    for agg in totals.values():
        agg["ns_per_nnz"] = 1e9 * agg["self_s"] / agg["nnz"] if agg["nnz"] else 0.0
    return totals


def pass_metrics(tracer: Tracer, experiment: dict | None) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``experiment`` holds the experiment call's ``wall_s``, process ``cpu_s``
    and the summed replicate times ``busy_s``; it is None for workloads that
    run no experiment, whose ``experiments.*`` metrics are then 0.  A layer
    the pass never calls reads 0.
    """
    spans = tracer.spans()
    totals = _layer_totals(spans)
    out = {}
    for metric in SPAN_METRICS:
        layer, _, stat = metric.rpartition(".")
        out[metric] = float(totals[layer][stat]) if layer in totals else 0.0
    out["seeding.mix64.calls"] = float(tracer.counts().get("seeding.mix64", 0))
    out["localization.self_s"] = sum(
        agg["self_s"] for name, agg in totals.items() if name.startswith("localization.")
    )
    if experiment is None:
        out.update({
            "experiments.run.wall_s": 0.0,
            "experiments.pool.workers": 0.0,
            "experiments.pool.busy_frac": 0.0,
            "experiments.cpu_over_wall": 0.0,
        })
        return out
    # Replicates run on pool threads; a pool of one runs them on the calling thread.
    caller = {s.thread for s in spans if s.name in _EXPERIMENT_RUNS}
    workers = max(1, len({s.thread for s in spans} - caller))
    out["experiments.run.wall_s"] = experiment["wall_s"]
    out["experiments.pool.workers"] = float(workers)
    out["experiments.pool.busy_frac"] = experiment["busy_s"] / (workers * experiment["wall_s"])
    out["experiments.cpu_over_wall"] = experiment["cpu_s"] / experiment["wall_s"]
    return out
