"""One benchmark pass in a fresh interpreter.

Usage: ``python3 bench/child.py '{"workload": ..., "seed": ..., "pass": ..., "trace": ...}'``
with ``src`` on ``PYTHONPATH``.  ``bench/run.py`` starts one of these per pass.

The child sets up (imports, configuration, the first lazy set-up of the
workload's law), prints nothing until the pass is over, and then prints one
JSON line: the monotonic time at which set-up ended, the replicate
latencies, the pass's wall and process CPU time, its peak RSS, the checks
made on its outputs and, for a traced pass, the per-layer metrics.  A pass
that raises counts every one of its checks as failed.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import htspec
from htspec import experiments, matrices, spectral, tails

import layers
from spans import Tracer
from workloads import WORKLOADS, Workload, derive_seed

ROOT = Path(__file__).resolve().parent.parent
TOP_K = 5
SOLVER_TOL = 1e-8  # experiments' default solver tolerance, used by sparse-herm too
# Checks on an experiment pass besides one per replicate: the interlacing spot,
# and its replicate's eigenvalues and ranked entries recomputed densely.
SPOT_CHECKS = 3


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _warm(law, sparsity, shape) -> None:
    """First lazy set-up of a law (the standardization cache) on a tiny draw."""
    tails.sample_matrix(tails.EnsembleSpec(shape=shape, n=4, law=law, sparsity=sparsity, seed=0))


# --- checks ------------------------------------------------------------------


def _descending(rec) -> bool:
    """A covariance replicate lists its eigenvalues and ranked entries in
    decreasing order.  The program checks its own eigenvalue bounds and raises
    when they fail, so those bounds are not repeated here."""
    mags = [e[2] for e in rec.entries]
    return all(a >= b for a, b in zip(rec.eigs, rec.eigs[1:])) and all(
        a >= b for a, b in zip(mags, mags[1:])
    )


def _spot_failures(cfg, report) -> list[str]:
    """Recompute the interlacing spot's replicate densely, apart from the
    program's solver and ranking: its eigenvalues against ``eigvalsh`` of the
    Gram matrix, and its ranked entries against the matrix's largest
    ``|x_ij|``.  Calls the sampler, so it runs after a traced pass has ended."""
    r = report.aggregates["interlacing_spot"]["replicate"]
    rec = next(rec for rec in report.records if rec.r == r)
    x = tails.sample_matrix(tails.EnsembleSpec(
        shape=cfg.shape, n=cfg.regime.n, law=cfg.law, sparsity=cfg.sparsity,
        seed=experiments.derive_replicate_seed(cfg.master_seed, r), rho=cfg.regime.rho,
    )).to_dense()
    failures = []
    lam = np.linalg.eigvalsh(x @ x.T)[::-1][: len(rec.eigs)]
    slack = (1e-9 + 10.0 * cfg.solver_tol) * max(1.0, abs(lam[0]))
    if len(rec.eigs) != len(lam) or np.abs(np.asarray(rec.eigs) - lam).max() > slack:
        failures.append(f"replicate {r}: eigenvalues {rec.eigs} differ from dense {lam.tolist()}")
    mags = np.sort(np.abs(x), axis=None)[::-1][: len(rec.entries)]
    ranked = all(
        x[i, j] == (mag if theta == 0.0 else -mag) for i, j, mag, theta in rec.entries
    ) and [e[2] for e in rec.entries] == mags.tolist()
    if not ranked:
        failures.append(f"replicate {r}: ranked entries {rec.entries} are not the largest |x_ij|")
    return failures


def _entry(m, i: int, j: int) -> float:
    lo, hi = m.indptr[i], m.indptr[i + 1]
    pos = lo + int(np.searchsorted(m.indices[lo:hi], j))
    return float(m.values[pos]) if pos < hi and m.indices[pos] == j else 0.0


def _symmetric_checks(m, result, entries, inf_norm: float) -> list[str]:
    """Failed sparse-herm checks: convergence, ``lambda_1 <= |A|_inf`` and the
    two-site Rayleigh bound ``lambda_1 >= (a_ii + a_jj) / 2 + |a_ij|``."""
    failed = []
    lam1 = float(result.eigenvalues[0])
    slack = 10.0 * SOLVER_TOL * max(1.0, abs(lam1))
    if not result.converged:
        failed.append("top_eigs did not converge")
    if lam1 > inf_norm * (1.0 + 1e-9) + slack:
        failed.append(f"lambda_1 = {lam1} > |A|_inf = {inf_norm}")
    top = entries[0]
    if top.i == top.j:
        lower = _entry(m, top.i, top.i)
    else:
        lower = 0.5 * (_entry(m, top.i, top.i) + _entry(m, top.j, top.j)) + top.magnitude
    if lam1 < lower - 1e-9 * max(1.0, abs(lower)) - slack:
        failed.append(f"lambda_1 = {lam1} < two-site Rayleigh bound {lower}")
    return failed


# --- passes --------------------------------------------------------------------


def _experiment_pass(run, cfg) -> dict:
    cpu0, t0 = _cpu_s(), time.perf_counter()
    report = run(cfg)
    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    failures = [
        f"replicate {rec.r}: eigenvalues or ranked entries out of order"
        for rec in report.records
        if not _descending(rec)
    ]
    if not report.aggregates["interlacing_spot"]["holds"]:
        failures.append("interlacing spot check failed")
    busy = sum(rec.time_s for rec in report.records)
    return {
        "latencies_s": [rec.time_s for rec in report.records],
        "wall_s": wall,
        "cpu_s": cpu,
        "checks": len(report.records) + SPOT_CHECKS,
        "failed": len(failures),
        "failures": failures,
        "digest": hashlib.sha256(report.to_json(include_timing=False).encode()).hexdigest(),
        "verdicts": [sum(v["pass"] for v in report.verdicts), len(report.verdicts)],
        "experiment": {"wall_s": wall, "cpu_s": cpu, "busy_s": busy},
        "untraced_checks": lambda: _spot_failures(cfg, report),
    }


def _sparse_herm_pass(w: Workload, seed: int) -> dict:
    law = tails.TailLaw(alpha=1.0)
    sparsity = tails.SparsitySpec.bernoulli(0.3)
    latencies, failures = [], []
    cpu0, t0 = _cpu_s(), time.perf_counter()
    for r in range(w.replicates):
        spec = tails.EnsembleSpec(
            shape=tails.HERMITIAN, n=w.n, law=law, sparsity=sparsity,
            seed=derive_seed(seed, "matrix", r),
        )
        start = time.perf_counter()
        m = tails.sample_matrix(spec)
        entries, _ = matrices.top_entries(m, TOP_K + 1)
        result = spectral.top_eigs(m, TOP_K, tol=SOLVER_TOL, seed=derive_seed(seed, "solver", r))
        inf_norm, _ = matrices.norms(m)
        latencies.append(time.perf_counter() - start)
        failures += [f"matrix {r}: {msg}" for msg in _symmetric_checks(m, result, entries, inf_norm)]
    return {
        "latencies_s": latencies,
        "wall_s": time.perf_counter() - t0,
        "cpu_s": _cpu_s() - cpu0,
        "checks": 3 * w.replicates,
        "failed": len(failures),
        "failures": failures,
    }


def _verify_small_pass(w: Workload, seed: int) -> dict:
    latencies, failures, checks = [], [], 0
    cpu0, t0 = _cpu_s(), time.perf_counter()
    for c in range(w.replicates):
        start = time.perf_counter()
        suite = experiments.run_invariant_suite(
            seed=derive_seed(seed, "suite", c),
            instances=w.suite_instances,
            lemma_instances=w.suite_lemma_instances,
        )
        latencies.append(time.perf_counter() - start)
        checks += len(suite["checks"])
        failures += [
            f"suite {c}: {chk['name']} has {chk['violations']} violations"
            for chk in suite["checks"] if not chk["pass"]
        ]
    return {
        "latencies_s": latencies,
        "wall_s": time.perf_counter() - t0,
        "cpu_s": _cpu_s() - cpu0,
        "checks": checks,
        "failed": len(failures),
        "failures": failures,
    }


def experiment_config(w: Workload, seed: int):
    """An experiment workload's config and the name of its runner."""
    poisson = w.name == "poisson-cov"
    cfg = experiments.make_config(
        alpha=1.0 if poisson else 8.0, mu=1.0, n=w.n, rho=1.0, top_k=TOP_K,
        replicates=w.replicates, master_seed=seed, standardize=not poisson,
    )
    return cfg, "run_poisson_experiment" if poisson else "run_edge_experiment"


def prepare(w: Workload, seed: int):
    """Build the pass's inputs and warm the law; returns the pass and its check count."""
    if w.name in ("poisson-cov", "edge-cov"):
        cfg, runner = experiment_config(w, seed)
        _warm(cfg.law, cfg.sparsity, tails.RECTANGULAR)
        # Looked up at call time, so a traced pass calls the wrapped runner.
        return (lambda: _experiment_pass(getattr(experiments, runner), cfg)), w.replicates + SPOT_CHECKS
    if w.name == "sparse-herm":
        _warm(tails.TailLaw(alpha=1.0), tails.SparsitySpec.bernoulli(0.3), tails.HERMITIAN)
        return (lambda: _sparse_herm_pass(w, seed)), 3 * w.replicates
    if w.name == "verify-small":
        _warm(tails.TailLaw(alpha=1.0), tails.SparsitySpec.bernoulli(1.0), tails.RECTANGULAR)
        return (lambda: _verify_small_pass(w, seed)), 8 * w.replicates
    raise ValueError(f"unknown workload {w.name!r}")


# --- provenance and main ---------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "htspec": htspec.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "workers": os.environ.get(experiments.WORKERS_ENV),
    }


def _write_spans(tracer, workload: str, index: int) -> None:
    out = ROOT / ".bench_trace"
    out.mkdir(exist_ok=True)
    with open(out / f"{workload}-pass{index}.jsonl", "w", encoding="utf-8") as fh:
        for span in tracer.spans():
            fh.write(json.dumps(span.__dict__) + "\n")


def finish(result: dict) -> dict:
    """Run a pass's checks that call the program, once tracing has ended.

    A check that raises counts every check of the pass as failed."""
    checks = result.pop("untraced_checks", None)
    if checks is not None:
        try:
            result["failures"] += checks()
            result["failed"] = len(result["failures"])
        except Exception:
            result["failures"].append(traceback.format_exc())
            result["failed"] = result["checks"]
    return result


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    w = WORKLOADS[spec["workload"]]
    run_pass, checks = prepare(w, spec["seed"])
    setup_end = time.monotonic()

    tracer = rebinder = None
    if spec["trace"]:
        tracer = Tracer()
        rebinder = layers.install(tracer)
    try:
        result = run_pass()
    except Exception:
        result = {"checks": checks, "failed": checks, "failures": [traceback.format_exc()]}
    finally:
        if rebinder is not None:
            rebinder.restore()
    # Read before the remaining checks, whose dense copies are not the pass's.
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finish(result)
    result["setup_end"] = setup_end
    result["provenance"] = provenance()
    if tracer is not None and "wall_s" in result:
        result["layers"] = layers.pass_metrics(tracer, result.get("experiment"))
        _write_spans(tracer, w.name, spec["pass"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
