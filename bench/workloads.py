"""The benchmark's workloads and how their inputs derive from the workload seed.

This module imports nothing from the program, so the parent process can read
the table without paying for numpy and scipy.

Why these four (see also BENCHMARK.json):

- ``poisson-cov`` is the canonical Poissonian covariance run (alpha = 1,
  mu = 1, n = 500): full mask, so sampling and entry ranking dominate, with
  the Lanczos/Gram solver and the GIL-bound replicate pool behind them.
- ``edge-cov`` takes the dense path (full ``eigh`` of the 1024 x 1024 Gram
  matrix, ESD against Marchenko-Pastur, interlacing SVDs).  Lanczos is
  bypassed, so a solver change must not move it; it is the memory-heaviest
  run and the one where BLAS threads compete with pool workers.
- ``sparse-herm`` is a serial pipeline of public calls on a large sparse
  symmetric matrix (n = 20000, about 19 nonzeros per row), which separates
  O(nnz) work from the sampler's O(p n) draws.  The experiment runners cannot
  run at this size: their interlacing spot check densifies the matrix.
- ``verify-small`` repeats the exact-invariant suite on tiny ensembles: the
  fixed-cost regime, where per-call overheads dominate.

Passes are short, so that a run of the default length holds several and
set-up is timed several times.  The experiments' statistical verdicts are
calibrated for 200 (poisson) and 40 (edge) replicates, so at these pass sizes
they are reported but are not checks.  Each experiment pass also runs the
runner's fixed per-run work (the interlacing spot check, which samples one
replicate again and runs two dense SVDs, and the aggregates): about 2% of a
poisson-cov pass and about 15% of an edge-cov pass, against under 1% and
about 2% at the canonical 200 and 40 replicates, so ``replicates_per_s``
there includes that fixed share.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

DEFAULT_SEED = 20240801


@dataclass(frozen=True)
class Workload:
    name: str
    replicates: int  # replicates in one pass (one child process)
    # A run makes at least this many passes, and its latency percentiles are
    # read from their replicates only, so that every run reads them from the
    # same number of samples whatever the host's speed.
    min_passes: int
    n: int = 0
    suite_instances: int = 0
    suite_lemma_instances: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("poisson-cov", replicates=60, min_passes=3, n=500),
        Workload("edge-cov", replicates=6, min_passes=4, n=1024),
        Workload("sparse-herm", replicates=1, min_passes=3, n=20000),
        Workload("verify-small", replicates=30, min_passes=4, suite_instances=50, suite_lemma_instances=10),
    )
}


def derive_seed(seed: int, *path) -> int:
    """A 63-bit seed that depends only on ``seed`` and ``path``."""
    text = ":".join(str(part) for part in (seed, *path))
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1
