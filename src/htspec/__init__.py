"""Sparse heavy-tailed random matrices: sampling, extreme spectra, and the
localization / delocalization phase transition.

Entries have symmetric regularly varying tails with exponent ``alpha`` and the
Bernoulli mask keeps each entry with probability ``n^(mu-1)``.  Below the
critical line ``alpha = 2 (1 + 1/mu)`` the largest eigenvalues follow the
largest entries (Poisson statistics, localized eigenvectors); above it they
stick to the Marchenko-Pastur edge (delocalized eigenvectors).  The package
samples these ensembles reproducibly, computes extreme eigenpairs by dense
factorization or Lanczos iteration, and verifies both the exact algebraic
invariants and the distributional limits behind that picture.
"""

from .seeding import mix64
from .tails import (
    HERMITIAN,
    RECTANGULAR,
    SV_CONSTANT,
    SV_LOG_POWER,
    EnsembleSpec,
    SparsitySpec,
    TailLaw,
    sample_matrix,
)
from .matrices import (
    RankedEntry,
    SparseMatrix,
    gram_matvec,
    load_matrix_csv,
    matvec,
    norms,
    save_matrix_csv,
    top_entries,
    truncate_split,
)
from .limits import (
    CRITICAL,
    EDGE,
    POISSONIAN,
    c_n,
    c_np,
    classify_regime,
    frechet_cdf,
    mp_cdf,
    mp_density,
    mp_edges,
    pp_mean_count,
)
from .localization import (
    distance_to_basis_vector,
    distance_to_pair_vector,
    is_localized,
    localization_profile,
)
from .spectral import (
    PerturbationCheck,
    SpectralResult,
    check_interlacing,
    eig_dense_symmetric,
    localization_bound_check,
    perturbation_check,
    principal_subradius,
    top_eigs,
)
from .stats import (
    esd,
    ks_statistic,
    poisson_count_test,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    RUN_KINDS,
    ReplicateRecord,
    derive_replicate_seed,
    make_config,
    run_edge_experiment,
    run_experiment,
    run_invariant_suite,
    run_phase_sweep,
    run_poisson_experiment,
    truncation_window,
)

__version__ = "0.1.0"

__all__ = [
    "mix64",
    "TailLaw",
    "SparsitySpec",
    "EnsembleSpec",
    "sample_matrix",
    "SV_CONSTANT",
    "SV_LOG_POWER",
    "RECTANGULAR",
    "HERMITIAN",
    "SparseMatrix",
    "RankedEntry",
    "matvec",
    "gram_matvec",
    "norms",
    "top_entries",
    "truncate_split",
    "save_matrix_csv",
    "load_matrix_csv",
    "classify_regime",
    "c_np",
    "c_n",
    "frechet_cdf",
    "pp_mean_count",
    "mp_edges",
    "mp_density",
    "mp_cdf",
    "POISSONIAN",
    "EDGE",
    "CRITICAL",
    "localization_profile",
    "is_localized",
    "distance_to_basis_vector",
    "distance_to_pair_vector",
    "SpectralResult",
    "PerturbationCheck",
    "eig_dense_symmetric",
    "top_eigs",
    "check_interlacing",
    "perturbation_check",
    "principal_subradius",
    "localization_bound_check",
    "ks_statistic",
    "esd",
    "poisson_count_test",
    "ExperimentConfig",
    "ReplicateRecord",
    "ExperimentReport",
    "derive_replicate_seed",
    "make_config",
    "RUN_KINDS",
    "run_experiment",
    "run_poisson_experiment",
    "run_edge_experiment",
    "run_phase_sweep",
    "run_invariant_suite",
    "truncation_window",
    "__version__",
]
