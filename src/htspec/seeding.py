"""Deterministic derivation of child seeds and counter-keyed words from a
64-bit master seed.

Matrix sampling and replicated experiments both need many independent
random words whose identity depends only on (master seed, key), never on
traversal order or worker scheduling.  A splitmix64-style avalanche of
``master XOR (k+1) * golden`` gives well-separated children.  Experiments
feed them to ``numpy.random.PCG64`` as replicate and solver seeds; the
sampler reads them directly as counter-based uniforms, one word per key
``i << 32 | k`` (:func:`mix64_array` is the vectorized form).
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def mix64(master: int, k: int) -> int:
    """Return the ``k``-th child seed of ``master``.

    The map is ``finalize(master XOR (k+1) * golden)`` with the splitmix64
    finalizer, all arithmetic modulo 2**64.  Distinct ``k`` give distinct,
    statistically unrelated children for any fixed master.
    """
    if not isinstance(master, int) or not 0 <= master <= MASK64:
        raise ValueError(f"master seed must be an integer in [0, 2**64): {master!r}")
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"stream index must be a nonnegative integer: {k!r}")
    z = (master ^ ((k + 1) * _GOLDEN & MASK64)) & MASK64
    z ^= z >> 30
    z = z * _MIX_A & MASK64
    z ^= z >> 27
    z = z * _MIX_B & MASK64
    z ^= z >> 31
    return z


def mix64_array(master: int, keys: np.ndarray) -> np.ndarray:
    """:func:`mix64` of ``master`` at every key of a 1-d array of keys in
    [0, 2**64).

    uint64 array arithmetic wraps modulo 2**64, so element ``j`` equals
    ``mix64(master, int(keys[j]))``.
    """
    z = (np.asarray(keys, dtype=np.uint64) + np.uint64(1)) * np.uint64(_GOLDEN)
    z ^= np.uint64(master)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX_A)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX_B)
    z ^= z >> np.uint64(31)
    return z
