"""Deterministic child-seed derivation for replicated experiments.

Every replication gets its own generator, seeded by mixing the run
seed with the scenario tag, the sample size, and the replication
index through pure 64-bit integer arithmetic:

    child = mix64(mix64(mix64(fnv1a64(tag) ^ seed) ^ n) ^ k)

fnv1a64 is the FNV-1a hash of the tag's UTF-8 bytes and mix64 is the
splitmix64 finalizer.  The construction has no platform-dependent
parts, so a run is reproducible across machines and independent of
how replications are scheduled across workers.  Auxiliary streams
use a suffixed tag through the same chain: ``dna_split`` draws its
sequence population from "dna_split/population".
"""

from __future__ import annotations

import numpy as np

__all__ = ["fnv1a64", "mix64", "child_seed", "rng_for"]

_MASK = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    """FNV-1a hash of a byte string, 64-bit."""
    h = _FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK
    return h


def mix64(z: int) -> int:
    """splitmix64 finalizer: a 64-bit bijective scrambler."""
    z &= _MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    z ^= z >> 31
    return z


def child_seed(seed: int, tag: str, n: int, k: int) -> int:
    """Derived 64-bit seed for replication k of cell (tag, n)."""
    h = fnv1a64(tag.encode("utf-8"))
    z = mix64((h ^ (seed & _MASK)) & _MASK)
    z = mix64(z ^ (n & _MASK))
    z = mix64(z ^ (k & _MASK))
    return z


def rng_for(seed: int, tag: str, n: int, k: int) -> np.random.Generator:
    """Generator for replication k of cell (tag, n)."""
    return np.random.Generator(np.random.PCG64(child_seed(seed, tag, n, k)))
