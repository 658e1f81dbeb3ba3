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

from functools import lru_cache

import numpy as np

from ..loo_core import _check_int, _check_seed

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


@lru_cache(maxsize=256)
def _tag_hash(tag: str) -> int:
    # Every replication of a cell passes the same tag: hash it once.
    return fnv1a64(tag.encode("utf-8"))


def child_seed(seed: int, tag: str, n: int, k: int) -> int:
    """Derived 64-bit seed for replication k of cell (tag, n): ``seed`` is
    an integer in [0, 2**64), ``n`` and ``k`` integers >= 0 (integer rule),
    read modulo 2**64, and ``tag`` a string."""
    _check_seed("seed", seed)
    _check_int("n", n, 0)
    _check_int("k", k, 0)
    if not isinstance(tag, str):
        raise ValueError(f"tag must be a string, got {tag!r}")
    # mix64 reduces its argument modulo 2**64.
    z = mix64(_tag_hash(tag) ^ seed)
    z = mix64(z ^ n)
    return mix64(z ^ k)


def rng_for(seed: int, tag: str, n: int, k: int) -> np.random.Generator:
    """Generator for replication k of cell (tag, n)."""
    return np.random.Generator(np.random.PCG64(child_seed(seed, tag, n, k)))
