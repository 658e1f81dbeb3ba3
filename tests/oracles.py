"""Pairwise reference implementations that the library does not call.

``kimura2p`` scores one pair of aligned sequences position by position;
``cascade.coincidence_test.kimura_matrix`` computes every pair at once
from packed bit planes, and the tests check the two agree exactly.
"""

import math

from cascade.coincidence_test import SequenceRecord


def _kimura_from_fractions(p: float, q: float) -> float:
    w1 = 1.0 - 2.0 * p - q
    w2 = 1.0 - 2.0 * q
    if w1 <= 0.0 or w2 <= 0.0:
        raise ValueError("distance undefined (saturated)")
    return -0.5 * math.log(w1 * math.sqrt(w2))


def kimura2p(a: SequenceRecord, b: SequenceRecord) -> float:
    """Two-parameter nucleotide distance between aligned sequences.

    With P the fraction of transition differences (A<->G, C<->T) and Q
    the fraction of transversions over unmasked positions,

        d = -(1/2) ln((1 - 2P - Q) sqrt(1 - 2Q)).

    Positions masked in either sequence are excluded from the
    denominator.  Raises when the log argument is not positive (the
    sequences are too diverged for the model) or on length mismatch.
    """
    if len(a) != len(b):
        raise ValueError("sequence lengths differ")
    ca, cb = a.codes(), b.codes()
    valid = (ca != 255) & (cb != 255)
    total = int(valid.sum())
    if total == 0:
        raise ValueError("no comparable positions after masking")
    diff = (ca != cb) & valid
    transition = diff & ((ca >> 1) == (cb >> 1))
    p = int(transition.sum()) / total
    q = (int(diff.sum()) - int(transition.sum())) / total
    return _kimura_from_fractions(p, q)
