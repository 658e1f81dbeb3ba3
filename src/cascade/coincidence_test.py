"""Nearest-neighbor coincidence testing from distances alone.

Given only the pairwise distance matrix of n objects, the fraction
W_n(r)/n of objects whose nearest neighbor lies within r estimates the
mass of the union of r-balls around the sample.  That is the
leave-one-out estimator for the region "within r of some sample
point", and its mean-squared error is at most 9/n for any metric and
any distribution.

On top of that sit a distance-only hypothesis test (is a new object
suspiciously close to the sample?), the two-parameter nucleotide
distance used for the DNA experiments, and the two-sample
Anderson-Darling statistic used to compare distance distributions.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .loo_core import LooEstimate, _check_bound_n

__all__ = [
    "SequenceRecord",
    "nn_loo_distances",
    "coverage_fraction",
    "coincidence_mse_bound",
    "nn_test_pvalue",
    "kimura2p",
    "kimura_matrix",
    "ad_two_sample",
    "ad_two_sample_normalized",
]


def _check_distance_matrix(D) -> np.ndarray:
    d = np.asarray(D, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("distance matrix must be square")
    if not np.all(np.isfinite(d)):
        raise ValueError("distance matrix entries must be finite")
    if np.any(d < 0):
        raise ValueError("distance matrix entries must be nonnegative")
    if np.any(np.abs(d - d.T) > 1e-12):
        raise ValueError("distance matrix must be symmetric within 1e-12")
    if np.any(np.diag(d) != 0):
        raise ValueError("distance matrix must have a zero diagonal")
    return d


def nn_loo_distances(D) -> np.ndarray:
    """values[i] = min over j != i of D[i, j].  Requires n >= 2."""
    d = _check_distance_matrix(D)
    n = d.shape[0]
    if n < 2:
        raise ValueError("need at least two objects for nearest-neighbor distances")
    masked = d.copy()
    np.fill_diagonal(masked, np.inf)
    return masked.min(axis=1)


def coverage_fraction(D, r: float) -> LooEstimate:
    """W_n(r)/n: fraction of objects with nearest neighbor within r.

    Right-continuous and nondecreasing in r.  Requires r >= 0.
    """
    if not r >= 0:
        raise ValueError("radius must be nonnegative and not NaN")
    nn = nn_loo_distances(D)
    hits = int(np.sum(nn <= r))
    return LooEstimate.from_hits(hits, nn.size)


def coincidence_mse_bound(n: int) -> float:
    """9/n: distribution-free MSE bound for W_n(r)/n, any metric."""
    _check_bound_n(n)
    return 9.0 / n


def nn_test_pvalue(reference_nn, query_nn_distance: float) -> float:
    """Lower-tail p-value for "the query is unusually close".

    p = (1 + #{i : reference[i] <= query}) / (n + 1).  Ties count as
    at-most; the plus-one correction makes the test exact under
    exchangeability.  Small p means the query's nearest-neighbor
    distance is suspiciously small.
    """
    ref = np.asarray(reference_nn, dtype=float).reshape(-1)
    if ref.size == 0:
        raise ValueError("empty reference sample")
    if np.isnan(ref).any() or math.isnan(query_nn_distance):
        raise ValueError("reference and query distances must not be NaN")
    count = int(np.sum(ref <= query_nn_distance))
    return (1 + count) / (ref.size + 1)


# Nucleotide codes: the two purines share a high bit, as do the two
# pyrimidines, so a substitution is a transition iff the high bits
# match.  255 marks a masked position.
_BASE_CODE = {"A": 0, "G": 1, "C": 2, "T": 3, "N": 255}
_CODE_TABLE = np.full(256, 254, dtype=np.uint8)
for _b, _c in _BASE_CODE.items():
    _CODE_TABLE[ord(_b)] = _c


class SequenceRecord:
    """An identified nucleotide sequence over A, C, G, T.

    Other characters are rejected unless ``mask_ambiguous`` is set, in
    which case they become masked positions that pairwise distance
    computations skip.
    """

    __slots__ = ("id", "bases")

    def __init__(self, id: str, bases: str, mask_ambiguous: bool = False):
        bases = bases.upper()
        if not bases:
            raise ValueError("empty sequence")
        invalid = set(bases) - {"A", "C", "G", "T"}
        if invalid:
            if not mask_ambiguous:
                raise ValueError(
                    f"sequence {id!r} contains non-ACGT characters: "
                    f"{''.join(sorted(invalid))}"
                )
            bases = "".join(b if b in "ACGT" else "N" for b in bases)
        self.id = id
        self.bases = bases

    def __len__(self):
        return len(self.bases)

    def __repr__(self):
        return f"SequenceRecord(id={self.id!r}, length={len(self.bases)})"

    def codes(self) -> np.ndarray:
        return _CODE_TABLE[np.frombuffer(self.bases.encode("ascii"), dtype=np.uint8)]


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


def kimura_matrix(records) -> np.ndarray:
    """Pairwise two-parameter distances for equal-length records.

    Raises on the first saturated pair, identifying it.
    """
    records = list(records)
    m = len(records)
    if m < 2:
        raise ValueError("need at least two sequences")
    length = len(records[0])
    if any(len(r) != length for r in records):
        raise ValueError("sequence lengths differ")
    codes = np.stack([r.codes() for r in records])
    valid = codes != 255
    out = np.zeros((m, m))
    for i in range(m - 1):
        a = codes[i]
        rest = codes[i + 1:]
        both = valid[i] & valid[i + 1:]
        totals = both.sum(axis=1)
        if np.any(totals == 0):
            j = int(np.argmax(totals == 0)) + i + 1
            raise ValueError(
                f"no comparable positions for pair ({records[i].id}, {records[j].id})"
            )
        diff = (rest != a) & both
        transition = diff & ((rest >> 1) == (a >> 1))
        p = transition.sum(axis=1) / totals
        q = (diff.sum(axis=1) - transition.sum(axis=1)) / totals
        w1 = 1.0 - 2.0 * p - q
        w2 = 1.0 - 2.0 * q
        bad = (w1 <= 0) | (w2 <= 0)
        if np.any(bad):
            j = int(np.argmax(bad)) + i + 1
            raise ValueError(
                f"distance undefined (saturated) for pair "
                f"({records[i].id}, {records[j].id})"
            )
        row = -0.5 * np.log(w1 * np.sqrt(w2))
        out[i, i + 1:] = row
        out[i + 1:, i] = row
    return out


def _two_samples(x, y):
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.size == 0 or y.size == 0:
        raise ValueError("both samples must be nonempty")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("both samples must be finite (no NaN or inf)")
    return x, y


def ad_two_sample(x, y) -> float:
    """Two-sample Anderson-Darling statistic, midrank form.

    This is the k-sample rank statistic of Scholz and Stephens (1987)
    specialized to k=2, in the tied-data (midrank) version:

        A2 = (N-1)/N * sum_i (1/n_i) * sum_j
             l_j/N * (N*M_ij - n_i*B_j)^2 / (B_j*(N-B_j) - N*l_j/4)

    where the j-sum runs over the distinct pooled values, l_j is the
    multiplicity of value j, B_j the midrank cumulative count, and
    M_ij the midrank count of sample i at value j.  Its null mean is
    k - 1 = 1; see ``ad_two_sample_normalized`` for the standardized
    version.
    """
    x, y = (np.sort(v) for v in _two_samples(x, y))
    pooled = np.sort(np.concatenate([x, y]))
    z_star, counts = np.unique(pooled, return_counts=True)
    if z_star.size < 2:
        raise ValueError("pooled sample is constant; statistic undefined")
    n_total = pooled.size
    b_mid = np.searchsorted(pooled, z_star, side="left") + counts / 2.0
    denom = b_mid * (n_total - b_mid) - n_total * counts / 4.0
    weight = counts / n_total
    total = 0.0
    for sample in (x, y):
        right = np.searchsorted(sample, z_star, side="right")
        ties = right - np.searchsorted(sample, z_star, side="left")
        m_mid = right - ties / 2.0
        num = (n_total * m_mid - sample.size * b_mid) ** 2
        total += float(np.sum(weight * num / denom)) / sample.size
    return (n_total - 1) / n_total * total


def ad_two_sample_normalized(x, y) -> float:
    """Standardized statistic (A2 - 1) / sigma under the null.

    Comparable across sample-size pairs and to published quantile
    tables for the k-sample statistic; computed by
    ``scipy.stats.anderson_ksamp`` in its midrank form.
    """
    from scipy import stats

    x, y = _two_samples(x, y)
    pooled = np.concatenate([x, y])
    if pooled.min() == pooled.max():
        raise ValueError("pooled sample is constant; statistic undefined")
    if pooled.size < 4:
        raise ValueError("normalization needs a pooled size of at least 4")
    with warnings.catch_warnings():
        # Only the statistic is used; scipy warns when its interpolated
        # p-value is capped or floored.
        warnings.filterwarnings("ignore", "p-value (capped|floored)", UserWarning)
        return float(stats.anderson_ksamp([x, y], variant="midrank").statistic)
