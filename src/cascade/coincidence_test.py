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

import numpy as np

from .loo_core import LooEstimate, _check_array, _check_bound_n, _check_number

__all__ = [
    "SequenceRecord",
    "nn_loo_distances",
    "coverage_fraction",
    "coincidence_mse_bound",
    "nn_test_pvalue",
    "kimura_matrix",
    "ad_two_sample",
    "ad_two_sample_normalized",
]


def nn_loo_distances(D) -> np.ndarray:
    """values[i] = min over j != i of D[i, j].

    ``D`` follows the array rule: a square matrix of finite distances
    between n >= 2 objects, nonnegative and symmetric within 1e-12, with a
    zero diagonal.
    """
    d = _check_array("D", D, "be a square matrix of finite distances between at least two objects",
                     ndim=2, ok=lambda a: a.shape[0] == a.shape[1] >= 2)
    if np.any(d < 0):
        raise ValueError("D must hold nonnegative distances")
    if np.any(np.abs(d - d.T) > 1e-12):
        raise ValueError("D must be symmetric within 1e-12")
    if np.any(np.diag(d) != 0):
        raise ValueError("D must have a zero diagonal")
    masked = d.copy()
    np.fill_diagonal(masked, np.inf)
    return masked.min(axis=1)


def coverage_fraction(D, r: float) -> LooEstimate:
    """W_n(r)/n: fraction of objects with nearest neighbor within r.

    Right-continuous and nondecreasing in r >= 0 (the number rule).
    """
    _check_number("r", r, "be a nonnegative number, not NaN", lambda v: v >= 0)
    nn = nn_loo_distances(D)
    hits = int(np.sum(nn <= r))
    return LooEstimate(n=nn.size, hits=hits)


def coincidence_mse_bound(n: int) -> float:
    """9/n: distribution-free MSE bound for W_n(r)/n, any metric."""
    _check_bound_n(n)
    return 9.0 / n


def nn_test_pvalue(reference_nn, query_nn_distance: float) -> float:
    """Lower-tail p-value for "the query is unusually close".

    p = (1 + #{i : reference[i] <= query}) / (n + 1).  Ties count as
    at-most; the plus-one correction makes the test exact under
    exchangeability.  Small p means the query's nearest-neighbor
    distance is suspiciously small.  Number rule: the query is not NaN;
    array rule: ``reference_nn`` is a nonempty vector of finite distances.
    """
    _check_number("query_nn_distance", query_nn_distance, "be a number, not NaN", lambda q: True)
    ref = _check_array("reference_nn", reference_nn,
                       "be a nonempty list of distances, none NaN or infinite")
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
        if not isinstance(bases, str):
            raise ValueError(f"bases must be a string, got {bases!r}")
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


def _bit_plane(bits) -> np.ndarray:
    """Rows of booleans packed 64 to a uint64 word, zero-padded."""
    packed = np.packbits(bits, axis=1)
    return np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8))).view(np.uint64)


def kimura_matrix(records) -> np.ndarray:
    """Pairwise two-parameter distances for equal-length records.

    Raises on the first pair (in row order) with no comparable
    positions or a saturated distance, identifying it.  Each row counts
    its comparable positions, differences and transitions against the
    later rows with ``np.bitwise_count`` (numpy >= 2.0) on three bit
    planes: unmasked, high code bit and low code bit.  A difference in
    the high bit is a transversion; one in the low bit alone is a
    transition.  ``records`` follows the array rule: an iterable of at
    least two ``SequenceRecord``.
    """
    records = _check_array("records", records, "be an iterable of SequenceRecord, at least two",
                           kind=None, ok=lambda r: len(r) >= 2 and all(
                               isinstance(x, SequenceRecord) for x in r))
    m = len(records)
    length = len(records[0])
    if any(len(r) != length for r in records):
        raise ValueError("sequence lengths differ")
    codes = np.stack([r.codes() for r in records])
    valid = codes != 255
    valid_w = _bit_plane(valid)
    high_w = _bit_plane(valid & (codes >> 1 & 1).astype(bool))
    low_w = _bit_plane(valid & (codes & 1).astype(bool))
    out = np.zeros((m, m))
    for i in range(m - 1):
        both = valid_w[i] & valid_w[i + 1:]
        totals = np.bitwise_count(both).sum(axis=1, dtype=np.int64)
        if np.any(totals == 0):
            j = int(np.argmax(totals == 0)) + i + 1
            raise ValueError(
                f"no comparable positions for pair ({records[i].id}, {records[j].id})"
            )
        high_diff = (high_w[i] ^ high_w[i + 1:]) & both
        low_diff = (low_w[i] ^ low_w[i + 1:]) & both
        transitions = np.bitwise_count(low_diff & ~high_diff).sum(axis=1, dtype=np.int64)
        transversions = np.bitwise_count(high_diff).sum(axis=1, dtype=np.int64)
        p = transitions / totals
        q = transversions / totals
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


_SAMPLE_RULE = "be a nonempty vector of finite numbers"


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
    version.  ``x`` and ``y`` follow the array rule: nonempty vectors of
    finite numbers.
    """
    x = np.sort(_check_array("x", x, _SAMPLE_RULE))
    y = np.sort(_check_array("y", y, _SAMPLE_RULE))
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
    tables for the k-sample statistic.  sigma^2 is the exact null
    variance of Scholz and Stephens (1987, JASA 82:918), eq. 4, at k = 2:

        sigma^2 = (a N^3 + b N^2 + c N + d) / ((N-1)(N-2)(N-3))

    with H = 1/n_1 + 1/n_2, h = sum_{i<N} 1/i and
    g = sum_{i=1}^{N-2} sum_{j=i+1}^{N-1} 1/((N-i) j).  It is evaluated
    in the order scipy's ``anderson_ksamp`` uses, and gives its
    midrank statistic bit for bit.  The pooled size must be at least 4.
    """
    a2 = ad_two_sample(x, y)
    n1, n2 = np.size(x), np.size(y)
    N = n1 + n2
    if N < 4:
        raise ValueError("normalization needs a pooled size of at least 4")
    k = 2
    H = 1.0 / n1 + 1.0 / n2
    h_cumsum = (1.0 / np.arange(N - 1, 1, -1)).cumsum()
    h = h_cumsum[-1] + 1
    g = (h_cumsum / np.arange(2, N)).sum()
    a = (4 * g - 6) * (k - 1) + (10 - 6 * g) * H
    b = (2 * g - 4) * k**2 + 8 * h * k + (2 * g - 14 * h - 4) * H - 8 * h + 4 * g - 6
    c = (6 * h + 2 * g - 2) * k**2 + (4 * h - 4 * g + 6) * k + (2 * h - 6) * H + 4 * h
    d = (2 * h + 6) * k**2 - 4 * h * k
    sigma_sq = (a * N**3 + b * N**2 + c * N + d) / ((N - 1.0) * (N - 2.0) * (N - 3.0))
    return float((a2 - (k - 1)) / math.sqrt(sigma_sq))
