"""Missing-mass estimation: how much probability sits on unseen labels.

The estimator is the classical Good-Turing ratio T_n / n, where T_n is
the number of labels observed exactly once.  It is the leave-one-out
estimator for the region "labels not present in the sample": x_i is a
member of the region built from the other n - 1 draws exactly when its
label appears nowhere else, i.e. when it is a singleton.

Three error bounds are provided: a distribution-free bound with its
simple 5/(n-2) cap, a sharper bound for a uniform distribution on N
labels, and a three-sum bound in terms of an arbitrary finite label
distribution.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .loo_core import LooEstimate, _check_bound_n

__all__ = [
    "good_turing",
    "missing_mass",
    "unseen_bound",
    "unseen_bound_finite_N",
    "unseen_bound_general",
]


def good_turing(sample) -> LooEstimate:
    """T_n / n: fraction of labels in the sample seen exactly once.

    Labels are opaque hashable values.  Raises on an empty sample.
    """
    sample = list(sample)
    n = len(sample)
    if n == 0:
        raise ValueError("empty sample")
    counts = Counter(sample)
    singletons = sum(1 for c in counts.values() if c == 1)
    return LooEstimate.from_hits(singletons, n)


def _check_probabilities(probabilities) -> np.ndarray:
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probabilities must be a nonempty vector")
    if np.any(p < 0) or not np.all(np.isfinite(p)):
        raise ValueError("probabilities must be finite and nonnegative")
    if abs(p.sum() - 1.0) > 1e-12:
        raise ValueError("probabilities must sum to 1 within 1e-12")
    return p


def missing_mass(probabilities, sample) -> float:
    """Exact unseen mass: sum of p_i over labels i not in the sample.

    ``probabilities`` lists p_1, ..., p_N; sample labels are 1-based
    indices into it, of an integer dtype (a bool, float or string label
    is rejected, not converted).  This is the simulation ground truth;
    the estimator itself never needs the distribution.
    """
    p = _check_probabilities(probabilities)
    n_species = p.size
    labels = np.asarray(sample)
    if labels.size and labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers, not {labels.dtype.name} values")
    out_of_range = (labels < 1) | (labels > n_species)
    if out_of_range.any():
        label = labels[out_of_range][0].item()
        raise ValueError(f"label {label!r} out of range 1..{n_species}")
    seen = np.zeros(n_species, dtype=bool)
    seen[labels.astype(np.intp) - 1] = True
    return float(p[~seen].sum())


def unseen_bound(n: int) -> tuple[float, float]:
    """Distribution-free MSE bound, as (three-term value, 5/(n-2) cap).

    The three-term form is
        4/(e(n-1)) + 4(n-1)/(e n (n-2)) + 2/n
    and never exceeds the cap.  Requires n >= 3.
    """
    _check_bound_n(n)
    e = math.e
    three_term = 4.0 / (e * (n - 1)) + 4.0 * (n - 1) / (e * n * (n - 2)) + 2.0 / n
    cap = 5.0 / (n - 2)
    return three_term, cap


def unseen_bound_finite_N(n: int, N: int) -> float:
    """MSE bound for a uniform distribution on N labels.

    Returns (8/N + 2/n) * exp(-(n-2)/N).  Requires n >= 3 and N >= 1.
    Useful in the oversampled regime n >> N, where the distribution-free
    bound is far too pessimistic.
    """
    _check_bound_n(n)
    if N < 1:
        raise ValueError("N must be a positive integer")
    return (8.0 / N + 2.0 / n) * math.exp(-(n - 2) / N)


def unseen_bound_general(probabilities, n: int) -> float:
    """MSE bound in terms of the actual label distribution.

    Returns
        4 sum p_i^2 (1-p_i)^(n-1)
      + (4(n-1)/n) sum p_i^2 (1-p_i)^(n-2)
      + (2/n) sum p_i (1-p_i)^(n-1).

    Always at most the distribution-free three-term bound.
    """
    _check_bound_n(n)
    p = _check_probabilities(probabilities)
    q = 1.0 - p
    s1 = float(np.sum(p * p * q ** (n - 1)))
    s2 = float(np.sum(p * p * q ** (n - 2)))
    s3 = float(np.sum(p * q ** (n - 1)))
    return 4.0 * s1 + 4.0 * (n - 1) / n * s2 + 2.0 / n * s3
