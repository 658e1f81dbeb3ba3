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
import numbers
import operator
import reprlib
from collections import Counter
from collections.abc import Mapping

import numpy as np

from .loo_core import LooEstimate, _check_array, _check_bound_n, _check_int

__all__ = [
    "good_turing",
    "missing_mass",
    "unseen_bound",
    "unseen_bound_finite_N",
    "unseen_bound_general",
]

_SAMPLE_RULE = "be an iterable of hashable labels or a mapping of counts, not an empty sample"
_PROBABILITIES_RULE = ("be a nonempty vector of finite nonnegative numbers that sum to 1 "
                       "within 1e-12")


def _sums_to_one(p) -> bool:
    return p.min() >= 0 and abs(p.sum() - 1.0) <= 1e-12


def good_turing(sample) -> LooEstimate:
    """T_n / n: fraction of labels in the sample seen exactly once.

    Labels are opaque hashable values.  A mapping (a ``Counter``, say) is
    read as label counts, so ``good_turing(Counter(labels))`` equals
    ``good_turing(labels)``; raises ``ValueError`` naming ``sample``
    unless every count is an integer >= 1 (a bool is not a count).  Any
    other ``sample`` follows the array rule for elements of any type, and
    a label that is not hashable raises ``ValueError`` naming ``sample``
    too, as does an empty sample.
    """
    if isinstance(sample, Mapping):
        values = sample.values()
        # One test per distinct type and one min(), not a Python test per label.
        for kind in set(map(type, values)):
            if kind is bool or not issubclass(kind, numbers.Integral):
                raise ValueError(f"sample counts must be integers, got a {kind.__name__}")
        least = min(values, default=1)
        if least < 1:
            raise ValueError(f"sample counts must be >= 1, got {least!r}")
    else:
        labels = _check_array("sample", sample, _SAMPLE_RULE, kind=None)
        try:
            values = Counter(labels).values()
        except TypeError:  # an unhashable label
            raise ValueError(f"sample must {_SAMPLE_RULE}, got {reprlib.repr(sample)}") from None
    n = int(sum(values))
    if n == 0:
        raise ValueError(f"sample must {_SAMPLE_RULE}, got {reprlib.repr(sample)}")
    return LooEstimate(n=n, hits=operator.countOf(values, 1))


def missing_mass(probabilities, sample) -> float:
    """Exact unseen mass: sum of p_i over labels i not in the sample.

    ``probabilities`` lists p_1, ..., p_N; sample labels are 1-based
    indices into it, of an integer dtype (a bool, float or string label
    is rejected, not converted).  Both follow the array rule.  This is
    the simulation ground truth; the estimator itself never needs the
    distribution.
    """
    p = _check_array("probabilities", probabilities, _PROBABILITIES_RULE, ok=_sums_to_one)
    n_species = p.size
    labels = _check_array("sample", sample, "be a nonempty vector of 1-based integer labels",
                          kind="i")
    out_of_range = (labels < 1) | (labels > n_species)
    if out_of_range.any():
        label = labels[out_of_range][0].item()
        raise ValueError(f"sample must hold labels in 1..{n_species}: label {label!r} out of range")
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

    Returns (8/N + 2/n) * exp(-(n-2)/N).  n and N follow the integer
    rule, n >= 3 and N >= 1.  Useful in the oversampled regime n >> N,
    where the distribution-free bound is far too pessimistic.
    """
    _check_bound_n(n)
    _check_int("N", N, 1)
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
    p = _check_array("probabilities", probabilities, _PROBABILITIES_RULE, ok=_sums_to_one)
    q = 1.0 - p
    s1 = float(np.sum(p * p * q ** (n - 1)))
    s2 = float(np.sum(p * p * q ** (n - 2)))
    s3 = float(np.sum(p * q ** (n - 1)))
    return 4.0 * s1 + 4.0 * (n - 1) / n * s2 + 2.0 / n * s3
