"""Generic leave-one-out estimation over symmetric set families.

Setting: a sample x_1, ..., x_n and a rule that builds a region from any
finite sample.  The quantity of interest is the probability mass of the
region built from the full sample.  The leave-one-out estimate is the
fraction of sample points that land in the region built from the other
n - 1 points:

    (1/n) * #{i : x_i in region(sample minus x_i)}

Every estimator in this package (missing species mass, hull volume
defect, partial-order set sizes, neighbor coverage, prediction-interval
coverage) is an instance of this computation with a particular
membership rule.  The accompanying mean-squared-error bound is
``loo_mse_bound``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

__all__ = ["LooEstimate", "BoundInputs", "loo_estimate", "loo_mse_bound"]


@dataclass(frozen=True)
class LooEstimate:
    """A leave-one-out estimate: ``value`` = ``hits`` / ``n``.

    Attributes
    ----------
    value : float
        The estimate, always in [0, 1].
    n : int
        Sample size.
    hits : int
        Number of indices i whose point belongs to the region built
        from the remaining n - 1 points.
    """

    value: float
    n: int
    hits: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("sample size must be positive")
        if not 0 <= self.hits <= self.n:
            raise ValueError("hit count outside [0, n]")
        if self.value != self.hits / self.n:
            raise ValueError("value must equal hits / n exactly")

    @classmethod
    def from_hits(cls, hits: int, n: int) -> "LooEstimate":
        return cls(value=hits / n, n=n, hits=hits)


@dataclass(frozen=True)
class BoundInputs:
    """Inputs to the mean-squared-error bound.

    Attributes
    ----------
    theta : float
        Variance-type term: the expected mass-times-complement of the
        region built from n - 1 points.  At most 1/4 for any region.
    delta_prime : float
        Expected mass of the symmetric difference between the n-point
        region and an (n-1)-point region (one point excluded).
    delta_double_prime : float
        Same with two points excluded, comparing the (n-1)- and
        (n-2)-point regions.
    n : int
        Sample size, at least 3.
    """

    theta: float
    delta_prime: float
    delta_double_prime: float
    n: int

    def __post_init__(self):
        if not 0.0 <= self.theta <= 0.25:
            raise ValueError("theta must lie in [0, 1/4]")
        for delta in (self.delta_prime, self.delta_double_prime):
            if not (math.isfinite(delta) and delta >= 0):
                raise ValueError("delta terms must be finite and nonnegative")
        _check_bound_n(self.n)


def _check_bound_n(n) -> None:
    """Every MSE bound's sample-size precondition: n is an integer
    (not a bool) of at least 3."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"bound requires n to be an integer, got {n!r}")
    if n < 3:
        raise ValueError("bound requires n >= 3")


def _member_fn(oracle):
    # An oracle is either a callable member(candidate, rest) or an
    # object exposing .member with that signature.
    member = getattr(oracle, "member", oracle)
    if not callable(member):
        raise TypeError("oracle must be callable or have a member method")
    return member


def loo_estimate(oracle, sample) -> LooEstimate:
    """Leave-one-out estimate of the mass of the sample-built region.

    Parameters
    ----------
    oracle : callable or object with ``member`` method
        ``member(candidate, rest)`` decides whether ``candidate`` lies
        in the region built from the sample ``rest``.  It must be a
        pure function of the candidate and the unordered sample.
    sample : sequence
        The observed points, length n >= 1.

    Returns
    -------
    LooEstimate

    Notes
    -----
    The framework removes the held-out element before calling the
    oracle, so the oracle always evaluates a region built from the
    points it is given, never performing exclusion itself.  The result
    is invariant under permutation of the sample whenever the oracle is
    symmetric in its second argument.
    """
    sample = list(sample)
    n = len(sample)
    if n == 0:
        raise ValueError("empty sample")
    member = _member_fn(oracle)
    hits = 0
    for i in range(n):
        rest = sample[:i] + sample[i + 1:]
        if member(sample[i], rest):
            hits += 1
    return LooEstimate.from_hits(hits, n)


def loo_mse_bound(b: BoundInputs) -> float:
    """Mean-squared-error bound for the leave-one-out estimator.

    Returns ``4*delta_prime + 4*(n-1)*delta_double_prime/n + 2*theta/n``.
    The bound controls E[(true mass - estimate)^2] for any symmetric
    region family, for samples of size n >= 3.
    """
    n = b.n
    return 4.0 * b.delta_prime + 4.0 * (n - 1) * b.delta_double_prime / n + 2.0 * b.theta / n
