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
import reprlib
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

__all__ = ["LooEstimate", "BoundInputs", "loo_estimate", "loo_mse_bound", "size_estimate"]


@dataclass(frozen=True)
class LooEstimate:
    """A leave-one-out estimate: ``value`` = ``hits`` / ``n``.

    Attributes
    ----------
    n : int
        Sample size, an integer >= 1 by the integer rule.
    hits : int
        Number of indices i whose point belongs to the region built
        from the remaining n - 1 points, an integer in [0, n] by the rule.
    value : float
        The estimate ``hits / n``, always in [0, 1] (read-only).
    """

    n: int
    hits: int

    def __post_init__(self):
        _check_int("n", self.n, 1)
        _check_int("hits", self.hits, 0, self.n, "be an integer in [0, n], the hit count")

    @property
    def value(self) -> float:
        return self.hits / self.n


@dataclass(frozen=True)
class BoundInputs:
    """Inputs to the mean-squared-error bound: theta and the deltas obey
    the number rule, n the integer rule.

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
        _check_number("theta", self.theta, "lie in [0, 1/4]", lambda t: 0 <= t <= 0.25)
        for name in ("delta_prime", "delta_double_prime"):
            _check_number(name, getattr(self, name), "lie in [0, inf)", lambda d: 0 <= d < math.inf)
        _check_bound_n(self.n)


def _check_int(name, value, low, high=math.inf, rule=None) -> None:
    """The integer rule: ``value`` is an integer (not a bool) in [low, high],
    else ``ValueError`` says ``name`` must ``rule`` (by default, that range)."""
    # type() spares a plain int (a float, below) the slow ABC isinstance test.
    if (type(value) is not int
            and (isinstance(value, bool) or not isinstance(value, numbers.Integral))
            or not low <= value <= high):
        span = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise ValueError(f"{name} must {rule or 'be an integer ' + span}, got {value!r}")


def _check_number(name, value, rule, ok) -> None:
    """The number rule: ``value`` is a real (not a bool, not NaN) for which
    ``ok`` holds, else ``ValueError`` says ``name`` must ``rule``."""
    if (type(value) is not float
            and (isinstance(value, bool) or not isinstance(value, numbers.Real))
            or value != value or not ok(value)):
        raise ValueError(f"{name} must {rule}, got {value!r}")


def _check_array(name, value, rule, ndim=1, kind="f", ok=None):
    """The array rule: ``value`` converts once with ``np.asarray`` to a
    nonempty ``ndim``-D array for which ``ok`` holds, of finite reals
    (``kind`` "f", returned as float64) or of integers ("i": a bool,
    float or string is not converted); else ``ValueError`` says ``name``
    must ``rule``.  ``kind`` None takes elements of any type: a nonempty
    array, list, or other iterable (listed) that is no string or mapping.
    An array of the wanted kind is returned as it is, not copied.
    """
    if kind is None:
        if isinstance(value, (np.ndarray, list)):
            arr = value
        elif isinstance(value, Iterable) and not isinstance(value, (str, bytes, Mapping)):
            arr = list(value)
        else:
            arr = None
        good = arr is not None and getattr(arr, "ndim", 1) > 0 and len(arr) > 0
    else:
        try:
            arr = np.asarray(value)
        except (TypeError, ValueError):  # ragged, or no array at all
            arr = None
        # dtype kinds: f float, i/u (un)signed integer; bools, strings,
        # complex and object arrays are neither.
        good = (arr is not None and arr.ndim == ndim and arr.size > 0
                and arr.dtype.kind in ("fiu" if kind == "f" else "iu"))
        if good and kind == "f":
            arr = arr.astype(float, copy=False)
            good = bool(np.isfinite(arr).all())
    if not good or ok is not None and not ok(arr):
        shown = (f"a {value.dtype} array of shape {value.shape}"
                 if isinstance(value, np.ndarray) else reprlib.repr(value))
        raise ValueError(f"{name} must {rule}, got {shown}")
    return arr


def _elements(sample, rule, fn):
    """``fn(sample)``, whose ``TypeError`` (an unhashable or wrongly typed
    element) becomes a ``ValueError`` saying ``sample`` must ``rule``."""
    try:
        return fn(sample)
    except TypeError:
        raise ValueError(f"sample must {rule}, got {reprlib.repr(sample)}") from None


def _check_record(name, value, cls) -> None:
    """The record rule: ``value`` is a ``cls``, else ``ValueError`` names ``name``."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be of type {cls.__name__}, got {reprlib.repr(value)}")


def _check_bound_n(n) -> None:
    """Every MSE bound's sample-size precondition: the integer rule, at least 3."""
    _check_int("n", n, 3, rule="be an integer >= 3, as every MSE bound requires n >= 3")


def _check_alpha(alpha) -> None:
    """Every interval's level precondition: the number rule, in (0, 1)."""
    _check_number("alpha", alpha, "lie in (0, 1)", lambda a: 0 < a < 1)


def loo_estimate(oracle, sample) -> LooEstimate:
    """Leave-one-out estimate of the mass of the sample-built region.

    Parameters
    ----------
    oracle : callable or object with ``member`` method
        ``member(candidate, rest)`` decides whether ``candidate`` lies
        in the region built from the sample ``rest``.  It must be a
        pure function of the candidate and the unordered sample.
    sample : iterable
        The observed points, n >= 1 of them (the array rule, any elements).

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
    sample = list(_check_array("sample", sample, "be an iterable of points, not an empty sample",
                               kind=None))
    n = len(sample)
    # An oracle is either a callable member(candidate, rest) or an
    # object exposing .member with that signature.
    member = getattr(oracle, "member", oracle)
    if not callable(member):
        raise ValueError(f"oracle must be callable or have a member method, got {oracle!r}")
    hits = 0
    for i in range(n):
        rest = sample[:i] + sample[i + 1:]
        if member(sample[i], rest):
            hits += 1
    return LooEstimate(n=n, hits=hits)


def loo_mse_bound(b: BoundInputs) -> float:
    """Mean-squared-error bound for the leave-one-out estimator.

    Returns ``4*delta_prime + 4*(n-1)*delta_double_prime/n + 2*theta/n``.
    The bound controls E[(true mass - estimate)^2] for any symmetric
    region family, for samples of size n >= 3.  Raises ``ValueError``
    naming ``b`` unless it is a ``BoundInputs``.
    """
    _check_record("b", b, BoundInputs)
    n = b.n
    return 4.0 * b.delta_prime + 4.0 * (n - 1) * b.delta_double_prime / n + 2.0 * b.theta / n


def size_estimate(observed, hits: int, n: int) -> float | None:
    """``n * observed / hits``, None when ``hits`` is 0: a set's size from
    the size ``observed`` of an n-point sample's closure, ``hits`` points
    of which lie in the closure of the other n - 1.  The hull volume takes
    hits = n - V_n, a poset the dominated or sandwiched count: for labels
    this is n * distinct / (collided points), for a chain the sample
    maximum, times n/(n-1) when it is unique.  Raises ``ValueError``
    naming ``n`` unless it is an integer >= 1, ``hits`` unless it is an
    integer in [0, n] (the integer rule), and ``observed`` unless it is a
    finite number >= 0 (the number rule).
    """
    _check_int("n", n, 1)
    _check_int("hits", hits, 0, n)
    # 0 <= observed < inf is exact for an int of any size.
    _check_number("observed", observed, "be finite and >= 0", lambda v: 0 <= v < math.inf)
    return n * observed / hits if hits else None
