"""Convex hull volume estimation via extreme-point counting.

For an i.i.d. sample from an unknown convex body, the fraction of
sample points that are extreme points of the sample's convex hull
estimates the mass missed by the hull (the "defect").  Inverting that
relation turns the observed hull volume into an estimate of the body's
volume, ``loo_core.size_estimate`` with n - V_n hits:

    estimate = n * hull_volume / (n - V_n)

where V_n counts extreme points.  A point is extreme exactly when it
is NOT in the convex hull of the other n - 1 points, so V_n / n is the
leave-one-out estimator for the complement region "outside the hull of
the rest".

``hull_summary`` decides every cloud with one rule.  The singular
values of the deduplicated rows give their affine rank k; a
full-dimensional cloud goes to Qhull as it is, and a flat one goes to
Qhull in its own affine span, after projecting onto the top k singular
directions (a line needs only its two ends).  ``in_hull`` decides a
single membership by linear-programming feasibility, which works in any
dimension and serves the tests as an independent oracle for the flags.
The hull volume is Qhull's in every dimension; a flat hull has volume 0.
A full-dimensional summary keeps the hull Qhull built, and a caller
that integrates over the facets reads them from it.
``volume_interval`` turns a summary into the estimate and its interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull

from .loo_core import (
    _check_alpha,
    _check_array,
    _check_bound_n,
    _check_int,
    _check_number,
    _check_record,
    size_estimate,
)

__all__ = [
    "HullSummary",
    "VolumeEstimate",
    "in_hull",
    "hull_summary",
    "volume_interval",
    "volume_ci",
    "conv_mse_bound",
    "consecutive_defect_bound",
]

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class HullSummary:
    """Extreme-point flags and hull volume of a point cloud.

    ``volume`` is the hull's d-dimensional volume, computed by Qhull in
    every dimension d >= 2; it is the range length for d = 1 and 0.0
    for a flat cloud.  When Qhull hulls the cloud in its full space
    (d >= 2, affine rank d), ``hull`` is the ``scipy.spatial.ConvexHull``
    it built over the distinct rows: ``hull.equations`` holds the facet
    inequalities (rows [normal, offset] with normal . x + offset <= 0
    inside) and ``hull.points[hull.simplices]`` each triangulated facet's
    d vertices, so callers can integrate over the hull facet by facet.
    It is None for a flat cloud and for d = 1.
    """

    extreme_count: int
    extreme_flags: np.ndarray
    volume: float
    hull: ConvexHull | None = field(default=None, repr=False)


@dataclass(frozen=True)
class VolumeEstimate:
    """Scaled-volume estimate with its one-sided interval.

    ``estimate`` is ``size_estimate(volume, n - V_n, n)``.  ``rel_halfwidth``
    is eps = sqrt(conv_mse_bound(n, d) / alpha) * n / (n - V_n), the relative
    half-width that bound gives at level 1 - alpha by Chebyshev's inequality,
    and +inf below n = 3, where the bound fails.  The interval is [estimate,
    estimate / (1 - eps)]; ``ci_high`` is +inf when eps >= 1.
    """

    estimate: float
    ci_low: float
    ci_high: float
    alpha: float
    rel_halfwidth: float


_CLOUD_RULE = "be a nonempty 2-D array (n rows, d columns) of finite coordinates"


def in_hull(query, cloud, tol: float = DEFAULT_TOL) -> bool:
    """Is ``query`` in the convex hull of ``cloud``?

    Decided by LP feasibility: minimize the L1 violation of
    sum(lambda_i * x_i) = query, sum(lambda_i) = 1, lambda >= 0, via
    slack variables.  The query is inside iff the optimum is <= tol,
    so boundary points within tol count as inside.  ``tol`` follows the
    number rule: it must be positive.  ``query`` (a d-vector) and ``cloud``
    (m rows of d columns) follow the array rule, except that a cloud of no
    rows, a (0, d) array, is an empty hull.
    """
    from scipy.optimize import linprog

    _check_number("tol", tol, "be positive", lambda t: t > 0)
    q = _check_array("query", query, "be a nonempty vector of finite coordinates")
    if isinstance(cloud, np.ndarray) and cloud.ndim == 2 and cloud.shape[0] == 0:
        return False
    pts = _check_array("cloud", cloud, f"{_CLOUD_RULE}, with the query's dimension d = {q.size}",
                       ndim=2, ok=lambda p: p.shape[1] == q.size)
    m, d = pts.shape
    # Shift so the query is the origin; improves conditioning, same LP.
    centered = (pts - q).T  # d x m
    a_eq = np.zeros((d + 1, m + 2 * d))
    a_eq[:d, :m] = centered
    a_eq[:d, m:m + d] = np.eye(d)
    a_eq[:d, m + d:] = -np.eye(d)
    a_eq[d, :m] = 1.0
    b_eq = np.zeros(d + 1)
    b_eq[d] = 1.0
    cost = np.zeros(m + 2 * d)
    cost[m:] = 1.0
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    return bool(res.status == 0 and res.fun <= tol)


def _affine_rank(centered: np.ndarray, tol: float) -> int:
    # The number of singular values above tol times the largest; a
    # spread beyond the float range makes some of them inf or NaN.
    if np.all(np.isfinite(centered)):
        s = np.linalg.svd(centered, compute_uv=False)
        if np.all(np.isfinite(s)):
            return int(np.sum(s > tol * s[0]))
    raise ValueError("point cloud spread overflows the float range")


def _unique_rows(pts: np.ndarray):
    """Distinct rows in lexicographic order, each row's index among them,
    and each distinct row's multiplicity.

    The values of ``np.unique(pts, axis=0, return_inverse=True,
    return_counts=True)`` from one stable lexsort: a sorted row that
    differs from its predecessor in some coordinate starts a new
    distinct row.
    """
    n = pts.shape[0]
    order = np.lexsort(pts.T[::-1])
    ordered = pts[order]
    first = np.empty(n, dtype=bool)
    first[:1] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse, np.bincount(inverse)


def hull_summary(cloud, tol: float = DEFAULT_TOL) -> HullSummary:
    """Extreme-point flags, V_n, and hull volume.

    Point i is flagged extreme iff it is not in the convex hull of the
    other n - 1 points; a position occurring more than once is never
    extreme.  Volume: d=1 interval length, and for d >= 2 the volume
    Qhull computes for the hull it builds, which the summary keeps.

    Duplicates are found by sorting the rows lexicographically (one
    ``np.lexsort``) and comparing each sorted row with the one before
    it; coordinates are compared as floats, so 0.0 and -0.0 coincide.

    ``tol`` is the flatness threshold: the distinct rows, shifted so
    the first is the origin, have affine rank k, the number of their
    singular values above ``tol`` times the largest, so by the number
    rule ``tol`` must lie in (0, 1).  A line (k = 1) has its two ends as
    extremes.  Otherwise, when k = d the cloud goes to Qhull, and when
    k < d the cloud is flat: its rows are projected onto the top k right
    singular vectors and Qhull runs there.  A flat cloud's volume is 0.0
    in every dimension, and its summary keeps no hull.  A cloud whose
    spread overflows the float range raises ``ValueError``.
    """
    _check_number("tol", tol, "be positive, and tol must be below 1", lambda t: 0 < t < 1)
    pts = _check_array("cloud", cloud, _CLOUD_RULE, ndim=2)
    n, d = pts.shape
    unique_pts, inverse, counts = _unique_rows(pts)
    with np.errstate(over="ignore"):
        centered = unique_pts - unique_pts[0]
    k = _affine_rank(centered, tol)

    vertex_mask = np.zeros(unique_pts.shape[0], dtype=bool)
    volume = 0.0
    hull = None

    if k == 0:
        # One distinct position: extreme iff it is the only point.
        vertex_mask[0] = n == 1
    elif k == 1:
        if d == 1:
            line = centered[:, 0]
            volume = float(unique_pts.max() - unique_pts.min())
        else:
            line = centered @ np.linalg.svd(centered, full_matrices=False)[2][0]
        vertex_mask[[np.argmin(line), np.argmax(line)]] = True
    elif k < d:
        basis = np.linalg.svd(centered, full_matrices=False)[2][:k]
        vertex_mask[ConvexHull(centered @ basis.T).vertices] = True
    else:
        hull = ConvexHull(unique_pts)
        vertex_mask[hull.vertices] = True
        volume = float(hull.volume)

    flags = vertex_mask[inverse] & (counts[inverse] == 1)
    return HullSummary(
        extreme_count=int(flags.sum()),
        extreme_flags=flags,
        volume=volume,
        hull=hull,
    )


def volume_interval(summary: HullSummary, d: int, alpha: float) -> VolumeEstimate:
    """The volume estimate of a d-dimensional cloud's ``summary`` with
    its level 1-alpha one-sided interval (see ``VolumeEstimate``).

    Raises ``ValueError`` when alpha or d breaks its rule (alpha in (0, 1),
    d an integer >= 1), when ``summary`` is no ``HullSummary`` (the record
    rule) or when every point is extreme.
    """
    _check_record("summary", summary, HullSummary)
    _check_alpha(alpha)
    _check_int("d", d, 1)
    n = summary.extreme_flags.shape[0]
    hits = n - summary.extreme_count
    est = size_estimate(summary.volume, hits, n)
    if est is None:
        raise ValueError("all points extreme; estimator undefined")
    eps = math.sqrt(conv_mse_bound(n, d) / alpha) * n / hits if n >= 3 else math.inf
    hi = math.inf if eps >= 1.0 else est / (1.0 - eps)
    return VolumeEstimate(estimate=est, ci_low=est, ci_high=hi, alpha=alpha, rel_halfwidth=eps)


def volume_ci(cloud, alpha: float) -> VolumeEstimate:
    """Volume estimate of a point cloud with its level 1-alpha
    one-sided interval, from one ``hull_summary``."""
    pts = _check_array("cloud", cloud, _CLOUD_RULE, ndim=2)
    return volume_interval(hull_summary(pts), pts.shape[1], alpha)


def conv_mse_bound(n: int, d: int) -> float:
    """(8d+9)/n: MSE bound for V_n/n against the hull defect; n and d
    follow the integer rule, n >= 3 and d >= 1."""
    _check_bound_n(n)
    _check_int("d", d, 1)
    return (8 * d + 9) / n


def consecutive_defect_bound(n: int, d: int) -> float:
    """(d+1)/n: bound on E|defect(n) - defect(n-1)|; n and d follow the
    integer rule, n >= 3 and d >= 1."""
    _check_bound_n(n)
    _check_int("d", d, 1)
    return (d + 1) / n
