"""Convex hull volume estimation via extreme-point counting.

For an i.i.d. sample from an unknown convex body, the fraction of
sample points that are extreme points of the sample's convex hull
estimates the mass missed by the hull (the "defect").  Inverting that
relation turns the observed hull volume into an estimate of the body's
volume:

    estimate = hull_volume / (1 - V_n / n)

where V_n counts extreme points.  A point is extreme exactly when it
is NOT in the convex hull of the other n - 1 points, so V_n / n is the
leave-one-out estimator for the complement region "outside the hull of
the rest".

Membership is decided by linear-programming feasibility, which works in
any dimension and needs no facet enumeration.  ``hull_summary`` uses a
vertex-enumeration fast path when the cloud is full-dimensional and
falls back to the LP test on degenerate inputs; the two routes are
checked against each other in the test suite.  Exact hull volume is
provided for d <= 3 only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

__all__ = [
    "HullSummary",
    "VolumeEstimate",
    "in_hull",
    "hull_summary",
    "scaled_volume",
    "estimate_volume",
    "volume_interval_upper",
    "volume_ci",
    "conv_mse_bound",
    "consecutive_defect_bound",
]

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class HullSummary:
    """Extreme-point flags and exact hull volume of a point cloud.

    ``volume`` is None for d > 3 (exact volume unsupported there).
    ``facets`` optionally carries the hull's facet inequalities
    (rows [normal, offset] with normal . x + offset <= 0 inside), for
    probe-based integration; None unless requested or degenerate.
    """

    extreme_count: int
    extreme_flags: np.ndarray
    volume: float | None
    facets: np.ndarray | None = field(default=None, repr=False)


@dataclass(frozen=True)
class VolumeEstimate:
    """Scaled-volume estimate with its one-sided interval.

    The interval's left end is the estimate itself; ``ci_high`` is
    +inf when the width formula's denominator is nonpositive.
    """

    estimate: float
    ci_low: float
    ci_high: float
    alpha: float


def _check_tol(tol) -> None:
    if not tol > 0:  # NaN included
        raise ValueError("tol must be positive")


def _as_cloud(cloud) -> np.ndarray:
    pts = np.asarray(cloud, dtype=float)
    if pts.ndim != 2:
        raise ValueError("point cloud must be a 2-D array (n rows, d columns)")
    if pts.shape[0] < 1 or pts.shape[1] < 1:
        raise ValueError("point cloud must have at least one row and one column")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point cloud coordinates must be finite")
    return pts


def in_hull(query, cloud, tol: float = DEFAULT_TOL) -> bool:
    """Is ``query`` in the convex hull of ``cloud``?

    Decided by LP feasibility: minimize the L1 violation of
    sum(lambda_i * x_i) = query, sum(lambda_i) = 1, lambda >= 0, via
    slack variables.  The query is inside iff the optimum is <= tol,
    so boundary points within tol count as inside.  An empty cloud has
    an empty hull.
    """
    _check_tol(tol)
    q = np.asarray(query, dtype=float).reshape(-1)
    pts = np.asarray(cloud, dtype=float)
    if pts.size == 0:
        return False
    if pts.ndim != 2 or pts.shape[1] != q.shape[0]:
        raise ValueError("query dimension does not match cloud dimension")
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


def _affine_rank(points: np.ndarray, tol: float = 1e-9) -> int:
    if points.shape[0] <= 1:
        return 0
    centered = points - points[0]
    s = np.linalg.svd(centered, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def _polygon_area(vertices: np.ndarray) -> float:
    # Shoelace over an ordered polygon.
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _facet_fan_volume(points: np.ndarray, hull: ConvexHull) -> float:
    # Tetrahedron fan from an interior point over the triangulated
    # facets; every tetrahedron is nondegenerate toward the interior,
    # so summing absolute determinants is exact for a convex hull.
    interior = points[hull.vertices].mean(axis=0)
    simplex_pts = points[hull.simplices]  # (f, 3, 3)
    edges = simplex_pts - interior
    dets = np.linalg.det(edges)
    return float(np.abs(dets).sum()) / 6.0


def _lp_extreme_flags(unique_pts: np.ndarray, counts: np.ndarray, tol: float) -> np.ndarray:
    u = unique_pts.shape[0]
    flags = np.zeros(u, dtype=bool)
    for i in range(u):
        if counts[i] != 1:
            continue  # a duplicated position is never extreme
        others = np.delete(unique_pts, i, axis=0)
        flags[i] = not in_hull(unique_pts[i], others, tol)
    return flags


def hull_summary(cloud, tol: float = DEFAULT_TOL, with_facets: bool = False) -> HullSummary:
    """Extreme-point flags, V_n, and (for d <= 3) exact hull volume.

    Point i is flagged extreme iff it is not in the convex hull of the
    other n - 1 points; a position occurring more than once is never
    extreme.  Volume: d=1 interval length, d=2 shoelace area over the
    ordered hull polygon, d=3 summed tetrahedra over triangulated
    facets; None for d > 3.

    Fast path: vertex enumeration on the deduplicated cloud when it is
    affinely full-dimensional; otherwise per-point LP membership.
    """
    _check_tol(tol)
    pts = _as_cloud(cloud)
    n, d = pts.shape
    unique_pts, inverse, counts = np.unique(
        pts, axis=0, return_inverse=True, return_counts=True
    )
    inverse = inverse.reshape(-1)
    u = unique_pts.shape[0]

    vertex_mask = np.zeros(u, dtype=bool)
    volume: float | None = 0.0 if d <= 3 else None
    facets = None

    if u == 1:
        # One distinct position: extreme iff it is the only point.
        if n == 1:
            vertex_mask[0] = True
    elif d == 1:
        x = unique_pts[:, 0]
        vertex_mask[np.argmin(x)] = True
        vertex_mask[np.argmax(x)] = True
        volume = float(x.max() - x.min())
    elif u <= d or _affine_rank(unique_pts) < d:
        # Degenerate: flat hull, zero d-volume; LP decides extremeness.
        vertex_mask = _lp_extreme_flags(unique_pts, counts, tol)
        if d > 3:
            volume = None
    else:
        try:
            hull = ConvexHull(unique_pts)
        except QhullError:
            vertex_mask = _lp_extreme_flags(unique_pts, counts, tol)
            if d <= 3:
                raise RuntimeError("hull volume computation failed on a full-rank cloud")
            volume = None
        else:
            vertex_mask[hull.vertices] = True
            if d == 2:
                volume = _polygon_area(unique_pts[hull.vertices])
            elif d == 3:
                volume = _facet_fan_volume(unique_pts, hull)
            else:
                volume = None
            if with_facets:
                facets = hull.equations.copy()

    flags = vertex_mask[inverse] & (counts[inverse] == 1)
    return HullSummary(
        extreme_count=int(flags.sum()),
        extreme_flags=flags,
        volume=volume,
        facets=facets,
    )


def scaled_volume(hull_volume: float, extreme_count: int, n: int) -> float:
    """The estimator formula: hull_volume / (1 - extreme_count/n)."""
    if n < 1:
        raise ValueError("n must be positive")
    if extreme_count >= n:
        raise ValueError("all points extreme; estimator undefined")
    if extreme_count < 0:
        raise ValueError("extreme_count must be nonnegative")
    return hull_volume / (1.0 - extreme_count / n)


def estimate_volume(cloud) -> float:
    """Estimate the volume of the sampled body from one point cloud.

    Requires d <= 3 (exact hull volume) and at least one non-extreme
    point.  Always at least the observed hull volume.
    """
    pts = _as_cloud(cloud)
    if pts.shape[1] > 3:
        raise ValueError("exact volume unsupported above d=3")
    summary = hull_summary(pts)
    return scaled_volume(summary.volume, summary.extreme_count, pts.shape[0])


def _relative_halfwidth(extreme_count: int, n: int, d: int, alpha: float) -> float:
    return math.sqrt((8 * d + 9) * n) / (math.sqrt(alpha) * (n - extreme_count))


def volume_interval_upper(
    estimate: float, extreme_count: int, n: int, d: int, alpha: float
) -> float:
    """Upper end of the one-sided interval; +inf if the width blows up.

    The relative half-width is sqrt((8d+9) n) / (sqrt(alpha) (n - V_n));
    when that reaches 1 the interval is unbounded above.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if extreme_count >= n:
        raise ValueError("all points extreme; estimator undefined")
    eps = _relative_halfwidth(extreme_count, n, d, alpha)
    if eps >= 1.0:
        return math.inf
    return estimate / (1.0 - eps)


def volume_ci(cloud, alpha: float) -> VolumeEstimate:
    """Volume estimate with its level 1-alpha one-sided interval.

    The interval is [estimate, estimate / (1 - eps)] with eps as in
    ``volume_interval_upper``; its left end is the estimate itself.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    pts = _as_cloud(cloud)
    if pts.shape[1] > 3:
        raise ValueError("exact volume unsupported above d=3")
    summary = hull_summary(pts)
    n, d = pts.shape
    est = scaled_volume(summary.volume, summary.extreme_count, n)
    hi = volume_interval_upper(est, summary.extreme_count, n, d, alpha)
    return VolumeEstimate(estimate=est, ci_low=est, ci_high=hi, alpha=alpha)


def conv_mse_bound(n: int, d: int) -> float:
    """(8d+9)/n: MSE bound for V_n/n against the hull defect."""
    if n < 3:
        raise ValueError("bound requires n >= 3")
    if d < 1:
        raise ValueError("d must be a positive integer")
    return (8 * d + 9) / n


def consecutive_defect_bound(n: int, d: int) -> float:
    """(d+1)/n: bound on E|defect(n) - defect(n-1)|."""
    if n < 3:
        raise ValueError("bound requires n >= 3")
    if d < 1:
        raise ValueError("d must be a positive integer")
    return (d + 1) / n
