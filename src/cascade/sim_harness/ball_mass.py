"""Exact and certified ball-coverage masses.

These are the ground truths of the two ball-coverage scenarios.

``disk_union_area``: the area of the union of r-disks around sites in
the unit square, clipped to the square.  A point of the square lies in
the union iff it is within r of its nearest site, so the area is the
sum, over sites, of the area of the site's Voronoi cell within the
square intersected with the site's own disk.  Mirroring every site
across the four sides makes each site's Voronoi cell (among the sites
and their mirrors) exactly its cell clipped to the square: inside the
square a mirror is never nearer than the site it mirrors, and beyond a
side the site's own mirror is nearer than the site.  A cell is the fan
of triangles (site, a, b) over its edges (a, b), and each triangle
meets the disk around its apex in closed form: two circular sectors
and one triangle under the chord.  A site on a side is its own mirror
there; its cell then reaches past that side, and clipping its edges at
the side cuts the fan exactly, because the side passes through the
apex.

``cap_union_bracket``: for unit vectors x_i in R^n and a uniform
direction u on the sphere, a certified bracket on P(some u . x_i >= c)
with c > 0.  Bonferroni's inequalities give S1 - S2 <= P <= S1, where
S1 is the sum of the cap masses and S2 the sum of the pairwise
intersections.  Both caps of a pair lie in {u . (x_i + x_j) >= 2c}, a
cap of height 2c / |x_i + x_j| = 2c / sqrt(2 + 2 rho_ij), so its mass
bounds the pair's intersection from above.  The bracket is tight when
the caps are small and far apart, and useless when S1 nears 1.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import Voronoi
from scipy.special import betainc

from ..loo_core import _check_array, _check_number

__all__ = ["cap_mass", "cap_union_bracket", "disk_union_area"]

# Far corners that keep every site's Voronoi cell bounded, also a cell
# that reaches past a side its site lies on.  Inside the square a site
# is always nearer than they are.
_GUARDS = np.array([[-10.0, -10.0], [11.0, -10.0], [-10.0, 11.0], [11.0, 11.0]])


def _mirrored(sites: np.ndarray) -> np.ndarray:
    """The sites, then their mirrors across each side they are not on
    (a mirror on its site would duplicate it), then the guards."""
    x, y = sites[:, 0], sites[:, 1]
    mirrors = [
        np.column_stack((-x, y))[x > 0.0],
        np.column_stack((2.0 - x, y))[x < 1.0],
        np.column_stack((x, -y))[y > 0.0],
        np.column_stack((x, 2.0 - y))[y < 1.0],
    ]
    return np.vstack([sites, *mirrors, _GUARDS])


def _clip_to_own_sides(a: np.ndarray, b: np.ndarray, site: np.ndarray):
    """Segments a -> b, cut to the closed square's side of every side
    line that their ``site`` lies on; a segment wholly outside comes back
    with b = a.  Other sides are left alone: the mirrors already bound
    the cell there, and cutting a Voronoi edge that runs along a side
    would let its rounding (a vertex 1e-17 outside) drop the edge.
    """
    d = b - a
    lo, hi = np.zeros(len(a)), np.ones(len(a))
    for axis, side, inward in ((0, 0.0, 1.0), (0, 1.0, -1.0), (1, 0.0, 1.0), (1, 1.0, -1.0)):
        on = site[:, axis] == side
        # inward * (a + t d - side) >= 0 on the square's side.
        g0 = inward * (a[on, axis] - side)
        g1 = inward * d[on, axis]
        with np.errstate(divide="ignore", invalid="ignore"):
            cut = -g0 / g1
        lo[on] = np.where(g1 > 0.0, np.maximum(lo[on], cut), lo[on])
        hi[on] = np.where(g1 < 0.0, np.minimum(hi[on], cut), hi[on])
        hi[on] = np.where((g1 == 0.0) & (g0 < 0.0), -np.inf, hi[on])
    hi = np.maximum(hi, lo)
    return a + lo[:, None] * d, a + hi[:, None] * d


def _apex_triangle_in_disk(a: np.ndarray, b: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """area(triangle(0, a, b) intersected with disk(0, r)), one row per
    edge and one column per radius.

    With h the distance of the edge's line from the apex and s the
    coordinate along it from the foot of the perpendicular, the chord at
    height h spans s in [-w, w], w = sqrt(r^2 - h^2).  Over the part of
    [s_a, s_b] inside the chord the triangle lies in the disk (area
    h (hi - lo) / 2); over the rest the disk is the smaller, a sector of
    angle atan(s/h) differences.
    """
    along = b - a
    length = np.linalg.norm(along, axis=1)
    keep = length > 0.0
    a, b, along = a[keep], b[keep], along[keep] / length[keep, None]
    h = np.abs(a[:, 0] * along[:, 1] - a[:, 1] * along[:, 0])[:, None]
    s_a = np.einsum("ed,ed->e", a, along)[:, None]
    s_b = np.einsum("ed,ed->e", b, along)[:, None]
    w = np.sqrt(np.maximum(radii**2 - h**2, 0.0))
    lo = np.maximum(s_a, -w)
    hi = np.maximum(np.minimum(s_b, w), lo)
    angle = np.arctan2(s_b, h) - np.arctan2(s_a, h)
    inner = np.arctan2(hi, h) - np.arctan2(lo, h)
    return 0.5 * radii**2 * (angle - inner) + 0.5 * h * (hi - lo)


def disk_union_area(pts, radii) -> np.ndarray:
    """area(union of disk(x_i, r) with [0, 1]^2) for each r in ``radii``.

    ``pts`` is an (n, 2) array of sites in the closed unit square;
    duplicate sites are allowed; ``radii`` is a vector of finite
    nonnegative radii.  Both follow the array rule.  Returns one area per
    radius.
    """
    sites = _check_array("pts", pts,
                         "be a nonempty (n, 2) array of sites in the closed unit square", ndim=2,
                         ok=lambda a: a.shape[1] == 2 and ((a >= 0.0) & (a <= 1.0)).all())
    radii = _check_array("radii", radii, "be a nonempty vector of finite nonnegative radii",
                         ok=lambda r: r.min() >= 0.0)
    sites = np.unique(sites, axis=0)
    vor = Voronoi(_mirrored(sites))
    ridges = np.asarray(vor.ridge_points)
    ends = vor.vertices[np.asarray(vor.ridge_vertices)]
    # Every ridge next to a site bounds that site's cell, once per side
    # when both of its points are sites.  A vertex index of -1 (at
    # infinity) occurs only between mirrors and guards, whose ridges
    # are dropped here.
    owner = np.concatenate([ridges[:, 0], ridges[:, 1]])
    ends = np.concatenate([ends, ends])[owner < len(sites)]
    owner = owner[owner < len(sites)]
    centre = sites[owner]
    a, b = _clip_to_own_sides(ends[:, 0], ends[:, 1], centre)
    return _apex_triangle_in_disk(a - centre, b - centre, radii).sum(axis=0)


def cap_mass(t, n: int) -> np.ndarray:
    """P(u_1 >= t) for u uniform on the unit sphere of R^n, for 0 <= t.

    The cap's normalized area is I_{1 - t^2}((n - 1)/2, 1/2) / 2, a
    regularized incomplete beta function; at n = 3 it is Archimedes'
    (1 - t) / 2.
    """
    t = np.asarray(t, dtype=float)
    x = np.clip(1.0 - t * t, 0.0, 1.0)
    return np.where(t >= 1.0, 0.0, 0.5 * betainc(0.5 * (n - 1), 0.5, x))


def cap_union_bracket(gram: np.ndarray, c: float, dim: int) -> tuple:
    """(lower, upper) on P(u . x_i >= c for some i), for u uniform on the
    unit sphere of R^dim and unit vectors x_i with Gram matrix ``gram``;
    needs c > 0 (number rule) and a square ``gram`` of finite entries
    (array rule).  upper = S1; lower = S1 minus pair bounds.
    """
    _check_number("c", c, "be positive", lambda v: v > 0)
    gram = _check_array("gram", gram, "be a square matrix of finite inner products", ndim=2,
                        ok=lambda g: g.shape[0] == g.shape[1])
    upper = gram.shape[0] * float(cap_mass(c, dim))
    rho = gram[np.triu_indices(gram.shape[0], k=1)]
    with np.errstate(divide="ignore"):
        # Opposite vectors (rho = -1) have disjoint caps: height inf.
        height = 2.0 * c / np.sqrt(np.maximum(2.0 + 2.0 * rho, 0.0))
    return upper - float(cap_mass(height, dim).sum()), upper
