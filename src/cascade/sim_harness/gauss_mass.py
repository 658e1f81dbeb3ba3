"""Exact Gaussian mass of a convex polygon or polyhedron.

This is the ground truth of the Gaussian hull scenarios.  Almost
everywhere, the indicator of a convex polytope equals the signed sum,
over its facets F, of the indicators of the pyramids conv(0, F), each
signed by the side of F's plane that the origin lies on.  So the mass
is a signed sum of pyramid masses, whether or not the polytope
contains the origin.

d = 2: the foot of the perpendicular from the origin splits an edge's
pyramid into right triangles with legs h (the edge's distance) and s
(a tangential offset).  Under N(0, I) such a triangle has mass
atan(s/h)/2pi - T(h, s/h), where T is Owen's T function (Owen 1956,
Ann. Math. Statist. 27:1075).

d = 3: the pyramid over a triangle at distance h has mass
Omega/4pi - int_h^inf phi(t) M2(t) dt, where Omega is the triangle's
solid angle and M2(t) the 2-D mass, by the d = 2 rule, of the cone's
slice at distance t: the triangle scaled by t/h about the foot of the
perpendicular.  Both terms are signed sums over the triangle's edges.
Seen from the foot, an edge at distance e subtends angles theta; its
point at angle theta is at distance R from the origin, with
R^2 = h^2 + e^2 sec^2(theta).  The edge's share of Omega/4pi is
(1/2pi) int (1 - h/R)/2 dtheta.  Writing T as
T(x, a) = (1/2pi) int_0^atan(a) exp(-x^2 sec^2(theta) / 2) dtheta and
integrating over t first turns its share of the second term into
(1/2pi) int [Phi(-h) - (h/R) Phi(-R)] dtheta.  Together:

    (1/2pi) int [(Phi(h) - 1/2) - (h/R) (Phi(R) - 1/2)] dtheta.

The substitution theta = gd(v), the point e sinh(v) along the edge,
gives dtheta = dv / cosh(v) and R^2 = h^2 + e^2 cosh^2(v).  The
integrand is smooth in v even for a tiny e, and Gauss-Legendre
quadrature in v converges fast.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import ndtr, owens_t

__all__ = ["normal_hull_mass"]

# Gauss-Legendre nodes per edge.  On Gaussian hulls in 3-D, with the
# origin inside or outside, 32 nodes agree within 4e-14 with a 600-node
# quadrature of the Owen's T form over t (24 nodes within 4e-13).
NODES = 32


@lru_cache(maxsize=4)
def _legendre(nodes: int):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only because
    every call shares them."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _signed(h):
    """sign(h) and |h|, with a harmless |h| of 1 where h = 0: a pyramid
    whose base plane passes through its apex is flat and gets sign 0."""
    sign = np.sign(h)
    return sign, np.where(sign == 0.0, 1.0, np.abs(h))


def _mass_2d(ends, normals):
    unit = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    h = np.einsum("fd,fd->f", unit, ends[:, 0])
    tangent = np.stack((-unit[:, 1], unit[:, 0]), axis=1)
    s = np.sort(np.einsum("fkd,fd->fk", ends, tangent), axis=1)
    sign, dist = _signed(h)
    lo, hi = s[:, 0] / dist, s[:, 1] / dist
    angle = (np.arctan(hi) - np.arctan(lo)) / (2.0 * math.pi)
    return float(np.sum(sign * (angle - owens_t(dist, hi) + owens_t(dist, lo))))


def _mass_3d(tri, normals):
    unit = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    h = np.einsum("fd,fd->f", unit, tri[:, 0])
    sign, dist = _signed(h)

    # Each triangle's edges in its own plane, relative to the foot h*unit.
    rel = tri - (h[:, None] * unit)[:, None, :]
    start, end, opposite = rel, np.roll(rel, -1, axis=1), np.roll(rel, -2, axis=1)
    along = end - start
    along /= np.linalg.norm(along, axis=2, keepdims=True)
    out = np.cross(along, unit[:, None, :])  # in-plane edge normal, either way
    out *= np.sign(np.einsum("fkd,fkd->fk", out, start - opposite))[..., None]
    e_sign, e_dist = _signed(np.einsum("fkd,fkd->fk", out, start))
    lo = np.arcsinh(np.einsum("fkd,fkd->fk", along, start) / e_dist)
    hi = np.arcsinh(np.einsum("fkd,fkd->fk", along, end) / e_dist)

    x, w = _legendre(NODES)
    half = 0.5 * (hi - lo)
    cosh = np.cosh((0.5 * (hi + lo))[..., None] + half[..., None] * x)
    h3 = dist[:, None, None]
    r = np.sqrt(h3**2 + (e_dist[..., None] * cosh) ** 2)
    edge = ((ndtr(h3) - 0.5 - h3 / r * (ndtr(r) - 0.5)) / cosh) @ w * half
    return float(np.sum(sign * np.sum(e_sign * edge, axis=1)) / (2.0 * math.pi))


def normal_hull_mass(summary, chol=None) -> float:
    """The N(0, chol chol^T) mass of a 2-D or 3-D hull.

    ``summary`` is a ``HullSummary``; ``chol`` is a lower-triangular
    Cholesky factor, None for N(0, I).  The hull is whitened by chol^-1,
    which maps the law to N(0, I); facet normals map by chol^T.  A flat
    hull (no facets, volume 0) has mass 0.
    """
    if summary.facet_vertices is None:
        if summary.volume == 0.0:
            return 0.0
        raise ValueError("Gaussian hull mass needs d = 2 or 3")
    verts, normals = summary.facet_vertices, summary.facets[:, :-1]
    if chol is not None:
        verts = verts @ np.linalg.inv(chol).T
        normals = normals @ chol
    if verts.shape[-1] == 2:
        return _mass_2d(verts, normals)
    if verts.shape[-1] == 3:
        return _mass_3d(verts, normals)
    raise ValueError("Gaussian hull mass needs d = 2 or 3")
