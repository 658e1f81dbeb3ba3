"""Size estimation for unknown finite sets in a partial order.

Two related estimators over an abstract order oracle:

* Up-sets.  If the sampled set T is an up-set (whenever it contains x
  it contains everything above x), then the count N_n of sample points
  dominated by another sample point, scaled as N_n/n, estimates the
  mass of the up-closure of the sample; and n * |closure| / N_n
  estimates |T|.

* Convex sets.  If T is order-convex (contains everything sandwiched
  between two of its elements), the analogous count uses points with
  both a dominating and a dominated companion in the sample, and the
  closure is the order-convex hull.

Both counts are leave-one-out estimators: point i is a member of the
region built from the others exactly when a witness (one below it for
up-sets, one below and one above for convex sets) exists among the
remaining points.

The built-in posets cover the classical specializations: equality only
(label collision counting, the birthday regime), reversed naturals
(sample-maximum estimation, the serial-number regime), the reversed
componentwise product order (staircase shapes), and ancestry in the
infinite rooted tree (subtrees and subforests).  Each finds a sample's
witnesses and closes it with numpy or hash tables.  Any order may
supply ``witnesses(sample) -> (below, above)``, two boolean arrays
saying whether some other sample point lies below, and above, each
point; an order without it, or a bare ``leq`` callable, has its
witnesses found by the O(n^2) pair scan.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .loo_core import _check_bound_n

__all__ = [
    "Antichain",
    "ReversedNaturals",
    "ProductOrder",
    "TreeAncestor",
    "upset_dominated_count",
    "upset_closure_size",
    "estimate_upset_size",
    "upset_mse_bound",
    "convex_sandwiched_count",
    "convex_closure_size",
    "estimate_convex_size",
    "poset_convex_mse_bound",
]

_GRID_CELL_CAP = 2_000_000


def _positive_integers(values, ndim: int) -> np.ndarray:
    # Python ints of 2**63 or more make a float or object array; a uint64
    # array may hold them, but its arithmetic with int64 turns to float.
    arr = np.asarray(values)
    ok = arr.ndim == ndim and arr.dtype.kind in "iu"  # signed or unsigned integers
    if not ok or arr.min() < 1 or (arr.dtype == np.uint64 and arr.max() >= 2**63):
        raise ValueError("elements must be positive integers below 2**63")
    return arr


class Antichain:
    """No two distinct elements comparable: x is below y iff x == y."""

    @staticmethod
    def leq(x, y) -> bool:
        return x == y

    @staticmethod
    def witnesses(sample):
        # A repeated label is its own witness on both sides.  Python
        # ints hash faster than numpy scalars.
        labels = sample.tolist() if isinstance(sample, np.ndarray) else sample
        counts = Counter(labels)
        repeats = np.array([counts[x] > 1 for x in labels], dtype=bool)
        return repeats, repeats

    @staticmethod
    def upset_closure_size(sample) -> int:
        # Sandwiching forces equality, so the convex hull is the
        # sample's distinct values too.
        return len(set(sample))

    convex_closure_size = upset_closure_size


class ReversedNaturals:
    """Positive integers ordered backwards: x is below y iff y <= x.

    Up-sets are initial segments {1..k}; the up-closure of a sample is
    {1..max}, so no ground-set enumeration is ever needed.
    """

    @staticmethod
    def leq(x, y) -> bool:
        return y <= x

    @staticmethod
    def witnesses(sample):
        # Only a unique maximum has nothing below it, and only a unique
        # minimum nothing above it.
        x = _positive_integers(sample, 1)
        hi, lo = x == x.max(), x == x.min()
        return ~hi | (np.count_nonzero(hi) > 1), ~lo | (np.count_nonzero(lo) > 1)

    @staticmethod
    def upset_closure_size(sample) -> int:
        return int(_positive_integers(sample, 1).max())

    @staticmethod
    def convex_closure_size(sample) -> int:
        x = _positive_integers(sample, 1)
        return int(x.max()) - int(x.min()) + 1


class ProductOrder:
    """Tuples of positive integers, reversed componentwise.

    x is below y iff y_i <= x_i for every coordinate.  Up-sets are the
    staircase shapes (unions of boxes anchored at (1, ..., 1)).
    """

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("d must be a positive integer")
        self.d = int(d)

    def _check(self, x):
        if len(x) != self.d:
            raise ValueError(f"element {x!r} does not have {self.d} coordinates")
        return tuple(int(v) for v in x)

    def leq(self, x, y) -> bool:
        x, y = self._check(x), self._check(y)
        return all(yv <= xv for xv, yv in zip(x, y))

    def _points(self, sample) -> np.ndarray:
        try:
            pts = np.asarray(sample)
        except ValueError:  # ragged
            pts = None
        if pts is None or pts.ndim != 2 or pts.shape[1] != self.d:
            raise ValueError(f"every element must have {self.d} coordinates")
        return _positive_integers(pts, 2)

    def _below(self, pts) -> np.ndarray:
        # [i, j]: j != i and pts[j] >= pts[i] everywhere, i.e. pts[j]
        # is below pts[i].
        below = np.ones((pts.shape[0],) * 2, dtype=bool)
        for c in range(self.d):
            below &= pts[None, :, c] >= pts[:, None, c]
        np.fill_diagonal(below, False)
        return below

    def witnesses(self, sample):
        below = self._below(self._points(sample))
        return below.any(axis=1), below.any(axis=0)

    def upset_closure_size(self, sample) -> int:
        pts = self._points(sample)
        if self.d == 2:
            # Union of boxes [1..a] x [1..b], swept from the widest b
            # down: the columns between a box's b and the next smaller b
            # are as tall as the tallest box reaching them.  Python ints
            # keep the sum exact for any coordinates.
            order = np.argsort(pts[:, 1], kind="stable")[::-1]
            widths = pts[order, 1] - np.append(pts[order[1:], 1], 0)
            heights = np.maximum.accumulate(pts[order, 0])
            return sum(w * h for w, h in zip(widths.tolist(), heights.tolist()))
        return self._grid_count(pts, lower=False)

    def convex_closure_size(self, sample) -> int:
        return self._grid_count(self._points(sample), lower=True)

    def _grid_count(self, pts, lower: bool) -> int:
        shape = tuple(int(m) for m in pts.max(axis=0))
        if math.prod(shape) > _GRID_CELL_CAP:
            raise ValueError("closure enumeration grid too large")
        cover_up = np.zeros(shape, dtype=bool)  # z <= some sample point
        for p in pts:
            cover_up[tuple(slice(0, v) for v in p)] = True
        if not lower:
            return int(cover_up.sum())
        cover_down = np.zeros(shape, dtype=bool)  # z >= some sample point
        for p in pts:
            cover_down[tuple(slice(v - 1, None) for v in p)] = True
        return int((cover_up & cover_down).sum())


class TreeAncestor:
    """Nodes of the infinite rooted tree, ordered by ancestry.

    Elements are paths from the root, encoded as tuples of child
    indices (the empty tuple is the root).  x is below y iff y is x
    itself or an ancestor of x, so the set of elements above x is the
    finite chain of x's prefixes.
    """

    @staticmethod
    def leq(x, y) -> bool:
        x, y = tuple(x), tuple(y)
        return len(y) <= len(x) and x[: len(y)] == y

    @staticmethod
    def _ancestors(points) -> set:
        # Proper ancestors of the given nodes; each walk up stops at the
        # first ancestor already found.
        found = set()
        for x in points:
            for k in range(len(x) - 1, -1, -1):
                if x[:k] in found:
                    break
                found.add(x[:k])
        return found

    @staticmethod
    def _hull(points, ancestors) -> set:
        # The order-convex hull: the sampled nodes, and the ancestors that
        # have a sampled prefix themselves, settled shallowest first.
        hull = set(points)
        for z in sorted(ancestors, key=len):
            if z and z[:-1] in hull:
                hull.add(z)
        return hull

    @staticmethod
    def witnesses(sample):
        # Below: a duplicate, or an ancestor of another sampled node.
        # Above: a duplicate, or a descendant of another sampled node,
        # that is a non-root node whose parent is in the hull.
        points = list(map(tuple, sample))
        counts = Counter(points)
        ancestors = TreeAncestor._ancestors(counts)
        hull = TreeAncestor._hull(counts.keys(), ancestors)
        below = [counts[x] > 1 or x in ancestors for x in points]
        above = [counts[x] > 1 or (x != () and x[:-1] in hull) for x in points]
        return np.array(below, dtype=bool), np.array(above, dtype=bool)

    @staticmethod
    def upset_closure_size(sample) -> int:
        points = set(map(tuple, sample))
        return len(points | TreeAncestor._ancestors(points))

    @staticmethod
    def convex_closure_size(sample) -> int:
        points = set(map(tuple, sample))
        return len(TreeAncestor._hull(points, TreeAncestor._ancestors(points)))


def _as_sample(sample):
    # Arrays pass straight to the numpy witnesses; other iterables are listed.
    return sample if isinstance(sample, np.ndarray) else list(sample)


def _witnesses(sample, oracle):
    """(below, above): whether some other sample point lies below, and
    above, each point.  The oracle's own ``witnesses`` answers when it
    has one; otherwise every pair is compared once each way by ``leq``.
    """
    sample = _as_sample(sample)
    fn = getattr(oracle, "witnesses", None)
    if fn is not None and len(sample):
        return fn(sample)
    leq = getattr(oracle, "leq", oracle)
    if not callable(leq):
        raise TypeError("order oracle must be callable or expose a leq method")
    n = len(sample)
    below, above = [False] * n, [False] * n
    for i in range(n):
        for j in range(i + 1, n):
            if not (below[i] and above[j]) and leq(sample[j], sample[i]):
                below[i] = above[j] = True
            if not (below[j] and above[i]) and leq(sample[i], sample[j]):
                below[j] = above[i] = True
    return np.array(below, dtype=bool), np.array(above, dtype=bool)


def _closure_size(sample, oracle, method: str, region: str) -> int:
    sample = _as_sample(sample)
    if len(sample) == 0:
        raise ValueError("empty sample")
    fn = getattr(oracle, method, None)
    if fn is None:
        raise TypeError(f"oracle does not support {region} enumeration")
    return int(fn(sample))


def upset_dominated_count(sample, oracle) -> int:
    """N_n = #{i : some other sample point is below sample[i]}."""
    below, _ = _witnesses(sample, oracle)
    return int(np.count_nonzero(below))


def upset_closure_size(sample, oracle) -> int:
    """Size of the union of everything above some sample point."""
    return _closure_size(sample, oracle, "upset_closure_size", "up-closure")


def estimate_upset_size(sample, oracle) -> float:
    """n * |up-closure of sample| / N_n.

    For the equality-only order this reduces exactly to
    n * distinct / (number of collided points); for reversed naturals,
    to max scaled by n/(n-1) when the maximum is unique, and to max
    otherwise.
    """
    sample = _as_sample(sample)
    n = len(sample)
    dominated = upset_dominated_count(sample, oracle)
    if dominated == 0:
        raise ValueError("no dominated points; estimate undefined")
    return n * upset_closure_size(sample, oracle) / dominated


def upset_mse_bound(n: int) -> float:
    """(8/e + 1/2)/n: MSE bound for N_n/n against the up-closure mass."""
    _check_bound_n(n)
    return (8.0 / math.e + 0.5) / n


def convex_sandwiched_count(sample, oracle) -> int:
    """#{i : sample[i] has both a dominated and a dominating companion}.

    The two witnesses are quantified independently over the other
    indices, so a single duplicate supplies both at once (equality
    chains count).
    """
    below, above = _witnesses(sample, oracle)
    return int(np.count_nonzero(below & above))


def convex_closure_size(sample, oracle) -> int:
    """Size of the order-convex hull of the sample."""
    return _closure_size(sample, oracle, "convex_closure_size", "convex-closure")


def estimate_convex_size(sample, oracle) -> float:
    """n * |order-convex hull of sample| / (sandwiched count)."""
    sample = _as_sample(sample)
    n = len(sample)
    sandwiched = convex_sandwiched_count(sample, oracle)
    if sandwiched == 0:
        raise ValueError("no sandwiched points; estimate undefined")
    return n * convex_closure_size(sample, oracle) / sandwiched


def poset_convex_mse_bound(n: int) -> float:
    """(16/e + 1/2)/n: MSE bound for the sandwiched fraction."""
    _check_bound_n(n)
    return (16.0 / math.e + 0.5) / n
