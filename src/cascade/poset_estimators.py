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
region built from the others exactly when a witness (one for up-sets,
a pair for convex sets) exists among the remaining points.

The built-in posets cover the classical specializations: equality only
(label collision counting, the birthday regime), reversed naturals
(sample-maximum estimation, the serial-number regime), the reversed
componentwise product order (staircase shapes), and ancestry in the
infinite rooted tree (subtrees and subforests).  Each counts and
closes a sample with numpy or hash tables; any other order, given by
its ``leq`` alone, is counted by the O(n^2) pair scan.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

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
    arr = np.asarray(values)
    if arr.ndim != ndim or not np.issubdtype(arr.dtype, np.integer) or arr.min() < 1:
        raise ValueError("elements must be positive integers")
    return arr


class Antichain:
    """No two distinct elements comparable: x is below y iff x == y."""

    @staticmethod
    def leq(x, y) -> bool:
        return x == y

    @staticmethod
    def upset_dominated_count(sample) -> int:
        # A point is dominated exactly when its label repeats; a repeat
        # also supplies both witnesses of the convex count.
        return sum(c for c in Counter(sample).values() if c > 1)

    @staticmethod
    def upset_closure_size(sample) -> int:
        # Sandwiching forces equality, so the convex hull is the
        # sample's distinct values too.
        return len(set(sample))

    convex_sandwiched_count = upset_dominated_count
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
    def upset_dominated_count(sample) -> int:
        # Only a unique maximum has nothing above it.
        x = _positive_integers(sample, 1)
        return x.size - int((x == x.max()).sum() == 1)

    @staticmethod
    def upset_closure_size(sample) -> int:
        return int(_positive_integers(sample, 1).max())

    @staticmethod
    def convex_sandwiched_count(sample) -> int:
        # A unique maximum or minimum lacks one witness.
        x = _positive_integers(sample, 1)
        hi, lo = x == x.max(), x == x.min()
        below = ~hi | (hi.sum() > 1)
        above = ~lo | (lo.sum() > 1)
        return int((below & above).sum())

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

    def upset_dominated_count(self, sample) -> int:
        return int(self._below(self._points(sample)).any(axis=1).sum())

    def convex_sandwiched_count(self, sample) -> int:
        below = self._below(self._points(sample))
        return int((below.any(axis=1) & below.any(axis=0)).sum())

    def upset_closure_size(self, sample) -> int:
        pts = self._points(sample)
        if self.d == 2:
            # Union of boxes [1..a] x [1..b]: sum over columns b of the
            # tallest box reaching b.
            heights = np.zeros(int(pts[:, 1].max()) + 1, dtype=np.int64)
            np.maximum.at(heights, pts[:, 1], pts[:, 0])
            return int(np.maximum.accumulate(heights[::-1])[::-1][1:].sum())
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
        # The order-convex hull: prefixes of sampled nodes that have a
        # sampled prefix themselves, settled shallowest first.
        hull = set()
        for z in sorted(ancestors | points, key=len):
            if z in points or (z and z[:-1] in hull):
                hull.add(z)
        return hull

    @staticmethod
    def upset_dominated_count(sample) -> int:
        # Dominated: a duplicate, or an ancestor of another sampled node.
        counts = Counter(map(tuple, sample))
        ancestors = TreeAncestor._ancestors(counts)
        return sum(c for x, c in counts.items() if c > 1 or x in ancestors)

    @staticmethod
    def convex_sandwiched_count(sample) -> int:
        # Sandwiched: a duplicate, or an ancestor of one sampled node and
        # a descendant of another (its parent is then in the hull).
        counts = Counter(map(tuple, sample))
        ancestors = TreeAncestor._ancestors(counts)
        hull = TreeAncestor._hull(counts.keys(), ancestors)
        return sum(
            c
            for x, c in counts.items()
            if c > 1 or (x in ancestors and x and x[:-1] in hull)
        )

    @staticmethod
    def upset_closure_size(sample) -> int:
        points = set(map(tuple, sample))
        return len(points | TreeAncestor._ancestors(points))

    @staticmethod
    def convex_closure_size(sample) -> int:
        points = set(map(tuple, sample))
        return len(TreeAncestor._hull(points, TreeAncestor._ancestors(points)))


def _as_sample(sample):
    # Arrays pass straight to the numpy counts; other iterables are listed.
    return sample if isinstance(sample, np.ndarray) else list(sample)


def _leq_fn(oracle):
    leq = getattr(oracle, "leq", oracle)
    if not callable(leq):
        raise TypeError("order oracle must be callable or expose a leq method")
    return leq


def upset_dominated_count(sample, oracle) -> int:
    """#{i : some other sample point is below sample[i]}.

    The built-in orders count in numpy or with hash tables; any other
    oracle, or a bare ``leq`` callable, takes the O(n^2) pair scan.
    """
    sample = _as_sample(sample)
    fn = getattr(oracle, "upset_dominated_count", None)
    if fn is not None and len(sample):
        return int(fn(sample))
    leq = _leq_fn(oracle)
    count = 0
    for i, x in enumerate(sample):
        for j, y in enumerate(sample):
            if j != i and leq(y, x):
                count += 1
                break
    return count


def upset_closure_size(sample, oracle) -> int:
    """Size of the union of everything above some sample point."""
    sample = _as_sample(sample)
    if len(sample) == 0:
        raise ValueError("empty sample")
    fn = getattr(oracle, "upset_closure_size", None)
    if fn is None:
        raise TypeError("oracle does not support up-closure enumeration")
    return int(fn(sample))


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
    if n < 3:
        raise ValueError("bound requires n >= 3")
    return (8.0 / math.e + 0.5) / n


def convex_sandwiched_count(sample, oracle) -> int:
    """#{i : sample[i] has both a dominated and a dominating companion}.

    The two witnesses are quantified independently over the other
    indices, so a single duplicate supplies both at once (equality
    chains count).  Dispatched like ``upset_dominated_count``.
    """
    sample = _as_sample(sample)
    fn = getattr(oracle, "convex_sandwiched_count", None)
    if fn is not None and len(sample):
        return int(fn(sample))
    leq = _leq_fn(oracle)
    n = len(sample)
    count = 0
    for i, x in enumerate(sample):
        below = any(leq(sample[j], x) for j in range(n) if j != i)
        if not below:
            continue
        above = any(leq(x, sample[k]) for k in range(n) if k != i)
        if above:
            count += 1
    return count


def convex_closure_size(sample, oracle) -> int:
    """Size of the order-convex hull of the sample."""
    sample = _as_sample(sample)
    if len(sample) == 0:
        raise ValueError("empty sample")
    fn = getattr(oracle, "convex_closure_size", None)
    if fn is None:
        raise TypeError("oracle does not support convex-closure enumeration")
    return int(fn(sample))


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
    if n < 3:
        raise ValueError("bound requires n >= 3")
    return (16.0 / math.e + 0.5) / n
