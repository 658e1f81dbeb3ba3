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
infinite rooted tree (subtrees and subforests).  An order answers two
questions, one method each, and the built-in orders answer both with
numpy or hash tables.  ``witnesses(sample) -> (below, above)`` gives two
boolean arrays saying whether some other sample point lies below, and
above, each point; an order without it, or a bare ``leq`` callable, has
its witnesses found by the O(n^2) pair scan.  ``closure_size(sample,
convex)`` gives the size of the order-convex hull, or of the up-closure,
and the closure functions require it.  ``count_and_closure`` gives a
sample's count and closure size together, from one pass where the order
supplies ``count_and_closure(sample, convex)``, and
``loo_core.size_estimate(closure, count, n)`` turns them into the estimate.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .loo_core import _check_array, _check_bound_n, _check_int, _elements

__all__ = [
    "Antichain",
    "ReversedNaturals",
    "ProductOrder",
    "TreeAncestor",
    "upset_dominated_count",
    "upset_closure_size",
    "upset_mse_bound",
    "convex_sandwiched_count",
    "convex_closure_size",
    "count_and_closure",
    "poset_convex_mse_bound",
]

_GRID_CELL_CAP = 2_000_000
_SAMPLE_RULE = "be an array or an iterable of elements, not an empty sample"
_INTEGERS_RULE = "be positive integers below 2**63"
_PATHS_RULE = "be paths: sequences of hashable child indices"


def _positive_below_2_63(arr) -> bool:
    # Python ints of 2**63 or more make a float or object array, which
    # the integer kind rejects; a uint64 array may hold them, but its
    # arithmetic with int64 turns to float.
    return arr.min() >= 1 and (arr.dtype != np.uint64 or arr.max() < 2**63)


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
        counts = _elements(labels, "be hashable labels", Counter)
        repeats = np.array([counts[x] > 1 for x in labels], dtype=bool)
        return repeats, repeats

    @staticmethod
    def closure_size(sample, convex: bool) -> int:
        # Sandwiching forces equality, so the convex hull is the
        # sample's distinct values too.
        return len(_elements(sample, "be hashable labels", set))


class ReversedNaturals:
    """Positive integers ordered backwards: x is below y iff y <= x.

    Up-sets are initial segments {1..k}; the up-closure of a sample is
    {1..max}, so no ground-set enumeration is ever needed.
    """

    @staticmethod
    def leq(x, y) -> bool:
        return y <= x

    @staticmethod
    def _points(sample) -> np.ndarray:
        return _check_array("sample", sample, _INTEGERS_RULE, kind="i", ok=_positive_below_2_63)

    @staticmethod
    def witnesses(sample):
        # Only a unique maximum has nothing below it, and only a unique
        # minimum nothing above it.
        x = ReversedNaturals._points(sample)
        hi, lo = x == x.max(), x == x.min()
        return ~hi | (np.count_nonzero(hi) > 1), ~lo | (np.count_nonzero(lo) > 1)

    @staticmethod
    def closure_size(sample, convex: bool) -> int:
        # {1..max} for up-sets, {min..max} for convex sets.
        x = ReversedNaturals._points(sample)
        return int(x.max()) - (int(x.min()) if convex else 1) + 1


class ProductOrder:
    """Tuples of positive integers, reversed componentwise.

    x is below y iff y_i <= x_i for every coordinate.  Up-sets are the
    staircase shapes (unions of boxes anchored at (1, ..., 1)).  ``d``
    follows the integer rule: it must be >= 1.
    """

    def __init__(self, d: int):
        _check_int("d", d, 1)
        self.d = int(d)

    def _check(self, x):
        if len(x) != self.d:
            raise ValueError(f"element {x!r} does not have {self.d} coordinates")
        return tuple(int(v) for v in x)

    def leq(self, x, y) -> bool:
        x, y = self._check(x), self._check(y)
        return all(yv <= xv for xv, yv in zip(x, y))

    def _points(self, sample) -> np.ndarray:
        return _check_array("sample", sample, f"{_INTEGERS_RULE}, {self.d} coordinates per element",
                            ndim=2, kind="i",
                            ok=lambda a: a.shape[1] == self.d and _positive_below_2_63(a))

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

    def closure_size(self, sample, convex: bool) -> int:
        pts = self._points(sample)
        if self.d == 2 and not convex:
            # Union of boxes [1..a] x [1..b], swept from the widest b
            # down: the columns between a box's b and the next smaller b
            # are as tall as the tallest box reaching them.  Python ints
            # keep the sum exact for any coordinates.
            order = np.argsort(pts[:, 1], kind="stable")[::-1]
            widths = pts[order, 1] - np.append(pts[order[1:], 1], 0)
            heights = np.maximum.accumulate(pts[order, 0])
            return sum(w * h for w, h in zip(widths.tolist(), heights.tolist()))
        shape = tuple(int(m) for m in pts.max(axis=0))
        if math.prod(shape) > _GRID_CELL_CAP:
            raise ValueError("closure enumeration grid too large")
        inside = np.zeros(shape, dtype=bool)  # z <= some sample point
        for p in pts:
            inside[tuple(slice(0, v) for v in p)] = True
        if convex:
            cover_down = np.zeros(shape, dtype=bool)  # z >= some sample point
            for p in pts:
                cover_down[tuple(slice(v - 1, None) for v in p)] = True
            inside &= cover_down
        return int(inside.sum())


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
    def _scan(sample, convex: bool):
        # (below, above, closure size) from one ancestor walk.  Below: a
        # duplicate, or an ancestor of another sampled node.  For convex
        # sets, above: a duplicate, or a descendant of another sampled
        # node, that is a non-root node whose parent is in the hull.
        # Up-sets need neither ``above`` nor the hull.
        points = _elements(sample, _PATHS_RULE, lambda s: list(map(tuple, s)))
        counts = _elements(points, _PATHS_RULE, Counter)
        ancestors = TreeAncestor._ancestors(counts)
        below = np.array([counts[x] > 1 or x in ancestors for x in points], dtype=bool)
        if not convex:
            return below, None, len(ancestors.union(counts))
        hull = TreeAncestor._hull(counts.keys(), ancestors)
        above = [counts[x] > 1 or (x != () and x[:-1] in hull) for x in points]
        return below, np.array(above, dtype=bool), len(hull)

    @staticmethod
    def witnesses(sample):
        return TreeAncestor._scan(sample, convex=True)[:2]

    @staticmethod
    def closure_size(sample, convex: bool) -> int:
        return TreeAncestor._scan(sample, convex)[2]

    @staticmethod
    def count_and_closure(sample, convex: bool) -> tuple:
        below, above, closure = TreeAncestor._scan(sample, convex)
        return int(np.count_nonzero(below & above if convex else below)), closure


def _witnesses(sample, oracle):
    """(below, above): whether some other sample point lies below, and
    above, each point of a checked sample.  The oracle's own
    ``witnesses`` answers when it has one; otherwise every pair is
    compared once each way by ``leq``.
    """
    fn = getattr(oracle, "witnesses", None)
    if fn is not None:
        return fn(sample)
    leq = getattr(oracle, "leq", oracle)
    if not callable(leq):
        raise ValueError(f"oracle must be callable or expose a leq method, got {oracle!r}")
    n = len(sample)
    below, above = [False] * n, [False] * n
    for i in range(n):
        for j in range(i + 1, n):
            if not (below[i] and above[j]) and leq(sample[j], sample[i]):
                below[i] = above[j] = True
            if not (below[j] and above[i]) and leq(sample[i], sample[j]):
                below[j] = above[i] = True
    return np.array(below, dtype=bool), np.array(above, dtype=bool)


def _closure_size(sample, oracle, convex: bool) -> int:
    fn = getattr(oracle, "closure_size", None)
    if fn is None:
        raise ValueError("oracle must have a closure_size(sample, convex) method for closure "
                         f"enumeration, got {oracle!r}")
    return int(fn(sample, convex))


def upset_dominated_count(sample, oracle) -> int:
    """N_n = #{i : some other sample point is below sample[i]}."""
    below, _ = _witnesses(_check_array("sample", sample, _SAMPLE_RULE, kind=None), oracle)
    return int(np.count_nonzero(below))


def upset_closure_size(sample, oracle) -> int:
    """Size of the union of everything above some sample point."""
    return _closure_size(_check_array("sample", sample, _SAMPLE_RULE, kind=None), oracle, False)


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
    below, above = _witnesses(_check_array("sample", sample, _SAMPLE_RULE, kind=None), oracle)
    return int(np.count_nonzero(below & above))


def convex_closure_size(sample, oracle) -> int:
    """Size of the order-convex hull of the sample."""
    return _closure_size(_check_array("sample", sample, _SAMPLE_RULE, kind=None), oracle, True)


def count_and_closure(sample, oracle, convex: bool) -> tuple:
    """(count, closure size) of one sample.

    With ``convex`` these are ``convex_sandwiched_count`` and
    ``convex_closure_size``, else ``upset_dominated_count`` and
    ``upset_closure_size``.  An order with a ``count_and_closure(sample,
    convex)`` method answers both from one pass (``TreeAncestor`` walks
    the sample's ancestors once); any other order gets the two calls.
    The sample is checked once, by the array rule for elements of any
    type; a list from it becomes one array through the order's own
    ``_points`` (``ReversedNaturals``, ``ProductOrder``) for both calls to
    share, and an array is passed on as it is.
    """
    sample = _check_array("sample", sample, _SAMPLE_RULE, kind=None)
    if not isinstance(sample, np.ndarray) and hasattr(oracle, "_points"):
        sample = oracle._points(sample)
    fn = getattr(oracle, "count_and_closure", None)
    if fn is not None:
        return fn(sample, convex)
    below, above = _witnesses(sample, oracle)
    count = int(np.count_nonzero(below & above if convex else below))
    return count, _closure_size(sample, oracle, convex)


def poset_convex_mse_bound(n: int) -> float:
    """(16/e + 1/2)/n: MSE bound for the sandwiched fraction."""
    _check_bound_n(n)
    return (16.0 / math.e + 0.5) / n
