"""Samplers for the simulation scenarios.

``sample_distribution(spec, n, rng)`` draws n i.i.d. observations from
the distribution described by ``spec`` (a dict with a "kind" key).
Supported kinds:

* ``uniform_box``: uniform on a product of intervals (``bounds``).
* ``uniform_ball``: uniform in the unit ball in d dimensions (``d``);
  d=2 is the disk.
* ``gauss``: centered Gaussian in d dimensions, optionally with
  constant pairwise correlation (``d``, ``corr``).
* ``zipf``: labels 1..N with p_i proportional to 1/i^s (``N``, ``s``).
* ``uniform_labels``: labels 1..N, equal probability (``N``).
* ``sphere_mixture``: the origin with probability 1/n, otherwise
  uniform on the unit sphere (``dim``).
"""

from __future__ import annotations

import numpy as np

from ..loo_core import _check_int, _check_number

__all__ = ["sample_distribution", "zipf_probabilities", "equicorrelation_cholesky"]


def zipf_probabilities(N: int, s: float) -> np.ndarray:
    """p_i proportional to 1/i^s for i = 1..N, normalized exactly.  N
    follows the integer rule (>= 1) and s the number rule (finite)."""
    _check_int("N", N, 1)
    _check_number("s", s, "be finite", lambda v: -np.inf < v < np.inf)
    weights = 1.0 / np.arange(1, N + 1, dtype=float) ** s
    return weights / weights.sum()


def equicorrelation_cholesky(d: int, corr: float) -> np.ndarray:
    """Cholesky factor of the d x d constant-correlation matrix; d >= 1 and
    corr in (-1/(d - 1), 1) by the integer and number rules."""
    _check_int("d", d, 1)
    _check_number("corr", corr, "lie in the positive-definite range (-1/(d - 1), 1)",
                  lambda c: d == 1 or -1.0 / (d - 1) < c < 1.0)
    sigma = np.full((d, d), corr)
    np.fill_diagonal(sigma, 1.0)
    return np.linalg.cholesky(sigma)


def _unit_sphere(n: int, dim: int, rng) -> np.ndarray:
    z = rng.standard_normal((n, dim))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    return z / norms


def sample_distribution(spec: dict, n: int, rng: np.random.Generator):
    """Draw n i.i.d. observations per ``spec``; see module docs.  n and a
    label count N follow the integer rule: each must be >= 1."""
    _check_int("n", n, 1, rule="be positive, an integer >= 1")
    kind = spec.get("kind")
    if kind == "uniform_box":
        bounds = spec["bounds"]
        lo = np.array([b[0] for b in bounds], dtype=float)
        hi = np.array([b[1] for b in bounds], dtype=float)
        if np.any(hi <= lo):
            raise ValueError("box bounds must have positive extents")
        return lo + (hi - lo) * rng.random((n, lo.size))
    if kind == "uniform_ball":
        d = int(spec["d"])
        directions = _unit_sphere(n, d, rng)
        radii = rng.random(n) ** (1.0 / d)
        return directions * radii[:, None]
    if kind == "gauss":
        d = int(spec["d"])
        corr = float(spec.get("corr", 0.0))
        z = rng.standard_normal((n, d))
        if corr != 0.0:
            z = z @ equicorrelation_cholesky(d, corr).T
        return z
    if kind == "zipf":
        p = zipf_probabilities(spec["N"], float(spec.get("s", 1.0)))
        return rng.choice(p.size, size=n, p=p) + 1
    if kind == "uniform_labels":
        N = spec["N"]
        _check_int("N", N, 1)
        return rng.integers(1, N + 1, size=n)
    if kind == "sphere_mixture":
        dim = int(spec["dim"])
        pts = _unit_sphere(n, dim, rng)
        at_origin = rng.random(n) < 1.0 / n
        pts[at_origin] = 0.0
        return pts
    raise ValueError(f"unknown sampler kind {kind!r}")
