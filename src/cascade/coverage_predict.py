"""Prediction-interval coverage estimated by leave-one-out refitting.

Model: ordinary least squares through the origin (no intercept).  The
level 1-alpha prediction interval at a new design point x is

    x'beta_hat  +-  z_{1-alpha/2} * sigma_hat * sqrt(1 + h),

where h = x'(X'X)^-1 x = |x R^-1|^2 for the QR factor X = QR.

Every fit reads only the R factor of the augmented design [X | y], an
upper-triangular (p+1) x (p+1) matrix whose leading p x p block is X's
own R: beta_hat solves R[:p, :p] beta = R[:p, p], and |R[p, p]| is the
norm of the residual vector, so sigma_hat = |R[p, p]| / sqrt(n - p).

The actual coverage probability of that interval is a random quantity
(it depends on the fitted model), and the leave-one-out estimate of it
is the fraction of sample points whose response falls in the interval
trained on the remaining n - 1 rows.  Under a misspecified model the
coverage settles below the nominal level, and the leave-one-out
estimate tracks it there too.

Every coverage function reads one ``OlsFit``; leave-one-out fits come
from literal refitting of its rows (one R-only QR per left-out row, then
the same fit and interval code as the full fit, over all n at once) or a
rank-one leverage downdate of the fit itself, two routes cross-checked
in the test suite.  Both read sigma_hat from R's corner, and the
downdate squares only residuals in units of it, so neither route's
coverage depends on the scale of y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .loo_core import LooEstimate, _check_alpha, _check_array, _check_record

__all__ = [
    "OlsFit",
    "PredictionInterval",
    "ols_fit",
    "predict_interval",
    "loo_coverage",
    "holdout_coverage",
]

_RANK_TOL = 1e-10


@dataclass(frozen=True)
class OlsFit:
    """Least-squares fit through the origin of its rows ``X``, ``y``.

    ``X`` and ``y`` are copies of the checked rows, kept out of the repr.
    ``beta``, ``sigma_hat`` (n - p divisor) and ``r_inverse`` all come
    from the R factor of [X | y]; ``r_inverse`` is R^-1 for its leading
    block, the design's own R.  Scaling X by c scales R^-1 by 1/c and leaves
    x R^-1, hence every interval, unchanged; (X'X)^-1 = R^-1 R^-T is never
    formed, since it overflows or underflows when X is far from scale 1.
    """

    beta: np.ndarray
    sigma_hat: float
    r_inverse: np.ndarray
    n: int
    p: int
    X: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class PredictionInterval:
    center: float
    halfwidth: float
    alpha: float

    @property
    def low(self) -> float:
        return self.center - self.halfwidth

    @property
    def high(self) -> float:
        return self.center + self.halfwidth

    def contains(self, value: float) -> bool:
        return abs(value - self.center) <= self.halfwidth


def ols_fit(X, y) -> OlsFit:
    """Fit y ~ X with no intercept.  Requires n > p and full rank.

    Rank deficiency (some |R_jj| of the QR factor at most 1e-10 times the
    norm of column j of X, at any column scale) raises "singular design".
    ``X`` and ``y`` follow the array rule.
    """
    X = _check_array("X", X, "be a 2-D design of finite numbers with more rows than features",
                     ndim=2, ok=lambda a: a.shape[0] > a.shape[1])
    y = _check_array("y", y, f"be a vector of n = {X.shape[0]} finite responses, one per row of X",
                     ok=lambda v: v.size == X.shape[0])
    (n, p), xy = X.shape, np.concatenate([X, y[:, None]], axis=1)
    beta, sigma_hat, r_inverse = _fits(np.linalg.qr(xy, mode="r")[None], n)
    if not len(beta):
        raise ValueError("singular design")
    return OlsFit(beta=beta[0], sigma_hat=float(sigma_hat[0]), r_inverse=r_inverse[0], n=n, p=p,
                  X=xy[:, :p], y=xy[:, p])


def _fits(r, n):
    """beta, sigma_hat and R^-1, stacked, of the least-squares fits that a
    (k, p+1, p+1) stack of R factors of [X | y] designs of n rows each
    gives, up to the first singular design: the stacks hold as many fits
    as precede it, k if none is singular."""
    p = r.shape[-1] - 1
    # Column j < p of R has column j of X's norm; hypot does not overflow.
    diagonal, norms = np.abs(r.diagonal(0, 1, 2)[:, :p]), np.hypot.reduce(r[:, :, :p], axis=1)
    singular = (diagonal <= _RANK_TOL * norms).any(1)
    r = r[:singular.argmax()] if singular.any() else r
    beta = np.linalg.solve(r[:, :p, :p], r[:, :p, p:])[..., 0]
    return beta, np.abs(r[:, p, p]) / math.sqrt(n - p), np.linalg.inv(r[:, :p, :p])


def _leverages(X, r_inverse) -> np.ndarray:
    """x'(X'X)^-1 x for each row x of X, as |x R^-1|^2."""
    u = X @ r_inverse
    return np.einsum("...ij,...ij->...i", u, u)


def _intervals(X, beta, sigma_hat, r_inverse, alpha: float, name: str):
    """Centers and half-widths z * sigma_hat * sqrt(1 + h) of the level
    1-alpha intervals of one fit at the rows of X, or of k stacked fits
    (as ``_fits`` gives them), fit j's at the rows of X[j], a (k, m, p)
    stack; errors call X ``name``."""
    z = _critical_value(alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        centers = (X @ beta[..., None])[..., 0]
        halfwidths = z * np.expand_dims(sigma_hat, -1) * np.sqrt(1.0 + _leverages(X, r_inverse))
    if not (np.isfinite(centers).all() and np.isfinite(halfwidths).all()):
        raise ValueError(f"{name} is too large: its prediction interval is not finite")
    return centers, halfwidths


def predict_interval(fit: OlsFit, x_new, alpha: float) -> PredictionInterval:
    """Level 1-alpha prediction interval at design point x_new, a vector
    of the fit's p finite features (the array rule); ``fit`` is an
    ``OlsFit`` (the record rule)."""
    _check_record("fit", fit, OlsFit)
    x = _check_array("x_new", x_new, f"be finite, a vector of p = {fit.p} features",
                     ok=lambda v: v.size == fit.p)
    (center,), (halfwidth,) = _intervals(x[None], fit.beta, fit.sigma_hat, fit.r_inverse,
                                         alpha, "x_new")
    return PredictionInterval(center=float(center), halfwidth=float(halfwidth), alpha=alpha)


def _critical_value(alpha: float) -> float:
    """z_{1-alpha/2}, the two-sided normal critical value at level alpha."""
    _check_alpha(alpha)
    return float(ndtri(1.0 - alpha / 2.0))


def _loo_flags_refit(fit, alpha):
    # One buffer holds the n - 1 kept rows of [X | y] in np.delete's
    # order: going from excluding row i - 1 to excluding row i puts row
    # i - 1 back in slot i - 1, the only slot that changes (at i = 0 the
    # last slot gets the last row, which it holds).  Each row costs one
    # R-only QR; the fits and intervals come in one pass.
    xy = np.concatenate([fit.X, fit.y[:, None]], axis=1)
    sub, r = xy[1:].copy(), np.empty((fit.n, fit.p + 1, fit.p + 1))
    for i in range(fit.n):
        sub[i - 1] = xy[i - 1]
        r[i] = np.linalg.qr(sub, mode="r")
    fits = _fits(r, fit.n - 1)
    # Row i's interval is that of the fit without it, at x_i; the first
    # row that fails, in row order, names the error.
    k = len(fits[0])
    centers, halfwidths = _intervals(fit.X[:k, None], *fits, alpha, "x_new")
    if k < fit.n:
        raise ValueError(f"leave-one-out fit failed excluding row {k}: singular design")
    return np.abs(fit.y - centers[:, 0]) <= halfwidths[:, 0]


def _loo_flags_downdate(fit, alpha):
    n, p, sigma_hat = fit.n, fit.p, fit.sigma_hat
    slack = 1.0 - _leverages(fit.X, fit.r_inverse)
    if np.any(slack <= _RANK_TOL):
        i = int(np.argmax(slack <= _RANK_TOL))
        raise ValueError(f"leave-one-out fit failed excluding row {i}: singular design")
    # Residuals in units of sigma_hat, so their squares sum to n - p at
    # any scale of y; an exact fit (sigma_hat 0) leaves them 0.
    u = np.divide(fit.y - fit.X @ fit.beta, sigma_hat, out=np.zeros(n), where=sigma_hat > 0)
    # Deleting row i takes u_i^2/(1-h_i) off that sum and costs one
    # degree of freedom; the prediction variance factor at x_i under the
    # deleted fit collapses to 1/(1-h_i).
    sub_sigma = np.sqrt(np.maximum(n - p - u**2 / slack, 0.0) / (n - 1 - p))
    return np.abs(u / slack) <= _critical_value(alpha) * sub_sigma / np.sqrt(slack)


def loo_coverage(fit: OlsFit, alpha: float, method: str = "refit") -> LooEstimate:
    """Fraction of ``fit``'s rows covered by the interval trained without them.

    Each row i is scored by fitting on the other n - 1 rows and asking
    whether y_i lands in the resulting interval at x_i.  Requires
    n >= p + 2 so every sub-fit has a residual degree of freedom.

    ``method`` selects literal refitting or the algebraically
    equivalent leverage downdate (much faster, same contract).  ``fit``
    is an ``OlsFit`` (the record rule).
    """
    _check_record("fit", fit, OlsFit)
    _check_alpha(alpha)
    if fit.n < fit.p + 2:
        raise ValueError("need n >= p + 2 for leave-one-out fits")
    if method == "refit":
        flags = _loo_flags_refit(fit, alpha)
    elif method == "downdate":
        flags = _loo_flags_downdate(fit, alpha)
    else:
        raise ValueError(f"unknown method {method!r}")
    return LooEstimate(n=fit.n, hits=int(flags.sum()))


def holdout_coverage(fit: OlsFit, test_X, test_y, alpha: float) -> float:
    """Fraction of held-out rows inside ``fit``'s intervals.

    The Monte Carlo stand-in for the interval's true conditional
    coverage, given a large fresh test set: ``test_X`` holds its m >= 1
    rows, ``test_y`` their responses (the array rule); ``fit`` is an
    ``OlsFit`` (the record rule).
    """
    _check_record("fit", fit, OlsFit)
    test_X = _check_array("test_X", test_X,
                          f"be a 2-D array of finite rows of p = {fit.p} features, "
                          "not an empty test set", ndim=2, ok=lambda a: a.shape[1] == fit.p)
    m = test_X.shape[0]
    test_y = _check_array("test_y", test_y,
                          f"be a vector of m = {m} finite responses, one per row of test_X",
                          ok=lambda v: v.size == m)
    centers, halfwidths = _intervals(test_X, fit.beta, fit.sigma_hat, fit.r_inverse,
                                     alpha, "test_X")
    return float(np.mean(np.abs(test_y - centers) <= halfwidths))
