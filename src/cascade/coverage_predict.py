"""Prediction-interval coverage estimated by leave-one-out refitting.

Model: ordinary least squares through the origin (no intercept).  The
level 1-alpha prediction interval at a new design point x is

    x'beta_hat  +-  z_{1-alpha/2} * sigma_hat * sqrt(1 + h),

where h = x'(X'X)^-1 x = |x R^-1|^2 for the QR factor X = QR.

The actual coverage probability of that interval is a random quantity
(it depends on the fitted model), and the leave-one-out estimate of it
is the fraction of sample points whose response falls in the interval
trained on the remaining n - 1 rows.  Under a misspecified model the
coverage settles below the nominal level, and the leave-one-out
estimate tracks it there too.

Every coverage function reads one ``OlsFit``; leave-one-out fits come
from literal refitting of its rows or a rank-one leverage downdate of
the fit itself, two routes cross-checked in the test suite.
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
    ``sigma_hat`` uses the n - p divisor; ``r_inverse`` is R^-1 for the
    design's QR factor.  Scaling X by c scales R^-1 by 1/c and leaves
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
    return _qr_fit(X.copy(), y.copy())


def _qr_fit(X, y) -> OlsFit:
    """The fit of a checked design, which it keeps."""
    n, p = X.shape
    q_mat, r_mat = np.linalg.qr(X)
    # Column j of R has column j of X's norm; hypot does not overflow.
    if np.any(np.abs(np.diag(r_mat)) <= _RANK_TOL * np.hypot.reduce(r_mat, axis=0)):
        raise ValueError("singular design")
    beta = np.linalg.solve(r_mat, q_mat.T @ y)
    resid = y - X @ beta
    rss = float(resid @ resid)
    sigma_hat = math.sqrt(rss / (n - p))
    r_inverse = np.linalg.solve(r_mat, np.eye(p))
    return OlsFit(beta=beta, sigma_hat=sigma_hat, r_inverse=r_inverse, n=n, p=p, X=X, y=y)


def _leverages(X, r_inverse) -> np.ndarray:
    """x'(X'X)^-1 x for each row x of X, as |x R^-1|^2."""
    u = X @ r_inverse
    return np.einsum("ij,ij->i", u, u)


def _intervals(fit: OlsFit, X, alpha: float, name: str):
    """Centers and half-widths z * sigma_hat * sqrt(1 + h) of the level
    1-alpha intervals at the rows of X, which errors call ``name``."""
    z = _critical_value(alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        centers = X @ fit.beta
        halfwidths = z * fit.sigma_hat * np.sqrt(1.0 + _leverages(X, fit.r_inverse))
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
    (center,), (halfwidth,) = _intervals(fit, x[None, :], alpha, "x_new")
    return PredictionInterval(center=float(center), halfwidth=float(halfwidth), alpha=alpha)


def _critical_value(alpha: float) -> float:
    """z_{1-alpha/2}, the two-sided normal critical value at level alpha."""
    _check_alpha(alpha)
    return float(ndtri(1.0 - alpha / 2.0))


def _loo_flags_refit(fit, alpha):
    # One buffer holds the n - 1 kept rows in np.delete's order: going
    # from excluding row i - 1 to excluding row i puts row i - 1 back in
    # slot i - 1, the only slot that changes.  Each row is a full QR refit.
    X, y, n = fit.X, fit.y, fit.n
    flags = np.zeros(n, dtype=bool)
    sub_x, sub_y = X[1:].copy(), y[1:].copy()
    for i in range(n):
        if i:
            sub_x[i - 1], sub_y[i - 1] = X[i - 1], y[i - 1]
        try:
            sub_fit = _qr_fit(sub_x, sub_y)
        except ValueError as exc:
            raise ValueError(f"leave-one-out fit failed excluding row {i}: {exc}") from exc
        flags[i] = predict_interval(sub_fit, X[i], alpha).contains(y[i])
    return flags


def _loo_flags_downdate(fit, alpha):
    X, y, n, p = fit.X, fit.y, fit.n, fit.p
    slack = 1.0 - _leverages(X, fit.r_inverse)
    if np.any(slack <= _RANK_TOL):
        i = int(np.argmax(slack <= _RANK_TOL))
        raise ValueError(f"leave-one-out fit failed excluding row {i}: singular design")
    resid = y - X @ fit.beta
    rss = float(resid @ resid)
    loo_resid = resid / slack
    # Deleting row i changes the residual sum by e_i^2/(1-h_i) and
    # costs one degree of freedom; the prediction variance factor at
    # x_i under the deleted fit collapses to 1/(1-h_i).
    sub_rss = np.maximum(rss - resid**2 / slack, 0.0)
    sub_sigma = np.sqrt(sub_rss / (n - 1 - p))
    z = _critical_value(alpha)
    halfwidth = z * sub_sigma / np.sqrt(slack)
    return np.abs(loo_resid) <= halfwidth


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
    centers, halfwidths = _intervals(fit, test_X, alpha, "test_X")
    return float(np.mean(np.abs(test_y - centers) <= halfwidths))
