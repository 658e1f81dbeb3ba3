"""Prediction-interval coverage estimated by leave-one-out refitting.

Model: ordinary least squares through the origin (no intercept).  The
level 1-alpha prediction interval at a new design point x is

    x'beta_hat  +-  z_{1-alpha/2} * sigma_hat * sqrt(1 + x'(X'X)^-1 x).

The actual coverage probability of that interval is a random quantity
(it depends on the fitted model), and the leave-one-out estimate of it
is the fraction of sample points whose response falls in the interval
trained on the remaining n - 1 rows.  Under a misspecified model the
coverage settles below the nominal level, and the leave-one-out
estimate tracks it there too.

Leave-one-out fits are computed either by literal refitting or by a
rank-one leverage downdate of the full fit; the two routes agree and
are cross-checked in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .loo_core import LooEstimate

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
    """Least-squares fit through the origin.

    ``sigma_hat`` uses the n - p divisor; ``xtx_inverse`` is kept for
    interval widths (beta itself comes from a QR solve, not from the
    explicit inverse).
    """

    beta: np.ndarray
    sigma_hat: float
    xtx_inverse: np.ndarray
    n: int
    p: int


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


def _check_design(X, y):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if X.ndim != 2:
        raise ValueError("design matrix must be 2-D")
    n, p = X.shape
    if p < 1:
        raise ValueError("need at least one feature column")
    if y.shape[0] != n:
        raise ValueError("response length does not match design rows")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("design and response must be finite")
    return X, y, n, p


def ols_fit(X, y) -> OlsFit:
    """Fit y ~ X with no intercept.  Requires n > p and full rank.

    Rank deficiency (smallest |R_ii| of the QR factor below 1e-10
    times the largest) raises "singular design".
    """
    X, y, n, p = _check_design(X, y)
    if n <= p:
        raise ValueError("need more rows than features")
    return _qr_fit(X, y)[0]


def _qr_fit(X, y):
    """The fit of a checked design, and R^-1 for its QR factor R."""
    n, p = X.shape
    q_mat, r_mat = np.linalg.qr(X)
    diag = np.abs(np.diag(r_mat))
    if diag.min() <= _RANK_TOL * diag.max():
        raise ValueError("singular design")
    beta = np.linalg.solve(r_mat, q_mat.T @ y)
    resid = y - X @ beta
    rss = float(resid @ resid)
    sigma_hat = math.sqrt(rss / (n - p))
    r_inv = np.linalg.solve(r_mat, np.eye(p))
    xtx_inverse = r_inv @ r_inv.T
    return OlsFit(beta=beta, sigma_hat=sigma_hat, xtx_inverse=xtx_inverse, n=n, p=p), r_inv


def predict_interval(fit: OlsFit, x_new, alpha: float) -> PredictionInterval:
    """Level 1-alpha prediction interval at design point x_new."""
    z = _critical_value(alpha)
    x = np.asarray(x_new, dtype=float).reshape(-1)
    if x.shape[0] != fit.beta.shape[0]:
        raise ValueError("x_new dimension does not match the fit")
    if not np.all(np.isfinite(x)):
        raise ValueError("x_new must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        center = float(x @ fit.beta)
        quad = float(x @ fit.xtx_inverse @ x)
    spread = math.sqrt(1.0 + quad) if math.isfinite(quad) else math.inf
    halfwidth = z * fit.sigma_hat * spread
    if not (math.isfinite(center) and math.isfinite(halfwidth)):
        raise ValueError("x_new is too large: its prediction interval is not finite")
    return PredictionInterval(center=center, halfwidth=halfwidth, alpha=alpha)


def _critical_value(alpha: float) -> float:
    """z_{1-alpha/2}, the two-sided normal critical value at level alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    return float(ndtri(1.0 - alpha / 2.0))


def _loo_flags_refit(X, y, alpha):
    # One buffer holds the n - 1 kept rows in np.delete's order: going
    # from excluding row i - 1 to excluding row i puts row i - 1 back in
    # slot i - 1, the only slot that changes.  Each row is a full QR refit.
    n = X.shape[0]
    flags = np.zeros(n, dtype=bool)
    sub_x, sub_y = X[1:].copy(), y[1:].copy()
    for i in range(n):
        if i:
            sub_x[i - 1], sub_y[i - 1] = X[i - 1], y[i - 1]
        try:
            fit = _qr_fit(sub_x, sub_y)[0]
        except ValueError as exc:
            raise ValueError(f"leave-one-out fit failed excluding row {i}: {exc}") from exc
        flags[i] = predict_interval(fit, X[i], alpha).contains(y[i])
    return flags


def _loo_flags_downdate(X, y, alpha):
    n, p = X.shape
    fit, r_inv = _qr_fit(X, y)
    # Leverages h_i = |x_i R^-1|^2 from the full fit's QR factor.
    r_inv_t_x = X @ r_inv
    leverages = np.einsum("ij,ij->i", r_inv_t_x, r_inv_t_x)
    slack = 1.0 - leverages
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


def loo_coverage(X, y, alpha: float, method: str = "refit") -> LooEstimate:
    """Fraction of rows covered by the interval trained without them.

    Each row i is scored by fitting on the other n - 1 rows and asking
    whether y_i lands in the resulting interval at x_i.  Requires
    n >= p + 2 so every sub-fit has a residual degree of freedom.

    ``method`` selects literal refitting or the algebraically
    equivalent leverage downdate (much faster, same contract).
    """
    _critical_value(alpha)  # rejects a bad alpha before the design checks
    X, y, n, p = _check_design(X, y)
    if n < p + 2:
        raise ValueError("need n >= p + 2 for leave-one-out fits")
    if method == "refit":
        flags = _loo_flags_refit(X, y, alpha)
    elif method == "downdate":
        flags = _loo_flags_downdate(X, y, alpha)
    else:
        raise ValueError(f"unknown method {method!r}")
    return LooEstimate.from_hits(int(flags.sum()), n)


def holdout_coverage(fit_X, fit_y, test_X, test_y, alpha: float) -> float:
    """Fraction of held-out rows inside the fitted model's intervals.

    The Monte Carlo stand-in for the interval's true conditional
    coverage, given a large fresh test set.
    """
    z = _critical_value(alpha)
    fit = ols_fit(fit_X, fit_y)
    test_X = np.asarray(test_X, dtype=float)
    test_y = np.asarray(test_y, dtype=float).reshape(-1)
    if test_X.ndim != 2 or test_X.shape[1] != fit.p:
        raise ValueError("test design must be 2-D with matching feature count")
    if test_X.shape[0] == 0:
        raise ValueError("empty test set")
    if test_y.shape[0] != test_X.shape[0]:
        raise ValueError("test response length does not match test rows")
    centers = test_X @ fit.beta
    quad = np.einsum("ij,jk,ik->i", test_X, fit.xtx_inverse, test_X)
    halfwidth = z * fit.sigma_hat * np.sqrt(1.0 + quad)
    return float(np.mean(np.abs(test_y - centers) <= halfwidth))
