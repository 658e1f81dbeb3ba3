import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from cascade.coverage_predict import (
    holdout_coverage,
    loo_coverage,
    ols_fit,
    predict_interval,
)
from cascade.loo_core import loo_estimate


def test_fit_exact_line():
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([1.0, 2.0, 3.0])
    fit = ols_fit(X, y)
    assert fit.beta[0] == pytest.approx(1.0)
    assert fit.sigma_hat == pytest.approx(0.0, abs=1e-12)
    assert (fit.n, fit.p) == (3, 1)


def test_fit_scaled_line():
    X = np.array([[1.0], [2.0], [4.0]])
    fit = ols_fit(X, np.array([2.0, 4.0, 8.0]))
    assert fit.beta[0] == pytest.approx(2.0)
    assert fit.sigma_hat == pytest.approx(0.0, abs=1e-12)


def test_fit_symmetric_residuals():
    # Slope zero by cancellation; RSS = 16, df = n - p = 3.
    X = np.array([[1.0], [-1.0], [1.0], [-1.0]])
    y = np.array([2.0, 2.0, -2.0, -2.0])
    fit = ols_fit(X, y)
    assert fit.beta[0] == pytest.approx(0.0, abs=1e-12)
    assert fit.sigma_hat == pytest.approx(math.sqrt(16.0 / 3.0))


def test_fit_matches_lstsq():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    fit = ols_fit(X, y)
    beta_ref, *_ = np.linalg.lstsq(X, y, rcond=None)
    assert fit.beta == pytest.approx(beta_ref, rel=1e-10)
    resid = y - X @ fit.beta
    assert fit.sigma_hat == pytest.approx(
        math.sqrt(resid @ resid / (40 - 3)), rel=1e-10
    )
    assert fit.xtx_inverse == pytest.approx(np.linalg.inv(X.T @ X), rel=1e-8)


def test_singular_design_rejected():
    X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    with pytest.raises(ValueError, match="singular design"):
        ols_fit(X, np.array([1.0, 2.0, 3.0]))


def test_fit_shape_validation():
    with pytest.raises(ValueError):
        ols_fit(np.ones((3, 1)), np.ones(4))
    with pytest.raises(ValueError, match="more rows than features"):
        ols_fit(np.ones((2, 2)), np.ones(2))


# ---------------------------------------------------------------- intervals

def test_interval_with_zero_noise_degenerates():
    X = np.array([[1.0], [2.0], [3.0]])
    fit = ols_fit(X, np.array([1.0, 2.0, 3.0]))
    iv = predict_interval(fit, np.array([5.0]), alpha=0.05)
    assert iv.center == pytest.approx(5.0)
    assert iv.halfwidth == pytest.approx(0.0, abs=1e-10)
    assert iv.contains(5.0)


def test_interval_at_origin_is_pure_noise_term():
    X = np.array([[1.0], [-1.0], [1.0]])
    y = np.array([2.0, 2.0, -2.0])
    fit = ols_fit(X, y)
    iv = predict_interval(fit, np.array([0.0]), alpha=0.05)
    assert iv.center == pytest.approx(0.0, abs=1e-12)
    assert iv.halfwidth == pytest.approx(
        scipy.stats.norm.ppf(0.975) * fit.sigma_hat, rel=1e-12
    )
    assert iv.low == pytest.approx(-iv.halfwidth)
    assert iv.high == pytest.approx(iv.halfwidth)


def test_interval_widens_away_from_data_mass():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(60, 2))
    y = X @ np.array([1.0, -1.0]) + rng.normal(size=60)
    fit = ols_fit(X, y)
    near = predict_interval(fit, np.array([0.1, 0.1]), alpha=0.05)
    far = predict_interval(fit, np.array([8.0, -8.0]), alpha=0.05)
    assert far.halfwidth > near.halfwidth


def test_interval_alpha_validation():
    fit = ols_fit(np.array([[1.0], [2.0], [3.0]]), np.array([1.0, 2.0, 3.1]))
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError, match="alpha"):
            predict_interval(fit, np.array([1.0]), alpha=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_interval_rejects_non_finite_x_new(bad):
    fit = ols_fit(np.array([[1.0, 0.0], [2.0, 1.0], [3.0, 0.5], [4.0, 2.0]]),
                  np.array([1.0, 2.0, 3.1, 4.2]))
    with pytest.raises(ValueError, match="x_new must be finite"):
        predict_interval(fit, np.array([bad, 1.0]), alpha=0.05)


def test_interval_rejects_x_new_whose_interval_overflows():
    fit = ols_fit(np.array([[1.0], [2.0], [3.0], [4.0], [5.0]]),
                  np.array([1.1, 1.9, 3.2, 3.9, 5.1]))
    with pytest.raises(ValueError, match="x_new"):
        predict_interval(fit, np.array([1e308]), alpha=0.05)


# ------------------------------------------------------------ loo coverage

def test_loo_coverage_of_exact_fit_is_one():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = 3.0 * X[:, 0]
    assert loo_coverage(X, y, alpha=0.05).value == pytest.approx(1.0)


def test_loo_coverage_hand_computed_three_points():
    # Points (1,1), (2,2), (3,0), one feature, no intercept. Each
    # leave-one-out fit uses two points, so beta and sigma come in
    # closed form: beta = (x1 y1 + x2 y2)/(x1^2 + x2^2),
    # sigma^2 = RSS / (2 - 1).
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([1.0, 2.0, 0.0])
    alpha = 0.05
    z = scipy.stats.norm.ppf(1 - alpha / 2)
    hits = 0
    for i in range(3):
        keep = [j for j in range(3) if j != i]
        xs, ys = X[keep, 0], y[keep]
        beta = float(xs @ ys / (xs @ xs))
        rss = float(((ys - beta * xs) ** 2).sum())
        sigma = math.sqrt(rss / 1.0)
        xi = X[i, 0]
        half = z * sigma * math.sqrt(1.0 + xi * xi / float(xs @ xs))
        if abs(y[i] - beta * xi) <= half:
            hits += 1
    expected = hits / 3.0
    assert loo_coverage(X, y, alpha=alpha, method="refit").value == pytest.approx(
        expected
    )
    assert loo_coverage(X, y, alpha=alpha, method="downdate").value == pytest.approx(
        expected
    )


def test_downdate_equals_refit():
    rng = np.random.default_rng(12)
    for trial in range(20):
        n = int(rng.integers(6, 30))
        p = int(rng.integers(1, 4))
        X = rng.normal(size=(n, p))
        y = X @ rng.normal(size=p) + rng.normal(size=n) * rng.uniform(0.1, 2.0)
        for alpha in (0.05, 0.2):
            a = loo_coverage(X, y, alpha=alpha, method="refit").value
            b = loo_coverage(X, y, alpha=alpha, method="downdate").value
            assert a == pytest.approx(b, abs=1e-12), (trial, alpha)


def test_loo_coverage_matches_generic_loo():
    rng = np.random.default_rng(30)
    n, p, alpha = 25, 2, 0.1
    X = rng.normal(size=(n, p))
    y = X @ np.array([1.0, 0.5]) + rng.normal(size=n)
    rows = [(tuple(X[i]), float(y[i])) for i in range(n)]

    def interval_oracle(row, rest):
        x_new = np.array(row[0])
        Xr = np.array([r[0] for r in rest])
        yr = np.array([r[1] for r in rest])
        fit = ols_fit(Xr, yr)
        return predict_interval(fit, x_new, alpha=alpha).contains(row[1])

    assert loo_coverage(X, y, alpha=alpha).value == pytest.approx(
        loo_estimate(interval_oracle, rows).value
    )


def test_loo_coverage_sample_size_guard():
    X = np.ones((3, 2))
    X[:, 1] = [1.0, 2.0, 3.0]
    with pytest.raises(ValueError, match="n >= p \\+ 2"):
        loo_coverage(X, np.array([1.0, 2.0, 3.0]), alpha=0.05)


def test_loo_coverage_unknown_method():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    with pytest.raises(ValueError, match="method"):
        loo_coverage(X, np.ones(4), alpha=0.05, method="jackboot")


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_downdate_refit_agreement_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 16))
    X = rng.normal(size=(n, 2))
    y = rng.normal(size=n)
    if abs(np.linalg.det(X.T @ X)) < 1e-8:
        return
    a = loo_coverage(X, y, alpha=0.1, method="refit").value
    b = loo_coverage(X, y, alpha=0.1, method="downdate").value
    assert a == pytest.approx(b, abs=1e-12)


# ------------------------------------------------------------- holdout

def test_holdout_coverage_of_exact_relationship():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = 2.0 * X[:, 0]
    Xt = np.array([[5.0], [6.0]])
    assert holdout_coverage(X, y, Xt, 2.0 * Xt[:, 0], alpha=0.05) == 1.0


@pytest.mark.parametrize("bad", [1.0, 1.5, -0.5])
def test_holdout_alpha_validation(bad):
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([1.0, 2.0, 3.1])
    with pytest.raises(ValueError, match="alpha"):
        holdout_coverage(X, y, X, y, alpha=bad)


def test_holdout_empty_test_set_rejected():
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([1.0, 2.0, 3.1])
    with pytest.raises(ValueError, match="empty test set"):
        holdout_coverage(X, y, np.empty((0, 1)), np.empty(0), alpha=0.05)


def test_holdout_rotation_invariance():
    # Rotating features leaves intervals, hence coverage, unchanged.
    rng = np.random.default_rng(44)
    n, m = 60, 100
    X = rng.normal(size=(n, 2))
    y = X @ np.array([1.0, -2.0]) + rng.normal(size=n)
    Xt = rng.normal(size=(m, 2))
    yt = Xt @ np.array([1.0, -2.0]) + rng.normal(size=m)
    theta = 0.7
    R = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    base = holdout_coverage(X, y, Xt, yt, alpha=0.05)
    rotated = holdout_coverage(X @ R, y, Xt @ R, yt, alpha=0.05)
    assert base == pytest.approx(rotated)


def test_holdout_coverage_near_nominal_on_large_sample():
    rng = np.random.default_rng(100)
    n, m = 400, 4000
    X = rng.normal(size=(n, 2))
    y = X @ np.array([1.0, 0.5]) + rng.normal(size=n)
    Xt = rng.normal(size=(m, 2))
    yt = Xt @ np.array([1.0, 0.5]) + rng.normal(size=m)
    cov = holdout_coverage(X, y, Xt, yt, alpha=0.05)
    assert abs(cov - 0.95) <= 0.02
