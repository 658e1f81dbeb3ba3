import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

import cascade.coverage_predict
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
    assert fit.r_inverse @ fit.r_inverse.T == pytest.approx(np.linalg.inv(X.T @ X), rel=1e-8)


def test_fit_keeps_its_checked_rows_out_of_its_repr():
    X = np.array([[1.0], [2.0], [3.0]])
    fit = ols_fit(X, [1, 2, 3])
    assert fit.X is not X and fit.X.tolist() == X.tolist()
    assert fit.y.dtype == float and fit.y.tolist() == [1.0, 2.0, 3.0]
    assert "X=" not in repr(fit) and "y=" not in repr(fit)


@pytest.mark.parametrize("method", ["refit", "downdate"])
def test_writing_the_response_after_fitting_leaves_the_fit_alone(method):
    # Were fit.y the caller's array, both methods would score 29 of 30.
    rng = np.random.default_rng(3)
    X = np.column_stack([np.ones(30), rng.normal(size=30)])
    y = X @ [1.0, 2.0] + rng.normal(size=30)
    fit = ols_fit(X, y)
    before = loo_coverage(fit, 0.05, method)
    y[:] = 5.0
    assert loo_coverage(fit, 0.05, method) == before


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
    assert loo_coverage(ols_fit(X, y), alpha=0.05).value == pytest.approx(1.0)


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
    fit = ols_fit(X, y)
    assert loo_coverage(fit, alpha=alpha, method="refit").value == pytest.approx(expected)
    assert loo_coverage(fit, alpha=alpha, method="downdate").value == pytest.approx(expected)


def test_downdate_equals_refit():
    rng = np.random.default_rng(12)
    for trial in range(20):
        n = int(rng.integers(6, 30))
        p = int(rng.integers(1, 4))
        X = rng.normal(size=(n, p))
        y = X @ rng.normal(size=p) + rng.normal(size=n) * rng.uniform(0.1, 2.0)
        fit = ols_fit(X, y)
        for alpha in (0.05, 0.2):
            a = loo_coverage(fit, alpha=alpha, method="refit").value
            b = loo_coverage(fit, alpha=alpha, method="downdate").value
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

    assert loo_coverage(ols_fit(X, y), alpha=alpha).value == pytest.approx(
        loo_estimate(interval_oracle, rows).value
    )


def _refit_oracle_flags(X, y, alpha):
    # The literal definition: delete row i, fit the rest, test row i.
    return np.array([
        predict_interval(ols_fit(np.delete(X, i, axis=0), np.delete(y, i)), X[i], alpha)
        .contains(y[i])
        for i in range(X.shape[0])
    ])


@pytest.mark.parametrize("seed", range(6))
def test_refit_flags_equal_the_delete_and_fit_oracle(seed):
    rng = np.random.default_rng(seed)
    n, p = int(rng.integers(4, 40)), int(rng.integers(1, 4))
    n = max(n, p + 2)
    X = rng.normal(size=(n, p)) * rng.uniform(0.01, 100.0, size=p)
    y = X @ rng.normal(size=p) + rng.normal(size=n)
    for alpha in (0.05, 0.3, 0.9):
        got = cascade.coverage_predict._loo_flags_refit(ols_fit(X, y), alpha)
        assert got.tolist() == _refit_oracle_flags(X, y, alpha).tolist()


def test_refit_names_the_row_whose_deletion_is_singular():
    # Column 2 is nonzero only in row 3: the fit without row 3 is singular.
    X = np.column_stack([np.arange(1.0, 7.0), np.zeros(6)])
    X[3, 1] = 1.0
    y = np.arange(6.0) ** 2
    with pytest.raises(ValueError, match="excluding row 3: singular design"):
        loo_coverage(ols_fit(X, y), alpha=0.1, method="refit")


def test_refit_keeps_the_non_finite_interval_error():
    # One column, so the fit of all six rows is regular; the interval
    # at row 0 of the fit without it overflows.
    X = np.arange(1.0, 7.0).reshape(-1, 1)
    X[0] = 1e300
    y = np.arange(6.0)
    with pytest.raises(ValueError, match="too large") as oracle:
        _refit_oracle_flags(X, y, 0.1)
    with pytest.raises(ValueError, match="too large") as got:
        loo_coverage(ols_fit(X, y), alpha=0.1, method="refit")
    assert str(got.value) == str(oracle.value)


@pytest.mark.parametrize("seed", range(4))
def test_refit_sub_fits_are_the_bits_of_fitting_the_deleted_rows(seed, monkeypatch):
    # One route: the refit hands all n R factors of [X | y] without row i
    # to the routine behind ols_fit in one call, and fit i is, bit for
    # bit, the fit of np.delete's rows.
    rng = np.random.default_rng(seed)
    n, p = int(rng.integers(4, 40)), int(rng.integers(1, 4))
    n = max(n, p + 2)
    X = rng.normal(size=(n, p)) * rng.uniform(0.01, 100.0, size=p)
    y = X @ rng.normal(size=p) + rng.normal(size=n)
    fit = ols_fit(X, y)
    calls = []
    fits = cascade.coverage_predict._fits

    def keeping(r, rows):
        calls.append(fits(r, rows))
        return calls[-1]

    monkeypatch.setattr(cascade.coverage_predict, "_fits", keeping)
    loo_coverage(fit, 0.1, "refit")
    ((beta, sigma_hat, r_inverse),) = calls
    assert len(beta) == n
    for i in range(n):
        sub = ols_fit(np.delete(X, i, axis=0), np.delete(y, i))
        assert beta[i].tolist() == sub.beta.tolist()
        assert sigma_hat[i] == sub.sigma_hat
        assert r_inverse[i].tolist() == sub.r_inverse.tolist()


@pytest.mark.parametrize("overflow_row, singular_row", [(0, 3), (3, 0)])
def test_refit_raises_the_first_failing_rows_error(overflow_row, singular_row):
    # Column 2 is nonzero only in singular_row, so the fit without it is
    # singular; x = [1e300, 0] in overflow_row makes the interval there
    # overflow.  Whichever row comes first names the error, as in the
    # delete-and-fit oracle.
    X = np.column_stack([np.arange(1.0, 7.0), np.zeros(6)])
    X[singular_row, 1] = 1.0
    X[overflow_row, 0] = 1e300
    y = np.arange(6.0) ** 2
    first = "too large" if overflow_row < singular_row else "singular design"
    with pytest.raises(ValueError, match=first):
        _refit_oracle_flags(X, y, 0.1)
    with pytest.raises(ValueError, match=first) as got:
        loo_coverage(ols_fit(X, y), alpha=0.1, method="refit")
    if first == "singular design":
        assert str(got.value).startswith(f"leave-one-out fit failed excluding row {singular_row}:")


@pytest.mark.parametrize("c", [1e300, 1e-300])
def test_sigma_hat_is_read_from_the_corner_of_r_at_any_response_scale(c):
    # |R[p, p]| is the residual norm itself, never squared, so sigma_hat
    # scales with y from 1e-300 to 1e300 instead of reaching 0 or inf,
    # and so does every refit.
    X = np.arange(1.0, 7.0).reshape(-1, 1)
    y = np.array([1.0, 2.1, 2.9, 4.2, 5.0, 5.8])
    base, fit = ols_fit(X, y), ols_fit(X, y * c)
    assert fit.sigma_hat == pytest.approx(c * base.sigma_hat, rel=1e-12)
    assert fit.beta == pytest.approx(c * base.beta, rel=1e-12)
    assert loo_coverage(fit, 0.1, "refit") == loo_coverage(base, 0.1, "refit")


def test_a_design_whose_columns_differ_by_1e300_has_full_rank():
    # Row 0 = [1, 1e300] puts the columns 1e300 apart in scale.  The rank
    # test reads each |R_jj| against its own column's norm, so the full fit
    # is regular: row 0 fixes beta_2 near 0 and the other rows' mean y = 3
    # gives beta_1.  Without row 0 its interval overflows; with its
    # leverage near 1 the downdate is singular.
    X = np.column_stack([np.ones(6), np.arange(6.0)])
    X[0] = [1.0, 1e300]
    fit = ols_fit(X, np.arange(6.0))
    assert np.allclose(fit.beta * [1.0, 1e300], [3.0, -3.0], rtol=1e-12)
    with pytest.raises(ValueError, match="^x_new is too large"):
        loo_coverage(fit, alpha=0.1, method="refit")
    with pytest.raises(ValueError, match="excluding row 0: singular design"):
        loo_coverage(fit, alpha=0.1, method="downdate")


@pytest.mark.parametrize("c", [1e8, 1e10, 1e11, 1e-12])
def test_scaling_one_column_keeps_the_fit_and_the_coverage(c):
    # |R_jj| and column j's norm scale together, so the rank test accepts
    # the design at any column scale, and only beta_j moves, by 1/c.
    rng = np.random.default_rng(11)
    X = rng.normal(size=(50, 2))
    y = X @ [1.0, 2.0] + rng.normal(size=50)
    base, fit = ols_fit(X, y), ols_fit(X * [1.0, c], y)
    assert np.allclose(fit.beta, base.beta / [1.0, c], rtol=1e-9, atol=0)
    for method in ("refit", "downdate"):
        assert loo_coverage(fit, 0.1, method) == loo_coverage(base, 0.1, method)


def test_loo_coverage_sample_size_guard():
    X = np.ones((3, 2))
    X[:, 1] = [1.0, 2.0, 3.0]
    with pytest.raises(ValueError, match="n >= p \\+ 2"):
        loo_coverage(ols_fit(X, np.array([1.0, 2.0, 3.0])), alpha=0.05)


def test_loo_coverage_unknown_method():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    with pytest.raises(ValueError, match="method"):
        loo_coverage(ols_fit(X, np.ones(4)), alpha=0.05, method="jackboot")


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_downdate_refit_agreement_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 16))
    X = rng.normal(size=(n, 2))
    y = rng.normal(size=n)
    if abs(np.linalg.det(X.T @ X)) < 1e-8:
        return
    fit = ols_fit(X, y)
    a = loo_coverage(fit, alpha=0.1, method="refit").value
    b = loo_coverage(fit, alpha=0.1, method="downdate").value
    assert a == pytest.approx(b, abs=1e-12)


# ------------------------------------------------------------- holdout

def test_holdout_coverage_of_exact_relationship():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = 2.0 * X[:, 0]
    Xt = np.array([[5.0], [6.0]])
    assert holdout_coverage(ols_fit(X, y), Xt, 2.0 * Xt[:, 0], alpha=0.05) == 1.0


@pytest.mark.parametrize("bad", [1.0, 1.5, -0.5])
def test_holdout_alpha_validation(bad):
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([1.0, 2.0, 3.1])
    with pytest.raises(ValueError, match="alpha"):
        holdout_coverage(ols_fit(X, y), X, y, alpha=bad)


def test_holdout_empty_test_set_rejected():
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([1.0, 2.0, 3.1])
    with pytest.raises(ValueError, match="empty test set"):
        holdout_coverage(ols_fit(X, y), np.empty((0, 1)), np.empty(0), alpha=0.05)


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
    base = holdout_coverage(ols_fit(X, y), Xt, yt, alpha=0.05)
    rotated = holdout_coverage(ols_fit(X @ R, y), Xt @ R, yt, alpha=0.05)
    assert base == pytest.approx(rotated)


def test_holdout_coverage_near_nominal_on_large_sample():
    rng = np.random.default_rng(100)
    n, m = 400, 4000
    X = rng.normal(size=(n, 2))
    y = X @ np.array([1.0, 0.5]) + rng.normal(size=n)
    Xt = rng.normal(size=(m, 2))
    yt = Xt @ np.array([1.0, 0.5]) + rng.normal(size=m)
    cov = holdout_coverage(ols_fit(X, y), Xt, yt, alpha=0.05)
    assert abs(cov - 0.95) <= 0.02


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_holdout_rejects_non_finite_rows_and_responses(bad):
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    fit = ols_fit(X, np.array([1.1, 1.9, 3.2, 3.9]))
    with pytest.raises(ValueError, match="finite"):
        holdout_coverage(fit, [[bad], [1.0]], [1.0, 1.0], alpha=0.05)
    with pytest.raises(ValueError, match="finite"):
        holdout_coverage(fit, [[2.0], [1.0]], [bad, 1.0], alpha=0.05)


def test_holdout_rejects_a_row_whose_interval_overflows():
    fit = ols_fit(np.array([[1.0], [2.0], [3.0], [4.0], [5.0]]),
                  np.array([1.1, 1.9, 3.2, 3.9, 5.1]))
    with pytest.raises(ValueError, match="test_X is too large"):
        holdout_coverage(fit, [[1.0], [1e308]], [1.0, 1.0], alpha=0.05)


# ---------------------------------------------------------- scale of X

@pytest.mark.parametrize("c", [1e-200, 1e-100, 1e100, 1e200])
def test_every_interval_is_scale_equivariant(c):
    # Scaling X by c scales beta by 1/c and leaves every interval as it
    # was, however far c is from 1.
    rng = np.random.default_rng(3)
    beta = np.array([1.0, 0.5])
    X = rng.normal(size=(50, 2))
    y = X @ beta + rng.normal(size=50)
    Xt = rng.normal(size=(500, 2))
    yt = Xt @ beta + rng.normal(size=500)
    x_new = np.array([0.7, -1.3])
    fit, scaled = ols_fit(X, y), ols_fit(c * X, y)
    for method in ("refit", "downdate"):
        assert loo_coverage(scaled, 0.05, method=method).value == loo_coverage(
            fit, 0.05, method=method
        ).value
    assert holdout_coverage(scaled, c * Xt, yt, 0.05) == holdout_coverage(fit, Xt, yt, 0.05)
    want = predict_interval(fit, x_new, 0.05)
    got = predict_interval(scaled, c * x_new, 0.05)
    assert got.halfwidth == pytest.approx(want.halfwidth, rel=1e-12)
    assert got.center == pytest.approx(want.center, rel=1e-12)
