import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cascade.convex_volume import hull_summary, volume_interval
from cascade.coverage_predict import holdout_coverage, loo_coverage, ols_fit, predict_interval
from cascade.loo_core import BoundInputs, LooEstimate, loo_estimate, loo_mse_bound, size_estimate


def equality_oracle(x, rest):
    return x in rest


def dominated_oracle(x, rest):
    return any(x <= y for y in rest)


class AlwaysMember:
    def member(self, x, rest):
        return True


def test_estimate_counts_duplicate_hits():
    est = loo_estimate(equality_oracle, ["a", "b", "a", "c"])
    assert est.value == 0.5
    assert est.hits == 2
    assert est.n == 4


def test_always_member_gives_one():
    assert loo_estimate(AlwaysMember(), [1, 2, 3, 4, 5]).value == 1.0


def test_chain_domination_example():
    # 3 is below 7, 2 is below both, 7 is below nothing.
    assert loo_estimate(dominated_oracle, [3, 7, 2]).value == pytest.approx(2 / 3)


def test_empty_sample_rejected():
    with pytest.raises(ValueError, match="empty sample"):
        loo_estimate(equality_oracle, [])


def test_value_is_hits_over_n():
    est = LooEstimate(n=10, hits=3)
    assert est.value == 0.3
    with pytest.raises(ValueError, match="hit count"):
        LooEstimate(n=10, hits=11)
    # value is read from the counts, never stored beside them.
    with pytest.raises(TypeError):
        LooEstimate(value=0.4, n=10, hits=3)


@pytest.mark.parametrize("n, hits, name", [(2.5, 1, "n"), (4, 1.0, "hits"), (True, 1, "n"),
                                           (4, False, "hits"), (0, 0, "n"), ("3", 1, "n")])
def test_estimate_counts_must_be_integers(n, hits, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        LooEstimate(n=n, hits=hits)


def test_bound_zero_inputs():
    assert loo_mse_bound(BoundInputs(theta=0, delta_prime=0, delta_double_prime=0, n=10)) == 0.0


def test_bound_theta_only():
    b = BoundInputs(theta=0.25, delta_prime=0, delta_double_prime=0, n=10)
    assert loo_mse_bound(b) == pytest.approx(0.05)


def test_bound_full_plugin():
    b = BoundInputs(theta=0.25, delta_prime=0.1, delta_double_prime=1 / 9, n=10)
    # 4*0.1 + 4*9*(1/9)/10 + 2*0.25/10
    assert loo_mse_bound(b) == pytest.approx(0.85)


def test_bound_input_validation():
    for bad_n in (2, float("nan"), 5.5, True):
        with pytest.raises(ValueError, match="requires n"):
            BoundInputs(theta=0.1, delta_prime=0, delta_double_prime=0, n=bad_n)
    with pytest.raises(ValueError, match="theta"):
        BoundInputs(theta=0.3, delta_prime=0, delta_double_prime=0, n=5)
    with pytest.raises(ValueError, match="delta"):
        BoundInputs(theta=0.1, delta_prime=-1e-9, delta_double_prime=0, n=5)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="delta"):
            BoundInputs(theta=0.1, delta_prime=bad, delta_double_prime=0, n=5)
        with pytest.raises(ValueError, match="delta"):
            BoundInputs(theta=0.1, delta_prime=0, delta_double_prime=bad, n=5)


@given(st.lists(st.integers(0, 4), min_size=1, max_size=12), st.randoms(use_true_random=False))
def test_permutation_invariance(sample, rnd):
    shuffled = list(sample)
    rnd.shuffle(shuffled)
    assert loo_estimate(equality_oracle, shuffled).value == loo_estimate(equality_oracle, sample).value
    assert loo_estimate(dominated_oracle, shuffled).value == loo_estimate(dominated_oracle, sample).value


@given(st.lists(st.integers(0, 4), min_size=1, max_size=6))
def test_value_in_unit_interval(sample):
    for oracle in (equality_oracle, dominated_oracle):
        v = loo_estimate(oracle, sample).value
        assert 0.0 <= v <= 1.0


@given(st.lists(st.integers(0, 4), min_size=1, max_size=6))
def test_brute_force_equivalence(sample):
    # Explicit enumeration of every leave-one-out membership check.
    for oracle in (equality_oracle, dominated_oracle):
        hits = 0
        for i in range(len(sample)):
            rest = sample[:i] + sample[i + 1 :]
            if oracle(sample[i], rest):
                hits += 1
        assert loo_estimate(oracle, sample).value == hits / len(sample)


def test_bound_is_nonnegative_everywhere():
    rnd = random.Random(7)
    for _ in range(200):
        b = BoundInputs(
            theta=rnd.uniform(0, 0.25),
            delta_prime=rnd.uniform(0, 2),
            delta_double_prime=rnd.uniform(0, 2),
            n=rnd.randint(3, 500),
        )
        assert loo_mse_bound(b) >= 0.0


def test_method_style_oracle_matches_callable():
    class EqOracle:
        def member(self, x, rest):
            return x in rest

    sample = [1, 1, 2, 3, 3, 3]
    assert loo_estimate(EqOracle(), sample).value == loo_estimate(equality_oracle, sample).value


# ------------------------------------------------------- size estimate

@pytest.mark.parametrize(
    "observed, hits, n, want",
    [
        (7, 2, 3, 10.5),  # chain [3, 7, 2]: the maximum 7 scaled by n/(n-1)
        (4, 2, 5, 10.0),  # labels [1, 2, 3, 4, 3]: one repeat among five draws
        (3, 2, 4, 6.0),  # labels [a, b, a, c]
        (7.0, 3, 10, 7.0 * 10 / 3),  # hull volume 7 with 7 of 10 points extreme
    ],
)
def test_size_estimate_worked_examples(observed, hits, n, want):
    assert size_estimate(observed, hits, n) == pytest.approx(want, rel=1e-15)


def test_size_estimate_is_none_without_hits():
    assert size_estimate(5, 0, 4) is None
    assert size_estimate(0.0, 0, 1) is None


@pytest.mark.parametrize(
    "observed, hits, n, name",
    [
        (3, 5, 4, "hits"),
        (3, -1, 4, "hits"),
        (3, True, 4, "hits"),
        (3, 2.0, 4, "hits"),
        (3, 1, 0, "n"),
        (3, 1, -2, "n"),
        (3, 1, 4.0, "n"),
        (3, 1, True, "n"),
        (float("nan"), 1, 4, "observed"),
        (math.inf, 1, 4, "observed"),
        (-1.0, 1, 4, "observed"),
        ("3", 1, 4, "observed"),
    ],
)
def test_size_estimate_rejects_bad_arguments(observed, hits, n, name):
    with pytest.raises(ValueError, match=rf"^{name} must"):
        size_estimate(observed, hits, n)


def test_size_estimate_keeps_large_integer_closures_exact():
    # A product-order closure may pass 2**64; the check must not overflow.
    assert size_estimate(2**80, 3, 3) == float(2**80)


@given(st.sampled_from([math.nan, math.inf, -math.inf, 0, 1, 0.0, 1.0, -0.1, "0.05", None, True]))
def test_every_interval_rejects_an_alpha_outside_zero_one(alpha):
    # One rule for every interval's level: a non-number is a ValueError
    # naming alpha, not a TypeError from comparing it.
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([1.1, 1.9, 3.2, 3.9])
    fit = ols_fit(X, y)
    square = hull_summary([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]])
    calls = [
        lambda: loo_coverage(fit, alpha, method="refit"),
        lambda: loo_coverage(fit, alpha, method="downdate"),
        lambda: predict_interval(fit, [1.0], alpha),
        lambda: holdout_coverage(fit, X, y, alpha),
        lambda: volume_interval(square, 2, alpha),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\), got"):
            call()
