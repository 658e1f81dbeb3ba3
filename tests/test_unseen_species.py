import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cascade.loo_core import loo_estimate
from cascade.unseen_species import (
    good_turing,
    missing_mass,
    unseen_bound,
    unseen_bound_finite_N,
    unseen_bound_general,
)


def test_singleton_fraction_examples():
    assert good_turing(["a", "b", "a", "c"]).value == 0.5
    assert good_turing(["a", "a", "a"]).value == 0.0
    assert good_turing(["a", "b", "c", "d", "e"]).value == 1.0


def test_empty_sample_rejected():
    with pytest.raises(ValueError, match="empty sample"):
        good_turing([])


def test_missing_mass_uniform_example():
    assert missing_mass([0.25, 0.25, 0.25, 0.25], [1, 2, 3]) == pytest.approx(0.25)


def test_missing_mass_full_coverage():
    assert missing_mass([0.25, 0.25, 0.25, 0.25], [1, 2, 3, 4, 2]) == 0.0


def test_missing_mass_skewed_example():
    assert missing_mass([0.5, 0.3, 0.2], [1, 1]) == pytest.approx(0.5)


def test_missing_mass_label_range():
    with pytest.raises(ValueError, match="out of range"):
        missing_mass([0.5, 0.5], [0])
    with pytest.raises(ValueError, match="out of range"):
        missing_mass([0.5, 0.5], [3])
    with pytest.raises(ValueError, match="label 3 out of range"):
        missing_mass([0.5, 0.5], np.array([1, 3], dtype=np.uint8))


def test_missing_mass_rejects_non_integer_labels():
    # Labels are indices: none is truncated or parsed into one.
    for bad, dtype in (([1.9], "float64"), (["2"], "str"), ([True], "bool")):
        with pytest.raises(ValueError, match=f"labels must be integers, not {dtype}"):
            missing_mass([0.5, 0.5], bad)


def test_bad_distribution_rejected():
    with pytest.raises(ValueError, match="sum to 1"):
        missing_mass([0.5, 0.4], [1])
    with pytest.raises(ValueError, match="nonnegative"):
        missing_mass([1.5, -0.5], [1])


def test_bound_pair_examples():
    assert unseen_bound(3)[1] == pytest.approx(5.0)
    assert unseen_bound(102)[1] == pytest.approx(0.05)
    e = math.e
    expected = 4 / (9 * e) + 36 / (80 * e) + 0.2
    assert unseen_bound(10)[0] == pytest.approx(expected, rel=1e-12)


def test_three_term_below_cap_everywhere():
    for n in range(3, 10001):
        three, cap = unseen_bound(n)
        assert three <= cap


def test_bound_requires_n_at_least_3():
    # A NaN, fractional or bool n is rejected too, not computed with.
    for bad_n in (2, float("nan"), 5.5, True):
        with pytest.raises(ValueError, match="requires n"):
            unseen_bound(bad_n)
        with pytest.raises(ValueError, match="requires n"):
            unseen_bound_finite_N(bad_n, 10)
        with pytest.raises(ValueError, match="requires n"):
            unseen_bound_general([0.5, 0.5], bad_n)


def test_finite_population_bound_examples():
    assert unseen_bound_finite_N(3, 1) == pytest.approx((8 + 2 / 3) * math.exp(-1))
    # Large-N limit of the formula is 2/n.
    vals = [unseen_bound_finite_N(10, N) for N in (10, 100, 1000, 100000)]
    assert vals[-1] == pytest.approx(0.2, rel=1e-3)
    tail_gaps = [abs(v - 0.2) for v in vals]
    assert tail_gaps == sorted(tail_gaps, reverse=True)


def test_finite_population_bound_regime_check():
    # n at (or past) N log N - a N keeps the bound at the e^a / N^2 scale.
    N, a = 100, 1
    n = math.ceil(N * math.log(N) - a * N)
    value = unseen_bound_finite_N(n, N)
    cap = (8 + 2 * N / n) * math.exp(a + 2 / N) / N**2
    assert value <= cap


def test_general_bound_certain_species():
    assert unseen_bound_general([1.0], 5) == 0.0


def test_general_bound_two_species_plugin():
    expected = (
        4 * 2 * 0.25 * 0.25
        + (8 / 3) * 2 * 0.25 * 0.5
        + (2 / 3) * 2 * 0.5 * 0.25
    )
    assert unseen_bound_general([0.5, 0.5], 3) == pytest.approx(expected, rel=1e-12)


@given(
    st.lists(st.floats(0.01, 10.0), min_size=1, max_size=30),
    st.integers(3, 200),
)
@settings(max_examples=150)
def test_general_bound_below_distribution_free_form(weights, n):
    probs = np.asarray(weights) / sum(weights)
    assert unseen_bound_general(probs, n) <= unseen_bound(n)[0] + 1e-12


def test_kernel_maximization_fact():
    # max over [0,1] of x(1-x)^m stays below 1/(e m).
    xs = np.linspace(0.0, 1.0, 4001)
    for m in range(1, 101):
        assert (xs * (1 - xs) ** m).max() <= 1 / (math.e * m) + 1e-12


def label_absent(x, rest):
    return x not in rest


@given(st.lists(st.integers(1, 8), min_size=1, max_size=25))
def test_matches_generic_leave_one_out(sample):
    assert good_turing(sample).value == loo_estimate(label_absent, sample).value


def test_monte_carlo_bound_uniform_case():
    # Uniform over 100 labels, n=50: squared error stays below both the
    # distribution-free cap and the finite-population bound.
    rng = np.random.default_rng(20240817)
    N, n, reps = 100, 50, 2000
    probs = np.full(N, 1.0 / N)
    sq = np.empty(reps)
    for i in range(reps):
        labels = rng.integers(1, N + 1, size=n)
        err = good_turing(labels.tolist()).value - missing_mass(probs, labels)
        sq[i] = err * err
    mse = sq.mean()
    assert mse <= 5 / (n - 2)
    assert mse <= unseen_bound_finite_N(n, N)
