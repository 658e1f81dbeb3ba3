import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cascade.coincidence_test import (
    SequenceRecord,
    ad_two_sample,
    ad_two_sample_normalized,
    coincidence_mse_bound,
    coverage_fraction,
    kimura2p,
    kimura_matrix,
    nn_loo_distances,
    nn_test_pvalue,
)
from cascade.loo_core import loo_estimate


def line_matrix(positions):
    x = np.asarray(positions, dtype=float)
    return np.abs(x[:, None] - x[None, :])


def test_nn_distances_on_a_line():
    assert nn_loo_distances(line_matrix([0, 1, 3])).tolist() == [1.0, 1.0, 2.0]


def test_identical_objects_have_zero_nn():
    assert nn_loo_distances(line_matrix([2, 2])).tolist() == [0.0, 0.0]


def test_equidistant_matrix():
    d = np.full((4, 4), 3.0)
    np.fill_diagonal(d, 0.0)
    assert nn_loo_distances(d).tolist() == [3.0] * 4


def test_nn_needs_two_objects():
    with pytest.raises(ValueError, match="at least two"):
        nn_loo_distances(np.zeros((1, 1)))


def test_matrix_validation():
    bad = line_matrix([0, 1, 3])
    bad[0, 1] = 5.0
    with pytest.raises(ValueError, match="symmetric"):
        nn_loo_distances(bad)
    with pytest.raises(ValueError, match="zero diagonal"):
        nn_loo_distances(np.ones((2, 2)))
    with pytest.raises(ValueError, match="nonnegative"):
        nn_loo_distances(np.array([[0.0, -1.0], [-1.0, 0.0]]))


def test_coverage_fraction_examples():
    d = line_matrix([0, 1, 3])
    assert coverage_fraction(d, 1.0).value == pytest.approx(2 / 3)
    assert coverage_fraction(d, 0.0).value == 0.0
    assert coverage_fraction(d, 2.0).value == 1.0
    assert coverage_fraction(d, 0.999).value == 0.0
    with pytest.raises(ValueError, match="nonnegative"):
        coverage_fraction(d, -0.1)
    with pytest.raises(ValueError, match="NaN"):
        coverage_fraction(d, math.nan)


def test_coverage_matches_generic_loo():
    rng = np.random.default_rng(3)
    pts = rng.random((15, 2))
    delta = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((delta**2).sum(-1))
    np.fill_diagonal(d, 0.0)
    r = 0.25

    def ball_oracle(x, rest):
        return any(np.linalg.norm(x - y) <= r for y in rest)

    assert coverage_fraction(d, r).value == loo_estimate(ball_oracle, list(pts)).value


def test_bound_values():
    assert coincidence_mse_bound(9) == pytest.approx(1.0)
    assert coincidence_mse_bound(900) == pytest.approx(0.01)
    assert coincidence_mse_bound(3) == pytest.approx(3.0)
    for bad_n in (2, float("nan"), 5.5, True):
        with pytest.raises(ValueError, match="requires n"):
            coincidence_mse_bound(bad_n)


def test_pvalue_examples():
    ref = np.array([1.0, 1.0, 2.0])
    assert nn_test_pvalue(ref, 0.5) == pytest.approx(0.25)
    assert nn_test_pvalue(ref, 10.0) == pytest.approx(1.0)
    assert nn_test_pvalue(ref, 1.0) == pytest.approx(0.75)


def test_pvalue_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        nn_test_pvalue([0.1, 0.2, 0.3], math.nan)
    with pytest.raises(ValueError, match="NaN"):
        nn_test_pvalue([0.1, math.nan, 0.3], 0.2)


# -------------------------------------------------------------- kimura

def test_kimura_identical_is_zero():
    a = SequenceRecord("a", "ACGTACGTAC")
    assert kimura2p(a, SequenceRecord("b", "ACGTACGTAC")) == 0.0


def test_kimura_worked_example():
    # Length 20 with two transitions and one transversion.
    a = SequenceRecord("a", "A" * 20)
    b = SequenceRecord("b", "GG" + "C" + "A" * 17)
    expected = -0.5 * math.log((1 - 2 * 0.1 - 0.05) * math.sqrt(1 - 2 * 0.05))
    assert kimura2p(a, b) == pytest.approx(expected, rel=1e-12)


def test_kimura_saturation_rejected():
    # 9 of 20 transitions and 2 of 20 transversions: 1-2P-Q hits zero.
    a = SequenceRecord("a", "A" * 20)
    b = SequenceRecord("b", "G" * 9 + "C" * 2 + "A" * 9)
    with pytest.raises(ValueError, match="saturated"):
        kimura2p(a, b)


def test_kimura_length_mismatch():
    with pytest.raises(ValueError, match="lengths differ"):
        kimura2p(SequenceRecord("a", "ACGT"), SequenceRecord("b", "ACG"))


def test_ambiguous_bases_rejected_unless_masked():
    with pytest.raises(ValueError, match="non-ACGT"):
        SequenceRecord("a", "ACGN")
    rec = SequenceRecord("a", "ACGN", mask_ambiguous=True)
    assert rec.bases == "ACGN"


def test_masked_positions_excluded_from_denominator():
    # One masked site; one transition among the three comparable sites.
    a = SequenceRecord("a", "ACGN", mask_ambiguous=True)
    b = SequenceRecord("b", "GCGT", mask_ambiguous=True)
    p, q = 1 / 3, 0.0
    expected = -0.5 * math.log((1 - 2 * p - q) * math.sqrt(1 - 2 * q))
    assert kimura2p(a, b) == pytest.approx(expected, rel=1e-12)


def test_all_positions_masked_rejected():
    a = SequenceRecord("a", "NNNN", mask_ambiguous=True)
    b = SequenceRecord("b", "ACGT", mask_ambiguous=True)
    with pytest.raises(ValueError, match="no comparable positions"):
        kimura2p(a, b)


def test_matrix_matches_pairwise_calls():
    # Lightly mutated copies of a shared ancestor, so every pairwise
    # distance stays below saturation.
    rng = np.random.default_rng(9)
    letters = np.array(list("ACGT"))
    ancestor = rng.choice(letters, size=60)
    records = []
    for i in range(6):
        seq = ancestor.copy()
        for pos in rng.choice(60, size=5, replace=False):
            seq[pos] = rng.choice(letters)
        records.append(SequenceRecord(f"s{i}", "".join(seq)))
    m = kimura_matrix(records)
    assert m.shape == (6, 6)
    for i in range(6):
        for j in range(6):
            if i != j:
                assert m[i, j] == pytest.approx(kimura2p(records[i], records[j]))
            else:
                assert m[i, j] == 0.0


def test_matrix_error_names_pair():
    a = SequenceRecord("left", "A" * 20)
    b = SequenceRecord("right", "G" * 9 + "C" * 2 + "A" * 9)
    with pytest.raises(ValueError, match="left.*right|right.*left"):
        kimura_matrix([a, b])


# --------------------------------------------- two-sample rank statistic

def brute_rank_statistic(x, y):
    """Direct-summation midrank two-sample statistic.

    Literal transcription of the tied-data k-sample formula (k=2) from
    Scholz & Stephens (1987), with explicit loops over the distinct
    pooled values.
    """
    pooled = sorted(list(x) + list(y))
    n_tot = len(pooled)
    distinct = sorted(set(pooled))
    counts = [pooled.count(z) for z in distinct]
    total = 0.0
    for sample in (list(x), list(y)):
        ni = len(sample)
        inner = 0.0
        cum = 0.0
        for z, l in zip(distinct, counts):
            b_mid = cum + l / 2.0
            m_mid = sum(1 for v in sample if v < z) + sum(
                0.5 for v in sample if v == z
            )
            denom = b_mid * (n_tot - b_mid) - n_tot * l / 4.0
            if denom > 0:
                inner += (l / n_tot) * (n_tot * m_mid - ni * b_mid) ** 2 / denom
            cum += l
        total += inner / ni
    return (n_tot - 1) / n_tot * total


@given(
    st.lists(st.integers(0, 6), min_size=2, max_size=15),
    st.lists(st.integers(0, 6), min_size=2, max_size=15),
)
@settings(max_examples=120)
def test_statistic_matches_direct_summation(xi, yi):
    x, y = np.asarray(xi, float), np.asarray(yi, float)
    if np.unique(np.concatenate([x, y])).size < 2:
        return
    assert ad_two_sample(x, y) == pytest.approx(brute_rank_statistic(x, y), rel=1e-10)


def test_constant_pooled_sample_rejected():
    with pytest.raises(ValueError, match="constant"):
        ad_two_sample([1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="nonempty"):
        ad_two_sample([], [1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_statistics_reject_non_finite_samples(bad):
    clean = [0.2, 0.5, 0.7, 0.9]
    for x, y in (([0.1, bad, 0.3], clean), (clean, [0.1, bad, 0.3])):
        for stat in (ad_two_sample, ad_two_sample_normalized):
            with pytest.raises(ValueError, match="finite"):
                stat(x, y)


def test_shift_increases_statistic():
    rng = np.random.default_rng(17)
    x = rng.normal(size=30)
    y = x.copy()
    near = ad_two_sample(x, y)
    far = ad_two_sample(x, y + 10.0)
    assert far > near


def test_null_distribution_matches_published_quantiles():
    # Split a common continuous sample 2000 times; the normalized
    # statistic should sit at the published two-sample critical values.
    rng = np.random.default_rng(77)
    B, n, m = 2000, 40, 40
    stats = np.empty(B)
    for b in range(B):
        pooled = rng.normal(size=n + m)
        stats[b] = ad_two_sample_normalized(pooled[:n], pooled[n:])
    below_90 = float((stats <= 1.225).mean())
    below_95 = float((stats <= 1.960).mean())
    assert abs(below_90 - 0.90) <= 0.05
    assert abs(below_95 - 0.95) <= 0.05
