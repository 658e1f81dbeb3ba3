import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import ConvexHull

from cascade.convex_volume import (
    consecutive_defect_bound,
    conv_mse_bound,
    estimate_volume,
    hull_summary,
    in_hull,
    scaled_volume,
    volume_ci,
    volume_interval_upper,
)
from helpers_geometry import brute_extreme_flags_2d

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def test_membership_basics():
    assert in_hull([0.5, 0.5], SQUARE)
    assert not in_hull([2.0, 2.0], SQUARE)
    assert in_hull(SQUARE[0], SQUARE)


def test_membership_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        in_hull([0.5, 0.5, 0.5], SQUARE)


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan")])
def test_tol_must_be_positive(tol):
    # SQUARE runs Qhull, the collinear cloud the LP route.
    collinear = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    for cloud in (SQUARE, collinear):
        with pytest.raises(ValueError, match="tol must be positive"):
            hull_summary(cloud, tol=tol)
    with pytest.raises(ValueError, match="tol must be positive"):
        in_hull([0.5, 0.5], SQUARE, tol=tol)


def test_square_plus_center():
    cloud = np.vstack([SQUARE, [0.5, 0.5]])
    s = hull_summary(cloud)
    assert s.extreme_count == 4
    assert s.volume == pytest.approx(1.0)
    assert list(s.extreme_flags) == [True, True, True, True, False]


def test_collinear_cloud_degenerates():
    s = hull_summary(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
    assert s.extreme_count == 2
    assert s.volume == 0.0
    assert list(s.extreme_flags) == [True, False, True]


def test_duplicates_never_extreme():
    cloud = np.vstack([SQUARE, SQUARE[0]])
    s = hull_summary(cloud)
    assert not s.extreme_flags[0]
    assert not s.extreme_flags[4]
    assert s.extreme_count == 3


def test_single_point_cloud():
    s = hull_summary(np.array([[2.5, 1.5]]))
    assert s.extreme_count == 1
    assert s.volume == 0.0


def test_one_dimensional_volume_is_range_length():
    s = hull_summary(np.array([[1.0], [4.0], [2.0], [4.0]]))
    assert s.volume == pytest.approx(3.0)
    assert s.extreme_count == 1  # the duplicated max is not extreme


def test_scaled_volume_square_example():
    assert scaled_volume(1.0, 4, 5) == pytest.approx(5.0)


def test_scaled_volume_large_instance():
    # 15 of 100 points extreme around area 7.266 inflates to about 8.55.
    assert scaled_volume(7.266, 15, 100) == pytest.approx(8.548235294117647, abs=1e-3)


def test_scaled_volume_all_extreme_rejected():
    with pytest.raises(ValueError, match="all points extreme"):
        scaled_volume(1.0, 5, 5)


def test_estimate_volume_matches_components():
    cloud = np.vstack([SQUARE, [0.5, 0.5]])
    assert estimate_volume(cloud) == pytest.approx(5.0)


def test_estimate_volume_rejects_high_dimension():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="above d=3"):
        estimate_volume(rng.random((10, 4)))


def test_interval_upper_infinite_when_slack_too_small():
    # n - V below sqrt((8d+9) n / alpha) gives an unbounded interval.
    assert volume_interval_upper(1.0, 4, 5, 2, 0.05) == math.inf


def test_interval_upper_plugin_value():
    n, v_count, d, alpha = 10000, 100, 2, 0.05
    eps = math.sqrt((8 * d + 9) * n) / (math.sqrt(alpha) * (n - v_count))
    assert volume_interval_upper(2.0, v_count, n, d, alpha) == pytest.approx(2.0 / (1 - eps))


def test_interval_tightens_as_alpha_grows():
    hi = volume_interval_upper(1.0, 10, 10**7, 2, 0.999999)
    assert 1.0 < hi < 1.01


def test_volume_ci_square_case():
    cloud = np.vstack([SQUARE, [0.5, 0.5]])
    ci = volume_ci(cloud, 0.05)
    assert ci.ci_low == ci.estimate == pytest.approx(5.0)
    assert ci.ci_high == math.inf
    assert ci.alpha == 0.05


def test_bound_values():
    assert conv_mse_bound(25, 2) == pytest.approx(1.0)
    assert conv_mse_bound(100, 2) == pytest.approx(0.25)
    assert conv_mse_bound(330, 3) == pytest.approx(0.1)
    assert consecutive_defect_bound(3, 2) == pytest.approx(1.0)
    assert consecutive_defect_bound(300, 2) == pytest.approx(0.01)
    assert consecutive_defect_bound(40, 3) == pytest.approx(0.1)
    with pytest.raises(ValueError, match="requires n"):
        conv_mse_bound(2, 2)
    with pytest.raises(ValueError, match="requires n"):
        consecutive_defect_bound(2, 2)


@given(
    st.lists(
        st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=120, deadline=None)
def test_extreme_flags_match_exact_planar_oracle(int_points):
    cloud = np.asarray(int_points, dtype=float)
    got = list(hull_summary(cloud).extreme_flags)
    assert got == brute_extreme_flags_2d(int_points)


def test_flags_match_pointwise_membership_route():
    # Second route: re-derive each flag from the public membership test.
    rng = np.random.default_rng(4)
    for d in (2, 3):
        cloud = rng.standard_normal((14, d))
        flags = hull_summary(cloud).extreme_flags
        for i in range(cloud.shape[0]):
            rest = np.delete(cloud, i, axis=0)
            assert flags[i] == (not in_hull(cloud[i], rest))


def test_volume_matches_library_hull():
    rng = np.random.default_rng(5)
    for d in (2, 3):
        for n in (6, 12, 40):
            cloud = rng.standard_normal((n, d))
            ours = hull_summary(cloud).volume
            assert ours == pytest.approx(ConvexHull(cloud).volume, rel=1e-9)


def test_affine_invariance():
    rng = np.random.default_rng(6)
    for d in (2, 3):
        cloud = rng.standard_normal((25, d))
        while True:
            A = rng.standard_normal((d, d))
            if abs(np.linalg.det(A)) > 0.3:
                break
        shift = rng.standard_normal(d)
        mapped = cloud @ A.T + shift
        s0, s1 = hull_summary(cloud), hull_summary(mapped)
        assert s0.extreme_count == s1.extreme_count
        assert list(s0.extreme_flags) == list(s1.extreme_flags)
        assert s1.volume == pytest.approx(abs(np.linalg.det(A)) * s0.volume, rel=1e-8)


def test_mean_extreme_fraction_equals_mean_defect_shift():
    # E[V_n]/n equals E[1 - area_{n-1}] for uniform draws on the unit
    # square; checked as a paired Monte Carlo difference within 3 se.
    rng = np.random.default_rng(11)
    for n in (20, 50):
        reps = 1500
        diffs = np.empty(reps)
        for i in range(reps):
            cloud = rng.random((n, 2))
            v = hull_summary(cloud).extreme_count / n
            defect_prev = 1.0 - hull_summary(cloud[:-1]).volume
            diffs[i] = v - defect_prev
        se = diffs.std(ddof=1) / math.sqrt(reps)
        assert abs(diffs.mean()) <= 3 * se


def test_estimate_approaches_hull_volume_for_dense_clouds():
    rng = np.random.default_rng(12)
    cloud = rng.random((4000, 2))
    s = hull_summary(cloud)
    est = estimate_volume(cloud)
    assert est >= s.volume
    assert est == pytest.approx(s.volume, rel=0.02)
