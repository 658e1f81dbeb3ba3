import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings, strategies as st
from scipy.spatial import ConvexHull

from cascade import convex_volume
from cascade.convex_volume import (
    HullSummary,
    _unique_rows,
    consecutive_defect_bound,
    conv_mse_bound,
    hull_summary,
    in_hull,
    volume_ci,
    volume_interval,
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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_membership_rejects_non_finite_input(bad, monkeypatch):
    # Checked before the LP is built, and the message names the argument.
    monkeypatch.setattr(scipy.optimize, "linprog", None)
    with pytest.raises(ValueError, match="query.*finite"):
        in_hull([bad, 0.5], SQUARE)
    cloud = SQUARE.copy()
    cloud[2, 1] = bad
    with pytest.raises(ValueError, match="cloud.*finite"):
        in_hull([0.5, 0.5], cloud)


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan")])
def test_tol_must_be_positive(tol):
    # SQUARE is full-rank and the collinear cloud flat; both check tol
    # before the rank test.
    collinear = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    for cloud in (SQUARE, collinear):
        with pytest.raises(ValueError, match=rf"^tol must lie in \(0, 1\), got {tol!r}$"):
            hull_summary(cloud, tol=tol)
    with pytest.raises(ValueError, match="tol must be positive"):
        in_hull([0.5, 0.5], SQUARE, tol=tol)


@pytest.mark.parametrize("tol", [1.0, 2.0, float("inf")])
def test_hull_tol_must_be_below_one(tol):
    # A relative tolerance of 1 or more would give every cloud rank 0.
    for cloud in (SQUARE, np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]])):
        with pytest.raises(ValueError, match=rf"^tol must lie in \(0, 1\), got {tol!r}$"):
            hull_summary(cloud, tol=tol)
    # in_hull's tol is an absolute LP slack, so large values stay valid.
    assert in_hull([0.5, 0.5], SQUARE, tol=tol)


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


def test_overflowing_spread_rejected():
    # Every coordinate is finite, but the spread is not.
    for cloud in (
        [[1e308, 0.0], [-1e308, 0.0], [0.0, 1.0], [0.0, -1.0]],
        [[0.0, 0.0], [1.5e308, 1.5e308], [0.0, 1.0]],
    ):
        with pytest.raises(ValueError, match="point cloud spread overflows"):
            hull_summary(cloud)


def test_tol_sets_the_flatness_threshold():
    rng = np.random.default_rng(8)
    cloud = rng.random((40, 3)) * [1.0, 1.0, 1e-7]
    full = hull_summary(cloud)
    assert full.volume == pytest.approx(ConvexHull(cloud).volume, rel=1e-9)
    assert full.volume > 0.0
    flat = hull_summary(cloud, tol=1e-6)
    assert flat.volume == 0.0
    assert flat.hull is None
    assert list(flat.extreme_flags) == list(hull_summary(cloud[:, :2]).extreme_flags)


def _oracle_flags(cloud):
    # Point i is extreme iff the LP membership test puts it outside the
    # hull of the other points.
    return [
        not in_hull(cloud[i], np.delete(cloud, i, axis=0))
        for i in range(cloud.shape[0])
    ]


@st.composite
def flat_clouds(draw):
    # Lattice points of a k-flat mapped into d-space by an integer tilt
    # and offset: flat, with duplicates and collinear boundary points.
    d, k = draw(st.sampled_from([(2, 1), (3, 1), (3, 2), (4, 3)]))
    coord = st.integers(-2, 2)
    n = draw(st.integers(1, 10))
    lattice = np.array(
        draw(st.lists(st.lists(coord, min_size=k, max_size=k), min_size=n, max_size=n)),
        dtype=float,
    )
    tilt = np.array(
        draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=k, max_size=k)),
        dtype=float,
    )
    assume(np.linalg.matrix_rank(tilt) == k)
    offset = np.array(draw(st.lists(st.integers(-50, 50), min_size=d, max_size=d)), dtype=float)
    scale = draw(st.sampled_from([1.0, 0.25, 8.0]))
    cloud = scale * (lattice @ tilt + offset)
    if draw(st.booleans()):
        # A rotation leaves the boundary points only nearly collinear.
        seed = draw(st.integers(0, 2**32 - 1))
        cloud = cloud @ np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))[0]
    return cloud


@given(flat_clouds())
@settings(max_examples=150, deadline=None)
def test_flat_cloud_flags_match_membership_oracle(cloud):
    s = hull_summary(cloud)
    assert list(s.extreme_flags) == _oracle_flags(cloud)
    assert s.extreme_count == sum(s.extreme_flags)
    assert s.volume == 0.0 and type(s.volume) is float


def _flat_examples():
    rng = np.random.default_rng(9)
    # A line in 2-D and in 3-D, a square in a tilted plane in 3-D, and
    # a 3-flat in 4-D.
    line = np.array([[0.0, 1.0], [3.0, 7.0], [1.0, 3.0], [2.0, 5.0], [1.0, 3.0]])
    square = np.vstack([[0, 0], [0, 4], [4, 0], [4, 4], rng.random((20, 2)) * 4])
    tilt = np.array([[1.0, 2.0, -1.0], [0.5, -1.0, 3.0]])
    flat3 = rng.random((15, 3)) @ rng.standard_normal((3, 4)) + 2.0
    return [line, line @ tilt, square @ tilt + 1.0, flat3]


def test_flat_clouds_solve_no_lp():
    def no_lp(*args, **kwargs):
        raise AssertionError("hull_summary reached linprog")

    clouds = _flat_examples()
    want = [_oracle_flags(c) for c in clouds]
    with mock.patch.object(scipy.optimize, "linprog", no_lp):
        for cloud, flags in zip(clouds, want, strict=True):
            s = hull_summary(cloud)
            assert list(s.extreme_flags) == flags
            assert s.volume == 0.0


def test_nearly_flat_cloud_takes_the_projected_path():
    # Qhull would accept this cloud (hull volume about 5e-11); the rank
    # test calls it flat and hulls it in its plane.
    rng = np.random.default_rng(0)
    cloud = rng.random((50, 3)) * [1.0, 1.0, 1e-10]
    unique_pts = convex_volume._unique_rows(cloud)[0]
    rank = convex_volume._affine_rank(unique_pts - unique_pts[0], convex_volume.DEFAULT_TOL)
    assert rank == 2
    s = hull_summary(cloud)
    assert s.volume == 0.0
    assert list(s.extreme_flags) == _oracle_flags(cloud)


def test_duplicates_never_extreme():
    cloud = np.vstack([SQUARE, SQUARE[0]])
    s = hull_summary(cloud)
    assert not s.extreme_flags[0]
    assert not s.extreme_flags[4]
    assert s.extreme_count == 3


def _np_unique_rows(pts):
    unique_pts, inverse, counts = np.unique(
        pts, axis=0, return_inverse=True, return_counts=True
    )
    return unique_pts, inverse.reshape(-1), counts


@st.composite
def clouds_with_repeats(draw):
    # Up to six distinct rows drawn with repetition; signed zeros must
    # coincide, as they do in np.unique.
    d = draw(st.integers(1, 3))
    coord = st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0])
    rows = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=14))
    return np.array([rows[i] for i in picks]).reshape(len(picks), d)


@given(clouds_with_repeats())
@settings(max_examples=150, deadline=None)
def test_lexsort_dedupe_matches_np_unique(cloud):
    for got, want in zip(_unique_rows(cloud), _np_unique_rows(cloud), strict=True):
        assert np.array_equal(got, want)
    s = hull_summary(cloud)
    with mock.patch.object(convex_volume, "_unique_rows", _np_unique_rows):
        ref = hull_summary(cloud)
    assert np.array_equal(s.extreme_flags, ref.extreme_flags)
    assert s.extreme_count == ref.extreme_count
    assert s.volume == ref.volume


def test_single_point_cloud():
    s = hull_summary(np.array([[2.5, 1.5]]))
    assert s.extreme_count == 1
    assert s.volume == 0.0


def test_one_dimensional_volume_is_range_length():
    s = hull_summary(np.array([[1.0], [4.0], [2.0], [4.0]]))
    assert s.volume == pytest.approx(3.0)
    assert s.extreme_count == 1  # the duplicated max is not extreme


def test_scaled_volume_square_example():
    assert volume_interval(_counts_summary(1.0, 4, 5), 2, 0.05).estimate == pytest.approx(5.0)


def test_scaled_volume_large_instance():
    # 15 of 100 points extreme around area 7.266 inflates to about 8.55.
    estimate = volume_interval(_counts_summary(7.266, 15, 100), 2, 0.05).estimate
    assert estimate == pytest.approx(8.548235294117647, abs=1e-3)


def test_scaled_volume_all_extreme_rejected():
    # Every corner of the square is extreme.
    with pytest.raises(ValueError, match="all points extreme"):
        volume_ci(SQUARE, 0.05)


def test_estimate_volume_matches_components():
    cloud = np.vstack([SQUARE, [0.5, 0.5]])
    assert volume_ci(cloud, 0.05).estimate == pytest.approx(5.0)


def _box_corners(d):
    return np.array(list(itertools.product([0.0, 1.0], repeat=d)))


def test_hull_summary_keeps_qhull_hull_without_vertex_copies():
    # 200 normal points in 7-D have about 29,000 facets.  A facets x d x d
    # copy of their vertices would alone take about 11 MiB.
    cloud = np.random.default_rng(0).standard_normal((200, 7))
    tracemalloc.start()
    try:
        s = hull_summary(cloud)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 6 * 2**20, kept
    assert s.hull.simplices.shape[0] > 20_000
    assert s.hull._qhull is None  # Qhull's own memory is already freed
    assert s.hull.volume == s.volume
    assert s.hull.vertices.size == s.extreme_count


def test_volume_ci_estimates_a_4d_cloud():
    # The unit 4-cube's 16 corners plus 500 points strictly inside.
    rng = np.random.default_rng(0)
    cloud = np.vstack([_box_corners(4), 0.05 + 0.9 * rng.random((500, 4))])
    ci = volume_ci(cloud, 0.05)
    assert ci.estimate == pytest.approx(1.0 / (1.0 - 16 / 516), rel=1e-12)
    assert ci.ci_low == ci.estimate < ci.ci_high


@st.composite
def moved_boxes(draw):
    # A box with random extents, its 2**d corners and points strictly
    # inside it, rotated, translated and scaled at random.
    d = draw(st.integers(2, 5))
    extents = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=d, max_size=d)))
    n_inside = draw(st.integers(0, 30))
    scale = draw(st.floats(0.01, 100.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    box = np.vstack([_box_corners(d), 0.05 + 0.9 * rng.random((n_inside, d))]) * extents
    rotation = np.linalg.qr(rng.standard_normal((d, d)))[0]
    cloud = scale * (box @ rotation + rng.uniform(-10.0, 10.0, d))
    return cloud, float(np.prod(scale * extents))


@given(moved_boxes())
@settings(max_examples=80, deadline=None)
def test_hull_volume_of_a_moved_box_in_any_dimension(box):
    cloud, volume = box
    s = hull_summary(cloud)
    assert s.volume == pytest.approx(volume, rel=1e-10)
    assert s.extreme_count == 2 ** cloud.shape[1]


def _counts_summary(volume, extreme_count, n):
    flags = np.zeros(n, dtype=bool)
    flags[:extreme_count] = True
    return HullSummary(extreme_count=extreme_count, extreme_flags=flags, volume=volume)


def test_interval_upper_infinite_when_slack_too_small():
    # n - V below sqrt((8d+9) n / alpha) gives an unbounded interval.
    ci = volume_interval(_counts_summary(1.0, 4, 5), 2, 0.05)
    assert ci.rel_halfwidth >= 1.0
    assert ci.ci_high == math.inf


def test_interval_upper_plugin_value():
    n, v_count, d, alpha = 10000, 100, 2, 0.05
    eps = math.sqrt((8 * d + 9) * n) / (math.sqrt(alpha) * (n - v_count))
    ci = volume_interval(_counts_summary(2.0 * (1 - v_count / n), v_count, n), d, alpha)
    assert ci.estimate == pytest.approx(2.0)
    assert ci.rel_halfwidth == eps
    assert ci.ci_high == pytest.approx(2.0 / (1 - eps))


def test_interval_tightens_as_alpha_grows():
    n = 10**7
    ci = volume_interval(_counts_summary(1.0 - 10 / n, 10, n), 2, 0.999999)
    assert 1.0 < ci.ci_high < 1.01


def test_volume_interval_rejects_what_it_cannot_bound():
    with pytest.raises(ValueError, match="alpha"):
        volume_interval(_counts_summary(1.0, 1, 5), 2, 1.0)
    with pytest.raises(ValueError, match="all points extreme"):
        volume_interval(_counts_summary(1.0, 5, 5), 2, 0.05)
    # No dimension is out of reach: a 4-D summary has an estimate.
    assert volume_interval(_counts_summary(1.0, 1, 5), 4, 0.05).estimate == 1.25


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
    for bad_n in (2, float("nan"), 5.5, True):
        with pytest.raises(ValueError, match="requires n"):
            conv_mse_bound(bad_n, 2)
        with pytest.raises(ValueError, match="requires n"):
            consecutive_defect_bound(bad_n, 2)


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
        assert list(hull_summary(cloud).extreme_flags) == _oracle_flags(cloud)


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
    est = volume_ci(cloud, 0.05).estimate
    assert est >= s.volume
    assert est == pytest.approx(s.volume, rel=0.02)
