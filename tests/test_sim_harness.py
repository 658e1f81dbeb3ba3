import json
import math

import numpy as np
import pytest

from cascade.convex_volume import hull_summary
from cascade.poset_estimators import TreeAncestor
from cascade.sim_harness import (
    BoundReportRow,
    SCENARIO_NAMES,
    ScenarioConfig,
    child_seed,
    default_config,
    emit_plot_data,
    emit_report,
    parse_report_csv,
    report_text,
    rng_for,
    run_scenario,
    run_suite,
    strip_comment_lines,
)
from cascade.sim_harness.samplers import (
    equicorrelation_cholesky,
    sample_distribution,
    zipf_probabilities,
)
from cascade.sim_harness.scenarios import (
    _FACET_TOL,
    _inside_probes,
    _probe_defects,
    _probe_set,
    random_forest,
)
from cascade.sim_harness.seeding import fnv1a64, mix64


# ----------------------------------------------------------------- seeding

def test_fnv_known_values():
    # Published FNV-1a 64-bit test vectors.
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C


def test_child_seeds_are_deterministic_and_distinct():
    base = child_seed(42, "scen", 10, 3)
    assert base == child_seed(42, "scen", 10, 3)
    others = {
        child_seed(42, "scen", 10, 4),
        child_seed(42, "scen", 11, 3),
        child_seed(42, "other", 10, 3),
        child_seed(43, "scen", 10, 3),
    }
    assert base not in others
    assert len(others) == 4


def test_mix_is_a_bijection_probe():
    seen = {mix64(x) for x in range(1000)}
    assert len(seen) == 1000


def test_rng_for_reproduces_streams():
    a = rng_for(7, "tag", 5, 0).random(4)
    b = rng_for(7, "tag", 5, 0).random(4)
    assert a.tolist() == b.tolist()
    c = rng_for(7, "tag", 5, 1).random(4)
    assert a.tolist() != c.tolist()


# ---------------------------------------------------------------- samplers

def test_uniform_box_respects_bounds():
    rng = np.random.default_rng(0)
    pts = sample_distribution(
        {"kind": "uniform_box", "bounds": ((0.0, 4.0), (-1.0, 1.0))}, 500, rng
    )
    assert pts.shape == (500, 2)
    assert pts[:, 0].min() >= 0.0 and pts[:, 0].max() <= 4.0
    assert pts[:, 1].min() >= -1.0 and pts[:, 1].max() <= 1.0
    # Crude uniformity: each quadrant of the box gets its share.
    frac = ((pts[:, 0] < 2.0) & (pts[:, 1] < 0.0)).mean()
    assert abs(frac - 0.25) < 0.08


def test_uniform_ball_radii():
    rng = np.random.default_rng(1)
    pts = sample_distribution({"kind": "uniform_ball", "d": 2}, 4000, rng)
    r = np.linalg.norm(pts, axis=1)
    assert r.max() <= 1.0
    # E[R^2] = 1/2 for the uniform disk.
    assert abs((r**2).mean() - 0.5) < 0.03


def test_sphere_points_have_unit_norm():
    rng = np.random.default_rng(2)
    pts = sample_distribution({"kind": "sphere", "dim": 5}, 200, rng)
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-12


def test_zipf_probabilities_and_sampling():
    p = zipf_probabilities(100, 1.0)
    assert p.sum() == pytest.approx(1.0)
    assert p[0] / p[1] == pytest.approx(2.0)
    rng = np.random.default_rng(3)
    draws = sample_distribution({"kind": "zipf", "N": 100, "s": 1.0}, 100000, rng)
    assert draws.min() >= 1 and draws.max() <= 100
    freq1 = (draws == 1).mean()
    se = math.sqrt(p[0] * (1 - p[0]) / 100000)
    assert abs(freq1 - p[0]) < 4 * se


def test_gauss_correlation():
    rng = np.random.default_rng(4)
    z = sample_distribution({"kind": "gauss", "d": 3, "corr": 0.8}, 20000, rng)
    corr = np.corrcoef(z.T)
    off = corr[np.triu_indices(3, k=1)]
    assert np.abs(off - 0.8).max() < 0.03


def test_cholesky_factor_reconstructs_matrix():
    L = equicorrelation_cholesky(4, 0.6)
    sigma = np.full((4, 4), 0.6)
    np.fill_diagonal(sigma, 1.0)
    assert L @ L.T == pytest.approx(sigma)
    with pytest.raises(ValueError, match="positive-definite"):
        equicorrelation_cholesky(3, -0.6)


def test_uniform_labels_and_finite():
    rng = np.random.default_rng(5)
    labels = sample_distribution({"kind": "uniform_labels", "N": 7}, 300, rng)
    assert labels.min() >= 1 and labels.max() <= 7
    pop = np.array([[0.0, 0.0], [1.0, 1.0]])
    rows = sample_distribution({"kind": "uniform_finite", "population": pop}, 50, rng)
    assert all(tuple(r) in {(0.0, 0.0), (1.0, 1.0)} for r in rows)
    with pytest.raises(ValueError, match="empty population"):
        sample_distribution({"kind": "uniform_finite", "population": np.empty((0, 2))}, 3, rng)


def test_dna_sampler_codes_and_frequencies():
    rng = np.random.default_rng(6)
    codes = sample_distribution(
        {"kind": "dna_iid", "length": 2000, "freqs": (0.3, 0.2, 0.2, 0.3)}, 10, rng
    )
    assert codes.dtype == np.uint8
    assert codes.shape == (10, 2000)
    assert codes.max() <= 3
    freq_a = (codes == 0).mean()
    assert abs(freq_a - 0.3) < 0.02
    with pytest.raises(ValueError, match="freqs"):
        sample_distribution({"kind": "dna_iid", "length": 5, "freqs": (0.9, 0.2, 0.2, 0.3)}, 2, rng)


def test_sphere_mixture_origin_frequency():
    rng = np.random.default_rng(7)
    pts = sample_distribution(
        {"kind": "sphere_mixture", "dim": 3, "origin_prob": 0.3}, 5000, rng
    )
    norms = np.linalg.norm(pts, axis=1)
    at_origin = (norms == 0.0).mean()
    assert abs(at_origin - 0.3) < 0.03
    assert np.abs(norms[norms > 0] - 1.0).max() < 1e-12


def test_sampler_validation():
    rng = np.random.default_rng(8)
    with pytest.raises(ValueError, match="unknown sampler kind"):
        sample_distribution({"kind": "moebius"}, 5, rng)
    with pytest.raises(ValueError, match="n must be positive"):
        sample_distribution({"kind": "sphere", "dim": 2}, 0, rng)
    with pytest.raises(ValueError, match="positive extents"):
        sample_distribution({"kind": "uniform_box", "bounds": ((1.0, 1.0),)}, 5, rng)


# ------------------------------------------------------------------ report

def _sample_rows():
    return [
        BoundReportRow(
            scenario="alpha",
            n=10,
            replications=200,
            empirical_mse=0.0123456789012345,
            std_err=0.001,
            bound=0.5,
            passed=True,
            extras={"d": 2, "note": "x", "seq": [1, 2.5], "gap": None},
        ),
        BoundReportRow(
            scenario="beta",
            n=40,
            replications=100,
            empirical_mse=0.9,
            std_err=0.0,
            bound=0.25,
            passed=False,
            extras={},
        ),
    ]


def test_csv_round_trip_is_exact():
    rows = _sample_rows()
    text = report_text(rows, fmt="csv")
    assert text.startswith("# generated ")
    back = parse_report_csv(text, from_text=True)
    assert [r.as_record() for r in back] == [r.as_record() for r in rows]


def test_strip_comment_lines():
    text = report_text(_sample_rows(), fmt="csv")
    stripped = strip_comment_lines(text)
    assert stripped == report_text(_sample_rows(), fmt="csv", timestamp=False)
    assert stripped.splitlines()[0].startswith("scenario,")


def test_json_report_shape():
    payload = json.loads(report_text(_sample_rows(), fmt="json"))
    assert "generated" in payload
    assert [r["scenario"] for r in payload["rows"]] == ["alpha", "beta"]
    assert payload["rows"][0]["extras"]["seq"] == [1, 2.5]


def test_report_validation():
    with pytest.raises(ValueError, match="no rows"):
        report_text([], fmt="csv")
    with pytest.raises(ValueError, match="unknown report format"):
        report_text(_sample_rows(), fmt="yaml")
    with pytest.raises(ValueError, match="inconsistent"):
        BoundReportRow("x", 5, 10, 0.9, 0.0, 0.25, True)
    with pytest.raises(ValueError, match="nonnegative"):
        BoundReportRow("x", 5, 10, 0.1, -0.1, 0.25, True)
    with pytest.raises(ValueError, match="NaN"):
        BoundReportRow("x", 5, 10, 0.1, 0.0, 0.25, True, extras={"bad": float("nan")})


def test_numpy_scalars_become_builtin_in_extras():
    row = BoundReportRow(
        "x", 5, 10, 0.1, 0.0, 0.25, True,
        extras={"a": np.float64(1.5), "b": np.int64(3), "c": np.bool_(True)},
    )
    assert type(row.extras["a"]) is float
    assert type(row.extras["b"]) is int
    assert row.extras["c"] in (True,)
    text = report_text([row], fmt="csv", timestamp=False)
    back = parse_report_csv(text, from_text=True)[0]
    assert back.extras == {"a": 1.5, "b": 3, "c": True}


def test_header_mismatch_rejected():
    with pytest.raises(ValueError, match="unexpected report header"):
        parse_report_csv("a,b,c\n1,2,3\n", from_text=True)


def test_emit_report_and_plot_data(tmp_path):
    rows = _sample_rows()
    out = tmp_path / "report.csv"
    emit_report(rows, out)
    back = parse_report_csv(out)
    assert [r.as_record() for r in back] == [r.as_record() for r in rows]

    plot = tmp_path / "plot.csv"
    emit_plot_data(rows, plot)
    lines = plot.read_text().splitlines()
    assert lines[0] == "scenario,n,inv_n,empirical_mse"
    assert lines[1] == f"alpha,10,{0.1!r},{rows[0].empirical_mse!r}"

    with pytest.raises(OSError, match="could not write report"):
        emit_report(rows, tmp_path / "missing" / "report.csv")


# --------------------------------------------------------------- scenarios

def test_scenario_catalog():
    assert len(SCENARIO_NAMES) == 16
    for name in SCENARIO_NAMES:
        cfg = default_config(name)
        assert cfg.scenario == name
        assert cfg.seed == 42
        assert all(n >= 3 for n in cfg.n_grid)


def test_config_validation():
    with pytest.raises(ValueError, match="unknown scenario"):
        default_config("nope")
    with pytest.raises(ValueError, match="at least 3"):
        run_scenario(ScenarioConfig("upset_chain", (2,), 5))
    with pytest.raises(ValueError, match="replications"):
        run_scenario(ScenarioConfig("upset_chain", (10,), 0))
    with pytest.raises(ValueError, match="unknown scenario"):
        run_scenario(ScenarioConfig("nope", (10,), 5))
    for bad in (20.5, "20"):
        with pytest.raises(ValueError, match="n_grid entries must be integers"):
            run_scenario(ScenarioConfig("upset_chain", (bad,), 5))
        with pytest.raises(ValueError, match="replications must be an integer"):
            run_scenario(ScenarioConfig("upset_chain", (20,), bad))
    with pytest.raises(ValueError, match="unknown params key 'sise'"):
        run_scenario(ScenarioConfig("upset_chain", (10,), 2, params={"sise": 5}))
    with pytest.raises(ValueError, match="params must be a mapping"):
        run_scenario(ScenarioConfig("upset_chain", (10,), 2, params=[1]))
    with pytest.raises(ValueError, match="seed must be an integer"):
        run_scenario(ScenarioConfig("upset_chain", (10,), 2, seed=2.7))


_TINY = {
    "unseen_uniform": dict(n_grid=(6,), replications=4, params={}),
    "unseen_zipf": dict(n_grid=(6,), replications=4, params={}),
    "hull_rect": dict(n_grid=(10,), replications=2, params={}),
    "hull_disk": dict(n_grid=(10,), replications=2, params={}),
    "hull_gauss": dict(
        n_grid=(10,), replications=2, params={"probe_batches": 2, "probe_batch_size": 512}
    ),
    "hull_gauss_corr": dict(
        n_grid=(10,), replications=2, params={"probe_batches": 2, "probe_batch_size": 512}
    ),
    "upset_chain": dict(n_grid=(8,), replications=4, params={}),
    "upset_antichain": dict(n_grid=(8,), replications=4, params={}),
    "upset_staircase": dict(n_grid=(8,), replications=4, params={}),
    "poset_convex_interval": dict(n_grid=(8,), replications=4, params={}),
    "poset_convex_forest": dict(n_grid=(8,), replications=4, params={}),
    "coincide_uniform_square": dict(
        n_grid=(10,), replications=3, params={"probes": 2000}
    ),
    "dna_split": dict(
        n_grid=(40,),
        replications=3,
        params={
            "population": 60,
            "null_population": 90,
            "length": 120,
            "split": (12, 48),
        },
    ),
    "coverage_linear": dict(n_grid=(12,), replications=3, params={"holdout": 200}),
    "coverage_quadratic_misspec": dict(
        n_grid=(12,), replications=3, params={"holdout": 200}
    ),
    "aldous_demo": dict(n_grid=(30,), replications=3, params={"probes": 2000}),
}


def tiny_config(name, seed=11):
    spec = _TINY[name]
    return ScenarioConfig(
        scenario=name,
        n_grid=spec["n_grid"],
        replications=spec["replications"],
        seed=seed,
        params=spec["params"],
    )


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_every_scenario_produces_valid_rows(name):
    rows = run_scenario(tiny_config(name))
    assert rows, name
    for row in rows:
        assert isinstance(row, BoundReportRow)
        assert row.scenario == name
        assert row.replications == _TINY[name]["replications"]
        assert row.empirical_mse >= 0.0
        assert row.std_err >= 0.0
        assert math.isfinite(row.bound)
        # Construction enforces passed == (mse <= bound); re-encode to
        # confirm the rows serialize.
        report_text([row], timestamp=False)


def test_worker_count_does_not_change_results():
    cfg = ScenarioConfig("upset_chain", (12,), 8, seed=5)
    seq = report_text(run_scenario(cfg, workers=1), timestamp=False)
    par = report_text(run_scenario(cfg, workers=2), timestamp=False)
    assert seq == par

    cfg2 = tiny_config("coincide_uniform_square", seed=9)
    seq2 = report_text(run_scenario(cfg2, workers=1), timestamp=False)
    par2 = report_text(run_scenario(cfg2, workers=3), timestamp=False)
    assert seq2 == par2

    # Several cells and several chunks per worker, all queued at once.
    cfg3 = ScenarioConfig(
        "hull_gauss_corr",
        (10, 16),
        5,
        seed=9,
        params={"probe_batches": 2, "probe_batch_size": 512},
    )
    seq3 = report_text(run_scenario(cfg3, workers=1), timestamp=False)
    par3 = report_text(run_scenario(cfg3, workers=2), timestamp=False)
    assert seq3 == par3


def test_probe_cache_is_keyed_on_batch_size():
    # One cell, so the second run finds the first run's entry in the cache.
    def cfg(batch_size):
        params = {"dims": (3,), "probe_batches": 2, "probe_batch_size": batch_size}
        return ScenarioConfig("hull_gauss", (12,), 3, seed=4, params=params)

    first = report_text(run_scenario(cfg(256)), timestamp=False)
    second = report_text(run_scenario(cfg(512)), timestamp=False)
    _probe_set.cache_clear()
    fresh = report_text(run_scenario(cfg(512)), timestamp=False)
    assert second == fresh
    assert second != first


# -------------------------------------------------- probe ground truth


def _brute_inside(facets, probes):
    """Every probe against every facet: the reference for the pruned test."""
    normals, offsets = facets[:, :-1], facets[:, -1]
    return [
        np.flatnonzero((z @ normals.T + offsets <= _FACET_TOL).all(axis=1))
        for z, _ in probes.batches
    ]


def _brute_defect(facets, probes):
    means = np.empty(len(probes.batches))
    for i, (z, _) in enumerate(probes.batches):
        vals = z @ facets[:, :-1].T + facets[:, -1]
        means[i] = (vals <= _FACET_TOL).all(axis=1).mean()
    return 1.0 - float(means.mean()), float(means.std(ddof=1) / math.sqrt(len(means)))


@pytest.mark.parametrize("d", (2, 3))
@pytest.mark.parametrize("corr", (0.0, 0.8))
def test_pruned_probe_truth_matches_brute_force(d, corr):
    n = 25
    probes = _probe_set(3, f"oracle:d{d}", n, d, corr, 4, 4096)
    rng = np.random.default_rng(17 + d)
    spec = {"kind": "gauss", "d": d, "corr": corr}
    last_extreme = set()
    for k in range(16):
        cloud = sample_distribution(spec, n, rng)
        if k == 0:
            cloud = cloud + 2.0  # origin outside the hull: nothing is pruned
        s_full = hull_summary(cloud, with_facets=True)
        s_drop = hull_summary(cloud[:-1], with_facets=True)
        full = _inside_probes(s_full.facets, cloud, probes)
        drop = _inside_probes(s_drop.facets, cloud[:-1], probes, among=full)
        for got, want in zip(full, _brute_inside(s_full.facets, probes)):
            assert np.array_equal(got, want)
        for got, want in zip(drop, _brute_inside(s_drop.facets, probes)):
            assert np.array_equal(got, want)
        defect, se = _brute_defect(s_full.facets, probes)
        defect_prev, _ = _brute_defect(s_drop.facets, probes)
        assert _probe_defects(cloud, s_full, probes) == (defect, defect_prev, se)
        last_extreme.add(bool(s_full.extreme_flags[-1]))
    assert last_extreme == {False, True}


def test_probe_set_is_sorted_and_read_only():
    probes = _probe_set(5, "sorted:d3", 20, 3, 0.8, 2, 1024)
    chol = equicorrelation_cholesky(3, 0.8)
    for z, radius in probes.batches:
        assert np.all(np.diff(radius) >= 0)
        w = z @ probes.whiten.T
        assert np.allclose(np.linalg.norm(w, axis=1), radius)
        assert np.allclose(w @ chol.T, z)
        assert not z.flags.writeable and not radius.flags.writeable


def test_run_suite_combines_scenarios():
    rows = run_suite(["upset_chain", "upset_antichain"], seed=5, replications=4)
    names = {r.scenario for r in rows}
    assert names == {"upset_chain", "upset_antichain"}


def test_random_forest_paths_form_a_convex_forest():
    # Distinct nodes, every non-root node's parent is present, and
    # component roots are distinct children of the implicit root, so the
    # node set is order-convex in the tree order.
    for k in range(10):
        paths = random_forest(rng_for(35, "forest", 20, k), 15, 40)
        nodes = set(paths)
        assert len(nodes) == len(paths)
        assert all(len(p) == 1 or p[:-1] in nodes for p in paths)
        roots = [p for p in paths if len(p) == 1]
        assert roots == [(c,) for c in range(len(roots))]
        assert TreeAncestor.convex_closure_size(paths) == len(paths)


def test_poset_rows_match_library_counts():
    # The poset family's rows come straight from the library's counts:
    # one replication of the forest scenario, redrawn by hand.
    seed, n = 35, 20
    cfg = ScenarioConfig(
        "poset_convex_forest", (n,), 1, seed=seed, params={"min_nodes": 15, "max_nodes": 40}
    )
    row = run_scenario(cfg)[0]
    rng = rng_for(seed, "poset_convex_forest", n, 0)
    paths = random_forest(rng, 15, 40)
    sample = [paths[i] for i in rng.integers(0, len(paths), size=n)]
    hits = TreeAncestor.convex_sandwiched_count(sample)
    closure = TreeAncestor.convex_closure_size(sample)
    assert row.empirical_mse == (hits / n - closure / len(paths)) ** 2
    assert row.extras["mean_forest_size"] == len(paths)
