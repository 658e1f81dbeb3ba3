import csv
import io
import json
import math
import multiprocessing
import pickle
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import dblquad
from scipy.spatial.distance import cdist
from scipy.special import ndtr, ndtri
from scipy.stats import qmc

from cascade.convex_volume import hull_summary
from cascade.poset_estimators import TreeAncestor, convex_sandwiched_count
from cascade.sim_harness import (
    BoundReportRow,
    SCENARIO_NAMES,
    ScenarioConfig,
    child_seed,
    default_config,
    emit_plot_data,
    emit_report,
    report_text,
    rng_for,
    run_scenario,
    run_scenarios,
    validate_config,
)
from cascade.sim_harness.samplers import (
    equicorrelation_cholesky,
    sample_distribution,
    zipf_probabilities,
)
from cascade.sim_harness import scenarios
from cascade.sim_harness import gauss_mass
from cascade.sim_harness.ball_mass import cap_mass, cap_union_bracket, disk_union_area
from cascade.sim_harness.gauss_mass import normal_hull_mass
from cascade.sim_harness.scenarios import random_forest
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
    # The documented chain; the tag's hash is cached across calls.
    for tag in ("scen", "other", "scen"):
        h = fnv1a64(tag.encode("utf-8"))
        assert child_seed(43, tag, 11, 4) == mix64(mix64(mix64(h ^ 43) ^ 11) ^ 4)
    for bad in (None, ["scen"], b"scen"):
        with pytest.raises(ValueError, match="tag must be a string"):
            child_seed(42, bad, 10, 3)


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


def test_uniform_labels():
    rng = np.random.default_rng(5)
    labels = sample_distribution({"kind": "uniform_labels", "N": 7}, 300, rng)
    assert labels.min() >= 1 and labels.max() <= 7


def test_sphere_mixture_origin_frequency():
    # Each of n points sits at the origin with probability 1/n.
    rng = np.random.default_rng(7)
    spec = {"kind": "sphere_mixture", "dim": 3}
    pts = np.concatenate([sample_distribution(spec, 4, rng) for _ in range(2000)])
    norms = np.linalg.norm(pts, axis=1)
    at_origin = (norms == 0.0).mean()
    assert abs(at_origin - 0.25) < 0.03
    assert np.abs(norms[norms > 0] - 1.0).max() < 1e-12


def test_sampler_validation():
    rng = np.random.default_rng(8)
    with pytest.raises(ValueError, match="unknown sampler kind"):
        sample_distribution({"kind": "moebius"}, 5, rng)
    with pytest.raises(ValueError, match="n must be positive"):
        sample_distribution({"kind": "gauss", "d": 2}, 0, rng)
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
            extras={"d": 2, "note": "x", "seq": [1, 2.5], "gap": None},
        ),
        BoundReportRow(
            scenario="beta",
            n=40,
            replications=100,
            empirical_mse=0.9,
            std_err=0.0,
            bound=0.25,
            extras={},
        ),
    ]


def _records(text):
    """The records of a CSV report, read back with ``csv.DictReader``:
    floats through ``float`` (the writer uses ``repr``), extras through
    ``json.loads``."""
    return [
        {"scenario": r["scenario"], "n": int(r["n"]), "replications": int(r["replications"]),
         "empirical_mse": float(r["empirical_mse"]), "std_err": float(r["std_err"]),
         "bound": float(r["bound"]), "pass": {"true": True, "false": False}[r["pass"]],
         "extras": json.loads(r["extras_json"])}
        for r in csv.DictReader(io.StringIO(text))
    ]


def test_csv_round_trip_is_exact():
    rows = _sample_rows()
    text = report_text(rows, fmt="csv")
    # No comment line: the header comes first, and the same rows give
    # the same bytes on every call.
    assert text.startswith("scenario,n,replications,empirical_mse,std_err,bound,pass,extras_json\n")
    assert text == report_text(_sample_rows(), fmt="csv")
    assert _records(text) == [r.as_record() for r in rows]


def test_json_report_shape():
    payload = json.loads(report_text(_sample_rows(), fmt="json"))
    assert list(payload) == ["rows"]
    assert [r["scenario"] for r in payload["rows"]] == ["alpha", "beta"]
    assert payload["rows"][0]["extras"]["seq"] == [1, 2.5]


def test_report_validation():
    with pytest.raises(ValueError, match="^rows must be a nonempty sequence of BoundReportRow"):
        report_text([], fmt="csv")
    with pytest.raises(ValueError, match="unknown report format"):
        report_text(_sample_rows(), fmt="yaml")
    with pytest.raises(ValueError, match="nonnegative"):
        BoundReportRow("x", 5, 10, 0.1, -0.1, 0.25)
    with pytest.raises(ValueError, match="NaN"):
        BoundReportRow("x", 5, 10, 0.1, 0.0, 0.25, extras={"bad": float("nan")})


def test_passed_is_read_from_the_two_values():
    # No stored flag to contradict them; a float64 comparison still
    # gives a Python bool, which the JSON report can hold.
    above = BoundReportRow("x", 5, 10, 0.9, 0.0, 0.25)
    assert above.passed is False
    with pytest.raises(AttributeError):
        above.passed = True
    row = BoundReportRow("x", 5, 10, np.float64(0.1), np.float64(0.0), np.float64(0.25))
    assert row.passed is True
    assert json.loads(report_text([row], fmt="json"))["rows"][0]["pass"] is True


def test_numpy_scalars_become_builtin_in_extras():
    row = BoundReportRow(
        "x", 5, 10, 0.1, 0.0, 0.25,
        extras={"a": np.float64(1.5), "b": np.int64(3), "c": np.bool_(True)},
    )
    assert type(row.extras["a"]) is float
    assert type(row.extras["b"]) is int
    assert row.extras["c"] in (True,)
    (back,) = _records(report_text([row], fmt="csv"))
    assert back["extras"] == {"a": 1.5, "b": 3, "c": True}


def test_emit_report_and_plot_data(tmp_path):
    rows = _sample_rows()
    out = tmp_path / "report.csv"
    emit_report(rows, out)
    assert out.read_text(encoding="utf-8") == report_text(rows)

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
    # An int is not iterable, and a string would be read letter by letter.
    for bad in (20, "abc"):
        with pytest.raises(ValueError, match="n_grid must be a list"):
            validate_config(ScenarioConfig("upset_chain", bad, 2))


def test_default_config_with_fewer_dims_keeps_the_default_boxes():
    # default_config copies the default boxes into params, so dims alone
    # may shrink without a stray-key error; a given box keyed 3 still fails.
    cfg = default_config("hull_rect")
    cfg.params["dims"] = [2]
    params = validate_config(cfg)
    assert params["dims"] == (2,) and params["boxes"] == {2: ((0.0, 4.0), (0.0, 2.0))}
    cfg.params["boxes"] = {2: ((0.0, 4.0), (0.0, 2.0)), 3: ((0.0, 2.0),) * 3}
    with pytest.raises(ValueError, match=r"params 'boxes' keys \['3'\] are not a d"):
        validate_config(cfg)


_TINY = {
    "unseen_uniform": dict(n_grid=(6,), replications=4, params={}),
    "unseen_zipf": dict(n_grid=(6,), replications=4, params={}),
    "hull_rect": dict(n_grid=(10,), replications=2, params={}),
    "hull_disk": dict(n_grid=(10,), replications=2, params={}),
    "hull_gauss": dict(n_grid=(10,), replications=2, params={}),
    "hull_gauss_corr": dict(n_grid=(10,), replications=2, params={}),
    "upset_chain": dict(n_grid=(8,), replications=4, params={}),
    "upset_antichain": dict(n_grid=(8,), replications=4, params={}),
    "upset_staircase": dict(n_grid=(8,), replications=4, params={}),
    "poset_convex_interval": dict(n_grid=(8,), replications=4, params={}),
    "poset_convex_forest": dict(n_grid=(8,), replications=4, params={}),
    "coincide_uniform_square": dict(n_grid=(10,), replications=3, params={}),
    "dna_split": dict(
        n_grid=(12,),
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
def test_run_scenario_merges_the_params_once(monkeypatch, name):
    calls = []

    def counted(cfg):
        calls.append(cfg.scenario)
        return merged(cfg)

    merged = scenarios._merged_params
    monkeypatch.setattr(scenarios, "_merged_params", counted)
    run_scenario(tiny_config(name))
    assert calls == [name]


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_every_scenario_produces_valid_rows(name):
    texts = []
    for workers in (1, 2):
        rows = run_scenario(tiny_config(name), workers=workers)
        assert rows, name
        for row in rows:
            assert isinstance(row, BoundReportRow)
            assert row.scenario == name
            assert row.replications == _TINY[name]["replications"]
            assert row.empirical_mse >= 0.0
            assert row.std_err >= 0.0
            assert math.isfinite(row.bound)
        # Encoding the report confirms the rows serialize.
        texts.append(report_text(rows))
    assert texts[0] == texts[1], name


def test_a_hull_whose_every_point_is_extreme_defines_no_ratio():
    # Four points in 3-D are all extreme, so no replication has a volume
    # ratio, and the NaN columns leave the ratio keys out.
    (row,) = run_scenario(ScenarioConfig("hull_rect", (4,), 3, params={"dims": [3]}))
    assert row.extras["ratio_defined"] == 0
    for key in ("mean_volume_ratio", "ci_coverage", "ci_two_sided_coverage", "mse_event_rate"):
        assert key not in row.extras


def test_an_antichain_without_collisions_defines_no_size_estimate():
    # Three labels out of 10**9 do not collide at this seed, so hits is 0.
    (row,) = run_scenario(ScenarioConfig("upset_antichain", (3,), 3, params={"labels": 10**9}))
    assert row.extras["size_estimate_defined"] == 0
    assert row.extras["mean_size_estimate"] is None


def test_a_chain_of_any_size_runs_without_building_its_ground_set():
    # 10**15 integers would take 8 PB: the replications draw indices only.
    (row,) = run_scenario(ScenarioConfig("upset_chain", (30,), 3, params={"size": 10**15}))
    assert row.extras["ground_size"] == 10**15
    assert row.extras["size_estimate_defined"] == 3


@pytest.mark.parametrize(
    "name, key", [("upset_chain", "size"), ("poset_convex_interval", "size"),
                  ("upset_antichain", "labels")]
)
def test_a_poset_ground_set_past_int64_is_rejected_by_name(name, key):
    # The replications draw from the ground set with numpy's int64 integers.
    cfg = ScenarioConfig(name, (30,), 3, params={key: 2**63})
    with pytest.raises(ValueError, match=rf"^params '{key}' must be at most 2\*\*63 - 1"):
        run_scenario(cfg)
    cfg.params[key] = 2**63 - 1
    (row,) = run_scenario(cfg)
    assert row.extras["ground_size"] == 2**63 - 1


def test_worker_count_does_not_change_results():
    cfg = ScenarioConfig("upset_chain", (12,), 8, seed=5)
    seq = report_text(run_scenario(cfg, workers=1))
    par = report_text(run_scenario(cfg, workers=2))
    assert seq == par

    cfg2 = tiny_config("coincide_uniform_square", seed=9)
    seq2 = report_text(run_scenario(cfg2, workers=1))
    par2 = report_text(run_scenario(cfg2, workers=3))
    assert seq2 == par2

    # Several cells and several chunks per worker, all queued at once.
    cfg3 = ScenarioConfig("hull_gauss_corr", (10, 16), 5, seed=9)
    seq3 = report_text(run_scenario(cfg3, workers=1))
    par3 = report_text(run_scenario(cfg3, workers=2))
    assert seq3 == par3


@pytest.mark.parametrize("workers", [0, -4, 1.5])
def test_run_scenario_rejects_a_bad_worker_count(workers):
    cfg = ScenarioConfig("upset_chain", (12,), 4, seed=5)
    with pytest.raises(ValueError, match="workers"):
        run_scenario(cfg, workers=workers)


class _InlinePool:
    """A stand-in for ProcessPoolExecutor that records its size and the
    pickled size of each job, and runs its initializer and every chunk in
    this process."""

    sizes: list = []
    job_bytes: list = []

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        jobs = list(jobs)
        self.job_bytes.extend(len(pickle.dumps(job)) for job in jobs)
        return map(fn, jobs)


@pytest.fixture
def inline_pool(monkeypatch):
    monkeypatch.setattr(scenarios, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(_InlinePool, "job_bytes", [])
    # The initializer stores the cell table here, in this process.
    monkeypatch.setattr(scenarios, "_WORKER_TABLE", ())
    return _InlinePool


@pytest.mark.parametrize(
    "workers, reps, cpus, size", [(5000, 10, 4, 4), (3, 2, 4, 2), (5000, 10, None, 1)]
)
def test_pool_holds_at_most_one_process_per_chunk_and_cpu(
    monkeypatch, inline_pool, workers, reps, cpus, size
):
    monkeypatch.setattr(scenarios.os, "cpu_count", lambda: cpus)
    cfg = ScenarioConfig("upset_chain", (12, 20), reps, seed=5)
    par = report_text(run_scenario(cfg, workers=workers))
    assert inline_pool.sizes == [size]
    assert par == report_text(run_scenario(cfg, workers=1))


def test_one_pool_runs_every_scenario_as_one_worker_runs_each():
    cfgs = [
        ScenarioConfig("upset_chain", (12,), 8, seed=5),
        ScenarioConfig("hull_gauss_corr", (10, 16), 5, seed=9),
        tiny_config("dna_split", seed=3),
    ]
    alone = [row for cfg in cfgs for row in run_scenario(cfg, workers=1)]
    together = run_scenarios(cfgs, workers=2)
    assert report_text(together) == report_text(alone)


def test_run_scenarios_forks_one_pool_for_every_scenario(inline_pool):
    cfgs = [ScenarioConfig("upset_chain", (12,), 3, seed=5), tiny_config("unseen_zipf")]
    run_scenarios(cfgs, workers=2)
    assert inline_pool.sizes == [2]


def test_a_job_carries_a_cell_index_not_the_cell(inline_pool):
    # dna_split's cell holds two Kimura matrices, 8.3 MB pickled.
    run_scenario(default_config("dna_split", replications=4), workers=2)
    assert len(inline_pool.job_bytes) == 4
    assert max(inline_pool.job_bytes) < 100


@pytest.mark.parametrize(
    "cfgs", [[], (), None, default_config("upset_chain"), ["upset_chain"], [None]]
)
def test_run_scenarios_names_cfgs_that_are_no_list_of_configs(cfgs):
    with pytest.raises(ValueError, match="^cfgs must be a nonempty list of ScenarioConfig"):
        run_scenarios(cfgs)


def _blas_thread_counts() -> dict:
    """Each OpenBLAS that numpy and scipy loaded, by file name, with its thread
    count getter and setter, found apart from the runner's own search."""
    import ctypes
    import glob
    import os

    import scipy

    out = {}
    for pkg in (np, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libs, "*openblas*.so")):
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            suffix = "64_" if hasattr(lib, "scipy_openblas_get_num_threads64_") else ""
            get = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
            put = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            out[os.path.basename(path)] = (get, put)
    return out


@pytest.fixture
def blas_at_two_threads():
    """Every OpenBLAS at 2 threads, so that a cap to 1 shows; restored after."""
    libs = _blas_thread_counts()
    earlier = {name: get() for name, (get, _) in libs.items()}
    for _, put in libs.values():
        put(2)
    yield {name: get for name, (get, _) in libs.items()}
    for name, (_, put) in libs.items():
        put(earlier[name])


def test_the_blas_cap_holds_one_thread_and_restores_the_count(blas_at_two_threads):
    # numpy's and scipy's wheels each bundle an OpenBLAS.
    assert len(blas_at_two_threads) == 2
    with scenarios._one_blas_thread() as capped:
        assert sorted(capped) == sorted(blas_at_two_threads)
        assert [get() for get in blas_at_two_threads.values()] == [1, 1]
    assert [get() for get in blas_at_two_threads.values()] == [2, 2]


def _failing_rep(ctx, rng):
    raise RuntimeError("a replication failed")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("fails", [False, True])
def test_a_run_leaves_no_worker_and_every_blas_count_restored(
    monkeypatch, blas_at_two_threads, workers, fails
):
    if fails:
        poset = scenarios._FAMILIES["poset"]
        monkeypatch.setitem(scenarios._FAMILIES, "poset", poset._replace(rep=_failing_rep))
    cfgs = [tiny_config("unseen_uniform"), ScenarioConfig("upset_chain", (12,), 6, seed=5)]
    with pytest.raises(RuntimeError, match="a replication failed") if fails else nullcontext():
        run_scenarios(cfgs, workers=workers)
    assert multiprocessing.active_children() == []
    assert [get() for get in blas_at_two_threads.values()] == [2, 2]


# ----------------------------------------------- Gaussian ground truth

_FACET_TOL = 1e-10


def _sobol_normal_batches(d, corr, batches, size, seed):
    """Scrambled Sobol batches pushed through the normal quantile: the
    probe clouds of an independent Monte Carlo oracle."""
    chol = equicorrelation_cholesky(d, corr)
    out = []
    for b in range(batches):
        u = qmc.Sobol(d, scramble=True, seed=seed + b).random(size)
        out.append(ndtri(np.clip(u, 1e-15, 1.0 - 1e-15)) @ chol.T)
    return out


def _brute_defect(facets, batches):
    """Every probe against every facet; the defect and its standard error
    over the batches."""
    means = np.empty(len(batches))
    for i, z in enumerate(batches):
        vals = z @ facets[:, :-1].T + facets[:, -1]
        means[i] = (vals <= _FACET_TOL).all(axis=1).mean()
    return 1.0 - float(means.mean()), float(means.std(ddof=1) / math.sqrt(len(means)))


@pytest.mark.parametrize("d", (2, 3))
@pytest.mark.parametrize("corr", (0.0, 0.8))
def test_exact_gauss_mass_matches_brute_force_probes(d, corr, monkeypatch):
    batches = _sobol_normal_batches(d, corr, 16, 8192, seed=100 * d + int(10 * corr))
    chol = equicorrelation_cholesky(d, corr) if corr else None
    rng = np.random.default_rng(17 + d)
    spec = {"kind": "gauss", "d": d, "corr": corr}
    for k, n in enumerate((12, 25, 25, 60, 200)):
        cloud = sample_distribution(spec, n, rng)
        if k == 1:
            cloud = cloud + 1.5  # the origin lies outside the hull
        s = hull_summary(cloud)
        defect = 1.0 - normal_hull_mass(s, chol)
        want, se = _brute_defect(s.hull.equations, batches)
        assert abs(defect - want) <= 4.0 * se, (n, k, defect, want, se)
        if d == 3:
            with monkeypatch.context() as m:
                m.setattr(gauss_mass, "NODES", 2 * gauss_mass.NODES)
                doubled = 1.0 - normal_hull_mass(s, chol)
            assert abs(doubled - defect) <= 1e-12


_TRIANGLES = (
    ((-1.0, -0.5), (2.0, -1.0), (0.3, 1.7)),  # contains the origin
    ((0.0, -0.4), (1.2, 0.0), (0.0, 0.9)),  # the origin lies on an edge
    ((0.5, 0.5), (3.0, 1.0), (1.0, 2.5)),  # the origin is outside
)


@pytest.mark.parametrize("tri", _TRIANGLES)
def test_exact_gauss_mass_of_a_triangle_matches_dblquad(tri):
    pts = np.array(tri)
    (x0, y0), (x1, y1), (x2, y2) = sorted(tri)
    # Integrate over x between the leftmost and rightmost vertex, y
    # between the edges above and below.
    def line(xa, ya, xb, yb):
        return lambda x: ya + (yb - ya) * (x - xa) / (xb - xa)

    long_edge = line(x0, y0, x2, y2)
    pdf = lambda y, x: math.exp(-0.5 * (x * x + y * y)) / (2.0 * math.pi)  # noqa: E731
    total = 0.0
    for (xa, ya), (xb, yb) in (((x0, y0), (x1, y1)), ((x1, y1), (x2, y2))):
        if xb == xa:
            continue
        short_edge = line(xa, ya, xb, yb)
        lower = lambda x, f=short_edge: min(f(x), long_edge(x))  # noqa: E731
        upper = lambda x, f=short_edge: max(f(x), long_edge(x))  # noqa: E731
        total += dblquad(pdf, xa, xb, lower, upper, epsabs=1e-13, epsrel=1e-12)[0]
    mass = normal_hull_mass(hull_summary(pts))
    assert abs(mass - total) <= 1e-10


@pytest.mark.parametrize(
    "lo, hi",
    [((-1.0, -0.5, -2.0), (0.7, 1.5, 0.4)), ((0.2, -1.0, 0.5), (1.9, 0.3, 1.5))],
)
def test_exact_gauss_mass_of_a_box_is_a_product(lo, hi):
    # A box's standard-normal mass factors into one-dimensional masses;
    # the second box does not contain the origin.  Qhull splits each
    # square face into two triangles.
    corners = np.array([[h if bit else l for l, h, bit in zip(lo, hi, bits)]
                        for bits in np.ndindex(2, 2, 2)], dtype=float)
    want = float(np.prod(ndtr(np.array(hi)) - ndtr(np.array(lo))))
    mass = normal_hull_mass(hull_summary(corners))
    assert abs(mass - want) <= 1e-13


def test_exact_gauss_mass_rejects_a_summary_it_cannot_use():
    # A flat hull has no facets and no mass.
    flat_square = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]
    assert normal_hull_mass(hull_summary(flat_square)) == 0.0
    simplex = np.vstack([np.zeros(4), np.eye(4)])
    with pytest.raises(ValueError, match="d = 2 or 3"):
        normal_hull_mass(hull_summary(simplex))
    with pytest.raises(ValueError, match="d = 2 or 3"):
        normal_hull_mass(hull_summary(np.array([[0.0], [1.0]])))


@pytest.mark.parametrize("name", ("hull_gauss", "hull_gauss_corr"))
def test_small_gauss_hulls_report_rows(name):
    # Three points in 3-D span a triangle, and hull(n-1) of a triangle
    # is a segment: flat hulls with Gaussian mass 0, i.e. defect 1.
    rows = run_scenario(ScenarioConfig(name, (3, 4), 3, seed=11))
    assert [(r.extras["d"], r.n) for r in rows] == [(2, 3), (2, 4), (3, 3), (3, 4)]
    flat = rows[2].extras
    assert flat["mean_defect"] == 1.0 and flat["mean_abs_defect_step"] == 0.0
    assert rows[2].empirical_mse == 0.0


@pytest.mark.parametrize("name", ("hull_gauss", "hull_gauss_corr"))
def test_exact_gauss_defect_never_shrinks_when_a_point_is_dropped(name):
    # hull(n-1) lies in hull(n), so its mass cannot be larger.
    cfg = ScenarioConfig(name, (20,), 40, seed=6)
    extreme_seen = 0
    for ctx in scenarios._cells(cfg):
        for k in range(cfg.replications):
            rec = scenarios._hull_rep(ctx, rng_for(cfg.seed, ctx["tag"], ctx["n"], k))
            if rec["defect_prev"] != rec["defect"]:
                extreme_seen += 1
            assert rec["defect_prev"] >= rec["defect"] - 1e-12, (ctx["d"], k)
    assert extreme_seen > 0


# ------------------------------------------ ball-coverage ground truth


def _chord_union_area(pts, r):
    """area(union of r-disks with the unit square), by dblquad: at each
    x the disks' chords merge into intervals, and between consecutive
    breakpoints (a disk's left or right end, where two circles cross,
    where a circle crosses a side) their number and their smooth end
    curves stay fixed, so each merged interval is one dblquad region."""

    def merged(x):
        chords = sorted(
            (max(py - math.sqrt(r * r - (x - px) ** 2), 0.0),
             min(py + math.sqrt(r * r - (x - px) ** 2), 1.0))
            for px, py in pts if abs(x - px) < r
        )
        out = []
        for lo, hi in chords:
            if out and lo <= out[-1][1]:
                out[-1][1] = max(out[-1][1], hi)
            else:
                out.append([lo, hi])
        return out

    breaks = {0.0, 1.0}
    for k, (px, py) in enumerate(pts):
        breaks.update(px + s * r for s in (-1, 1))
        for gap in (py, 1.0 - py):
            if gap < r:
                breaks.update(px + s * math.sqrt(r * r - gap * gap) for s in (-1, 1))
        for qx, qy in pts[k + 1:]:
            d = math.hypot(qx - px, qy - py)
            if 0.0 < d < 2.0 * r:
                half = math.sqrt(r * r - d * d / 4.0) / d
                breaks.update(0.5 * (px + qx) + s * half * (qy - py) for s in (-1, 1))
    breaks = sorted(b for b in breaks if 0.0 <= b <= 1.0)
    total = 0.0
    for xa, xb in zip(breaks, breaks[1:]):
        for k in range(len(merged(0.5 * (xa + xb)))):
            total += dblquad(
                lambda y, x: 1.0, xa, xb,
                lambda x, k=k: merged(x)[k][0], lambda x, k=k: merged(x)[k][1],
                epsabs=1e-13, epsrel=1e-12,
            )[0]
    return total


_DISK_SITES = (
    ((0.5, 0.5),),
    ((0.3, 0.4), (0.45, 0.5), (0.8, 0.2)),  # two disks overlap
    ((0.0, 0.35), (0.6, 1.0), (0.7, 0.7)),  # sites on a side: their own mirrors
    ((0.0, 0.0), (1.0, 0.55), (0.92, 0.6)),  # a corner site
)


@pytest.mark.parametrize("sites", _DISK_SITES)
@pytest.mark.parametrize("r", (0.1, 0.2))
def test_disk_union_area_matches_dblquad(sites, r):
    got = float(disk_union_area(np.array(sites), [r])[0])
    assert abs(got - _chord_union_area(sites, r)) <= 1e-10, (sites, r)


def test_disk_union_area_of_disjoint_and_covering_disks():
    # A 3 x 3 grid on the square: corners hold a quarter disk, side
    # midpoints a half, the centre a whole one; at r = 1/4 the disks
    # touch but do not overlap.  Radius sqrt(2) from any site covers the
    # square.
    grid = np.array([(x, y) for x in (0.0, 0.5, 1.0) for y in (0.0, 0.5, 1.0)])
    areas = disk_union_area(grid, [0.0, 0.1, 0.25, math.sqrt(2.0)])
    assert np.allclose(areas[:3], [0.0, 4 * math.pi * 0.01, 4 * math.pi * 0.0625], atol=1e-14)
    assert abs(areas[3] - 1.0) <= 1e-14
    assert abs(disk_union_area([[0.2, 0.9]], [2.0])[0] - 1.0) <= 1e-14
    # Duplicate sites change nothing.
    twice = np.vstack([grid, grid[:4]])
    assert np.array_equal(disk_union_area(twice, [0.3]), disk_union_area(grid, [0.3]))


def test_disk_union_area_rejects_bad_input():
    with pytest.raises(ValueError, match="unit square"):
        disk_union_area([[0.5, 1.2]], [0.1])
    with pytest.raises(ValueError, match="unit square"):
        disk_union_area([[0.5, math.nan]], [0.1])
    with pytest.raises(ValueError, match=r"\(n, 2\)"):
        disk_union_area(np.zeros((0, 2)), [0.1])
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="radii"):
            disk_union_area([[0.5, 0.5]], [bad])


@pytest.mark.parametrize("n", (30, 100))
def test_disk_union_area_matches_brute_force_probes(n):
    rng = np.random.default_rng(40 + n)
    radii = (0.05, 0.1, 0.2)
    batches = [qmc.Sobol(2, scramble=True, seed=n + b).random(8192) for b in range(16)]
    for _ in range(3):
        pts = rng.random((n, 2))
        areas = disk_union_area(pts, radii)
        nearest = [cdist(z, pts).min(axis=1) for z in batches]
        for r, area in zip(radii, areas):
            means = np.array([(d <= r).mean() for d in nearest])
            se = means.std(ddof=1) / math.sqrt(len(means))
            assert abs(area - means.mean()) <= 4.0 * se + 1e-12, (n, r, area, means.mean(), se)


def test_cap_mass_is_archimedes_at_n_3():
    t = np.linspace(0.0, 1.0, 11)
    assert np.allclose(cap_mass(t, 3), (1.0 - t) / 2.0, rtol=0, atol=1e-15)
    assert cap_mass(1.5, 3) == 0.0


def test_cap_union_bracket_contains_a_probe_count():
    n, c = 200, scenarios._DEMO_CAP
    rng = np.random.default_rng(23)
    pts = sample_distribution({"kind": "sphere_mixture", "dim": n}, n, rng)
    assert np.linalg.norm(pts, axis=1).min() > 0.0  # no point drawn at the origin
    lower, upper = cap_union_bracket(pts @ pts.T, c, n)
    assert 0.0 < upper - lower <= 1e-3
    probes, hits = 2_000_000, 0
    for _ in range(probes // 50_000):
        u = rng.standard_normal((50_000, n))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        hits += int((u @ pts.T >= c).any(axis=1).sum())
    p = hits / probes
    se = math.sqrt(p * (1.0 - p) / probes)
    assert lower - 4.0 * se <= p <= upper + 4.0 * se, (lower, upper, p, se)


def test_cap_union_bracket_of_opposite_and_equal_vectors():
    # Opposite vectors: disjoint caps, so the bracket closes at S1; one
    # vector twice: the pair bound is the whole cap.
    e = np.eye(3)[:1]
    for pts, lower in ((np.vstack([e, -e]), 2 * 0.3), (np.vstack([e, e]), 0.3)):
        lo, hi = cap_union_bracket(pts @ pts.T, 0.4, 3)
        assert abs(hi - 2 * 0.3) <= 1e-15 and abs(lo - lower) <= 1e-15
    with pytest.raises(ValueError, match="positive"):
        cap_union_bracket(np.eye(2), 0.0, 3)


def test_aldous_bracket_holds_at_n_200():
    cfg = ScenarioConfig("aldous_demo", (200,), 30, seed=4)
    row = run_scenario(cfg)[0]
    assert row.extras["probe_fallbacks"] == 0
    assert row.extras["max_probe_se"] == 0.0
    assert 0.0 < row.extras["truth_halfwidth_max"] <= 1e-3
    assert row.empirical_mse <= row.extras["mse_upper"] <= row.bound


def test_aldous_small_n_falls_back_to_the_probe_count():
    # At n = 30 the union bound is far too loose; such a replication
    # counts probes exactly as before the bracket existed.
    cfg = ScenarioConfig("aldous_demo", (30,), 6, seed=11, params={"probes": 2000})
    (ctx,) = scenarios._cells(cfg)
    recs = [
        scenarios._aldous_rep(ctx, rng_for(cfg.seed, "aldous_demo", 30, k))
        for k in range(cfg.replications)
    ]
    fallbacks = [k for k, rec in enumerate(recs) if not rec["origin"]]
    assert fallbacks and all(recs[k]["fallback"] for k in fallbacks)
    for k in fallbacks:
        rng = rng_for(cfg.seed, "aldous_demo", 30, k)
        pts = sample_distribution({"kind": "sphere_mixture", "dim": 30}, 30, rng)
        probes = rng.standard_normal((2000, 30))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        mass = float((probes @ pts.T >= scenarios._DEMO_CAP).any(axis=1).mean())
        assert recs[k]["truth"] == 1.0 / 30 + (1.0 - 1.0 / 30) * mass
    row = run_scenario(cfg)[0]
    assert row.extras["probe_fallbacks"] == len(fallbacks)
    assert row.extras["truth_halfwidth_max"] == 0.0
    assert row.extras["max_probe_se"] > 0.0


# -------------------------------------------------- exact ground truth


def test_exact_hull_rep_rebuilds_the_drop_hull_only_for_an_extreme_point(monkeypatch):
    calls = []

    def counted(cloud, *args, **kwargs):
        calls.append(len(cloud))
        return hull_summary(cloud, *args, **kwargs)

    monkeypatch.setattr(scenarios, "hull_summary", counted)
    seen = set()
    for name in ("hull_rect", "hull_disk"):
        cfg = ScenarioConfig(name, (12,), 12, seed=8)
        for ctx in scenarios._cells(cfg):
            n = ctx["n"]
            for k in range(cfg.replications):
                calls.clear()
                rec = scenarios._hull_rep(ctx, rng_for(cfg.seed, ctx["tag"], n, k))
                cloud = sample_distribution(ctx["spec"], n, rng_for(cfg.seed, ctx["tag"], n, k))
                extreme = bool(hull_summary(cloud).extreme_flags[-1])
                assert calls == ([n, n - 1] if extreme else [n])
                want = 1.0 - hull_summary(cloud[:-1]).volume / ctx["support_volume"]
                assert abs(rec["defect_prev"] - want) <= 1e-12
                seen.add(extreme)
    assert seen == {False, True}


def test_skipping_the_drop_hull_leaves_exact_reports_unchanged(monkeypatch):
    names = ("hull_rect", "hull_disk")

    def run():
        return [row for name in names for row in run_scenario(default_config(name, 42, 30))]

    fast = run()
    monkeypatch.setattr(
        scenarios,
        "_drop_last",
        lambda cloud, s_full: hull_summary(cloud[:-1]),
    )
    always = run()
    assert len(fast) == len(always) == 16
    for a, b in zip(fast, always):
        if a.extras["d"] == 3:
            # Qhull's volume of a rebuilt hull may differ in its last bit,
            # and so may the two values read from defect(n - 1).
            for key in ("mean_abs_defect_step", "mse_vs_prev_defect"):
                assert abs(a.extras.pop(key) - b.extras.pop(key)) <= 1e-15
        assert report_text([a]) == report_text([b])


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
        assert TreeAncestor.closure_size(paths, True) == len(paths)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 300),
    st.integers(0, 300),
)
@settings(max_examples=200, deadline=None)
def test_random_forest_draws_exactly_its_node_count(seed, lo, extra):
    hi = lo + extra
    rng = np.random.default_rng(seed)
    probe = np.random.default_rng(seed)
    total = int(probe.integers(lo, hi + 1))  # the count random_forest draws first
    paths = random_forest(rng, lo, hi)
    assert len(paths) == total and lo <= len(paths) <= hi
    nodes = set(paths)
    assert len(nodes) == len(paths)
    assert all(len(p) == 1 or p[:-1] in nodes for p in paths)
    roots = [p for p in paths if len(p) == 1]
    assert roots == [(c,) for c in range(len(roots))]
    assert TreeAncestor.closure_size(paths, True) == len(paths)


def _scalar_draw_forest(rng, min_nodes, max_nodes):
    # random_forest with one rng.integers(0, t) call per node.
    total = int(rng.integers(min_nodes, max_nodes + 1))
    n_comp = min(int(rng.integers(1, 4)), total)
    weights = rng.dirichlet(np.ones(n_comp))
    sizes = 1 + np.floor(weights * (total - n_comp)).astype(int)
    sizes[-1] += total - sizes.sum()
    paths = []
    for c, size in enumerate(sizes):
        comp = [(c,)]
        for t in range(1, int(size)):
            comp.append(comp[int(rng.integers(0, t))] + (t,))
        paths.extend(comp)
    return paths, [int(s) for s in sizes]


@pytest.mark.parametrize("lo, hi", [(1, 1), (1, 4), (2, 3), (3, 3), (15, 40), (200, 300)])
def test_random_forest_matches_one_draw_per_node(lo, hi):
    # Drawing every parent of a component in one call consumes the
    # stream exactly as one draw per node, size-1 components included:
    # the same forest, then the same next draw.
    single = 0
    for seed in range(40):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        want, sizes = _scalar_draw_forest(ref, lo, hi)
        assert random_forest(rng, lo, hi) == want
        assert rng.integers(0, 2**62) == ref.integers(0, 2**62)
        single += sizes.count(1)
    if hi <= 4:
        assert single > 0


def test_random_forest_rejects_an_empty_range():
    rng = np.random.default_rng(0)
    for lo, hi in ((0, 5), (5, 4)):
        with pytest.raises(ValueError, match="min_nodes"):
            random_forest(rng, lo, hi)


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
    hits = convex_sandwiched_count(sample, TreeAncestor())
    closure = TreeAncestor.closure_size(sample, True)
    assert row.empirical_mse == (hits / n - closure / len(paths)) ** 2
    assert row.extras["mean_forest_size"] == len(paths)


@pytest.mark.filterwarnings("ignore:ks_2samp. Exact calculation unsuccessful:RuntimeWarning")
@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("sizes", [(1, 1), (2, 2), (5, 5), (37, 37), (500, 500), (10_000, 10_000),
                                   (3, 7), (40, 60), (499, 500), (9_999, 10_000)])
def test_ks_distance_is_scipys_exact_statistic(sizes, tied):
    from scipy.stats import ks_2samp

    rng = np.random.default_rng([sizes[0], sizes[1], tied])
    for _ in range(3):
        if tied:
            a, b = (rng.integers(0, 8, size).astype(float) for size in sizes)
        else:
            a, b = rng.normal(size=sizes[0]), rng.normal(0.1, 1.0, size=sizes[1])
        assert scenarios._ks_distance(a, b) == ks_2samp(a, b).statistic
