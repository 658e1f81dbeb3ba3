"""Scenario registry and the replicated Monte Carlo runner.

Each scenario draws samples from a known distribution, runs one of the
package's leave-one-out estimators, computes the ground truth, and
aggregates the squared error across replications into a
``BoundReportRow`` that is compared against the module's theoretical
bound.

Ground truths are exact (enumeration or closed form).  The Gaussian
hull scenarios take the hull's exact normal mass from ``gauss_mass``,
and ``coincide_uniform_square`` its exact disk-union area from
``ball_mass``.  The one exception is ``aldous_demo``'s cap-union mass:
a replication takes the midpoint of ``ball_mass``'s certified bracket
and reports its half-width, and where that half-width exceeds
``_BRACKET_HALFWIDTH_MAX`` (small n) it falls back to a Monte Carlo
probe count, reports the probe standard error, and is counted in
``probe_fallbacks``.

A family supplies base cell contexts, one replication drawn from a
given generator, and its rows.  The runner expands the n grid, cuts the
same chunks at any worker count and hands replication k the generator
``rng_for(seed, tag, n, k)``, so results do not depend on scheduling;
aggregation runs in replication order.  ``dna_split``'s population has
its own stream (tag suffix "/population").
"""

from __future__ import annotations

import math
import numbers
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.spatial.distance import cdist

from ..coincidence_test import (
    SequenceRecord,
    ad_two_sample_normalized,
    coincidence_mse_bound,
    coverage_fraction,
    kimura_matrix,
)
from ..convex_volume import (
    consecutive_defect_bound,
    conv_mse_bound,
    hull_summary,
    volume_interval,
)
from ..coverage_predict import holdout_coverage, loo_coverage
from ..poset_estimators import (
    Antichain,
    ProductOrder,
    ReversedNaturals,
    TreeAncestor,
    convex_closure_size,
    convex_sandwiched_count,
    poset_convex_mse_bound,
    upset_closure_size,
    upset_dominated_count,
    upset_mse_bound,
)
from ..unseen_species import (
    good_turing,
    missing_mass,
    unseen_bound,
    unseen_bound_finite_N,
    unseen_bound_general,
)
from .ball_mass import cap_union_bracket, disk_union_area
from .gauss_mass import normal_hull_mass
from .report import BoundReportRow
from .samplers import equicorrelation_cholesky, sample_distribution, zipf_probabilities
from .seeding import rng_for

__all__ = [
    "ScenarioConfig",
    "SCENARIO_NAMES",
    "default_config",
    "run_scenario",
]

@dataclass
class ScenarioConfig:
    """A scenario run: name, sample sizes, replication count, seed.

    ``params`` overrides the scenario's default parameter map; every
    n in the grid must be at least 3 and replications at least 1.
    """

    scenario: str
    n_grid: tuple
    replications: int
    seed: int = 42
    params: dict = field(default_factory=dict)


_DEFAULTS = {
    "unseen_uniform": dict(
        family="unseen", n_grid=(10, 50, 200), replications=2000, params={"N": 100}
    ),
    "unseen_zipf": dict(
        family="unseen", n_grid=(10, 50, 200), replications=2000, params={"N": 100, "s": 1.0}
    ),
    "hull_rect": dict(
        family="hull",
        n_grid=(20, 50, 100, 200),
        replications=1000,
        params={
            "dims": (2, 3),
            "boxes": {2: ((0.0, 4.0), (0.0, 2.0)), 3: ((0.0, 1.0),) * 3},
            "alpha": 0.05,
        },
    ),
    "hull_disk": dict(
        family="hull",
        n_grid=(20, 50, 100, 200),
        replications=1000,
        params={"dims": (2, 3), "alpha": 0.05},
    ),
    "hull_gauss": dict(
        family="hull",
        n_grid=(20, 50, 100, 200),
        replications=1000,
        params={"dims": (2, 3), "corr": 0.0},
    ),
    "hull_gauss_corr": dict(
        family="hull",
        n_grid=(20, 50, 100, 200),
        replications=1000,
        params={"dims": (2, 3), "corr": 0.8},
    ),
    "upset_chain": dict(
        family="poset", n_grid=(30, 100), replications=2000, params={"size": 1000}
    ),
    "upset_antichain": dict(
        family="poset", n_grid=(30, 100), replications=2000, params={"labels": 365}
    ),
    "upset_staircase": dict(
        family="poset", n_grid=(30, 100), replications=2000, params={"parts": 31}
    ),
    "poset_convex_interval": dict(
        family="poset", n_grid=(30, 100), replications=2000, params={"size": 1000}
    ),
    "poset_convex_forest": dict(
        family="poset",
        n_grid=(30, 100),
        replications=2000,
        params={"min_nodes": 50, "max_nodes": 200},
    ),
    "coincide_uniform_square": dict(
        family="coincide",
        n_grid=(30, 100),
        replications=1000,
        params={"radii": (0.05, 0.1, 0.2)},
    ),
    "dna_split": dict(
        family="dna",
        n_grid=(40,),
        replications=500,
        params={
            "population": 200,
            "null_population": 1000,
            "length": 400,
            "mutation": 0.15,
            "freqs": (0.3, 0.2, 0.2, 0.3),
            "split": (40, 160),
            "ks_threshold": 0.15,
        },
    ),
    "coverage_linear": dict(
        family="coverage",
        n_grid=(50, 100, 200, 400),
        replications=500,
        params={"alpha": 0.05, "x_scale": 1.5, "holdout": 2000, "beta": (1.0, 0.5)},
    ),
    "coverage_quadratic_misspec": dict(
        family="coverage",
        n_grid=(50, 100, 200, 400),
        replications=500,
        params={"alpha": 0.05, "x_scale": 1.5, "holdout": 2000, "beta": (1.0, 0.5)},
    ),
    "aldous_demo": dict(
        family="aldous", n_grid=(200,), replications=2000, params={"probes": 20000}
    ),
}

SCENARIO_NAMES = tuple(_DEFAULTS)


def default_config(name: str, seed: int = 42, replications: int | None = None) -> ScenarioConfig:
    """The frozen default configuration for a named scenario."""
    if name not in _DEFAULTS:
        raise ValueError(f"unknown scenario {name!r}")
    base = _DEFAULTS[name]
    return ScenarioConfig(
        scenario=name,
        n_grid=tuple(base["n_grid"]),
        replications=replications if replications is not None else base["replications"],
        seed=seed,
        params=dict(base["params"]),
    )


def _fits(default, value) -> bool:
    """Whether ``value`` has the shape of the param default ``default``.

    Every integer param is a size or a count, so it must be at least 1.
    """
    if isinstance(default, dict):
        return isinstance(value, dict)
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(_fits(default[0], v) for v in value)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    if isinstance(default, int):
        return isinstance(value, numbers.Integral) and value >= 1
    # Also false for NaN, and for an integer too large to be a float.
    return abs(value) <= sys.float_info.max


def _shape(default) -> str:
    if isinstance(default, dict):
        return "a mapping"
    if isinstance(default, tuple):
        return "a list of " + ("integers >= 1" if isinstance(default[0], int) else "finite numbers")
    return "an integer >= 1" if isinstance(default, int) else "a finite number"


def _merged_params(cfg: ScenarioConfig) -> dict:
    params = dict(_DEFAULTS[cfg.scenario]["params"])
    if not isinstance(cfg.params, dict):
        raise ValueError(f"params must be a mapping, got {cfg.params!r}")
    for key, value in cfg.params.items():
        if key not in params:
            raise ValueError(f"unknown params key {key!r} for scenario {cfg.scenario!r}")
        if not _fits(params[key], value):
            raise ValueError(f"params {key!r} must be {_shape(params[key])}, got {value!r}")
    params.update(cfg.params)
    return params


def _sq_err_row(scenario, n, reps, est, truth, bound, extras) -> BoundReportRow:
    err = (np.asarray(est, dtype=float) - np.asarray(truth, dtype=float)) ** 2
    mse = float(err.mean())
    se = float(err.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return BoundReportRow(
        scenario=scenario,
        n=n,
        replications=reps,
        empirical_mse=mse,
        std_err=se,
        bound=bound,
        passed=bool(mse <= bound),
        extras=extras,
    )


def _mean(values) -> float:
    return float(np.mean(np.asarray(values, dtype=float)))


# ---------------------------------------------------------------- unseen

def _unseen_cells(cfg, params):
    N = int(params["N"])
    if "s" in params:
        spec = {"kind": "zipf", "N": N, "s": float(params["s"])}
        probs = zipf_probabilities(N, float(params["s"]))
    else:
        spec = {"kind": "uniform_labels", "N": N}
        probs = np.full(N, 1.0 / N)
    return [{"N": N, "spec": spec, "probs": probs, "uniform": "s" not in params}]


def _unseen_rep(ctx, rng):
    labels = sample_distribution(ctx["spec"], ctx["n"], rng)
    est = good_turing(labels.tolist()).value
    truth = missing_mass(ctx["probs"], labels)
    return {"est": est, "truth": truth}


def _unseen_finish(ctx, cfg, records):
    n, N = ctx["n"], ctx["N"]
    est = [r["est"] for r in records]
    truth = [r["truth"] for r in records]
    three_term, cap = unseen_bound(n)
    extras = {
        "bound_three_term": three_term,
        "bound_cap": cap,
        "bound_general_dist": unseen_bound_general(ctx["probs"], n),
        "mean_estimate": _mean(est),
        "mean_truth": _mean(truth),
        "N": N,
    }
    row = _sq_err_row(cfg.scenario, n, cfg.replications, est, truth, three_term, extras)
    if ctx["uniform"]:
        finite = unseen_bound_finite_N(n, N)
        row.extras["bound_finite_N"] = finite
        row.extras["finite_N_applicable"] = bool(n <= N * math.log(N))
        row.extras["finite_N_pass"] = bool(row.empirical_mse <= finite)
    return [row]


# ------------------------------------------------------------------ hull

def _hull_cells(cfg, params):
    cells = []
    dims = params["dims"]
    if not dims or any(d not in (2, 3) for d in dims):
        raise ValueError(f"params 'dims' must be a nonempty list from {{2, 3}}, got {dims!r}")
    if cfg.scenario == "hull_rect":
        try:
            boxes = {int(kk): v for kk, v in params["boxes"].items()}
        except (TypeError, ValueError):
            raise ValueError(
                f"params 'boxes' keys must be dimensions, got {list(params['boxes'])!r}"
            ) from None
    for d in (int(d) for d in dims):
        chol = None
        if cfg.scenario == "hull_rect":
            bounds = boxes.get(d)
            if not (_fits(((0.0,),), bounds) and len(bounds) == d) or any(
                len(b) != 2 or b[0] >= b[1] for b in bounds
            ):
                raise ValueError(f"params 'boxes' must give {d} intervals (low < high) for d = {d}")
            spec = {"kind": "uniform_box", "bounds": bounds}
            support = float(np.prod([b[1] - b[0] for b in bounds]))
        elif cfg.scenario == "hull_disk":
            spec = {"kind": "uniform_ball", "d": d}
            support = math.pi if d == 2 else 4.0 * math.pi / 3.0
        else:
            corr = float(params.get("corr", 0.0))
            spec = {"kind": "gauss", "d": d, "corr": corr}
            support = None
            chol = equicorrelation_cholesky(d, corr) if corr != 0.0 else None
        cells.append(
            {
                "tag": f"{cfg.scenario}:d{d}",
                "d": d,
                "spec": spec,
                "support_volume": support,
                "chol": chol,
                "alpha": float(params.get("alpha", 0.05)),
            }
        )
    return cells


def _drop_last(cloud, s_full):
    """The hull summary of ``cloud[:-1]``, or None when it is ``s_full``'s
    hull: a point that is not extreme lies in the hull of the others, so
    dropping it leaves the hull unchanged.
    """
    if not s_full.extreme_flags[-1]:
        return None
    return hull_summary(cloud[:-1])


def _hull_rep(ctx, rng):
    n, d = ctx["n"], ctx["d"]
    cloud = sample_distribution(ctx["spec"], n, rng)
    support = ctx["support_volume"]
    uniform = support is not None
    s_full = hull_summary(cloud)
    est = s_full.extreme_count / n

    def defect_of(summary):
        if uniform:
            return 1.0 - summary.volume / support
        return 1.0 - normal_hull_mass(summary, ctx["chol"])

    defect = defect_of(s_full)
    s_drop = _drop_last(cloud, s_full)
    rec = {
        "est": est,
        "defect": defect,
        "defect_prev": defect if s_drop is None else defect_of(s_drop),
        "extreme": s_full.extreme_count,
        "hull_volume": s_full.volume,
    }
    if uniform:
        alpha = ctx["alpha"]
        if s_full.extreme_count < n:
            ci = volume_interval(s_full, d, alpha)
            rec["ratio"] = ci.estimate / support
            rec["ci_cover"] = bool(ci.ci_low <= support <= ci.ci_high)
            rec["ci_two_sided_cover"] = bool(
                ci.estimate / (1.0 + ci.rel_halfwidth) <= support <= ci.ci_high
            )
            rec["mse_event"] = bool(
                abs(est - defect) <= math.sqrt((8 * d + 9) / (alpha * n))
            )
        else:
            rec["ratio"] = None
    return rec


def _hull_finish(ctx, cfg, records):
    n, d = ctx["n"], ctx["d"]
    est = [r["est"] for r in records]
    defect = [r["defect"] for r in records]
    prev = [r["defect_prev"] for r in records]
    steps = np.abs(np.asarray(defect) - np.asarray(prev))
    step_bound = consecutive_defect_bound(n, d)
    extras = {
        "d": d,
        "mean_extreme_count": _mean([r["extreme"] for r in records]),
        "mean_hull_volume": _mean([r["hull_volume"] for r in records]),
        "mean_defect": _mean(defect),
        "mean_abs_defect_step": float(steps.mean()),
        "defect_step_bound": step_bound,
        "defect_step_pass": bool(steps.mean() <= step_bound),
        "mse_vs_prev_defect": _mean(
            (np.asarray(est) - np.asarray(prev)) ** 2
        ),
        # Every hull truth is exact: no probes, no probe error.
        "probe_se_max": 0.0,
        "probe_count": 0,
    }
    if ctx["support_volume"] is not None:
        defined = [r for r in records if r["ratio"] is not None]
        extras["alpha"] = ctx["alpha"]
        extras["ratio_defined"] = len(defined)
        if defined:
            extras["mean_volume_ratio"] = _mean([r["ratio"] for r in defined])
            extras["ci_coverage"] = _mean([r["ci_cover"] for r in defined])
            extras["ci_two_sided_coverage"] = _mean([r["ci_two_sided_cover"] for r in defined])
            extras["mse_event_rate"] = _mean([r["mse_event"] for r in defined])
    return [
        _sq_err_row(cfg.scenario, n, cfg.replications, est, defect, conv_mse_bound(n, d), extras)
    ]


# ----------------------------------------------------------------- poset

# scenario -> (variant, order, convex)
_POSET_VARIANTS = {
    "upset_chain": ("chain", ReversedNaturals(), False),
    "upset_antichain": ("antichain", Antichain(), False),
    "upset_staircase": ("staircase", ProductOrder(2), False),
    "poset_convex_interval": ("interval", ReversedNaturals(), True),
    "poset_convex_forest": ("forest", TreeAncestor(), True),
}


def _poset_cells(cfg, params):
    variant, order, convex = _POSET_VARIANTS[cfg.scenario]
    ctx = {"variant": variant, "order": order, "convex": convex}
    if variant == "staircase":
        parts = int(params["parts"])
        ctx["cells"] = np.array(
            [(a, b) for a in range(1, parts + 1) for b in range(1, parts + 2 - a)],
            dtype=np.int64,
        )
        ctx["ground"] = ctx["cells"].shape[0]
    elif variant == "forest":
        ctx["min_nodes"] = int(params["min_nodes"])
        ctx["max_nodes"] = int(params["max_nodes"])
        if ctx["min_nodes"] > ctx["max_nodes"]:
            raise ValueError("params 'min_nodes' must not exceed params 'max_nodes'")
    else:
        ctx["ground"] = int(params["labels" if variant == "antichain" else "size"])
    return [ctx]


def random_forest(rng, min_nodes: int, max_nodes: int) -> list:
    """A random forest as the root paths of its nodes (``TreeAncestor`` elements).

    The forest has a uniform number of nodes in [min_nodes, max_nodes],
    split among one to three components.  Components hang from distinct
    children of an implicit global root (so the node set is
    order-convex): component c's root is (c,).  Within a component,
    node t attaches to a uniform earlier node, and its path is its
    parent's path extended by t.
    """
    if not 1 <= min_nodes <= max_nodes:
        raise ValueError("need 1 <= min_nodes <= max_nodes")
    total = int(rng.integers(min_nodes, max_nodes + 1))
    n_comp = min(int(rng.integers(1, 4)), total)
    weights = rng.dirichlet(np.ones(n_comp))
    # A root per component, the other nodes shared by weight; the
    # rounding remainder goes to the last component.
    sizes = 1 + np.floor(weights * (total - n_comp)).astype(int)
    sizes[-1] += total - sizes.sum()
    paths = []
    for c, size in enumerate(sizes):
        comp = [(c,)]
        for t in range(1, int(size)):
            comp.append(comp[int(rng.integers(0, t))] + (t,))
        paths.extend(comp)
    return paths


def _poset_rep(ctx, rng):
    n = ctx["n"]
    if ctx["variant"] == "forest":
        paths = random_forest(rng, ctx["min_nodes"], ctx["max_nodes"])
        ground = len(paths)
        sample = [paths[i] for i in rng.integers(0, ground, size=n)]
    elif ctx["variant"] == "staircase":
        ground = ctx["ground"]
        sample = ctx["cells"][rng.integers(0, ground, size=n)]
    else:
        ground = ctx["ground"]
        sample = rng.integers(1, ground + 1, size=n)
    if ctx["convex"]:
        hits = convex_sandwiched_count(sample, ctx["order"])
        closure = convex_closure_size(sample, ctx["order"])
    else:
        hits = upset_dominated_count(sample, ctx["order"])
        closure = upset_closure_size(sample, ctx["order"])
    return {
        "est": hits / n,
        "truth": closure / ground,
        "size_est": n * closure / hits if hits > 0 else None,
        "ground": ground,
    }


def _poset_finish(ctx, cfg, records):
    n = ctx["n"]
    est = [r["est"] for r in records]
    truth = [r["truth"] for r in records]
    defined = [r["size_est"] for r in records if r["size_est"] is not None]
    extras = {
        "variant": ctx["variant"],
        "bound_cap": (7.0 if ctx["convex"] else 3.5) / n,
        "size_estimate_defined": len(defined),
        "mean_size_estimate": _mean(defined) if defined else None,
    }
    if ctx["variant"] == "forest":
        extras["mean_forest_size"] = _mean([r["ground"] for r in records])
    else:
        extras["ground_size"] = ctx["ground"]
    bound = poset_convex_mse_bound(n) if ctx["convex"] else upset_mse_bound(n)
    return [_sq_err_row(cfg.scenario, n, cfg.replications, est, truth, bound, extras)]


# ------------------------------------------------------------- coincide

def _coincide_cells(cfg, params):
    radii = tuple(float(r) for r in params["radii"])
    if not radii or min(radii) < 0.0:
        raise ValueError(f"params 'radii' must be a nonempty list of numbers >= 0, got {radii!r}")
    return [{"radii": radii}]


def _coincide_rep(ctx, rng):
    n = ctx["n"]
    pts = rng.random((n, 2))
    dist = cdist(pts, pts)
    w = [coverage_fraction(dist, r).value for r in ctx["radii"]]
    return {"w": w, "truth": disk_union_area(pts, ctx["radii"]).tolist()}


def _coincide_finish(ctx, cfg, records):
    n = ctx["n"]
    rows = []
    for j, r in enumerate(ctx["radii"]):
        est = [rec["w"][j] for rec in records]
        truth = [rec["truth"][j] for rec in records]
        extras = {
            "r": r,
            "mean_coverage": _mean(est),
            "mean_truth": _mean(truth),
            # The disk-union truth is exact: no probes, no probe error.
            "probe_count": 0,
            "probe_se_mean": 0.0,
            "probe_se_max": 0.0,
        }
        rows.append(
            _sq_err_row(
                cfg.scenario, n, cfg.replications, est, truth, coincidence_mse_bound(n), extras
            )
        )
    return rows


# ------------------------------------------------------------ dna split

_BASE_LETTERS = np.frombuffer(b"AGCT", dtype=np.uint8)


def _codes_to_records(codes: np.ndarray, prefix: str) -> list:
    letters = _BASE_LETTERS[codes]
    return [
        SequenceRecord(f"{prefix}{i}", letters[i].tobytes().decode("ascii"))
        for i in range(codes.shape[0])
    ]


def _mutate_population(ancestor: np.ndarray, count: int, mutation: float, rng) -> np.ndarray:
    seqs = np.tile(ancestor, (count, 1))
    mask = rng.random(seqs.shape) < mutation
    u = rng.random(seqs.shape)
    cur = seqs[mask]
    r = u[mask]
    # Transition with probability 1/2 (flip the low bit), otherwise one
    # of the two transversions with probability 1/4 each.
    mutated = np.where(r < 0.5, cur ^ 1, np.where(r < 0.75, cur ^ 2, cur ^ 3))
    seqs[mask] = mutated
    return seqs


def _dna_cells(cfg, params):
    import scipy.stats  # noqa: F401 -- loaded before the pool forks, so workers inherit it

    split = tuple(int(s) for s in params["split"])
    if len(split) != 2:
        raise ValueError(f"params 'split' must be two sizes, got {params['split']!r}")
    if tuple(cfg.n_grid) != split[:1]:
        raise ValueError(
            f"n_grid must be [{split[0]}], the first 'split' size, got {list(cfg.n_grid)}"
        )
    pop = int(params["population"])
    if split[0] + split[1] > pop:
        raise ValueError(f"params 'split' sizes {list(split)} exceed the population {pop}")
    null_pop = int(params["null_population"])
    drawn = 2 * split[0] + split[1]  # reference, first and second null samples
    if drawn > null_pop:
        raise ValueError(f"params 'null_population' must be at least {drawn}, got {null_pop}")
    length = int(params["length"])
    freqs = np.asarray(params["freqs"], dtype=float)
    if freqs.shape != (4,) or freqs.min() < 0.0 or abs(freqs.sum() - 1.0) > 1e-8:
        raise ValueError(f"params 'freqs' must be four probabilities summing to 1, got {freqs}")
    rng = rng_for(cfg.seed, cfg.scenario + "/population", 0, 0)
    ancestor = rng.choice(4, size=length, p=freqs).astype(np.uint8)
    codes = _mutate_population(ancestor, pop + null_pop, float(params["mutation"]), rng)
    records = _codes_to_records(codes, "seq")
    matrix = kimura_matrix(records)
    return [
        {
            "split": split,
            "population": pop,
            "null_population": null_pop,
            "length": length,
            "mutation": float(params["mutation"]),
            "freqs": tuple(float(f) for f in freqs),
            "ks_threshold": float(params["ks_threshold"]),
            "matrix_obs": matrix[:pop, :pop],
            "matrix_null": matrix[pop:, pop:],
        }
    ]


def _dna_rep(ctx, rng):
    m, rest_size = ctx["split"]
    obs = ctx["matrix_obs"]
    perm = rng.permutation(obs.shape[0])
    inner, outer = perm[:m], perm[m:m + rest_size]
    block = obs[np.ix_(inner, inner)].copy()
    np.fill_diagonal(block, np.inf)
    within = block.min(axis=1)
    to_sample = obs[np.ix_(outer, inner)].min(axis=1)
    ad_obs = ad_two_sample_normalized(within, to_sample)

    null = ctx["matrix_null"]
    perm2 = rng.permutation(null.shape[0])[: 2 * m + rest_size]
    ref, first, second = perm2[:m], perm2[m:2 * m], perm2[2 * m:]
    d1 = null[np.ix_(first, ref)].min(axis=1)
    d2 = null[np.ix_(second, ref)].min(axis=1)
    ad_null = ad_two_sample_normalized(d1, d2)
    return {"ad_obs": ad_obs, "ad_null": ad_null}


def _dna_finish(ctx, cfg, records):
    from scipy.stats import ks_2samp

    obs = np.array([r["ad_obs"] for r in records])
    null = np.array([r["ad_null"] for r in records])
    ks = float(ks_2samp(obs, null).statistic)
    qs = (0.1, 0.25, 0.5, 0.75, 0.9)
    extras = {
        "value_kind": "ks_distance_between_ad_statistic_samples",
        "splits": list(ctx["split"]),
        "population": ctx["population"],
        "null_population": ctx["null_population"],
        "length": ctx["length"],
        "mutation": ctx["mutation"],
        "freqs": list(ctx["freqs"]),
        "ad_obs_quantiles": [float(v) for v in np.quantile(obs, qs)],
        "ad_null_quantiles": [float(v) for v in np.quantile(null, qs)],
        "mean_ad_obs": float(obs.mean()),
        "mean_ad_null": float(null.mean()),
    }
    bound = ctx["ks_threshold"]
    return [
        BoundReportRow(
            scenario=cfg.scenario,
            n=ctx["n"],
            replications=cfg.replications,
            empirical_mse=ks,
            std_err=0.0,
            bound=bound,
            passed=bool(ks <= bound),
            extras=extras,
        )
    ]


# ------------------------------------------------------------- coverage

def _coverage_cells(cfg, params):
    if np.shape(params["beta"]) != (2,):
        raise ValueError(f"params 'beta' must be two coefficients, got {params['beta']!r}")
    return [
        {
            "alpha": float(params["alpha"]),
            "x_scale": float(params["x_scale"]),
            "holdout": int(params["holdout"]),
            "beta": tuple(float(b) for b in params["beta"]),
            "misspec": cfg.scenario == "coverage_quadratic_misspec",
        }
    ]


def _coverage_draw(ctx, rng, count):
    x = ctx["x_scale"] * rng.standard_normal((count, 2))
    eps = rng.standard_normal(count)
    b1, b2 = ctx["beta"]
    if ctx["misspec"]:
        y = b1 * x[:, 0] ** 2 + b2 * x[:, 1] + eps
    else:
        y = b1 * x[:, 0] + b2 * x[:, 1] + eps
    return x, y


def _coverage_rep(ctx, rng):
    x, y = _coverage_draw(ctx, rng, ctx["n"])
    est = loo_coverage(x, y, ctx["alpha"], method="downdate").value
    x_hold, y_hold = _coverage_draw(ctx, rng, ctx["holdout"])
    truth = holdout_coverage(x, y, x_hold, y_hold, ctx["alpha"])
    return {"est": est, "truth": truth}


def _coverage_finish(ctx, cfg, records):
    n = ctx["n"]
    est = [r["est"] for r in records]
    truth = [r["truth"] for r in records]
    extras = {
        "alpha": ctx["alpha"],
        "x_scale": ctx["x_scale"],
        "holdout_size": ctx["holdout"],
        "mean_loo_coverage": _mean(est),
        "mean_holdout_coverage": _mean(truth),
        "bound_kind": "calibrated_envelope_0.25_over_n",
    }
    return [
        _sq_err_row(cfg.scenario, n, cfg.replications, est, truth, 0.25 / n, extras)
    ]


# ------------------------------------------------------------ aldous demo

_DEMO_RADIUS = 0.5 * (1.0 + math.sqrt(2.0))
# Ball membership on the sphere reduces to an inner-product cap.
_DEMO_CAP = 1.0 - _DEMO_RADIUS**2 / 2.0
# Widest certified truth bracket (half-width) a replication accepts;
# past it (small n, where the caps overlap a lot) it counts probes.
_BRACKET_HALFWIDTH_MAX = 1e-3


def _aldous_cells(cfg, params):
    return [{"probes": int(params["probes"])}]


def _aldous_rep(ctx, rng):
    n = ctx["n"]
    pts = sample_distribution({"kind": "sphere_mixture", "dim": n}, n, rng)
    gram = pts @ pts.T
    sq = np.diag(gram).copy()
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * gram, 0.0)
    dist = np.sqrt(d2)
    dist = 0.5 * (dist + dist.T)
    np.fill_diagonal(dist, 0.0)
    est = coverage_fraction(dist, _DEMO_RADIUS).value
    has_origin = bool((sq == 0.0).any())
    rec = {"est": est, "truth": 1.0, "origin": has_origin, "halfwidth": 0.0,
           "probe_se": 0.0, "fallback": False}
    if has_origin:
        # Any fresh draw lies within the radius of the sampled origin
        # (sphere points are at distance exactly 1), so the union of
        # balls covers the whole support.
        return rec
    # A fresh draw is the origin (covered) with probability 1/n, else a
    # uniform direction, covered when it falls in some point's cap.
    lower, upper = cap_union_bracket(gram, _DEMO_CAP, n)
    halfwidth = 0.5 * (1.0 - 1.0 / n) * (upper - lower)
    if halfwidth <= _BRACKET_HALFWIDTH_MAX:
        rec["truth"] = 1.0 / n + (1.0 - 1.0 / n) * 0.5 * (lower + upper)
        rec["halfwidth"] = halfwidth
        return rec
    # The probes are the replication's last draws, so taking the
    # bracket instead changes none of its other draws.
    m = ctx["probes"]
    probes = rng.standard_normal((m, n))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    covered = (probes @ pts.T >= _DEMO_CAP).any(axis=1)
    cap_mass = float(covered.mean())
    rec["truth"] = 1.0 / n + (1.0 - 1.0 / n) * cap_mass
    rec["probe_se"] = math.sqrt(max(cap_mass * (1.0 - cap_mass), 1e-12) / m)
    rec["fallback"] = True
    return rec


def _aldous_finish(ctx, cfg, records):
    n = ctx["n"]
    est = [r["est"] for r in records]
    truth = [r["truth"] for r in records]
    gaps = np.abs(np.asarray(est) - np.asarray(truth))
    halfwidths = np.array([r["halfwidth"] for r in records])
    origin_freq = _mean([r["origin"] for r in records])
    extras = {
        "value_kind": (
            "mse_vs_truth: exact with a sampled origin, else the midpoint of a certified"
            " cap-union bracket, or a probe count where its half-width exceeds"
            f" {_BRACKET_HALFWIDTH_MAX:g}; bound is the 0.05^2 gap envelope"
        ),
        "radius": _DEMO_RADIUS,
        "probe_count": ctx["probes"],
        "probe_fallbacks": sum(r["fallback"] for r in records),
        "mode_zero_freq": 1.0 - origin_freq,
        "mode_one_freq": origin_freq,
        "mean_abs_gap": float(gaps.mean()),
        "max_probe_se": float(max(r["probe_se"] for r in records)),
        "truth_halfwidth_max": float(halfwidths.max()),
        # The squared error at the bracket's worst end, rep by rep.
        "mse_upper": float(np.mean((gaps + halfwidths) ** 2)),
        "mean_truth": _mean(truth),
    }
    return [
        _sq_err_row(cfg.scenario, n, cfg.replications, est, truth, 0.05**2, extras)
    ]


# ------------------------------------------------------------ the runner

class _Family(NamedTuple):
    cells: Callable  # (cfg, params) -> base contexts: one per hull d, else one
    rep: Callable  # (ctx, rng) -> one replication's record
    finish: Callable  # (ctx, cfg, records) -> report rows


_FAMILIES = {
    "unseen": _Family(_unseen_cells, _unseen_rep, _unseen_finish),
    "hull": _Family(_hull_cells, _hull_rep, _hull_finish),
    "poset": _Family(_poset_cells, _poset_rep, _poset_finish),
    "coincide": _Family(_coincide_cells, _coincide_rep, _coincide_finish),
    "dna": _Family(_dna_cells, _dna_rep, _dna_finish),
    "coverage": _Family(_coverage_cells, _coverage_rep, _coverage_finish),
    "aldous": _Family(_aldous_cells, _aldous_rep, _aldous_finish),
}


def _cells(cfg: ScenarioConfig) -> list:
    """The config's cell contexts: each base context once per n of the
    grid, n inner (so hull cells run d by d)."""
    family = _FAMILIES[_DEFAULTS[cfg.scenario]["family"]]
    return [
        {"tag": cfg.scenario, **base, "n": n}
        for base in family.cells(cfg, _merged_params(cfg))
        for n in cfg.n_grid
    ]


def _run_chunk(args):
    family, ctx, seed, lo, hi = args
    rep = _FAMILIES[family].rep
    return [rep(ctx, rng_for(seed, ctx["tag"], ctx["n"], k)) for k in range(lo, hi)]


def _is_int(value) -> bool:
    # JSON's true and false are Python bools, which are Integral too.
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _validate(cfg: ScenarioConfig):
    if cfg.scenario not in _DEFAULTS:
        raise ValueError(f"unknown scenario {cfg.scenario!r}")
    if not cfg.n_grid:
        raise ValueError("empty n grid")
    for n in cfg.n_grid:
        if not _is_int(n):
            raise ValueError(f"n_grid entries must be integers, got {n!r}")
        if n < 3:
            raise ValueError("every n in the grid must be at least 3")
    if not _is_int(cfg.replications):
        raise ValueError(f"replications must be an integer, got {cfg.replications!r}")
    if cfg.replications < 1:
        raise ValueError("replications must be at least 1")
    if not _is_int(cfg.seed):
        raise ValueError(f"seed must be an integer, got {cfg.seed!r}")
    # child_seed reads the seed modulo 2**64, so a seed outside that range
    # would alias one inside it.
    if not 0 <= cfg.seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {cfg.seed}")


def run_scenario(cfg: ScenarioConfig, workers: int = 1) -> list:
    """Run one scenario; returns its BoundReportRow list.

    ``workers`` must be a positive integer.  Each cell's replications
    are cut into up to ``2 * workers`` contiguous chunks.  One worker
    runs the chunks in this process; more queue every chunk of every
    cell on one process pool before any result is read, so a worker
    that is done with one cell moves on to the next instead of waiting
    for the other workers.  The pool holds at most one process per chunk
    and per CPU.  The result is byte-identical for any worker count
    because replication k draws from ``rng_for(seed, tag, n, k)`` and
    aggregation runs in replication order.
    """
    _validate(cfg)
    if not isinstance(workers, numbers.Integral) or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    family = _DEFAULTS[cfg.scenario]["family"]
    cells = _cells(cfg)
    bounds = np.linspace(0, cfg.replications, min(2 * workers, cfg.replications) + 1).astype(int)
    chunks = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    jobs = [(family, cell, cfg.seed, lo, hi) for cell in cells for lo, hi in chunks]
    pool_size = min(workers, len(chunks), os.cpu_count() or 1)
    finish = _FAMILIES[family].finish
    rows = []
    with ProcessPoolExecutor(max_workers=pool_size) if workers > 1 else nullcontext() as pool:
        # Both maps yield in job order, which is replication order.
        results = (map if pool is None else pool.map)(_run_chunk, jobs)
        for cell in cells:
            rows.extend(finish(cell, cfg, [rec for _ in chunks for rec in next(results)]))
    return rows
