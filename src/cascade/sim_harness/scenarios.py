"""Scenario registry and the replicated Monte Carlo runner.

Each scenario draws samples from a known distribution, runs one of the
package's leave-one-out estimators, computes the ground truth, and
aggregates the squared error across replications into a
``BoundReportRow`` that is compared against the module's theoretical
bound.

Ground truths are exact (enumeration or closed form), with two
exceptions.  The Gaussian hull scenarios take the hull's exact normal
mass from ``gauss_mass``, and ``coincide_uniform_square`` its exact
disk-union area from ``ball_mass``.  The ``coverage_*`` truth is a Monte
Carlo count: the fraction of a fresh holdout sample (``holdout`` draws,
2,000 by default) inside the fitted intervals.  ``aldous_demo``'s
cap-union mass is the other exception: a replication takes the
midpoint of ``ball_mass``'s certified bracket and reports its
half-width, and where that half-width exceeds ``_BRACKET_HALFWIDTH_MAX``
(small n) it falls back to a Monte Carlo probe count, reports the probe
standard error, and is counted in ``probe_fallbacks``.

A family supplies base cell contexts, one replication's record drawn
from a given generator, and the rows it builds from its cell and the
cell's float columns.  A cell context is the scenario's params as
``validate_config`` returns them, each in its default's type, plus
what the family derives from them (a hull's d and support, a Kimura
matrix); a family that derives nothing takes the params alone.  The
runner adds the scenario name, the replication count and n, expands
the n grid, cuts the same chunks at any worker count and hands
replication k the generator ``rng_for(seed, tag, n, k)``, so results
do not depend on scheduling.  It stacks a cell's records, in
replication order, into one float column per record key; a None reads
as NaN, the one "undefined" value.  ``dna_split``'s population has its
own stream (tag suffix "/population").

``run_scenarios`` runs a list of configs on one process pool: every
chunk of every scenario is queued before any result is read, each
worker receives the run's cell table once, and a job is a cell index
and a replication range.  While it runs, the OpenBLAS libraries numpy
and scipy loaded hold one thread each; their earlier counts come back
when it returns or raises.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
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
    nn_loo_distances,
)
from ..convex_volume import (
    consecutive_defect_bound,
    conv_mse_bound,
    hull_summary,
    volume_interval,
)
from ..coverage_predict import holdout_coverage, loo_coverage, ols_fit
from ..loo_core import _check_array, _check_int, _check_number, _check_record, size_estimate
from ..poset_estimators import (
    Antichain,
    ProductOrder,
    ReversedNaturals,
    TreeAncestor,
    count_and_closure,
    poset_convex_mse_bound,
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
    "run_scenarios",
    "validate_config",
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


def _typed(key, default, value):
    """``value`` in the type of the param default ``default`` (a tuple
    of the element type for a list), else a ``ValueError`` naming
    ``params key``; a list is checked element by element.

    Every integer param is a size or a count, so it must be at least 1.
    A mapping is kept as it is; ``_check_ranges`` keys ``boxes`` by d.
    """
    name = f"params {key!r}"
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ValueError(f"{name} must be a mapping, got {value!r}")
        return value
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{name} must be a list, got {value!r}")
        return tuple(_typed(key, default[0], v) for v in value)
    if isinstance(default, int):
        _check_int(name, value, 1)
        return int(value)
    # Also rejects an integer too large to be a float.
    _check_number(name, value, "be a finite number", lambda v: abs(v) <= sys.float_info.max)
    return float(value)


def _merged_params(cfg: ScenarioConfig) -> dict:
    """The default params overridden by ``cfg.params``, typed and range-checked."""
    defaults = _DEFAULTS[cfg.scenario]["params"]
    if not isinstance(cfg.params, dict):
        raise ValueError(f"params must be a mapping, got {cfg.params!r}")
    params = dict(defaults)
    for key, value in cfg.params.items():
        if key not in defaults:
            raise ValueError(f"unknown params key {key!r} for scenario {cfg.scenario!r}")
        params[key] = _typed(key, defaults[key], value)
    _check_ranges(cfg, params)
    return params


def _check_ranges(cfg: ScenarioConfig, params: dict) -> None:
    """The param rules beyond shape, each naming its key; ``boxes`` is
    keyed by d once ``dims`` holds.  The cell builders check nothing, so a
    bad entry fails before any scenario runs."""

    def need(ok, key, rule):
        if not ok:
            raise ValueError(f"params {key!r} must {rule}, got {params[key]!r}")

    dims = params.get("dims")
    if dims is not None:
        need(dims and set(dims) <= {2, 3} and len(set(dims)) == len(dims), "dims",
             "be a nonempty list from {2, 3} without repeats")
    if "alpha" in params:
        need(0.0 < params["alpha"] < 1.0, "alpha", "lie in (0, 1)")
    if "boxes" in params:
        # A JSON key is a string, a Python one may be an int.
        given = {str(k): v for k, v in params["boxes"].items()}
        stray = sorted(set(given) - {str(d) for d in dims})
        # The default boxes key every d, also where default_config copied them.
        if stray and params["boxes"] != _DEFAULTS[cfg.scenario]["params"]["boxes"]:
            raise ValueError(f"params 'boxes' keys {stray} are not a d in 'dims' {list(dims)}")
        boxes = {d: _typed("boxes", ((0.0,),), given.get(str(d), ())) for d in dims}
        for d, box in boxes.items():
            need(len(box) == d and all(len(b) == 2 and b[0] < b[1] for b in box),
                 "boxes", f"give {d} intervals (low < high) for d = {d}")
        params["boxes"] = boxes
    if "corr" in params:
        need(all(-1.0 / (d - 1) < params["corr"] < 1.0 for d in dims), "corr",
             "keep the correlation matrix positive definite for every d in 'dims'")
    if "radii" in params:
        radii = params["radii"]
        need(radii and min(radii) >= 0.0 and len(set(radii)) == len(radii), "radii",
             "be a nonempty list of distinct numbers >= 0")
    for key in ("size", "labels"):  # a poset ground set, drawn from as int64
        if key in params:
            need(params[key] <= 2**63 - 1, key, "be at most 2**63 - 1")
    if "max_nodes" in params:
        need(params["min_nodes"] <= params["max_nodes"], "min_nodes", "not exceed 'max_nodes'")
    if "beta" in params:
        need(len(params["beta"]) == 2, "beta", "be two coefficients")
    if "x_scale" in params:
        need(params["x_scale"] != 0, "x_scale", "be nonzero, or every design is singular")
    if "mutation" in params:
        need(0.0 < params["mutation"] < 1.0, "mutation", "lie in (0, 1)")
    if "freqs" in params:
        f = params["freqs"]
        need(len(f) == 4 and 0.0 <= min(f) and max(f) <= 1.0
             and abs(math.fsum(f) - 1.0) <= 1e-8, "freqs", "be four probabilities summing to 1")
    if "split" in params:
        split, n_grid = params["split"], list(cfg.n_grid)
        need(len(split) == 2 and n_grid == [split[0]], "split",
             f"be two sizes, the first the only n in n_grid {n_grid}")
        need(sum(split) <= params["population"], "split", "not exceed 'population' in sum")
        need(2 * split[0] + split[1] <= params["null_population"], "null_population",
             f"hold the reference and both null samples, 2 * {split[0]} + {split[1]}")


def _row(ctx, value, std_err, bound, extras) -> BoundReportRow:
    """The cell's report row: ``value`` is checked against ``bound``."""
    return BoundReportRow(ctx["scenario"], ctx["n"], ctx["replications"], value, std_err,
                          bound, extras)


def _sq_err_row(ctx, est, truth, bound, extras) -> BoundReportRow:
    """The row of the columns' mean squared error and its standard error."""
    err = (est - truth) ** 2
    reps = ctx["replications"]
    se = float(err.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return _row(ctx, float(err.mean()), se, bound, extras)


# ---------------------------------------------------------------- unseen

def _unseen_cells(cfg, params):
    N = params["N"]
    if "s" in params:
        spec = {"kind": "zipf", "N": N, "s": params["s"]}
        probs = zipf_probabilities(N, params["s"])
    else:
        spec = {"kind": "uniform_labels", "N": N}
        probs = np.full(N, 1.0 / N)
    return [{**params, "spec": spec, "probs": probs}]


def _unseen_rep(ctx, rng):
    labels = sample_distribution(ctx["spec"], ctx["n"], rng)
    est = good_turing(labels.tolist()).value
    truth = missing_mass(ctx["probs"], labels)
    return {"est": est, "truth": truth}


def _unseen_finish(ctx, cols):
    n, N = ctx["n"], ctx["N"]
    three_term, cap = unseen_bound(n)
    extras = {
        "bound_three_term": three_term,
        "bound_cap": cap,
        "bound_general_dist": unseen_bound_general(ctx["probs"], n),
        "mean_estimate": cols["est"].mean(),
        "mean_truth": cols["truth"].mean(),
        "N": N,
    }
    row = _sq_err_row(ctx, cols["est"], cols["truth"], three_term, extras)
    if "s" not in ctx:  # uniform labels
        finite = unseen_bound_finite_N(n, N)
        row.extras["bound_finite_N"] = finite
        row.extras["finite_N_applicable"] = bool(n <= N * math.log(N))
        row.extras["finite_N_pass"] = bool(row.empirical_mse <= finite)
    return [row]


# ------------------------------------------------------------------ hull

def _hull_cells(cfg, params):
    cells = []
    for d in params["dims"]:
        chol = None
        if cfg.scenario == "hull_rect":
            bounds = params["boxes"][d]
            spec = {"kind": "uniform_box", "bounds": bounds}
            support = float(np.prod([b[1] - b[0] for b in bounds]))
        elif cfg.scenario == "hull_disk":
            spec = {"kind": "uniform_ball", "d": d}
            support = math.pi ** (d / 2) / math.gamma(d / 2 + 1)
        else:
            corr = params["corr"]
            spec = {"kind": "gauss", "d": d, "corr": corr}
            support = None
            chol = equicorrelation_cholesky(d, corr) if corr != 0.0 else None
        cells.append({**params, "tag": f"{cfg.scenario}:d{d}", "d": d, "spec": spec,
                      "support_volume": support, "chol": chol})
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
                abs(est - defect) <= math.sqrt(conv_mse_bound(n, d) / alpha)
            )
        else:
            rec.update(dict.fromkeys(("ratio", "ci_cover", "ci_two_sided_cover", "mse_event")))
    return rec


def _hull_finish(ctx, cols):
    n, d = ctx["n"], ctx["d"]
    est, defect, prev = cols["est"], cols["defect"], cols["defect_prev"]
    steps = np.abs(defect - prev)
    step_bound = consecutive_defect_bound(n, d)
    extras = {
        "d": d,
        "mean_extreme_count": cols["extreme"].mean(),
        "mean_hull_volume": cols["hull_volume"].mean(),
        "mean_defect": defect.mean(),
        "mean_abs_defect_step": steps.mean(),
        "defect_step_bound": step_bound,
        "defect_step_pass": bool(steps.mean() <= step_bound),
        "mse_vs_prev_defect": ((est - prev) ** 2).mean(),
        # Every hull truth is exact, but perfbench's identity check
        # still reads this key.
        "probe_se_max": 0.0,
    }
    if ctx["support_volume"] is not None:
        defined = ~np.isnan(cols["ratio"])
        extras["alpha"] = ctx["alpha"]
        extras["ratio_defined"] = int(defined.sum())
        if defined.any():
            extras["mean_volume_ratio"] = cols["ratio"][defined].mean()
            extras["ci_coverage"] = cols["ci_cover"][defined].mean()
            extras["ci_two_sided_coverage"] = cols["ci_two_sided_cover"][defined].mean()
            extras["mse_event_rate"] = cols["mse_event"][defined].mean()
    return [_sq_err_row(ctx, est, defect, conv_mse_bound(n, d), extras)]


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
    ctx = {**params, "variant": variant, "order": order, "convex": convex}
    if variant == "staircase":
        parts = params["parts"]
        ctx["cells"] = np.array(
            [(a, b) for a in range(1, parts + 1) for b in range(1, parts + 2 - a)],
            dtype=np.int64,
        )
        ctx["ground"] = ctx["cells"].shape[0]
    elif variant != "forest":
        ctx["ground"] = params["labels" if variant == "antichain" else "size"]
    return [ctx]


def random_forest(rng, min_nodes: int, max_nodes: int) -> list:
    """A random forest as the root paths of its nodes (``TreeAncestor`` elements).

    The forest has a uniform number of nodes in [min_nodes, max_nodes],
    split among one to three components.  Components hang from distinct
    children of an implicit global root (so the node set is
    order-convex): component c's root is (c,).  Within a component,
    node t attaches to a uniform earlier node, and its path is its
    parent's path extended by t.  1 <= min_nodes <= max_nodes (integer rule).
    """
    _check_int("max_nodes", max_nodes, 1)
    _check_int("min_nodes", min_nodes, 1, max_nodes)
    total = int(rng.integers(min_nodes, max_nodes + 1))
    n_comp = min(int(rng.integers(1, 4)), total)
    weights = rng.dirichlet(np.ones(n_comp))
    # A root per component, the other nodes shared by weight; the
    # rounding remainder goes to the last component.
    sizes = 1 + np.floor(weights * (total - n_comp)).astype(int)
    sizes[-1] += total - sizes.sum()
    paths = []
    for c, size in enumerate(sizes):
        # One call draws every parent: node t's from [0, t), the same
        # stream as one draw per node.
        comp = [(c,)]
        for t, parent in enumerate(rng.integers(0, np.arange(1, size)).tolist(), start=1):
            comp.append(comp[parent] + (t,))
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
    hits, closure = count_and_closure(sample, ctx["order"], ctx["convex"])
    return {
        "est": hits / n,
        "truth": closure / ground,
        "size_est": size_estimate(closure, hits, n),
        "ground": ground,
    }


def _poset_finish(ctx, cols):
    n = ctx["n"]
    size_est = cols["size_est"][~np.isnan(cols["size_est"])]
    extras = {
        "variant": ctx["variant"],
        "bound_cap": (7.0 if ctx["convex"] else 3.5) / n,
        "size_estimate_defined": size_est.size,
        "mean_size_estimate": size_est.mean() if size_est.size else None,
    }
    if ctx["variant"] == "forest":
        extras["mean_forest_size"] = cols["ground"].mean()
    else:
        extras["ground_size"] = ctx["ground"]
    bound = poset_convex_mse_bound(n) if ctx["convex"] else upset_mse_bound(n)
    return [_sq_err_row(ctx, cols["est"], cols["truth"], bound, extras)]


# ------------------------------------------------------------- coincide

def _coincide_rep(ctx, rng):
    n = ctx["n"]
    pts = rng.random((n, 2))
    dist = cdist(pts, pts)
    w = [coverage_fraction(dist, r).value for r in ctx["radii"]]
    return {"w": w, "truth": disk_union_area(pts, ctx["radii"]).tolist()}


def _coincide_finish(ctx, cols):
    rows = []
    # One column per radius: the transposes' rows.
    for r, est, truth in zip(ctx["radii"], cols["w"].T, cols["truth"].T):
        extras = {"r": r, "mean_coverage": est.mean(), "mean_truth": truth.mean()}
        rows.append(_sq_err_row(ctx, est, truth, coincidence_mse_bound(ctx["n"]), extras))
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
    pop = params["population"]
    rng = rng_for(cfg.seed, cfg.scenario + "/population", 0, 0)
    ancestor = rng.choice(4, size=params["length"], p=params["freqs"]).astype(np.uint8)
    codes = _mutate_population(ancestor, pop + params["null_population"], params["mutation"], rng)
    records = _codes_to_records(codes, "seq")
    return [
        {
            **params,
            "matrix_obs": kimura_matrix(records[:pop]),
            "matrix_null": kimura_matrix(records[pop:]),
        }
    ]


def _dna_rep(ctx, rng):
    m, rest_size = ctx["split"]
    obs = ctx["matrix_obs"]
    perm = rng.permutation(obs.shape[0])
    inner, outer = perm[:m], perm[m:m + rest_size]
    within = nn_loo_distances(obs[np.ix_(inner, inner)])
    to_sample = obs[np.ix_(outer, inner)].min(axis=1)
    ad_obs = ad_two_sample_normalized(within, to_sample)

    null = ctx["matrix_null"]
    perm2 = rng.permutation(null.shape[0])[: 2 * m + rest_size]
    ref, first, second = perm2[:m], perm2[m:2 * m], perm2[2 * m:]
    d1 = null[np.ix_(first, ref)].min(axis=1)
    d2 = null[np.ix_(second, ref)].min(axis=1)
    ad_null = ad_two_sample_normalized(d1, d2)
    return {"ad_obs": ad_obs, "ad_null": ad_null}


def _ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance max |F_a - F_b|, rounded to
    the 1/lcm(len(a), len(b)) lattice that its exact values lie on.

    This is scipy's ``ks_2samp(a, b).statistic`` whenever both sizes
    are at most 10,000: above that, scipy switches to its asymptotic mode
    and returns the difference unrounded.
    """
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    diff = (np.searchsorted(a, pooled, side="right") / a.size
            - np.searchsorted(b, pooled, side="right") / b.size)
    lcm = math.lcm(a.size, b.size)
    return round(float(np.abs(diff).max()) * lcm) / lcm


def _dna_finish(ctx, cols):
    obs, null = cols["ad_obs"], cols["ad_null"]
    ks = _ks_distance(obs, null)
    qs = (0.1, 0.25, 0.5, 0.75, 0.9)
    extras = {
        "value_kind": "ks_distance_between_ad_statistic_samples",
        "splits": ctx["split"],
        **{k: ctx[k] for k in ("population", "null_population", "length", "mutation", "freqs")},
        "ad_obs_quantiles": [float(v) for v in np.quantile(obs, qs)],
        "ad_null_quantiles": [float(v) for v in np.quantile(null, qs)],
        "mean_ad_obs": float(obs.mean()),
        "mean_ad_null": float(null.mean()),
    }
    return [_row(ctx, ks, 0.0, ctx["ks_threshold"], extras)]


# ------------------------------------------------------------- coverage

def _coverage_draw(ctx, rng, count):
    x = ctx["x_scale"] * rng.standard_normal((count, 2))
    eps = rng.standard_normal(count)
    b1, b2 = ctx["beta"]
    if ctx["tag"] == "coverage_quadratic_misspec":
        y = b1 * x[:, 0] ** 2 + b2 * x[:, 1] + eps
    else:
        y = b1 * x[:, 0] + b2 * x[:, 1] + eps
    return x, y


def _coverage_rep(ctx, rng):
    x, y = _coverage_draw(ctx, rng, ctx["n"])
    fit = ols_fit(x, y)
    est = loo_coverage(fit, ctx["alpha"], method="downdate").value
    x_hold, y_hold = _coverage_draw(ctx, rng, ctx["holdout"])
    truth = holdout_coverage(fit, x_hold, y_hold, ctx["alpha"])
    return {"est": est, "truth": truth}


def _coverage_finish(ctx, cols):
    extras = {
        "alpha": ctx["alpha"],
        "x_scale": ctx["x_scale"],
        "holdout_size": ctx["holdout"],
        "mean_loo_coverage": cols["est"].mean(),
        "mean_holdout_coverage": cols["truth"].mean(),
        "bound_kind": "calibrated_envelope_0.25_over_n",
    }
    return [_sq_err_row(ctx, cols["est"], cols["truth"], 0.25 / ctx["n"], extras)]


# ------------------------------------------------------------ aldous demo

_DEMO_RADIUS = 0.5 * (1.0 + math.sqrt(2.0))
# Ball membership on the sphere reduces to an inner-product cap.
_DEMO_CAP = 1.0 - _DEMO_RADIUS**2 / 2.0
# Widest certified truth bracket (half-width) a replication accepts;
# past it (small n, where the caps overlap a lot) it counts probes.
_BRACKET_HALFWIDTH_MAX = 1e-3


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


def _aldous_finish(ctx, cols):
    est, truth, halfwidths = cols["est"], cols["truth"], cols["halfwidth"]
    gaps = np.abs(est - truth)
    origin_freq = cols["origin"].mean()
    extras = {
        "value_kind": (
            "mse_vs_truth: exact with a sampled origin, else the midpoint of a certified"
            " cap-union bracket, or a probe count where its half-width exceeds"
            f" {_BRACKET_HALFWIDTH_MAX:g}; bound is the 0.05^2 gap envelope"
        ),
        "radius": _DEMO_RADIUS,
        "probe_count": ctx["probes"],
        "probe_fallbacks": int(cols["fallback"].sum()),
        "mode_zero_freq": 1.0 - origin_freq,
        "mode_one_freq": origin_freq,
        "mean_abs_gap": gaps.mean(),
        "max_probe_se": cols["probe_se"].max(),
        "truth_halfwidth_max": halfwidths.max(),
        # The squared error at the bracket's worst end, rep by rep.
        "mse_upper": ((gaps + halfwidths) ** 2).mean(),
        "mean_truth": truth.mean(),
    }
    return [_sq_err_row(ctx, est, truth, 0.05**2, extras)]


# ------------------------------------------------------------ the runner

def _params_cell(cfg, params):
    """The one base context of a family that derives nothing: its params."""
    return [params]


class _Family(NamedTuple):
    cells: Callable  # (cfg, params) -> base contexts: one per hull d, else one
    rep: Callable  # (ctx, rng) -> one replication's record
    finish: Callable  # (ctx, cols) -> report rows


_FAMILIES = {
    "unseen": _Family(_unseen_cells, _unseen_rep, _unseen_finish),
    "hull": _Family(_hull_cells, _hull_rep, _hull_finish),
    "poset": _Family(_poset_cells, _poset_rep, _poset_finish),
    "coincide": _Family(_params_cell, _coincide_rep, _coincide_finish),
    "dna": _Family(_dna_cells, _dna_rep, _dna_finish),
    "coverage": _Family(_params_cell, _coverage_rep, _coverage_finish),
    "aldous": _Family(_params_cell, _aldous_rep, _aldous_finish),
}


def _cells(cfg: ScenarioConfig) -> list:
    """The config's cell contexts, from ``validate_config``'s params: each
    base context once per n of the grid, n inner (so hull cells run d by d),
    with the scenario name and replication count."""
    params = validate_config(cfg)
    family = _FAMILIES[_DEFAULTS[cfg.scenario]["family"]]
    return [
        {"tag": cfg.scenario, **base, "scenario": cfg.scenario,
         "replications": cfg.replications, "n": n}
        for base in family.cells(cfg, params)
        for n in cfg.n_grid
    ]


def validate_config(cfg: ScenarioConfig) -> dict:
    """Check a config (a ScenarioConfig, by the record rule): its scenario,
    n grid, replications, seed and params, without building its cells;
    return the params, each in its default's type (``boxes`` maps each d
    in ``dims`` to its intervals)."""
    _check_record("cfg", cfg, ScenarioConfig)
    if not isinstance(cfg.scenario, str):
        raise ValueError(f"scenario must be a string, got {cfg.scenario!r}")
    if cfg.scenario not in _DEFAULTS:
        raise ValueError(f"unknown scenario {cfg.scenario!r}")
    if not isinstance(cfg.n_grid, (list, tuple)):
        raise ValueError(f"n_grid must be a list of sample sizes, got {cfg.n_grid!r}")
    if not cfg.n_grid:
        raise ValueError("n_grid is empty")
    for n in cfg.n_grid:
        _check_int("n_grid entries", n, 3, rule="be integers, each at least 3")
    if len(set(cfg.n_grid)) < len(cfg.n_grid):
        raise ValueError(f"n_grid must not repeat an n, got {list(cfg.n_grid)}")
    _check_int("replications", cfg.replications, 1)
    # child_seed's range, checked before any scenario runs.
    _check_int("seed", cfg.seed, 0, 2**64 - 1, rule="be an integer in [0, 2**64)")
    return _merged_params(cfg)


# The run's cell table in a pool worker, stored once by _take_table.
_WORKER_TABLE = ()


def _take_table(table) -> None:
    global _WORKER_TABLE
    _WORKER_TABLE = table


def _run_chunk(job, table=None):
    """Replications lo to hi - 1 of cell i of ``table``; a pool worker
    reads the table ``_take_table`` stored."""
    i, lo, hi = job
    rep, ctx, seed = (_WORKER_TABLE if table is None else table)[i]
    return [rep(ctx, rng_for(seed, ctx["tag"], ctx["n"], k)) for k in range(lo, hi)]


@contextmanager
def _one_blas_thread():
    """Hold every OpenBLAS that numpy and scipy loaded at one thread, and
    restore each earlier count on exit; yields the names of the libraries
    it capped.  A library or symbol it cannot find is skipped, and that
    library keeps its own setting."""
    import ctypes
    import glob

    import scipy

    capped = []  # (name, setter, earlier count)
    for pkg in (np, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so"))):
            try:  # RTLD_NOLOAD: only a library this process already loaded
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            except OSError:
                continue
            # numpy's is the 64-bit-integer build, whose symbols end in 64_.
            for suffix in ("64_", ""):
                get = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
                put = getattr(lib, "scipy_openblas_set_num_threads" + suffix, None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    capped.append((os.path.basename(path), put, get()))
                    put(1)
                    break
    try:
        yield [name for name, _, _ in capped]
    finally:
        for _, put, earlier in capped:
            put(earlier)


def run_scenarios(cfgs, workers: int = 1) -> list:
    """Run the scenarios of ``cfgs`` (a nonempty list of ScenarioConfig,
    by the array rule); returns their BoundReportRow lists joined, in
    ``cfgs`` order.

    Every config is checked and its cells built before any replication
    runs.  ``workers`` is an integer >= 1 (integer rule).  Each cell's
    replications are cut into up to ``2 * workers`` contiguous chunks.
    One worker runs the chunks in this process; more share one process
    pool, which holds at most one process per chunk of a cell and per
    CPU, and which gets every chunk of every scenario before any result
    is read, so a worker that is done with one cell moves on to the next.
    The pool's initializer hands each worker the cell table (inherited
    under fork, pickled once per worker otherwise).  OpenBLAS runs one
    thread throughout (``_one_blas_thread``).  The result is
    byte-identical for any worker count because replication k draws from
    ``rng_for(seed, tag, n, k)`` and a cell's records are stacked into
    its columns in replication order.
    """
    _check_int("workers", workers, 1)
    cfgs = _check_array("cfgs", cfgs, "be a nonempty list of ScenarioConfig", kind=None,
                        ok=lambda c: all(isinstance(cfg, ScenarioConfig) for cfg in c))
    # table: (rep, ctx, seed) per cell; cells: (finish, ctx, chunk count) per cell.
    table, cells, jobs = [], [], []
    for cfg in cfgs:
        ctxs = _cells(cfg)
        family = _FAMILIES[_DEFAULTS[cfg.scenario]["family"]]
        bounds = np.linspace(0, cfg.replications,
                             min(2 * workers, cfg.replications) + 1).astype(int)
        chunks = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
        for ctx in ctxs:
            jobs.extend((len(table), lo, hi) for lo, hi in chunks)
            table.append((family.rep, ctx, cfg.seed))
            cells.append((family.finish, ctx, len(chunks)))
    table = tuple(table)
    pool_size = min(workers, max(count for *_, count in cells), os.cpu_count() or 1)
    pool = (ProcessPoolExecutor(max_workers=pool_size, initializer=_take_table, initargs=(table,))
            if workers > 1 else nullcontext())
    rows = []
    with _one_blas_thread(), pool:
        # Both maps yield in job order, which is replication order.
        if workers > 1:
            results = pool.map(_run_chunk, jobs)
        else:
            results = map(functools.partial(_run_chunk, table=table), jobs)
        for finish, ctx, count in cells:
            records = [rec for _ in range(count) for rec in next(results)]
            # None reads as NaN; a list-valued key gives one column per entry.
            cols = {k: np.array([r[k] for r in records], dtype=float) for k in records[0]}
            rows.extend(finish(ctx, cols))
    return rows


def run_scenario(cfg: ScenarioConfig, workers: int = 1) -> list:
    """Run one scenario; returns its BoundReportRow list.  The same as
    ``run_scenarios([cfg], workers)``."""
    return run_scenarios([cfg], workers)
