"""The CLI gives the library's numbers: on a generated valid input file,
each analysis subcommand's JSON equals, under ``==``, what the library
returns on the same arrays.  Every value is written with ``repr``, so the
file holds the arrays exactly."""

import contextlib
import io
import json

import numpy as np
from hypothesis import given, settings, strategies as st

from cascade.cli import main
from cascade.coincidence_test import (
    coincidence_mse_bound,
    coverage_fraction,
    nn_loo_distances,
)
from cascade.convex_volume import hull_summary, volume_interval
from cascade.coverage_predict import loo_coverage, ols_fit
from cascade.loo_core import size_estimate
from cascade.poset_estimators import ReversedNaturals, count_and_closure, upset_mse_bound
from cascade.unseen_species import good_turing, unseen_bound

SETTINGS = settings(max_examples=20, deadline=None, derandomize=True)
SEEDS = st.integers(0, 2**32 - 1)


def _run(tmp_path_factory, rows, *argv):
    """The JSON that ``cascade <argv[0]> <file of rows> <argv[1:]>`` prints."""
    path = tmp_path_factory.mktemp("input") / "input.txt"
    path.write_text("".join(",".join(repr(v) for v in row) + "\n" for row in rows))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([argv[0], str(path), *argv[1:]]) == 0
    return json.loads(out.getvalue())


@SETTINGS
@given(seed=SEEDS, n=st.integers(4, 30), d=st.integers(1, 3))
def test_hull_matches_the_library(tmp_path_factory, seed, n, d):
    cloud = np.random.default_rng(seed).random((n, d))
    obj = _run(tmp_path_factory, cloud.tolist(), "hull", "--alpha", "0.1")
    summary = hull_summary(cloud)
    expected = {"n": n, "d": d, "extreme_count": summary.extreme_count,
                "hull_volume": summary.volume, "defect_estimate": summary.extreme_count / n}
    if summary.extreme_count < n:
        ci = volume_interval(summary, d, 0.1)
        expected.update(volume_estimate=ci.estimate, ci_low=ci.ci_low, alpha=0.1,
                        ci_high=ci.ci_high if np.isfinite(ci.ci_high) else None)
    assert obj == expected


@SETTINGS
@given(seed=SEEDS, n=st.integers(5, 30), p=st.integers(1, 3))
def test_coverage_downdate_matches_the_library(tmp_path_factory, seed, n, p):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = X @ rng.normal(size=p) + rng.normal(size=n)
    rows = np.column_stack([X, y]).tolist()
    obj = _run(tmp_path_factory, rows, "coverage", "--method", "downdate")
    fit = ols_fit(X, y)
    assert obj == {"n": n, "p": p, "alpha": 0.05, "method": "downdate",
                   "loo_coverage": loo_coverage(fit, 0.05, method="downdate").value,
                   "beta": fit.beta.tolist(), "sigma_hat": fit.sigma_hat}


@SETTINGS
@given(seed=SEEDS, n=st.integers(3, 30), radius=st.floats(0.0, 1.5))
def test_coincide_radius_matches_the_library(tmp_path_factory, seed, n, radius):
    pts = np.random.default_rng(seed).random((n, 2))
    dist = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1))
    obj = _run(tmp_path_factory, dist.tolist(), "coincide", f"--radius={radius!r}")
    nn = nn_loo_distances(dist)
    expected = {"n": n, "radius": radius, "coverage": coverage_fraction(dist, radius).value,
                "mse_bound": coincidence_mse_bound(n),
                "nn_distance": {"min": float(nn.min()), "median": float(np.median(nn)),
                                "max": float(nn.max())}}
    assert {key: obj[key] for key in expected} == expected


@SETTINGS
@given(seed=SEEDS, n=st.integers(1, 40), species=st.integers(1, 20))
def test_unseen_matches_the_library(tmp_path_factory, seed, n, species):
    labels = np.random.default_rng(seed).integers(1, species + 1, size=n).tolist()
    obj = _run(tmp_path_factory, [[v] for v in labels], "unseen")
    est = good_turing(labels)
    three_term, cap = unseen_bound(n) if n >= 3 else (None, None)
    assert obj == {"n": n, "singletons": est.hits, "estimate": est.value,
                   "distinct": len(set(labels)), "mse_bound_three_term": three_term,
                   "mse_bound_cap": cap}


@SETTINGS
@given(seed=SEEDS, n=st.integers(1, 40), top=st.integers(1, 50))
def test_poset_chain_matches_the_library(tmp_path_factory, seed, n, top):
    sample = np.random.default_rng(seed).integers(1, top + 1, size=n).tolist()
    obj = _run(tmp_path_factory, [[v] for v in sample], "poset", "--kind", "chain")
    count, closure = count_and_closure(sample, ReversedNaturals(), False)
    assert obj == {"n": n, "kind": "chain", "dominated_count": count,
                   "mse_bound": upset_mse_bound(n) if n >= 3 else None,
                   "closure_size": closure, "estimate": size_estimate(closure, count, n)}
