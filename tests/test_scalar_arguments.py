"""One rule per argument kind.  Every integer argument is an int, not a
bool, at or above its floor; every number argument is a real, not a bool
and not NaN, inside its function's range.  A bad one raises ``ValueError``
whose message starts with the argument's name."""

import ast
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

import cascade
from cascade import (
    BoundInputs,
    LooEstimate,
    ProductOrder,
    coincidence_mse_bound,
    consecutive_defect_bound,
    conv_mse_bound,
    coverage_fraction,
    holdout_coverage,
    hull_summary,
    in_hull,
    loo_coverage,
    nn_test_pvalue,
    ols_fit,
    poset_convex_mse_bound,
    predict_interval,
    size_estimate,
    unseen_bound,
    unseen_bound_finite_N,
    unseen_bound_general,
    upset_mse_bound,
    volume_ci,
    volume_interval,
)
from cascade import sim_harness
from cascade.sim_harness import (
    BoundReportRow,
    ScenarioConfig,
    child_seed,
    rng_for,
    run_scenario,
    run_scenarios,
    validate_config,
)
from cascade.sim_harness.ball_mass import cap_union_bracket
from cascade.sim_harness.samplers import (
    equicorrelation_cholesky,
    sample_distribution,
    zipf_probabilities,
)
from cascade.sim_harness.scenarios import random_forest

nan, inf = math.nan, math.inf
SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]])
SUMMARY = hull_summary(SQUARE)
X = np.array([[1.0], [2.0], [3.0], [4.0]])
Y = np.array([1.1, 1.9, 3.2, 3.9])
FIT = ols_fit(X, Y)
D = np.array([[0.0, 1.0], [1.0, 0.0]])


def rng():
    return np.random.default_rng(0)


# (callable, argument, kind, a good value, out-of-range values, call with
# the argument set to v).  An integer argument must also reject every
# infinity and 2.5; a number argument lists the infinities outside its range.
TABLE = [
    ("LooEstimate", "n", int, 4, (0,), lambda v: LooEstimate(n=v, hits=1)),
    ("LooEstimate", "hits", int, 1, (-1, 5), lambda v: LooEstimate(n=4, hits=v)),
    ("BoundInputs", "theta", float, 0.1, (-0.1, 0.3, inf, -inf),
     lambda v: BoundInputs(v, 0.0, 0.0, 5)),
    ("BoundInputs", "delta_prime", float, 0.0, (-1e-9, inf, -inf),
     lambda v: BoundInputs(0.1, v, 0.0, 5)),
    ("BoundInputs", "delta_double_prime", float, 0.0, (-1e-9, inf, -inf),
     lambda v: BoundInputs(0.1, 0.0, v, 5)),
    ("BoundInputs", "n", int, 5, (2,), lambda v: BoundInputs(0.1, 0.0, 0.0, v)),
    ("size_estimate", "observed", float, 3, (-1.0, inf, -inf), lambda v: size_estimate(v, 1, 4)),
    ("size_estimate", "hits", int, 1, (-1, 5), lambda v: size_estimate(3, v, 4)),
    ("size_estimate", "n", int, 4, (0,), lambda v: size_estimate(3, 1, v)),
    ("in_hull", "tol", float, 1e-9, (0.0, -inf), lambda v: in_hull([0.5, 0.5], SQUARE, tol=v)),
    ("hull_summary", "tol", float, 1e-9, (0.0, 1.0, inf, -inf), lambda v: hull_summary(SQUARE, tol=v)),
    ("volume_interval", "d", int, 2, (0,), lambda v: volume_interval(SUMMARY, v, 0.05)),
    ("volume_interval", "alpha", float, 0.05, (0.0, 1.0, inf, -inf),
     lambda v: volume_interval(SUMMARY, 2, v)),
    ("volume_ci", "alpha", float, 0.05, (0.0, inf, -inf), lambda v: volume_ci(SQUARE, v)),
    ("conv_mse_bound", "n", int, 10, (2,), lambda v: conv_mse_bound(v, 2)),
    ("conv_mse_bound", "d", int, 2, (0,), lambda v: conv_mse_bound(10, v)),
    ("consecutive_defect_bound", "n", int, 10, (2,), lambda v: consecutive_defect_bound(v, 2)),
    ("consecutive_defect_bound", "d", int, 2, (0,), lambda v: consecutive_defect_bound(10, v)),
    ("coverage_fraction", "r", float, 1.0, (-0.1, -inf), lambda v: coverage_fraction(D, v)),
    ("coincidence_mse_bound", "n", int, 9, (2,), coincidence_mse_bound),
    ("nn_test_pvalue", "query_nn_distance", float, 0.5, (),
     lambda v: nn_test_pvalue([1.0, 2.0], v)),
    ("unseen_bound", "n", int, 10, (2,), unseen_bound),
    ("unseen_bound_finite_N", "n", int, 10, (2,), lambda v: unseen_bound_finite_N(v, 5)),
    ("unseen_bound_finite_N", "N", int, 5, (0,), lambda v: unseen_bound_finite_N(10, v)),
    ("unseen_bound_general", "n", int, 10, (2,), lambda v: unseen_bound_general([0.5, 0.5], v)),
    ("ProductOrder", "d", int, 2, (0,), ProductOrder),
    ("upset_mse_bound", "n", int, 10, (2,), upset_mse_bound),
    ("poset_convex_mse_bound", "n", int, 10, (2,), poset_convex_mse_bound),
    ("predict_interval", "alpha", float, 0.1, (0.0, 1.0, inf, -inf),
     lambda v: predict_interval(FIT, [1.0], v)),
    ("loo_coverage", "alpha", float, 0.1, (0.0, 1.0, inf, -inf), lambda v: loo_coverage(FIT, v)),
    ("holdout_coverage", "alpha", float, 0.1, (0.0, 1.0, inf, -inf),
     lambda v: holdout_coverage(FIT, X, Y, v)),
    ("BoundReportRow", "n", int, 5, (0,), lambda v: BoundReportRow("x", v, 10, 0.1, 0.0, 0.25)),
    ("BoundReportRow", "replications", int, 10, (0,),
     lambda v: BoundReportRow("x", 5, v, 0.1, 0.0, 0.25)),
    ("BoundReportRow", "empirical_mse", float, 0.1, (-0.1, inf, -inf),
     lambda v: BoundReportRow("x", 5, 10, v, 0.0, 0.25)),
    ("BoundReportRow", "std_err", float, 0.0, (-0.1, -inf),
     lambda v: BoundReportRow("x", 5, 10, 0.1, v, 0.25)),
    ("BoundReportRow", "bound", float, 0.25, (-0.1, inf, -inf),
     lambda v: BoundReportRow("x", 5, 10, 0.1, 0.0, v)),
    # The config layer: validate_config checks a ScenarioConfig, naming
    # each param as params 'key'.
    ("ScenarioConfig", "replications", int, 2, (0,),
     lambda v: validate_config(ScenarioConfig("upset_chain", (12,), v))),
    ("ScenarioConfig", "seed", int, 5, (-1, 2**64),
     lambda v: validate_config(ScenarioConfig("upset_chain", (12,), 2, seed=v))),
    ("ScenarioConfig", "n_grid entries", int, 12, (2,),
     lambda v: validate_config(ScenarioConfig("upset_chain", (v,), 2))),
    ("ScenarioConfig", "params 'N'", int, 100, (0,),
     lambda v: validate_config(ScenarioConfig("unseen_uniform", (12,), 2, params={"N": v}))),
    ("ScenarioConfig", "params 'x_scale'", float, 1.5, (10**400, inf, -inf),
     lambda v: validate_config(
         ScenarioConfig("coverage_linear", (12,), 2, params={"x_scale": v}))),
    ("run_scenario", "workers", int, 1, (0,),
     lambda v: run_scenario(ScenarioConfig("upset_chain", (12,), 2, seed=5), workers=v)),
    ("run_scenarios", "workers", int, 1, (0,),
     lambda v: run_scenarios([ScenarioConfig("upset_chain", (12,), 2, seed=5)], workers=v)),
    ("random_forest", "min_nodes", int, 2, (0, 6), lambda v: random_forest(rng(), v, 5)),
    ("random_forest", "max_nodes", int, 5, (0,), lambda v: random_forest(rng(), 1, v)),
    ("sample_distribution", "n", int, 3, (0,),
     lambda v: sample_distribution({"kind": "gauss", "d": 2}, v, rng())),
    # The label count in the spec of each label sampler.
    ("sample_distribution(uniform_labels)", "N", int, 3, (0,),
     lambda v: sample_distribution({"kind": "uniform_labels", "N": v}, 3, rng())),
    ("sample_distribution(zipf)", "N", int, 3, (0,),
     lambda v: sample_distribution({"kind": "zipf", "N": v}, 3, rng())),
    ("zipf_probabilities", "N", int, 3, (0,), lambda v: zipf_probabilities(v, 1.0)),
    ("zipf_probabilities", "s", float, 1.0, (inf, -inf), lambda v: zipf_probabilities(3, v)),
    ("equicorrelation_cholesky", "d", int, 3, (0,), lambda v: equicorrelation_cholesky(v, 0.2)),
    ("equicorrelation_cholesky", "corr", float, 0.2, (-0.5, 1.0, inf, -inf),
     lambda v: equicorrelation_cholesky(3, v)),
    ("cap_union_bracket", "c", float, 0.5, (0.0, -inf), lambda v: cap_union_bracket(np.eye(2), v, 3)),
    ("child_seed", "seed", int, 5, (-1, 2**64), lambda v: child_seed(v, "t", 1, 1)),
    ("child_seed", "n", int, 0, (-1,), lambda v: child_seed(5, "t", v, 1)),
    ("child_seed", "k", int, 0, (-1,), lambda v: child_seed(5, "t", 1, v)),
    ("rng_for", "seed", int, 5, (-1, 2**64), lambda v: rng_for(v, "t", 1, 1)),
    ("rng_for", "n", int, 0, (-1,), lambda v: rng_for(5, "t", v, 1)),
    ("rng_for", "k", int, 0, (-1,), lambda v: rng_for(5, "t", 1, v)),
]

# Public callables that take no integer or number argument (a bool flag
# is not one), checked against their annotations below.
NO_SCALAR_ARGUMENT = frozenset({
    "Antichain", "ReversedNaturals", "TreeAncestor", "SequenceRecord", "ad_two_sample",
    "ad_two_sample_normalized", "convex_closure_size", "convex_sandwiched_count",
    "count_and_closure", "good_turing", "kimura_matrix", "loo_estimate", "loo_mse_bound",
    "missing_mass", "nn_loo_distances", "ols_fit", "upset_closure_size",
    "upset_dominated_count", "emit_plot_data", "emit_report", "fnv1a64", "report_text",
    "validate_config",
})

# Public callables with integer or number arguments that neither rule checks.
UNCHECKED = {
    "HullSummary": "a result record that hull_summary builds",
    "OlsFit": "a result record that ols_fit builds",
    "PredictionInterval": "a result record that predict_interval builds",
    "VolumeEstimate": "a result record that volume_interval builds",
    "default_config": "the config layer: validate_config checks what it returns",
    "mix64": "reduces any integer modulo 2**64",
}


def _bad_values(kind, out_of_range):
    extra = (nan, inf, -inf, 2.5) if kind is int else (nan,)
    return extra + (True, "3", None) + tuple(out_of_range)


@pytest.mark.parametrize(
    "name, arg, kind, good, out_of_range, call",
    TABLE,
    ids=[f"{row[0]}-{row[1]}" for row in TABLE],
)
def test_every_bad_scalar_argument_is_a_value_error_naming_it(
        name, arg, kind, good, out_of_range, call):
    call(good)
    for value in _bad_values(kind, out_of_range):
        with pytest.raises(ValueError, match=rf"^{arg} must") as err:
            call(value)
        assert repr(value) in str(err.value), (name, value)


def test_every_public_callable_is_in_the_table_or_listed():
    # A new public function with a scalar argument fails here until it
    # uses the rules and joins TABLE, or is listed with its reason.
    public = {
        name
        for pkg in (cascade, sim_harness)
        for name in pkg.__all__
        if callable(getattr(pkg, name))
    }
    checked = {row[0] for row in TABLE}
    assert public - checked - NO_SCALAR_ARGUMENT - set(UNCHECKED) == set()
    assert NO_SCALAR_ARGUMENT | set(UNCHECKED) <= public
    assert checked & (NO_SCALAR_ARGUMENT | set(UNCHECKED)) == set()
    for name in NO_SCALAR_ARGUMENT:
        fn = getattr(cascade, name, None) or getattr(sim_harness, name)
        annotations = [p.annotation for p in inspect.signature(fn).parameters.values()]
        assert not {"int", "float"} & set(annotations), name


def _names_numbers(path) -> bool:
    """Whether a module imports or reads the ``numbers`` ABCs."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and node.id == "numbers":
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "numbers":
            return True
    return False


def test_only_the_rules_and_good_turing_read_the_numbers_abcs():
    # The two rules in loo_core are the one place a scalar's type is
    # tested; good_turing keeps a per-type count test for speed.
    src = Path(cascade.__file__).parent
    readers = {p.relative_to(src).as_posix() for p in src.rglob("*.py") if _names_numbers(p)}
    assert readers == {"loo_core.py", "unseen_species.py"}
