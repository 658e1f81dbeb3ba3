"""One rule for array, sequence and object arguments.  Every array
argument converts once with ``np.asarray`` to a nonempty array of its
dimension, of finite reals or of integers, that passes its function's
test; every sequence of other elements is a nonempty iterable that is no
string or mapping, each element of the right type; every oracle has the
method its function calls, and every record is of its type.  A bad one
raises ``ValueError`` whose message starts with the argument's name,
never a ``TypeError`` or an ``AttributeError``."""

import inspect
import math
import os

import numpy as np
import pytest

import cascade
from cascade import (
    Antichain,
    BoundInputs,
    ProductOrder,
    ReversedNaturals,
    SequenceRecord,
    TreeAncestor,
    ad_two_sample,
    ad_two_sample_normalized,
    convex_closure_size,
    convex_sandwiched_count,
    count_and_closure,
    coverage_fraction,
    good_turing,
    holdout_coverage,
    hull_summary,
    in_hull,
    kimura_matrix,
    loo_coverage,
    loo_estimate,
    loo_mse_bound,
    missing_mass,
    nn_loo_distances,
    nn_test_pvalue,
    ols_fit,
    predict_interval,
    unseen_bound_general,
    upset_closure_size,
    upset_dominated_count,
    volume_ci,
    volume_interval,
)
from cascade import sim_harness
from cascade.sim_harness import (
    BoundReportRow,
    ScenarioConfig,
    emit_plot_data,
    emit_report,
    report_text,
    run_scenarios,
    validate_config,
)
from cascade.loo_core import _check_array
from cascade.sim_harness.ball_mass import cap_union_bracket, disk_union_area
from test_scalar_arguments import TABLE as SCALAR_TABLE

nan, inf = math.nan, math.inf
SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]])
X = np.array([[1.0], [2.0], [3.0], [4.0]])
Y = np.array([1.1, 1.9, 3.2, 3.9])
FIT = ols_fit(X, Y)
SUMMARY = hull_summary(SQUARE)
D = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
RECORDS = [SequenceRecord("a", "ACGTACGT"), SequenceRecord("b", "ACGAACGT")]
ROW = BoundReportRow("x", 5, 10, 0.1, 0.0, 0.25)

# The bad values every argument in TABLE rejects, unless its row lists
# one as valid input: None, a ragged list, a list of strings, a bare
# string, a mapping, an empty list and a bare number.
COMMON_BAD = {
    "None": None,
    "ragged": [[1.0], [1.0, 2.0]],
    "strings": ["a", "b"],
    "string": "ab",
    "dict": {"a": 1.0},
    "empty": [],
    "number": 3.0,
}


def _with_entry(good, value):
    """``good`` as a float array with its first entry set to ``value``."""
    bad = np.array(good, dtype=float)
    bad.flat[0] = value
    return bad


def _bad_values(numeric, good, valid, extra):
    bad = {k: v for k, v in COMMON_BAD.items() if k not in valid}
    if numeric:  # NaN and infinite entries
        bad.update({f"{v} entry": _with_entry(good, v) for v in (nan, inf, -inf)})
    bad.update(extra)
    return bad


def _member(candidate, rest):
    return candidate in rest


# (callable, argument, numeric, a good value, names of COMMON_BAD values
# that are valid input, further bad values by name, call with the
# argument set to v).
TABLE = [
    ("ad_two_sample", "x", True, [0.1, 0.5, 0.9], (), {},
     lambda v: ad_two_sample(v, [0.2, 0.4, 0.7])),
    ("ad_two_sample", "y", True, [0.2, 0.4, 0.7], (), {},
     lambda v: ad_two_sample([0.1, 0.5, 0.9], v)),
    ("ad_two_sample_normalized", "x", True, [0.1, 0.5, 0.9], (), {},
     lambda v: ad_two_sample_normalized(v, [0.2, 0.4, 0.7])),
    ("ad_two_sample_normalized", "y", True, [0.2, 0.4, 0.7], (), {},
     lambda v: ad_two_sample_normalized([0.1, 0.5, 0.9], v)),
    ("coverage_fraction", "D", True, D, (), {"one object": [[0.0]], "not square": D[:2]},
     lambda v: coverage_fraction(v, 1.0)),
    ("nn_loo_distances", "D", True, D, (), {"bools": D > 0}, nn_loo_distances),
    ("nn_test_pvalue", "reference_nn", True, [1.0, 2.0], (), {"matrix": [[1.0, 2.0]]},
     lambda v: nn_test_pvalue(v, 1.5)),
    ("kimura_matrix", "records", False, RECORDS, (),
     {"bases": ["ACGT", "ACGA"], "one record": RECORDS[:1], "a record": RECORDS[0]},
     kimura_matrix),
    ("hull_summary", "cloud", True, SQUARE, (), {"vector": [0.5, 0.5], "no column": [[], []]},
     hull_summary),
    ("volume_ci", "cloud", True, SQUARE, (), {"vector": [0.5, 0.5]},
     lambda v: volume_ci(v, 0.05)),
    # Records: each must be of its type; a bad one is any other value.
    ("volume_interval", "summary", False, SUMMARY, (), {"fit": FIT},
     lambda v: volume_interval(v, 2, 0.1)),
    ("in_hull", "query", True, [0.5, 0.5], (), {"matrix": [[0.5, 0.5]]},
     lambda v: in_hull(v, SQUARE)),
    ("in_hull", "cloud", True, SQUARE, (), {"wrong dimension": SQUARE[:, :1]},
     lambda v: in_hull([0.5, 0.5], v)),
    ("ols_fit", "X", True, X, (), {"vector": [1.0, 2.0], "square": X[:1]},
     lambda v: ols_fit(v, Y[:len(v)] if isinstance(v, np.ndarray) else Y)),
    ("ols_fit", "y", True, Y, (), {"short": Y[:3]}, lambda v: ols_fit(X, v)),
    ("predict_interval", "fit", False, FIT, (), {"summary": SUMMARY},
     lambda v: predict_interval(v, [1.0], 0.1)),
    ("loo_coverage", "fit", False, FIT, (), {"summary": SUMMARY},
     lambda v: loo_coverage(v, 0.1)),
    ("holdout_coverage", "fit", False, FIT, (), {"summary": SUMMARY},
     lambda v: holdout_coverage(v, X, Y, 0.1)),
    ("loo_mse_bound", "b", False, BoundInputs(0.1, 0.01, 0.01, 10), (),
     {"record": {"theta": 0.1, "delta_prime": 0.01, "delta_double_prime": 0.01, "n": 10}},
     loo_mse_bound),
    ("predict_interval", "x_new", True, [1.0], (), {"wrong dimension": [1.0, 2.0]},
     lambda v: predict_interval(FIT, v, 0.1)),
    ("holdout_coverage", "test_X", True, X, (), {"no rows": np.empty((0, 1))},
     lambda v: holdout_coverage(FIT, v, Y[:len(v)] if isinstance(v, np.ndarray) else Y, 0.1)),
    ("holdout_coverage", "test_y", True, Y, (), {"short": Y[:3]},
     lambda v: holdout_coverage(FIT, X, v, 0.1)),
    ("missing_mass", "probabilities", True, [0.5, 0.5], (),
     {"negative": [1.5, -0.5], "sum 0.9": [0.5, 0.4]}, lambda v: missing_mass(v, [1, 2])),
    ("missing_mass", "sample", True, [1, 2], (),
     {"floats": [1.0, 2.0], "bools": [True, False], "out of range": [1, 3]},
     lambda v: missing_mass([0.5, 0.5], v)),
    ("unseen_bound_general", "probabilities", True, [0.5, 0.5], (), {"negative": [1.5, -0.5]},
     lambda v: unseen_bound_general(v, 5)),
    # Labels are any hashable values: strings are labels, and a mapping
    # holds label counts, which must be integers >= 1.
    ("good_turing", "sample", False, ["a", "b", "a"], ("strings",),
     {"unhashable": [[1], [2]], "counts": {"a": 0}}, good_turing),
    # Poset samples: each order reads its own elements.
    ("count_and_closure", "sample", True, [2, 5, 5, 3], (), {"floats": [1.5, 2.0]},
     lambda v: count_and_closure(v, ReversedNaturals(), False)),
    ("count_and_closure", "oracle", False, ReversedNaturals(), (), {"object": object()},
     lambda v: count_and_closure([2, 5, 5, 3], v, False)),
    ("count_and_closure(Antichain)", "sample", False, ["a", "b", "a"], ("strings",),
     {"unhashable": [[1], [2]]}, lambda v: count_and_closure(v, Antichain(), False)),
    ("count_and_closure(ProductOrder)", "sample", True, [(1, 2), (2, 1)], (),
     {"vector": [1, 2], "three columns": [(1, 2, 3)]},
     lambda v: count_and_closure(v, ProductOrder(2), False)),
    # A path is any sequence of hashable child indices, of any length.
    ("count_and_closure(TreeAncestor)", "sample", False, [(1,), (1, 2)], ("ragged", "strings"),
     {"numbers": [1, 2], "unhashable": [[[1]], [[2]]]},
     lambda v: count_and_closure(v, TreeAncestor(), True)),
    ("upset_dominated_count", "sample", True, [2, 5, 5, 3], (), {},
     lambda v: upset_dominated_count(v, ReversedNaturals())),
    ("upset_dominated_count", "oracle", False, ReversedNaturals(), (), {"object": object()},
     lambda v: upset_dominated_count([2, 5, 5, 3], v)),
    ("upset_closure_size", "sample", True, [2, 5, 5, 3], (), {},
     lambda v: upset_closure_size(v, ReversedNaturals())),
    ("upset_closure_size", "oracle", False, ReversedNaturals(), (), {"leq only": _member},
     lambda v: upset_closure_size([2, 5, 5, 3], v)),
    ("convex_sandwiched_count", "sample", True, [2, 5, 5, 3], (), {},
     lambda v: convex_sandwiched_count(v, ReversedNaturals())),
    ("convex_sandwiched_count", "oracle", False, ReversedNaturals(), (), {"object": object()},
     lambda v: convex_sandwiched_count([2, 5, 5, 3], v)),
    ("convex_closure_size", "sample", True, [2, 5, 5, 3], (), {},
     lambda v: convex_closure_size(v, ReversedNaturals())),
    ("convex_closure_size", "oracle", False, ReversedNaturals(), (), {"leq only": _member},
     lambda v: convex_closure_size([2, 5, 5, 3], v)),
    # Points are any values the oracle reads, lists and strings too.
    ("loo_estimate", "sample", False, [1, 2, 2], ("ragged", "strings"), {},
     lambda v: loo_estimate(_member, v)),
    ("loo_estimate", "oracle", False, _member, (), {"object": object()},
     lambda v: loo_estimate(v, [1, 2, 2])),
    ("report_text", "rows", False, [ROW], (), {"records": [ROW.as_record()]}, report_text),
    ("emit_report", "rows", False, [ROW], (), {"records": [ROW.as_record()]},
     lambda v: emit_report(v, os.devnull)),
    ("emit_plot_data", "rows", False, [ROW], (), {"records": [ROW.as_record()]},
     lambda v: emit_plot_data(v, os.devnull)),
    ("validate_config", "cfg", False, ScenarioConfig("upset_chain", (12,), 2, seed=5), (),
     {"name": "upset_chain"}, validate_config),
    ("run_scenarios", "cfgs", False, [ScenarioConfig("upset_chain", (12,), 2, seed=5)], (),
     {"names": ["upset_chain"]}, run_scenarios),
    ("disk_union_area", "pts", True, [[0.2, 0.3], [0.7, 0.6]], (),
     {"outside": [[0.5, 1.5]], "three columns": [[0.1, 0.2, 0.3]]},
     lambda v: disk_union_area(v, [0.1])),
    ("disk_union_area", "radii", True, [0.1, 0.2], (), {"negative": [-0.1]},
     lambda v: disk_union_area([[0.5, 0.5]], v)),
    ("cap_union_bracket", "gram", True, np.eye(2), (), {"not square": np.ones((2, 3))},
     lambda v: cap_union_bracket(v, 0.5, 3)),
]

# Public callables' array, sequence or object arguments that the rule
# does not check, with the reason.
UNCHECKED = {
    ("HullSummary", "extreme_flags"): "a result record that hull_summary builds",
    ("HullSummary", "hull"): "a result record that hull_summary builds",
    ("OlsFit", "beta"): "a result record that ols_fit builds",
    ("OlsFit", "r_inverse"): "a result record that ols_fit builds",
    ("OlsFit", "X"): "a result record that ols_fit builds",
    ("OlsFit", "y"): "a result record that ols_fit builds",
    ("BoundReportRow", "extras"): "free-form diagnostics, made JSON-ready as they are stored",
    ("ScenarioConfig", "n_grid"): "validate_config checks it and names it",
    ("ScenarioConfig", "params"): "validate_config checks each param and names it",
    ("run_scenario", "cfg"): "run_scenarios checks it as cfgs",
    ("emit_report", "path"): "a file path; a bad one is an OSError naming it",
    ("emit_plot_data", "path"): "a file path; a bad one is an OSError naming it",
}

# Annotations of scalar arguments: the scalar rules' kinds, flags and text.
SCALAR_ANNOTATIONS = frozenset({"int", "float", "bool", "str", "bytes", "int | None"})


@pytest.mark.parametrize(
    "name, arg, numeric, good, valid, extra, call",
    TABLE,
    ids=[f"{row[0]}-{row[1]}" for row in TABLE],
)
def test_every_bad_array_argument_is_a_value_error_naming_it(
        name, arg, numeric, good, valid, extra, call):
    call(good)
    for value in (COMMON_BAD[k] for k in valid):
        call(value)
    for label, value in _bad_values(numeric, good, valid, extra).items():
        with pytest.raises(ValueError, match=rf"^{arg} ") as err:
            call(value)
        assert " must " in str(err.value), (name, label)


def test_every_public_array_argument_is_in_the_table_or_listed():
    # A new public function with an array, sequence or object argument
    # fails here until it uses the rule and joins TABLE, or is listed
    # with its reason.
    checked = {(row[0], row[1]) for row in TABLE} | {(row[0], row[1]) for row in SCALAR_TABLE}
    found = set()
    for pkg in (cascade, sim_harness):
        for name in pkg.__all__:
            fn = getattr(pkg, name)
            if not callable(fn):
                continue
            for p in inspect.signature(fn).parameters.values():
                if p.annotation not in SCALAR_ANNOTATIONS:
                    found.add((name, p.name))
    assert found - checked - set(UNCHECKED) == set()
    assert set(UNCHECKED) <= found
    assert not checked & set(UNCHECKED)


def test_an_array_of_the_wanted_kind_is_not_copied():
    floats, ints = np.array([1.0, 2.0]), np.array([1, 2])
    assert _check_array("x", floats, "be floats") is floats
    assert _check_array("x", ints, "be integers", kind="i") is ints
    assert _check_array("x", ints, "be floats").dtype == np.float64
    listed = [1, 2]
    assert _check_array("x", listed, "be elements", kind=None) is listed
    assert _check_array("x", (v for v in listed), "be elements", kind=None) == listed
