import csv
import io
import itertools
import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cascade.cli
import cascade.convex_volume
import cascade.coverage_predict
import cascade.poset_estimators
import cascade.sim_harness.scenarios
from cascade.cli import main
from cascade.convex_volume import volume_ci
from cascade.loo_core import size_estimate
from cascade.poset_estimators import ProductOrder, ReversedNaturals, count_and_closure
from cascade.sim_harness import (
    SCENARIO_NAMES,
    default_config,
    validate_config,
)
from cascade.unseen_species import good_turing


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_unseen_command(tmp_path, capsys):
    path = tmp_path / "labels.txt"
    path.write_text("a b a c\n")
    rc, out, _ = run_cli(capsys, "unseen", str(path))
    assert rc == 0
    obj = json.loads(out)
    assert obj["n"] == 4
    assert obj["singletons"] == 2
    assert obj["estimate"] == pytest.approx(0.5)
    assert obj["distinct"] == 3
    assert obj["mse_bound_cap"] == pytest.approx(5.0 / 2.0)


def test_unseen_comma_tokens(tmp_path, capsys):
    path = tmp_path / "labels.csv"
    path.write_text("x,y\nx,z\n")
    rc, out, _ = run_cli(capsys, "unseen", str(path))
    obj = json.loads(out)
    assert (rc, obj["n"], obj["distinct"]) == (0, 4, 3)


def test_unseen_empty_input_fails(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("\n")
    rc, _, err = run_cli(capsys, "unseen", str(path))
    assert rc == 2
    assert "no labels" in err


def test_unseen_splits_labels_on_commas_and_whitespace(monkeypatch, tmp_path, capsys):
    # One split over commas and whitespace gives the tokens of splitting
    # on whitespace, then each chunk on commas, dropping empty pieces.
    text = "a,b  c,,d\n,e\tf,\r\n\n g,,\x0bh ,i, \u2003j\n,,\n"
    want = [t for chunk in text.split() for t in chunk.split(",") if t]
    seen = []

    def spy(counts):
        seen.append(counts)
        return good_turing(counts)

    monkeypatch.setattr(cascade.cli, "good_turing", spy)
    path = tmp_path / "labels.txt"
    path.write_text(text, newline="")
    rc, out, _ = run_cli(capsys, "unseen", str(path))
    assert rc == 0 and seen == [Counter(want)] and type(seen[0]) is Counter
    assert want == list("abcdefghij")
    assert json.loads(out)["distinct"] == 10


@pytest.mark.parametrize(
    "text, want",
    [
        # Comments, blank and whitespace-only lines are skipped; CRLF
        # and lone CR end lines; each line picks its own separator.
        ("# x y\r\n1 2\r\n\r\n  \t\n3,4\r5\t6\n  # 7 8\n7 ,8\n", [[1, 2], [3, 4], [5, 6], [7, 8]]),
        # Anything float() reads, including underscores, inf and nan.
        ("1_0, -inf\nnan,+1e3\n", [[10.0, -math.inf], [math.nan, 1000.0]]),
        ("Infinity 1.5E-3 -0\n", [[math.inf, 1.5e-3, -0.0]]),
        ("7\n", [[7.0]]),
    ],
)
def test_matrix_parser_semantics(text, want):
    got = cascade.cli._matrix_from_text(text)
    want = np.array(want, dtype=float)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "no numeric rows"),
        ("# only a comment\n\n   \n", "no numeric rows"),
        ("1,2\n3\n", "ragged rows"),
        ("1 2\n3,4,5\n", "ragged rows"),
        # A bad token anywhere is reported before ragged rows, even
        # after them.
        ("1,2\n3\n4,x\n", "could not convert string to float: 'x'"),
        ("1,2,\n", "could not convert string to float: ''"),
        ("1,,2\n", "could not convert string to float: ''"),
    ],
)
def test_matrix_parser_errors(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        cascade.cli._matrix_from_text(text)


def test_hull_command(tmp_path, capsys):
    path = tmp_path / "cloud.csv"
    rows = ["0,0", "5,0", "5,2", "0,2", "1,1", "2,1", "3,1"]
    path.write_text("\n".join(rows) + "\n")
    rc, out, _ = run_cli(capsys, "hull", str(path))
    assert rc == 0
    obj = json.loads(out)
    assert obj["n"] == 7 and obj["d"] == 2
    assert obj["extreme_count"] == 4
    assert obj["hull_volume"] == pytest.approx(10.0)
    assert obj["defect_estimate"] == pytest.approx(4 / 7)
    assert obj["volume_estimate"] == pytest.approx(10.0 / (1.0 - 4 / 7))
    assert obj["ci_low"] == pytest.approx(obj["volume_estimate"])
    assert obj["alpha"] == 0.05


def test_hull_on_two_identical_rows_claims_no_interval(tmp_path, capsys):
    # Below n = 3 the MSE bound does not hold, so the interval is
    # unbounded, as it was before the half-width came from conv_mse_bound.
    path = tmp_path / "cloud.csv"
    path.write_text("0.5,0.25\n0.5,0.25\n")
    rc, out, err = run_cli(capsys, "hull", str(path))
    assert (rc, err) == (0, "")
    assert json.loads(out) == {
        "alpha": 0.05,
        "ci_high": None,
        "ci_low": 0.0,
        "d": 2,
        "defect_estimate": 0.0,
        "extreme_count": 0,
        "hull_volume": 0.0,
        "n": 2,
        "volume_estimate": 0.0,
    }


def test_hull_runs_one_hull_summary_with_the_given_tol(tmp_path, capsys, monkeypatch):
    tols = []
    original = cascade.convex_volume.hull_summary

    def recording(cloud, tol=cascade.convex_volume.DEFAULT_TOL):
        tols.append(tol)
        return original(cloud, tol=tol)

    monkeypatch.setattr(cascade.cli, "hull_summary", recording)
    monkeypatch.setattr(cascade.convex_volume, "hull_summary", recording)
    path = tmp_path / "cloud.csv"
    path.write_text("0,0\n5,0\n5,2\n0,2\n1,1\n2,1\n3,1\n")
    rc, _, _ = run_cli(capsys, "hull", str(path), "--tol", "1e-6")
    assert rc == 0
    assert tols == [1e-6]


@pytest.mark.parametrize("tol", ["1", "2", "inf"])
def test_hull_tol_of_one_or_more_fails(tmp_path, capsys, tol):
    path = tmp_path / "cloud.csv"
    path.write_text("1,2\n3,4\n5,7\n")
    rc, out, err = run_cli(capsys, "hull", str(path), "--tol", tol)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "tol must be below 1" in err


def test_hull_interval_matches_volume_ci(tmp_path, capsys):
    cloud = np.random.default_rng(8).random((1500, 2)) * [3.0, 2.0]
    path = tmp_path / "cloud.csv"
    path.write_text("\n".join(f"{float(x)!r},{float(y)!r}" for x, y in cloud) + "\n")
    rc, out, _ = run_cli(capsys, "hull", str(path), "--alpha", "0.2")
    assert rc == 0
    obj = json.loads(out)
    ci = volume_ci(cloud, 0.2)
    assert math.isfinite(ci.ci_high)
    assert obj["volume_estimate"] == ci.estimate
    assert obj["ci_low"] == ci.ci_low
    assert obj["ci_high"] == ci.ci_high


def test_hull_estimates_a_4d_cloud(tmp_path, capsys):
    # The unit 4-cube's 16 corners plus 500 points strictly inside.
    corners = np.array(list(itertools.product([0.0, 1.0], repeat=4)))
    inside = 0.05 + 0.9 * np.random.default_rng(3).random((500, 4))
    path = tmp_path / "cube4.csv"
    rows = np.vstack([corners, inside])
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n")
    rc, out, _ = run_cli(capsys, "hull", str(path))
    assert rc == 0
    obj = json.loads(out)
    assert (obj["d"], obj["extreme_count"]) == (4, 16)
    assert obj["hull_volume"] == pytest.approx(1.0, rel=1e-12)
    assert math.isfinite(obj["volume_estimate"])
    assert obj["volume_estimate"] == pytest.approx(516 / 500, rel=1e-12)


@pytest.mark.parametrize("alpha", ["5", "0", "-0.1", "1", "nan"])
def test_hull_alpha_out_of_range_fails(tmp_path, capsys, alpha):
    # Every point extreme: the interval is never computed, alpha is
    # still checked.
    path = tmp_path / "square.csv"
    path.write_text("0,0\n1,0\n1,1\n0,1\n")
    rc, out, err = run_cli(capsys, "hull", str(path), "--alpha", alpha)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "alpha" in err


def test_hull_ragged_input_fails(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3\n")
    rc, _, err = run_cli(capsys, "hull", str(path))
    assert rc == 2
    assert "ragged rows" in err


def test_hull_overflowing_spread_fails(tmp_path, capsys):
    path = tmp_path / "wide.csv"
    path.write_text("1e308,0\n-1e308,0\n0,1\n0,-1\n")
    rc, out, err = run_cli(capsys, "hull", str(path))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "point cloud spread overflows" in err


def test_poset_chain_command(tmp_path, capsys):
    path = tmp_path / "vals.txt"
    path.write_text("3 7 2 5 7 1 4 6\n")
    rc, out, _ = run_cli(capsys, "poset", str(path), "--kind", "chain")
    assert rc == 0
    obj = json.loads(out)
    # Duplicate maximum 7: every point is dominated.
    assert obj["dominated_count"] == 8
    assert obj["closure_size"] == 7
    assert obj["estimate"] == pytest.approx(8 * 7 / 8)


def test_poset_product_convex_command(tmp_path, capsys):
    path = tmp_path / "pts.txt"
    path.write_text("1,1\n3,3\n2,2\n")
    rc, out, _ = run_cli(capsys, "poset", str(path), "--kind", "product", "--convex")
    assert rc == 0
    obj = json.loads(out)
    # (2,2) sits between (1,1) and (3,3); closure is the 2x2 block
    # {1,2,3}^2 cut to the order interval: all (a,b) with
    # (1,1) <= (a,b) <= (3,3), so 9 cells.
    assert obj["sandwiched_count"] == 1
    assert obj["closure_size"] == 9
    assert obj["estimate"] == pytest.approx(3 * 9 / 1)


@pytest.mark.parametrize("kind, text, sample, oracle", [
    ("product", "1,1\n3,3\n2,2\n2,3\n", [(1, 1), (3, 3), (2, 2), (2, 3)], ProductOrder(2)),
    ("chain", "3 7 2 5 7 1\n", [3, 7, 2, 5, 7, 1], ReversedNaturals()),
], ids=["product", "chain"])
@pytest.mark.parametrize("mode", [[], ["--convex"]])
def test_poset_counts_and_closes_once(tmp_path, capsys, monkeypatch, mode, kind, text, sample,
                                      oracle):
    # The command converts the sample to one integer array, and
    # count_and_closure hands it to the witness scan and the closure,
    # once each.
    path = tmp_path / "pts.txt"
    path.write_text(text)
    names = ("_witnesses", "_closure_size")
    calls = []
    for name in names:
        real = getattr(cascade.poset_estimators, name)

        def spy(*args, _real=real, _name=name):
            calls.append((_name, type(args[0])))
            return _real(*args)

        monkeypatch.setattr(cascade.poset_estimators, name, spy)
    rc, out, _ = run_cli(capsys, "poset", str(path), "--kind", kind, *mode)
    assert rc == 0
    assert sorted(calls) == [(name, np.ndarray) for name in sorted(names)]
    monkeypatch.undo()
    count, closure = count_and_closure(sample, oracle, bool(mode))
    assert json.loads(out)["estimate"] == size_estimate(closure, count, len(sample))


def test_poset_product_width_mismatch(tmp_path, capsys):
    path = tmp_path / "pts.txt"
    path.write_text("1,1\n2,2,2\n")
    rc, _, err = run_cli(capsys, "poset", str(path), "--kind", "product")
    assert rc == 2
    assert "share one width" in err


@pytest.mark.parametrize(
    "kind, text",
    [("chain", "0 -3 -3\n"), ("product", "0 1\n-2 5\n-2 5\n")],
)
@pytest.mark.parametrize("mode", [[], ["--convex"]])
def test_poset_non_positive_elements_fail(tmp_path, capsys, kind, text, mode):
    path = tmp_path / "vals.txt"
    path.write_text(text)
    rc, out, err = run_cli(capsys, "poset", str(path), "--kind", kind, *mode)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "positive integers" in err


@pytest.mark.parametrize(
    "kind, text",
    [("chain", "100000000000000000000000 3\n"), ("product", "1 9223372036854775808\n2 3\n")],
)
def test_poset_integers_past_int64_fail(tmp_path, capsys, kind, text):
    path = tmp_path / "vals.txt"
    path.write_text(text)
    rc, out, err = run_cli(capsys, "poset", str(path), "--kind", kind)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "positive integers below 2**63" in err


def test_poset_tree_command(tmp_path, capsys):
    path = tmp_path / "paths.txt"
    path.write_text("0\n0/0\n0/1/0\n")
    rc, out, _ = run_cli(capsys, "poset", str(path), "--kind", "tree")
    assert rc == 0
    obj = json.loads(out)
    # Ancestor closure counts the shared root, then 0, 0/0, 0/1, 0/1/0.
    assert obj["closure_size"] == 5
    # Only "0" is an ancestor of another sampled node.
    assert obj["dominated_count"] == 1
    assert obj["estimate"] == pytest.approx(3 * 5 / 1)


def test_coincide_matrix_command(tmp_path, capsys):
    path = tmp_path / "dist.csv"
    x = np.array([0.0, 1.0, 3.0])
    d = np.abs(x[:, None] - x[None, :])
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in d) + "\n")
    rc, out, _ = run_cli(
        capsys, "coincide", str(path), "--radius", "1.0", "--threshold-percentile", "40"
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["n"] == 3
    assert obj["coverage"] == pytest.approx(2 / 3)
    assert obj["nn_distance"]["min"] == 1.0
    assert obj["nn_distance"]["max"] == 2.0
    assert all(pair[2] <= obj["flag_threshold"] for pair in obj["flagged_pairs"])


def test_coincide_nonsquare_fails(tmp_path, capsys):
    path = tmp_path / "dist.csv"
    path.write_text("0,1,2\n1,0,1\n")
    rc, _, err = run_cli(capsys, "coincide", str(path))
    assert rc == 2
    assert "square" in err


def test_coincide_fasta_query(tmp_path, capsys):
    fasta = tmp_path / "seqs.fasta"
    base = "ACGT" * 30
    recs = {
        "ref1": base,
        "ref2": base[:-1] + "A",
        "ref3": "A" + base[1:],
        "ref4": base[:60] + base[:60],
        "query": base[:40] + "".join("A" for _ in range(80)),
    }
    fasta.write_text("".join(f">{k}\n{v}\n" for k, v in recs.items()))
    dist_out = tmp_path / "dists.csv"
    rc, out, _ = run_cli(
        capsys,
        "coincide",
        str(fasta),
        "--query-id",
        "query",
        "--dist-out",
        str(dist_out),
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["query_id"] == "query"
    assert 0.0 < obj["p_value"] <= 1.0
    lines = dist_out.read_text().splitlines()
    assert lines[0] == "distribution,value"
    kinds = {ln.split(",")[0] for ln in lines[1:]}
    assert kinds == {"reference_nn", "query_distance"}
    assert len(lines) == 1 + 4 + 4


def test_coincide_unknown_query_id(tmp_path, capsys):
    path = tmp_path / "dist.csv"
    path.write_text("0,1\n1,0\n")
    rc, _, err = run_cli(capsys, "coincide", str(path), "--query-id", "ghost")
    assert rc == 2
    assert "not found" in err


@pytest.mark.parametrize("query", ([], ["--query-id", "item0"]))
def test_coincide_checks_the_query_row_and_column(tmp_path, capsys, query):
    # Only the query's row is negative, and only its column is asymmetric.
    path = tmp_path / "dist.csv"
    path.write_text("0,-1,-1\n2,0,1\n2,1,0\n")
    rc, out, err = run_cli(capsys, "coincide", str(path), *query)
    assert rc == 2
    assert out == ""
    assert "nonnegative" in err


def test_coverage_command(tmp_path, capsys):
    rng = np.random.default_rng(55)
    X = rng.normal(size=(40, 2))
    y = X @ np.array([2.0, -1.0]) + 0.5 * rng.normal(size=40)
    path = tmp_path / "data.csv"
    path.write_text(
        "\n".join(f"{float(a)!r},{float(b)!r},{float(c)!r}" for (a, b), c in zip(X, y)) + "\n"
    )
    hold = tmp_path / "hold.csv"
    Xt = rng.normal(size=(30, 2))
    yt = Xt @ np.array([2.0, -1.0]) + 0.5 * rng.normal(size=30)
    hold.write_text(
        "\n".join(f"{float(a)!r},{float(b)!r},{float(c)!r}" for (a, b), c in zip(Xt, yt)) + "\n"
    )
    rc, out, _ = run_cli(
        capsys,
        "coverage",
        str(path),
        "--predict-at",
        "0.5,0.5",
        "--holdout-file",
        str(hold),
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["n"] == 40 and obj["p"] == 2
    assert obj["method"] == "downdate"
    assert 0.0 <= obj["loo_coverage"] <= 1.0
    assert obj["beta"][0] == pytest.approx(2.0, abs=0.2)
    iv = obj["prediction_interval"]
    assert iv["low"] < iv["center"] < iv["high"]
    assert 0.0 <= obj["holdout_coverage"] <= 1.0


def test_coverage_fits_each_training_set_once(monkeypatch, tmp_path, capsys):
    # The leave-one-out downdate, --predict-at and --holdout-file all read
    # the one fit of the training rows, and so does a coverage replication.
    # Each call of the one fit routine records its count of fits and rows.
    shapes = []
    fits = cascade.coverage_predict._fits

    def counting(r, n):
        shapes.append((len(r), n))
        return fits(r, n)

    monkeypatch.setattr(cascade.coverage_predict, "_fits", counting)
    rng = np.random.default_rng(3)
    path, hold = tmp_path / "data.csv", tmp_path / "hold.csv"
    for f, m in ((path, 30), (hold, 20)):
        x = rng.normal(size=(m, 2))
        f.write_text("".join(f"{a!r},{b!r},{a - b + rng.normal()!r}\n" for a, b in x.tolist()))
    rc, _, _ = run_cli(capsys, "coverage", str(path), "--method", "downdate",
                       "--predict-at", "0.1,0.2", "--holdout-file", str(hold))
    assert rc == 0 and shapes == [(1, 30)]
    shapes.clear()
    scenarios = cascade.sim_harness.scenarios
    for name in ("coverage_linear", "coverage_quadratic_misspec"):
        (ctx,) = scenarios._cells(scenarios.ScenarioConfig(name, n_grid=(25,), replications=1))
        scenarios._coverage_rep(ctx, np.random.default_rng(0))
    assert shapes == [(1, 25), (1, 25)]


@pytest.mark.parametrize("row", ["1,1,nan", "inf,2,3"])
def test_coverage_non_finite_holdout_row_fails(tmp_path, capsys, row):
    path = tmp_path / "data.csv"
    path.write_text("1,0,1.1\n0,1,2.0\n1,1,2.9\n2,1,4.2\n1,2,4.8\n")
    hold = tmp_path / "hold.csv"
    hold.write_text(f"1,1,3\n{row}\n")
    rc, out, err = run_cli(capsys, "coverage", str(path), "--holdout-file", str(hold))
    assert (rc, out) == (2, "")
    assert err.startswith("error:") and "finite" in err


def test_coverage_center_shifts_consistently(tmp_path, capsys):
    rng = np.random.default_rng(56)
    X = rng.normal(loc=3.0, size=(30, 1))
    y = 2.0 * X[:, 0] + rng.normal(size=30)
    path = tmp_path / "data.csv"
    path.write_text("\n".join(f"{float(a)!r},{float(b)!r}" for (a,), b in zip(X, y)) + "\n")
    rc, out, _ = run_cli(
        capsys, "coverage", str(path), "--center", "--predict-at", "3.0"
    )
    assert rc == 0
    obj = json.loads(out)
    iv = obj["prediction_interval"]
    # Prediction near the feature mean should sit near the response mean.
    assert iv["center"] == pytest.approx(float(y.mean()), abs=1.5)


@pytest.mark.parametrize(
    "predict_at, message",
    [("nan,1", "x_new must be finite"), ("1", "--predict-at has 1"), ("1e308,1e308", "x_new")],
)
def test_coverage_bad_predict_at_fails(tmp_path, capsys, predict_at, message):
    rng = np.random.default_rng(57)
    data = rng.normal(size=(20, 3))
    path = tmp_path / "data.csv"
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in data) + "\n")
    rc, out, err = run_cli(capsys, "coverage", str(path), "--predict-at", predict_at)
    assert (rc, out) == (2, "")
    assert message in err


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"invalid JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize(
    "argv, text",
    [
        (["unseen"], "a b a c\n"),
        (["hull"], "0,0\n5,0\n5,2\n0,2\n1,1\n"),
        (["hull"], "0,0,0\n1,0,0\n0,1,0\n1,1,0\n"),
        (["poset", "--kind", "product", "--convex"], "1,1\n3,3\n2,2\n"),
        (["coincide", "--radius", "1.0"], "0,1,3\n1,0,2\n3,2,0\n"),
        (["coverage", "--predict-at", "0.5"], "0,1\n1,2.1\n2,2.9\n3,4.2\n4,4.8\n"),
        (["coverage", "--predict-at", "inf"], "0,1\n1,2.1\n2,2.9\n3,4.2\n4,4.8\n"),
    ],
)
def test_analysis_output_is_strict_json_or_an_error(tmp_path, capsys, argv, text):
    # NaN and Infinity are not JSON; an input that would produce them
    # must exit 2 with a message instead.
    path = tmp_path / "input.txt"
    path.write_text(text)
    rc, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    if rc == 2:
        assert out == "" and err.startswith("error: ")
    else:
        assert rc == 0
        assert isinstance(_strict_json(out), dict)


@pytest.mark.parametrize("percentile", ["150", "-1", "nan"])
def test_coincide_bad_threshold_percentile_names_the_flag(tmp_path, capsys, percentile):
    path = tmp_path / "dist.csv"
    path.write_text("0,1,3\n1,0,2\n3,2,0\n")
    rc, out, err = run_cli(capsys, "coincide", str(path), f"--threshold-percentile={percentile}")
    assert (rc, out) == (2, "")
    assert err.startswith("error: --threshold-percentile must lie in [0, 100], got ")


def test_coverage_unparsable_predict_at_names_the_flag(tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_text("0,1\n1,2.1\n2,2.9\n3,4.2\n4,4.8\n")
    rc, out, err = run_cli(capsys, "coverage", str(path), "--predict-at", "abc")
    assert (rc, out) == (2, "")
    assert err == "error: --predict-at 'abc': could not convert string to float: 'abc'\n"


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["hull"], "1,2\n3,x\n", "could not convert string to float: 'x'"),
        (["coverage"], "0,1\n1,x\n", "could not convert string to float: 'x'"),
        (["coincide"], "0,1\n1,x\n", "could not convert string to float: 'x'"),
        (["poset", "--kind", "chain"], "1 2\nx\n", "invalid literal for int() with base 10: 'x'"),
        (["poset", "--kind", "tree"], "1/2\n1/y\n", "invalid literal for int() with base 10: 'y'"),
    ],
)
def test_a_bad_token_in_an_input_file_names_the_file(tmp_path, capsys, argv, text, message):
    path = tmp_path / "input.txt"
    path.write_text(text)
    rc, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert (rc, out) == (2, "")
    assert err == f"error: input {str(path)!r}: {message}\n"


def test_a_bad_token_in_the_holdout_file_names_the_flag_and_file(tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_text("0,1\n1,2.1\n2,2.9\n3,4.2\n4,4.8\n")
    hold = tmp_path / "hold.csv"
    hold.write_text("1,2\n2,oops\n")
    rc, out, err = run_cli(capsys, "coverage", str(path), "--holdout-file", str(hold))
    assert (rc, out) == (2, "")
    message = "could not convert string to float: 'oops'"
    assert err == f"error: --holdout-file {str(hold)!r}: {message}\n"


@pytest.mark.parametrize("radius", ["inf", "-inf", "nan"])
def test_coincide_non_finite_radius_fails(tmp_path, capsys, radius):
    path = tmp_path / "dist.csv"
    path.write_text("0,1,3\n1,0,2\n3,2,0\n")
    rc, out, err = run_cli(capsys, "coincide", str(path), f"--radius={radius}")
    assert (rc, out) == (2, "")
    assert "--radius must be finite" in err


def test_coverage_too_few_columns(tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_text("1\n2\n3\n")
    rc, _, err = run_cli(capsys, "coverage", str(path))
    assert rc == 2
    assert "feature column" in err


def test_verify_single_scenario(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    plot_path = tmp_path / "plot.csv"
    rc, _, err = run_cli(
        capsys,
        "verify",
        "--scenario",
        "upset_chain",
        "--reps",
        "25",
        "--seed",
        "7",
        "--out",
        str(out_path),
        "--plot-out",
        str(plot_path),
    )
    assert rc == 0
    assert "2/2 rows within bounds" in err
    rows = list(csv.DictReader(io.StringIO(out_path.read_text(encoding="utf-8"))))
    assert [r["n"] for r in rows] == ["30", "100"]
    assert all(r["pass"] == "true" for r in rows)
    assert plot_path.read_text().startswith("scenario,n,inv_n")


def test_verify_report_is_the_same_bytes_at_any_worker_count(tmp_path, capsys):
    argv = ["verify", "--scenario", "upset_chain", "--scenario", "unseen_uniform", "--reps", "20"]
    paths = [tmp_path / f"report{workers}.csv" for workers in (1, 2)]
    for path, workers in zip(paths, ("1", "2")):
        rc, _, _ = run_cli(capsys, *argv, "--workers", workers, "--out", str(path))
        assert rc == 0
    one, two = (p.read_bytes() for p in paths)
    assert one == two
    header = b"scenario,n,replications,empirical_mse,std_err,bound,pass,extras_json"
    assert one.split(b"\n", 1)[0] == header
    rc, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert rc == 0 and list(json.loads(out)) == ["rows"]


def test_verify_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            [
                {
                    "scenario": "poset_convex_interval",
                    "n_grid": [12],
                    "replications": 10,
                    "params": {"size": 100},
                }
            ]
        )
    )
    rc, out, err = run_cli(capsys, "verify", "--config", str(cfg_path), "--seed", "3")
    assert rc == 0
    assert "1/1 rows within bounds" in err
    assert "poset_convex_interval" in out


@pytest.mark.parametrize("missing", ["scenario", "n_grid", "replications"])
def test_verify_config_missing_key_fails(tmp_path, capsys, missing):
    entry = {"scenario": "upset_chain", "n_grid": [20], "replications": 3}
    del entry[missing]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps([entry]))
    rc, _, err = run_cli(capsys, "verify", "--config", str(cfg_path))
    assert rc == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert repr(missing) in err


@pytest.mark.parametrize("bad", [[20.5], ["20"], 20])
def test_verify_config_non_integer_n_fails(tmp_path, capsys, bad):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"scenario": "upset_chain", "n_grid": bad, "replications": 3})
    )
    rc, _, err = run_cli(capsys, "verify", "--config", str(cfg_path))
    assert rc == 2
    assert err.startswith("error:") and "n_grid" in err


@pytest.mark.parametrize("key, value", [("replications", True), ("n_grid", [True, 20])])
def test_verify_config_bool_counts_fail(tmp_path, capsys, key, value):
    # JSON true is a Python bool, which would pass as the integer 1.
    cfg_path = tmp_path / "cfg.json"
    cfg = {"scenario": "upset_chain", "n_grid": [20], "replications": 3, key: value}
    cfg_path.write_text(json.dumps(cfg))
    rc, out, err = run_cli(capsys, "verify", "--config", str(cfg_path))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and f"{key} " in err and "integer" in err


def test_verify_config_non_integer_replications_fails(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"scenario": "upset_chain", "n_grid": [20], "replications": 2.5})
    )
    rc, _, err = run_cli(capsys, "verify", "--config", str(cfg_path))
    assert rc == 2
    assert err.startswith("error:") and "replications" in err


@pytest.mark.parametrize(
    "extra, key",
    [
        ({"params": {"sise": 5}}, "sise"),
        ({"params": [1]}, "params"),
        ({"seed": 2.7}, "seed"),
        ({"seed": -1}, "seed"),
        ({"seed": 2**64}, "seed"),
        ({"seed": True}, "seed"),
        ({"parms": {"size": 5}}, "'parms'"),
        ({"scenario": ["upset_chain"]}, "scenario"),
        ({"scenario": 5}, "scenario"),
    ],
)
def test_verify_config_bad_params_or_seed_fails(tmp_path, capsys, extra, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"scenario": "upset_chain", "n_grid": [20], "replications": 3, **extra})
    )
    rc, out, err = run_cli(capsys, "verify", "--config", str(cfg_path))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert key in err


@pytest.mark.parametrize("scenario", ["hull_gauss", "hull_gauss_corr"])
@pytest.mark.parametrize("key", ["probe_batches", "probe_batch_size"])
def test_verify_config_rejects_gaussian_probe_params(tmp_path, capsys, scenario, key):
    # The Gaussian hull truth is exact, so the old probe settings are
    # unknown keys, not silently ignored ones.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {"scenario": scenario, "n_grid": [10], "replications": 2, "params": {key: 4}}
        )
    )
    rc, out, err = run_cli(capsys, "verify", "--config", str(cfg_path))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert repr(key) in err


def test_verify_config_rejects_coincide_probe_count(tmp_path, capsys):
    # The disk-union truth is exact, so the old probe count is an
    # unknown key, not a silently ignored one.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "scenario": "coincide_uniform_square",
                "n_grid": [10],
                "replications": 2,
                "params": {"probes": 2000},
            }
        )
    )
    rc, out, err = run_cli(capsys, "verify", "--config", str(cfg_path))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "'probes'" in err


@pytest.mark.parametrize(
    "entry, key",
    [
        ({"scenario": "hull_disk", "params": {"dims": [4]}}, "dims"),
        ({"scenario": "hull_disk", "params": {"dims": [1]}}, "dims"),
        ({"scenario": "hull_rect", "params": {"dims": [4]}}, "dims"),
        ({"scenario": "hull_gauss", "params": {"dims": []}}, "dims"),
        ({"scenario": "hull_rect", "params": {"boxes": {"2": [[0, 1]]}}}, "boxes"),
        ({"scenario": "unseen_uniform", "params": {"N": 0}}, "'N'"),
        ({"scenario": "dna_split", "n_grid": [5, 7]}, "n_grid"),
        ({"scenario": "dna_split", "n_grid": [40], "params": {"split": [40]}}, "split"),
        ({"scenario": "dna_split", "n_grid": [40], "params": {"split": [40, 161]}}, "split"),
        ({"scenario": "dna_split", "n_grid": [40], "params": {"null_population": 239}}, "null_"),
        ({"scenario": "coverage_linear", "params": {"beta": [1, 2, 3]}}, "beta"),
        ({"scenario": "coverage_linear", "params": {"beta": 5}}, "beta"),
        ({"scenario": "aldous_demo", "n_grid": [30], "params": {"probes": 0}}, "probes"),
        # A repeated n would give byte-identical rows.
        ({"scenario": "upset_chain", "n_grid": [10, 10]}, "n_grid"),
    ],
)
def test_verify_config_bad_scenario_params_fail(tmp_path, capsys, entry, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_grid": [20], "replications": 2, **entry}))
    rc, out, err = run_cli(capsys, "verify", "--config", str(cfg_path))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert key in err


@pytest.mark.parametrize(
    "scenario, params, key",
    [
        # Wrongly typed values.
        ("unseen_uniform", {"N": None}, "'N'"),
        ("unseen_zipf", {"s": None}, "'s'"),
        ("upset_staircase", {"parts": [3]}, "'parts'"),
        ("hull_disk", {"alpha": None}, "'alpha'"),
        ("hull_gauss_corr", {"corr": None}, "'corr'"),
        ("coverage_linear", {"x_scale": None}, "'x_scale'"),
        ("coverage_linear", {"x_scale": 10**400}, "'x_scale'"),
        ("aldous_demo", {"probes": None}, "'probes'"),
        ("coincide_uniform_square", {"radii": 0.1}, "'radii'"),
        ("coincide_uniform_square", {"radii": [None]}, "'radii'"),
        ("upset_chain", {"size": True}, "'size'"),
        ("hull_rect", {"boxes": [[0, 1], [0, 1]]}, "'boxes'"),
        ("hull_rect", {"boxes": {"2": [[0, None], [0, 1]]}}, "'boxes'"),
        # Out-of-range values.
        ("upset_staircase", {"parts": 0}, "'parts'"),
        ("upset_chain", {"size": 0}, "'size'"),
        ("upset_antichain", {"labels": 0}, "'labels'"),
        ("poset_convex_interval", {"size": -3}, "'size'"),
        ("poset_convex_forest", {"min_nodes": 30, "max_nodes": 20}, "'min_nodes'"),
        ("coincide_uniform_square", {"radii": []}, "'radii'"),
        ("coincide_uniform_square", {"radii": [0.1, -0.2]}, "'radii'"),
        ("hull_rect", {"boxes": {"2": [[0, 1], [2, 2]]}}, "'boxes'"),
        ("dna_split", {"freqs": [0.5, 0.5]}, "'freqs'"),
        ("dna_split", {"freqs": [0.5, 0.5, 0.5, -0.5]}, "'freqs'"),
        ("dna_split", {"split": [40, 0]}, "'split'"),
        # Ragged boxes and a key that is not a dimension.
        ("hull_rect", {"boxes": {"2": [[0, 1], [0]]}}, "'boxes'"),
        ("hull_rect", {"boxes": {"x": [[0, 1], [0, 1]]}}, "'boxes'"),
        # alpha outside (0, 1) and a zero design scale, checked before any draw.
        ("hull_rect", {"alpha": 0}, "'alpha'"),
        ("hull_disk", {"alpha": 1.5}, "'alpha'"),
        ("coverage_linear", {"alpha": 1}, "'alpha'"),
        ("coverage_quadratic_misspec", {"alpha": -0.05}, "'alpha'"),
        ("coverage_linear", {"x_scale": 0}, "'x_scale'"),
        ("coverage_quadratic_misspec", {"x_scale": -0.0}, "'x_scale'"),
        # A correlation outside the positive-definite range for some d.
        ("hull_gauss_corr", {"corr": 1.0}, "'corr'"),
        # A repeated d or radius would give byte-identical rows.
        ("hull_disk", {"dims": [2, 2]}, "'dims'"),
        ("coincide_uniform_square", {"radii": [0.1, 0.1]}, "'radii'"),
        # A mutation rate outside (0, 1).
        ("dna_split", {"mutation": -0.1}, "'mutation'"),
        ("dna_split", {"mutation": 0}, "'mutation'"),
        ("dna_split", {"mutation": 1}, "'mutation'"),
        ("dna_split", {"mutation": 1.5}, "'mutation'"),
        # Frequencies whose exact sum overflows a float.
        ("dna_split", {"freqs": [1.7e308, 1.7e308, 0, 0]}, "'freqs'"),
    ],
)
def test_verify_config_wrong_param_shape_or_range_fails(
    tmp_path, capsys, monkeypatch, scenario, params, key
):
    def no_draws(*args):
        raise AssertionError("a replication started before the params were checked")

    monkeypatch.setattr(cascade.sim_harness.scenarios, "rng_for", no_draws)
    cfg_path = tmp_path / "cfg.json"
    n_grid = [40] if scenario == "dna_split" else [20]
    cfg_path.write_text(
        json.dumps({"scenario": scenario, "n_grid": n_grid, "replications": 2, "params": params})
    )
    rc, out, err = run_cli(capsys, "verify", "--config", str(cfg_path))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert key in err


@pytest.mark.parametrize(
    "bad, key",
    [
        ({"params": {"dimz": [2]}}, "'dimz'"),
        ({"replications": 0}, "replications"),
        # Range rules, checked before any scenario runs.
        ({"params": {"alpha": 0}}, "'alpha'"),
        ({"params": {"dims": [4]}}, "'dims'"),
        ({"params": {"boxes": {"2": [[0, 1], [2, 2]]}}}, "'boxes'"),
        ({"scenario": "hull_gauss_corr", "params": {"corr": 1.0}}, "'corr'"),
        ({"scenario": "hull_gauss_corr", "params": {"corr": -0.6}}, "'corr'"),
        ({"scenario": "coincide_uniform_square", "params": {"radii": []}}, "'radii'"),
        ({"scenario": "poset_convex_forest", "params": {"min_nodes": 30, "max_nodes": 20}},
         "'min_nodes'"),
        ({"scenario": "coverage_linear", "params": {"beta": [1, 2, 3]}}, "'beta'"),
        ({"scenario": "coverage_linear", "params": {"x_scale": 0}}, "'x_scale'"),
        ({"scenario": "dna_split", "n_grid": [5]}, "n_grid"),
        ({"scenario": "dna_split", "n_grid": [40], "params": {"freqs": [0.5, 0.5]}}, "'freqs'"),
        ({"scenario": "dna_split", "n_grid": [40], "params": {"split": [40, 161]}}, "'split'"),
        ({"scenario": "dna_split", "n_grid": [40], "params": {"null_population": 239}},
         "'null_population'"),
        # A poset ground set past numpy's int64 range.
        ({"scenario": "upset_chain", "n_grid": [30], "params": {"size": 2**63}}, "'size'"),
        ({"scenario": "upset_antichain", "n_grid": [30], "params": {"labels": 2**63}},
         "'labels'"),
        # A boxes key that is no d in dims.
        ({"params": {"dims": [2], "boxes": {"2": [[0, 1], [0, 1]], "3": "oops", "x": None}}},
         "'boxes' keys ['3', 'x']"),
    ],
)
def test_verify_config_checks_every_entry_before_any_scenario(
    tmp_path, capsys, monkeypatch, bad, key
):
    def no_run(*args, **kwargs):
        raise AssertionError("a scenario ran before every config entry was checked")

    monkeypatch.setattr(cascade.sim_harness.scenarios, "_run_chunk", no_run)
    good = {"scenario": "hull_gauss", "n_grid": [200], "replications": 1000}
    later = {"scenario": "hull_rect", "n_grid": [20], "replications": 2, **bad}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps([good, later]))
    rc, out, err = run_cli(capsys, "verify", "--config", str(cfg_path))
    assert (rc, out) == (2, "")
    assert err.startswith("error:") and key in err


def test_verify_config_dims_below_the_default_boxes_runs(tmp_path, capsys):
    # The default boxes also key d = 3; only a given box must match dims.
    cfg = {"scenario": "hull_rect", "n_grid": [20], "replications": 2, "params": {"dims": [2]}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc, out, err = run_cli(capsys, "verify", "--config", str(cfg_path))
    assert rc == 0 and "hull_rect,20,2," in out
    assert err == "1/1 rows within bounds\n"


@pytest.mark.parametrize("text", ["5", "null", '"upset_chain"'])
def test_verify_config_that_is_not_an_object_or_list_fails(tmp_path, capsys, text):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    rc, out, err = run_cli(capsys, "verify", "--config", str(cfg_path))
    assert (rc, out) == (2, "")
    assert err.startswith("error: --config must hold a JSON object or a list")
    assert len(err.strip().splitlines()) == 1


# JSON values that no param default has (None, bools, sizes <= 0 and
# >= 2**63, infinities, NaN, strings), nested in lists and objects.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(max_value=0) | st.integers(min_value=2**63)
    | st.integers(1, 500) | st.floats() | st.floats(0.01, 0.99) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["2", "3", "x"]) | st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_ENTRY = {"scenario": "upset_chain", "n_grid": [20], "replications": 3, "seed": 5, "params": {}}


@given(st.sampled_from(sorted(_ENTRY)), _JSON_VALUES)
@settings(max_examples=200, deadline=None)
def test_every_config_entry_field_validates_or_names_its_key(tmp_path_factory, field, value):
    cfg_path = tmp_path_factory.getbasetemp() / "entry_field.json"
    cfg_path.write_text(json.dumps({**_ENTRY, field: value}))
    args = cascade.cli._build_parser().parse_args(["verify", "--config", str(cfg_path)])
    try:
        (cfg,) = cascade.cli._configs_from_args(args)
        validate_config(cfg)  # as run_scenarios does before any replication
    except ValueError as exc:
        assert field in str(exc)
    else:
        assert getattr(cfg, field) == value


_PARAM_KEYS = [(name, key) for name in SCENARIO_NAMES for key in default_config(name).params]


def _typed_like(default, value) -> bool:
    """Whether ``value`` has exactly the types of the param default ``default``."""
    if isinstance(default, dict):  # boxes: d -> intervals
        box = next(iter(default.values()))
        return isinstance(value, dict) and all(
            type(d) is int and _typed_like(box, v) for d, v in value.items()
        )
    if isinstance(default, tuple):
        return type(value) is tuple and all(_typed_like(default[0], v) for v in value)
    return type(value) is type(default)


@given(st.sampled_from(_PARAM_KEYS), _JSON_VALUES)
@settings(max_examples=400, deadline=None)
def test_every_param_validates_typed_or_names_its_key(name_key, value):
    name, key = name_key
    cfg = default_config(name)
    cfg.params = {key: value}
    try:
        params = validate_config(cfg)
    except ValueError as exc:
        assert repr(key) in str(exc)
        return
    defaults = default_config(name).params
    assert params.keys() == defaults.keys()
    for k, default in defaults.items():
        assert _typed_like(default, params[k]), (k, params[k])


def _json_spelling(value):
    """``value`` as a JSON config spells it, an integral float as an integer."""
    if isinstance(value, dict):
        return {str(k): _json_spelling(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [_json_spelling(v) for v in value]
    return int(value) if value == int(value) else value


def test_json_spelled_params_validate_typed_like_their_defaults():
    for name, key in _PARAM_KEYS:
        cfg = default_config(name)
        default = cfg.params[key]
        cfg.params = {key: _json_spelling(default)}
        params = validate_config(cfg)
        assert params[key] == default and _typed_like(default, params[key]), (name, key)
    cfg = default_config("hull_rect")
    cfg.params = {"dims": [2], "boxes": {"2": [[0, 4], [-1, 2]]}}
    params = validate_config(cfg)
    assert params == {"dims": (2,), "alpha": 0.05, "boxes": {2: ((0.0, 4.0), (-1.0, 2.0))}}
    assert _typed_like(default_config("hull_rect").params["boxes"], params["boxes"])


def test_int_spelled_params_give_the_float_spelling_report(tmp_path, capsys):
    # A float param given as a JSON integer is read as that float.
    def report(params):
        entries = [
            {"scenario": scenario, "n_grid": [10], "replications": 3, "params": p}
            for scenario, p in params
        ]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(entries))
        rc, out, _ = run_cli(capsys, "verify", "--config", str(cfg_path))
        assert rc in (0, 1) and out
        return out

    ints = report([
        ("coverage_linear", {"x_scale": 2}),
        ("hull_gauss", {"corr": 0}),
        ("coincide_uniform_square", {"radii": [0, 1]}),
        ("hull_rect", {"dims": [2], "boxes": {"2": [[0, 4], [0, 2]]}}),
    ])
    floats = report([
        ("coverage_linear", {"x_scale": 2.0}),
        ("hull_gauss", {"corr": 0.0}),
        ("coincide_uniform_square", {"radii": [0.0, 1.0]}),
        ("hull_rect", {"dims": [2], "boxes": {"2": [[0.0, 4.0], [0.0, 2.0]]}}),
    ])
    assert ints == floats


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "--scenario", "upset_chain", "--out", "{missing}"], "--out"),
        (["verify", "--scenario", "upset_chain", "--out", "{dir}"], "--out"),
        (["verify", "--scenario", "upset_chain", "--plot-out", "{missing}"], "--plot-out"),
        (["verify", "--scenario", "upset_chain", "--plot-out", "{dir}"], "--plot-out"),
        (["demo-aldous", "--n", "30", "--out", "{missing}"], "--out"),
        (["demo-aldous", "--n", "30", "--out", "{dir}"], "--out"),
    ],
)
def test_bad_output_path_fails_before_any_scenario(tmp_path, capsys, monkeypatch, argv, flag):
    def no_run(*args, **kwargs):
        raise AssertionError("a scenario ran before the output paths were checked")

    monkeypatch.setattr(cascade.cli, "run_scenarios", no_run)
    paths = {"missing": str(tmp_path / "absent" / "o.csv"), "dir": str(tmp_path)}
    rc, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert (rc, out) == (2, "")
    assert err.startswith("error: " + flag + " ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_verify_rejects_a_bad_worker_count(capsys, workers):
    rc, out, err = run_cli(capsys, "verify", "--scenario", "upset_chain", "--workers", workers)
    assert (rc, out) == (2, "")
    assert "workers" in err


def test_verify_unknown_scenario(capsys):
    rc, _, err = run_cli(capsys, "verify", "--scenario", "nope")
    assert rc == 2
    assert "unknown scenario" in err


def test_verify_requires_some_selection(capsys):
    rc, _, err = run_cli(capsys, "verify")
    assert rc == 2
    assert "--all" in err


@pytest.mark.parametrize(
    "flags, first, second",
    [
        (["--all"], "--config", "--all"),
        (["--scenario", "unseen_uniform"], "--config", "--scenario"),
        (["--reps", "50"], "--config", "--reps"),
        (["--reps", "50", "--scenario", "unseen_uniform", "--all"], "--config", "--all"),
    ],
)
def test_verify_config_conflicts_with_other_selection_flags(
    tmp_path, capsys, monkeypatch, flags, first, second
):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scenario": "upset_chain", "n_grid": [10], "replications": 3}))
    monkeypatch.setattr(cascade.cli, "run_scenarios", lambda *a, **k: pytest.fail("ran"))
    rc, out, err = run_cli(capsys, "verify", "--config", str(cfg_path), *flags)
    assert rc == 2 and out == ""
    assert f"{first} cannot be combined with {second}" in err


def test_verify_all_conflicts_with_scenario(capsys, monkeypatch):
    monkeypatch.setattr(cascade.cli, "run_scenarios", lambda *a, **k: pytest.fail("ran"))
    rc, out, err = run_cli(capsys, "verify", "--scenario", "upset_chain", "--all", "--reps", "3")
    assert rc == 2 and out == ""
    assert "--all cannot be combined with --scenario" in err


def test_verify_coverage_at_a_tiny_design_scale(tmp_path, capsys):
    # The intervals do not depend on the scale of the design, so the
    # holdout coverage stays near the leave-one-out coverage at 1e-200.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "scenario": "coverage_linear", "n_grid": [50], "replications": 2,
        "params": {"x_scale": 1e-200},
    }))
    rc, out, _ = run_cli(capsys, "verify", "--config", str(cfg_path), "--format", "json")
    assert rc == 0
    (row,) = json.loads(out)["rows"]
    extras = row["extras"]
    assert abs(extras["mean_holdout_coverage"] - extras["mean_loo_coverage"]) <= 0.05


def test_verify_json_format(capsys):
    rc, out, _ = run_cli(
        capsys,
        "verify",
        "--scenario",
        "upset_antichain",
        "--reps",
        "10",
        "--format",
        "json",
    )
    assert rc == 0
    payload = json.loads(out)
    assert {r["scenario"] for r in payload["rows"]} == {"upset_antichain"}


def test_demo_aldous_command(capsys):
    rc, out, err = run_cli(
        capsys, "demo-aldous", "--n", "100", "--reps", "5", "--seed", "2"
    )
    assert rc == 0
    assert "mean |estimate - truth|" in err
    header = [ln for ln in out.splitlines() if not ln.startswith("#")][0]
    assert header.startswith("scenario,")
