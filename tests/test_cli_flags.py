"""Every CLI flag that takes a value, swept like the library's arguments
in ``test_scalar_arguments.py``.  A bad value that argparse parses exits
2 with nothing on stdout and a message that starts with the flag, before
any scenario runs; a numeric flag's value is checked before any input is
read.  A flag that joins the parser fails here until it joins TABLE or
is listed with its reason."""

import argparse
import json

import pytest

import cascade.cli
from cascade.cli import _build_parser, main
from cascade.coverage_predict import ols_fit, predict_interval

SQUARE = "0,0\n1,0\n1,1\n0,1\n"
DATA = "0,1\n1,2.1\n2,2.9\n3,4.2\n4,4.8\n"
DIST = "0,1,3\n1,0,2\n3,2,0\n"

# The seven values of the 91-case sweep, all out of range for a (0, 1)
# flag; for an integer flag, argparse itself rejects nan, inf, 1e308, 2.5
# and -1e308 (see below).
SWEEP = ("nan", "inf", "-1", "0", "1e308", "2.5", "-1e308")
UNIT_INTERVAL = "lie in (0, 1)"
AT_LEAST_ONE = "be an integer >= 1"

# (argv before the flag, flag, bad values, the rule its message states
# as "<flag> must <rule>, got ", or None for another message).  "{input}"
# is a file holding the subcommand's input; "{missing}" an output path
# in a directory that does not exist, "{dir}" a directory.
TABLE = [
    # Every point extreme: the interval is never computed, and alpha is
    # still checked.
    (["hull", "{input}"], "--alpha", ("5", "-0.1", "1") + SWEEP, UNIT_INTERVAL),
    (["hull", "{input}"], "--tol", ("1", "2") + SWEEP, UNIT_INTERVAL),
    (["coverage", "{input}"], "--alpha", SWEEP, UNIT_INTERVAL),
    (["coverage", "{input}"], "--predict-at", ("nan", "inf", "1e308", "abc", "1,2"), None),
    # --radius must also be finite, as JSON holds no inf; the rest is
    # coverage_fraction's radius rule.
    (["coincide", "{input}"], "--radius", ("inf", "-inf", "nan"), "be finite"),
    (["coincide", "{input}"], "--radius", ("-1", "-1e308"), "be a nonnegative number, not NaN"),
    (["coincide", "{input}"], "--threshold-percentile",
     ("150", "-1", "nan", "inf", "1e308", "-1e308"), "lie in [0, 100]"),
    (["coincide", "{input}"], "--query-id", ("ghost",), None),
    (["coincide", "{input}"], "--dist-out", ("{missing}", "{dir}"), None),
    *[(argv, flag, values, rule)
      for argv in (["verify", "--scenario", "upset_chain"], ["demo-aldous", "--n", "30"])
      for flag, values, rule in (("--reps", ("0", "-3", "-1"), AT_LEAST_ONE),
                                 ("--workers", ("0", "-4", "-1"), AT_LEAST_ONE),
                                 ("--seed", ("-1", str(2**64)), "be an integer in [0, 2**64)"),
                                 ("--out", ("{missing}", "{dir}"), None))],
    (["verify", "--scenario", "upset_chain"], "--plot-out", ("{missing}", "{dir}"), None),
    (["demo-aldous"], "--n", ("2", "0", "-5", "-1"), "be an integer >= 3"),
]

# Flags that take a value but have no bad-value row, by reason.  A flag
# that takes none (store_true) or whose values argparse restricts
# (choices) needs no row either.
LISTED = {
    "--holdout-file": "an input file, read with its flag named in any parse error",
    "--config": "an input file, checked entry by entry as --config",
    "--scenario": "a scenario name, which the library looks up in its registry",
}

INPUTS = {"hull": SQUARE, "coverage": DATA, "coincide": DIST}


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.mark.parametrize(
    "argv, flag, values, rule",
    TABLE,
    ids=[f"{row[0][0]}-{row[1]}-{i}" for i, row in enumerate(TABLE)],
)
def test_every_bad_flag_value_exits_2_naming_the_flag(tmp_path, capsys, monkeypatch, argv, flag,
                                                      values, rule):
    def no_run(*args, **kwargs):
        raise AssertionError("a scenario ran before the flags were checked")

    monkeypatch.setattr(cascade.cli, "run_scenarios", no_run)
    path = tmp_path / "input.csv"
    path.write_text(INPUTS.get(argv[0], ""))
    paths = {"input": str(path), "missing": str(tmp_path / "absent" / "o.csv"),
             "dir": str(tmp_path)}
    for value in values:
        # The = form passes a value with a leading minus as the flag's.
        args = [a.format(**paths) for a in argv] + [f"{flag}={value.format(**paths)}"]
        rc, out, err = _run(capsys, args)
        assert (rc, out) == (2, ""), (flag, value)
        assert err.startswith(f"error: {flag} "), (flag, value, err)
        if rule is not None:
            assert err.startswith(f"error: {flag} must {rule}, got "), (flag, value, err)


@pytest.mark.parametrize("command, flag", [("hull", "--tol"), ("coverage", "--alpha"),
                                           ("coincide", "--radius")])
def test_a_bad_numeric_flag_fails_before_the_input_is_read(tmp_path, capsys, command, flag):
    # The input does not exist: reading it would fail naming no flag.
    rc, out, err = _run(capsys, [command, str(tmp_path / "missing.csv"), f"{flag}=-1"])
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: {flag} must ")


@pytest.mark.parametrize("argv", [["verify", "--seed", "2.5"], ["verify", "--reps", "nan"],
                                  ["demo-aldous", "--n", "1e308"], ["hull", "x", "--alpha", "a"]])
def test_a_token_argparse_cannot_parse_keeps_its_message(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"error: argument {argv[-2]}: invalid " in capsys.readouterr().err


def _value_flags():
    """(subcommand, flag) for every flag that takes a free-form value."""
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for name, subparser in sub.choices.items():
        for action in subparser._actions:
            if action.option_strings and action.nargs != 0 and action.choices is None:
                yield name, action.option_strings[-1]


def test_every_flag_is_in_the_table_or_listed():
    in_table = {(argv[0], flag) for argv, flag, _, _ in TABLE}
    flags = set(_value_flags())
    assert {(cmd, flag) for cmd, flag in flags if flag not in LISTED} == in_table
    assert {flag for _, flag in flags} >= set(LISTED)
    # Every flag with a rule in the CLI's table has rows here.
    assert set(cascade.cli._FLAG_RULES) <= {flag for _, flag in in_table}


def test_predict_at_takes_a_leading_minus_after_an_equals_sign(tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_text("0,1,1\n1,2,2.1\n2,1,2.9\n3,3,4.2\n4,2,4.8\n5,4,6.1\n")
    rc, out, _ = _run(capsys, ["coverage", str(path), "--predict-at=-0.5,1", "--alpha", "0.1"])
    assert rc == 0
    data = [[float(v) for v in line.split(",")] for line in path.read_text().splitlines()]
    fit = ols_fit([row[:-1] for row in data], [row[-1] for row in data])
    interval = predict_interval(fit, [-0.5, 1.0], 0.1)
    assert json.loads(out)["prediction_interval"] == {
        "center": interval.center, "low": interval.low, "high": interval.high}
    # Without the =, argparse reads the value as an option.
    with pytest.raises(SystemExit) as exc:
        main(["coverage", str(path), "--predict-at", "-0.5,1"])
    assert exc.value.code == 2
    assert "argument --predict-at: expected one argument" in capsys.readouterr().err
