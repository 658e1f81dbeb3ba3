"""Every CLI argument that takes a value, swept like the library's
arguments in ``test_scalar_arguments.py``.  A bad value that argparse
parses exits 2 with nothing on stdout and a message that starts with the
flag, before any scenario runs; a numeric flag's value is checked before
any input is read.  A file that cannot be opened, decoded or parsed
exits 2 naming the flag (``input`` for the positional) and the path.  An
argument that joins the parser fails here until it joins TABLE or
READS; a value argparse restricts (choices, exclusions) exits through
argparse, naming the flag."""

import argparse
import json

import pytest

import cascade.cli
from cascade.cli import _build_parser, main
from cascade.coverage_predict import ols_fit, predict_interval
from cascade.sim_harness import SCENARIO_NAMES

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
# is a file holding the subcommand's input, "{pair}" a distance matrix of
# two objects; "{missing}" an output path in a directory that does not
# exist, "{dir}" a directory.
TABLE = [
    # Every point extreme: the interval is never computed, and alpha is
    # still checked.
    (["hull", "{input}"], "--alpha", ("5", "-0.1", "1") + SWEEP, UNIT_INTERVAL),
    (["hull", "{input}"], "--tol", ("1", "2") + SWEEP, UNIT_INTERVAL),
    (["coverage", "{input}"], "--alpha", SWEEP, UNIT_INTERVAL),
    (["coverage", "{input}"], "--predict-at", ("nan", "inf", "-inf", "1,nan", "1e400"),
     "be finite"),
    # Its width, and an interval that overflows, wait for the data.
    (["coverage", "{input}"], "--predict-at", ("1e308", "1,2"), None),
    # --radius must also be finite, as JSON holds no inf; the rest is
    # coverage_fraction's radius rule.
    (["coincide", "{input}"], "--radius", ("inf", "-inf", "nan"), "be finite"),
    (["coincide", "{input}"], "--radius", ("-1", "-1e308"), "be a nonnegative number, not NaN"),
    (["coincide", "{input}"], "--threshold-percentile",
     ("150", "-1", "nan", "inf", "1e308", "-1e308"), "lie in [0, 100]"),
    (["coincide", "{input}"], "--query-id", ("ghost",), None),
    (["coincide", "{pair}"], "--query-id", ("item0", "item1"), None),
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

# Every argument that reads a file: (argv, its name, malformed content),
# where "{path}" is the file read and "{data}" a valid training file.
# Each is given a missing path, a directory and the malformed file.
READS = [
    (["unseen", "{path}"], "input", b"a b\n\xff\n"),  # not UTF-8
    (["hull", "{path}"], "input", b"1,2\n3\n"),
    (["poset", "{path}", "--kind", "product"], "input", b"1,1\n2,2,2\n"),
    (["coincide", "{path}"], "input", b">a\nACGT\n>b\nACGX\n"),
    (["coincide", "{path}"], "input", b"0,1,2\n1,0,1\n"),
    (["coverage", "{path}"], "input", b"1\n2\n3\n"),
    (["coverage", "{data}", "--holdout-file", "{path}"], "--holdout-file", b"1,2,3\n"),
    (["verify", "--config", "{path}"], "--config", b'{"scenario": "upset_chain",}'),
    (["verify", "--config", "{path}"], "--config", b"[" * 100_000 + b"]" * 100_000),
]

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
    pair = tmp_path / "pair.csv"
    pair.write_text("0,1\n1,0\n")
    paths = {"input": str(path), "pair": str(pair),
             "missing": str(tmp_path / "absent" / "o.csv"), "dir": str(tmp_path)}
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


@pytest.mark.parametrize("argv, flag, content", READS,
                         ids=[f"{row[0][0]}-{row[1]}-{i}" for i, row in enumerate(READS)])
@pytest.mark.parametrize("case", ["missing", "directory", "malformed"])
def test_every_unreadable_file_exits_2_naming_its_flag(tmp_path, capsys, monkeypatch, argv, flag,
                                                       content, case):
    monkeypatch.setattr(cascade.cli, "run_scenarios", lambda *a, **k: pytest.fail("ran"))
    data = tmp_path / "data.csv"
    data.write_text(DATA)
    path = {"missing": tmp_path / "missing.csv", "directory": tmp_path,
            "malformed": tmp_path / "bad.txt"}[case]
    (tmp_path / "bad.txt").write_bytes(content)
    rc, out, err = _run(capsys, [a.format(path=path, data=data) for a in argv])
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: {flag} {str(path)!r}: "), err
    assert "Errno" not in err


def _subparsers():
    """The parser of each subcommand, by name."""
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _value_flags():
    """(subcommand, flag) for every argument that takes a free-form value,
    a positional under its name."""
    for name, subparser in _subparsers().items():
        for action in subparser._actions:
            if action.nargs != 0 and action.choices is None:
                yield name, (action.option_strings or [action.dest])[-1]


def test_every_argument_is_in_the_table_or_reads():
    in_table = {(argv[0], flag) for argv, flag, _, _ in TABLE}
    assert set(_value_flags()) == in_table | {(argv[0], flag) for argv, flag, _ in READS}
    # Every flag with a rule in the CLI's table has rows here.
    assert set(cascade.cli._FLAG_RULES) <= {flag for _, flag in in_table}


@pytest.fixture
def config(tmp_path, monkeypatch):
    """A valid --config file; no scenario may run."""
    monkeypatch.setattr(cascade.cli, "run_scenarios", lambda *a, **k: pytest.fail("ran"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "upset_chain", "n_grid": [10], "replications": 3}))
    return path


def _argparse_error(capsys, argv):
    """The last line of argparse's exit-2 message, which nothing precedes on stdout."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    return captured.err.splitlines()[-1]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--scenario", "nope"], "argument --scenario: invalid choice: 'nope' (choose from "),
        (["--scenario", "upset_chain", "--scenario", "nope"], "argument --scenario: invalid "),
        ([], "one of the arguments --scenario --all --config is required"),
        (["--config", "{cfg}", "--all"], "argument --all: not allowed with argument --config"),
        (["--config", "{cfg}", "--scenario", "unseen_uniform"],
         "argument --scenario: not allowed with argument --config"),
        (["--config", "{cfg}", "--reps", "50", "--scenario", "unseen_uniform", "--all"],
         "argument --scenario: not allowed with argument --config"),
        (["--scenario", "upset_chain", "--all", "--reps", "3"],
         "argument --all: not allowed with argument --scenario"),
    ],
)
def test_verify_selection_is_checked_by_argparse(capsys, config, flags, message):
    argv = ["verify", *(f.format(cfg=config) for f in flags)]
    assert _argparse_error(capsys, argv).startswith(f"cascade verify: error: {message}")


def test_verify_config_takes_no_reps(capsys, config):
    # --reps goes with --all or --scenario, so argparse lets it through.
    rc, out, err = _run(capsys, ["verify", "--config", str(config), "--reps", "50"])
    assert (rc, out, err) == (2, "", "error: --config cannot be combined with --reps\n")


@pytest.mark.parametrize("value", ["abc", "1,,2", ""])
def test_predict_at_is_parsed_before_the_input_is_read(tmp_path, capsys, value):
    # The input does not exist: reading it would fail naming the input.
    argv = ["coverage", str(tmp_path / "missing.csv"), f"--predict-at={value}"]
    assert _argparse_error(capsys, argv).startswith(
        "cascade coverage: error: argument --predict-at: could not convert string to float: ")


@pytest.mark.parametrize("command", [None, *_subparsers()])
def test_every_help_exits_0(capsys, command):
    argv = [] if command is None else [command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert out.startswith(" ".join(["usage: cascade", *argv]))
    if command == "verify":
        # The usage names the metavar, not the 16 scenario names.
        usage = out.split("\n\n")[0]
        assert "(--scenario NAME | --all | --config CONFIG)" in usage
        assert not [name for name in SCENARIO_NAMES if name in usage]


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
