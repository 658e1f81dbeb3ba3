"""Command line front end.

Subcommands map one-to-one onto the estimator modules: ``unseen``,
``hull``, ``poset``, ``coincide``, and ``coverage`` analyze user data;
``verify`` runs the seeded Monte Carlo bound checks; ``demo-aldous``
runs the high-dimensional two-mode demonstration.  Analysis output is
JSON on stdout; verify writes the report (CSV by default) to stdout or
``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import math
import os
import sys
from collections import Counter

import numpy as np

from .coincidence_test import (
    SequenceRecord,
    _check_radius,
    coincidence_mse_bound,
    coverage_fraction,
    kimura_matrix,
    nn_loo_distances,
    nn_test_pvalue,
)
from .convex_volume import hull_summary, volume_interval
from .coverage_predict import holdout_coverage, loo_coverage, ols_fit, predict_interval
from .loo_core import (_check_array, _check_int, _check_number, _check_seed, _check_unit_interval,
                       size_estimate)
from .poset_estimators import (
    Antichain,
    ProductOrder,
    ReversedNaturals,
    TreeAncestor,
    count_and_closure,
    poset_convex_mse_bound,
    upset_mse_bound,
)
from .sim_harness import (
    SCENARIO_NAMES,
    ScenarioConfig,
    default_config,
    emit_plot_data,
    emit_report,
    report_text,
    run_scenarios,
)
from .unseen_species import good_turing, unseen_bound


@contextlib.contextmanager
def _naming(flag: str, value):
    """An ``OSError`` or ``ValueError`` raised inside, or the
    ``RecursionError`` of too deeply nested JSON, becomes one
    ``ValueError`` that names the flag (or ``input``) and its value, the
    path or numbers it came from; an ``OSError`` gives its reason, not
    its ``[Errno …]`` form."""
    try:
        yield
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"{flag} {value!r}: {getattr(exc, 'strerror', None) or exc}") from None


def _read(flag: str, path: str, parse):
    """``parse`` of the open text file ``path`` ('-' for stdin): opening,
    decoding and parsing it, format checks included, fail under
    ``flag``'s name."""
    with _naming(flag, path):
        if path == "-":
            return parse(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return parse(fh)


def _matrix_from_text(text: str) -> np.ndarray:
    """The numeric rows of ``text``, parsed in one streaming pass.

    Blank lines and ``#`` comments are skipped; a line with a comma is
    split on commas, any other on whitespace; each token goes through
    ``float``.  A bad token is reported before ragged rows.
    """
    widths = set()

    def rows():
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",") if "," in line else line.split()
            widths.add(len(parts))
            yield parts

    values = np.fromiter(map(float, itertools.chain.from_iterable(rows())), dtype=float)
    if not widths:
        raise ValueError("no numeric rows in input")
    if len(widths) > 1:
        raise ValueError("ragged rows in input")
    # fromiter grows its buffer by reallocation.  Copying into an
    # exact-size array frees that buffer before the caller allocates
    # more: without the copy, `cascade hull` on 100,000 rows left 11 MB
    # more resident after the call, under the next call's peak.
    return values.reshape(-1, widths.pop()).copy()


def _emit_json(obj) -> None:
    # allow_nan=False: a NaN or infinity would print as invalid JSON.
    print(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False))


# ----------------------------------------------------------- subcommands

def _labels(fh) -> Counter:
    # Every line break is whitespace, so counting line by line splits the
    # same labels while holding only the distinct ones.
    counts = Counter()
    for line in fh:
        counts.update(line.replace(",", " ").split())
    if not counts:
        raise ValueError("no labels in input")
    return counts


def _cmd_unseen(args) -> int:
    counts = _read("input", args.input, _labels)
    est = good_turing(counts)
    three_term, cap = unseen_bound(est.n) if est.n >= 3 else (None, None)
    _emit_json(
        {
            "n": est.n,
            "singletons": est.hits,
            "estimate": est.value,
            "distinct": len(counts),
            "mse_bound_three_term": three_term,
            "mse_bound_cap": cap,
        }
    )
    return 0


def _cmd_hull(args) -> int:
    cloud = _read("input", args.input, lambda fh: _matrix_from_text(fh.read()))
    summary = hull_summary(cloud, tol=args.tol)
    n, d = cloud.shape
    out = {
        "n": n,
        "d": d,
        "extreme_count": summary.extreme_count,
        "hull_volume": summary.volume,
        "defect_estimate": summary.extreme_count / n,
    }
    if summary.extreme_count < n:
        ci = volume_interval(summary, d, args.alpha)
        out["volume_estimate"] = ci.estimate
        out["ci_low"] = ci.ci_low
        out["ci_high"] = ci.ci_high if np.isfinite(ci.ci_high) else None
        out["alpha"] = args.alpha
    _emit_json(out)
    return 0


def _poset_sample(kind: str, fh):
    """The sample, one element per line, and the order of ``kind``."""
    lines = [ln.strip() for ln in fh.read().splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("no elements in input")
    if kind == "product":
        sample = [tuple(int(t) for t in ln.replace(",", " ").split()) for ln in lines]
        widths = {len(x) for x in sample}
        if len(widths) != 1:
            raise ValueError("product-order elements must share one width")
        return sample, ProductOrder(widths.pop())
    if kind == "tree":
        return [tuple(int(p) for p in ln.split("/") if p) for ln in lines], TreeAncestor()
    sample = [int(tok) for ln in lines for tok in ln.replace(",", " ").split()]
    return sample, (Antichain if kind == "antichain" else ReversedNaturals)()


def _cmd_poset(args) -> int:
    sample, oracle = _read("input", args.input, lambda fh: _poset_sample(args.kind, fh))
    n = len(sample)
    count, closure = count_and_closure(sample, oracle, args.convex)
    bound = poset_convex_mse_bound if args.convex else upset_mse_bound
    _emit_json(
        {
            "n": n,
            "kind": args.kind,
            "sandwiched_count" if args.convex else "dominated_count": count,
            "mse_bound": bound(n) if n >= 3 else None,
            "closure_size": closure,
            "estimate": size_estimate(closure, count, n),
        }
    )
    return 0


def _parse_fasta(text: str) -> list[tuple[str, str]]:
    """(name, sequence) of each record of ``text``, whose first nonblank
    character is ``>``."""
    records = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith(">"):
            records.append((line[1:].split()[0] if len(line) > 1 else f"seq{len(records)}", []))
        elif line:
            records[-1][1].append(line)
    return [(name, "".join(parts)) for name, parts in records]


def _distances(mask_ambiguous: bool, fh):
    """The ids and distance matrix of a FASTA file (Kimura distances) or
    of a square distance matrix."""
    text = fh.read()
    if text.lstrip().startswith(">"):
        records = [SequenceRecord(name, seq, mask_ambiguous=mask_ambiguous)
                   for name, seq in _parse_fasta(text)]
        return [r.id for r in records], kimura_matrix(records)
    dist = _matrix_from_text(text)
    if dist.shape[0] != dist.shape[1]:
        raise ValueError("distance matrix must be square")
    return [f"item{i}" for i in range(dist.shape[0])], dist


def _cmd_coincide(args) -> int:
    ids, dist = _read("input", args.input, lambda fh: _distances(args.mask_ambiguous, fh))
    n = dist.shape[0]
    out: dict = {"n": n, "ids_preview": ids[:5]}

    # Checks the whole matrix, the query's row and column included.
    nn = nn_loo_distances(dist)
    if args.query_id is not None:
        if args.query_id not in ids:
            raise ValueError(f"--query-id {args.query_id!r} not found")
        if n < 3:
            raise ValueError(f"--query-id needs at least 3 objects in the input, got {n}")
        q = ids.index(args.query_id)
        keep = [i for i in range(n) if i != q]
        ref_nn = nn_loo_distances(dist[np.ix_(keep, keep)])
        query_nn = float(nn[q])
        out["query_id"] = args.query_id
        out["query_nn_distance"] = query_nn
        out["p_value"] = nn_test_pvalue(ref_nn, query_nn)
        nn[keep] = ref_nn
    out["nn_distance"] = {
        "min": float(nn.min()),
        "median": float(np.median(nn)),
        "max": float(nn.max()),
    }

    if args.radius is not None:
        cov = coverage_fraction(dist, args.radius)
        out["radius"] = args.radius
        out["coverage"] = cov.value
        out["mse_bound"] = coincidence_mse_bound(n) if n >= 3 else None

    off = dist[~np.eye(n, dtype=bool)]
    cutoff = float(np.percentile(off, args.threshold_percentile))
    # Pairs i < j in row order, then stably by distance.
    rows, cols = np.triu_indices(n, 1)
    pair_dist = dist[rows, cols]
    picked = np.flatnonzero(pair_dist <= cutoff)
    picked = picked[np.argsort(pair_dist[picked], kind="stable")]
    out["flag_threshold"] = cutoff
    out["flagged_pairs"] = [[ids[rows[k]], ids[cols[k]], float(pair_dist[k])] for k in picked]

    if args.dist_out:
        with open(args.dist_out, "w", encoding="utf-8") as fh:
            fh.write("distribution,value\n")
            if args.query_id is not None:
                for v in ref_nn:
                    fh.write(f"reference_nn,{float(v)!r}\n")
                for i in keep:
                    fh.write(f"query_distance,{float(dist[q, i])!r}\n")
            else:
                for v in nn:
                    fh.write(f"loo_nn,{float(v)!r}\n")
    _emit_json(out)
    return 0


def _table(fh, width=None) -> np.ndarray:
    """Feature columns then the response, ``width`` columns when given."""
    data = _matrix_from_text(fh.read())
    if data.shape[1] < 2:
        raise ValueError("need at least one feature column plus the response")
    if width not in (None, data.shape[1]):
        raise ValueError(f"{data.shape[1]} columns, but the input has {width}")
    return data


def _cmd_coverage(args) -> int:
    data = _read("input", args.input, _table)
    X, y = data[:, :-1], data[:, -1]
    x_shift = X.mean(axis=0) if args.center else np.zeros(X.shape[1])
    y_shift = y.mean() if args.center else 0.0
    X, y = X - x_shift, y - y_shift
    fit = ols_fit(X, y)
    est = loo_coverage(fit, args.alpha, method=args.method)
    out = {
        "n": X.shape[0],
        "p": X.shape[1],
        "alpha": args.alpha,
        "method": args.method,
        "loo_coverage": est.value,
        "beta": [float(b) for b in fit.beta],
        "sigma_hat": fit.sigma_hat,
    }
    if args.predict_at is not None:
        with _naming("--predict-at", args.predict_at):
            if len(args.predict_at) != X.shape[1]:
                raise ValueError(f"x_new has {len(args.predict_at)} values but the data have "
                                 f"{X.shape[1]} features")
            interval = predict_interval(fit, np.asarray(args.predict_at) - x_shift, args.alpha)
        out["prediction_interval"] = {
            "center": interval.center + y_shift,
            "low": interval.low + y_shift,
            "high": interval.high + y_shift,
        }
    if args.holdout_file is not None:
        hold = _read("--holdout-file", args.holdout_file, lambda fh: _table(fh, data.shape[1]))
        out["holdout_coverage"] = holdout_coverage(
            fit, hold[:, :-1] - x_shift, hold[:, -1] - y_shift, args.alpha
        )
    _emit_json(out)
    return 0


def _configs_from_args(args) -> list[ScenarioConfig]:
    # argparse takes exactly one of --config, --all and --scenario.
    if args.config is None:
        names = SCENARIO_NAMES if args.all else args.scenario
        return [default_config(name, seed=args.seed, replications=args.reps) for name in names]
    if args.reps is not None:
        raise ValueError("--config cannot be combined with --reps")
    raw = _read("--config", args.config, json.load)
    if isinstance(raw, dict):
        raw = [raw]
    if not isinstance(raw, list) or not raw:
        raise ValueError(f"--config must hold a JSON object or a nonempty list of them, "
                         f"got {raw!r}")
    entry_keys = {f.name for f in dataclasses.fields(ScenarioConfig)}
    configs = []
    for item in raw:
        if not isinstance(item, dict):
            raise ValueError("each --config entry must be a JSON object")
        for key in ("scenario", "n_grid", "replications"):
            if key not in item:
                raise ValueError(f"--config entry lacks the {key!r} key")
        unknown = sorted(set(item) - entry_keys)
        if unknown:
            raise ValueError(f"--config entry has an unknown key {unknown[0]!r}")
        configs.append(ScenarioConfig(**{"seed": args.seed, **item}))
    return configs


def _write_report(rows, args) -> None:
    """The report goes to ``--out`` when given, else to stdout."""
    if args.out:
        emit_report(rows, args.out, fmt=args.format)
    else:
        sys.stdout.write(report_text(rows, fmt=args.format))


def _cmd_verify(args) -> int:
    rows = run_scenarios(_configs_from_args(args), workers=args.workers)
    _write_report(rows, args)
    if args.plot_out:
        emit_plot_data(rows, args.plot_out)
    passed = sum(1 for r in rows if r.passed)
    print(f"{passed}/{len(rows)} rows within bounds", file=sys.stderr)
    return 0 if passed == len(rows) else 1


def _cmd_demo_aldous(args) -> int:
    cfg = default_config("aldous_demo", seed=args.seed, replications=args.reps)
    cfg.n_grid = (args.n,)
    rows = run_scenarios([cfg], workers=args.workers)
    _write_report(rows, args)
    row = rows[0]
    print(
        "coverage concentrates at {:.4f} of replications near one and {:.4f} near zero; "
        "mean |estimate - truth| = {:.5f}".format(
            row.extras["mode_one_freq"],
            row.extras["mode_zero_freq"],
            row.extras["mean_abs_gap"],
        ),
        file=sys.stderr,
    )
    return 0 if row.passed else 1


# ----------------------------------------------------------------- flags

def _check_out_path(flag: str, path: str) -> None:
    """An output path must name a file in a directory that exists."""
    if os.path.isdir(path):
        raise ValueError(f"{flag} {path!r} is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"{flag} {path!r}: its directory does not exist")


def _floats(text: str) -> list[float]:
    """The argparse type of a comma-separated vector: a bad token exits
    with ``float``'s message, under the flag's name."""
    try:
        return [float(t) for t in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(exc) from None


# Each numeric flag's rule, and the output paths', which main applies
# under the flag's own name before any input is read or any scenario
# runs; a flag at its None default is skipped.  A rule stricter than its
# library argument's states only the extra part: a --radius must also be
# finite, as JSON holds no inf.  Only --predict-at's width waits for the
# data.
_FLAG_RULES = {
    "--alpha": _check_unit_interval,
    "--tol": _check_unit_interval,
    "--radius": lambda flag, r: (_check_number(flag, r, "be finite", math.isfinite),
                                 _check_radius(flag, r)),
    "--threshold-percentile": lambda flag, p: _check_number(flag, p, "lie in [0, 100]",
                                                            lambda p: 0 <= p <= 100),
    "--seed": _check_seed,
    "--reps": lambda flag, reps: _check_int(flag, reps, 1),
    "--workers": lambda flag, workers: _check_int(flag, workers, 1),
    "--n": lambda flag, n: _check_int(flag, n, 3),
    "--predict-at": lambda flag, x: _check_array(flag, x, "be finite"),
    **dict.fromkeys(("--out", "--plot-out", "--dist-out"), _check_out_path),
}


# ---------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascade",
        description="Leave-one-out estimators with finite-sample error bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("unseen", help="missing-mass estimate from a label sample")
    p.add_argument("input", help="label file ('-' for stdin; whitespace/comma separated)")
    p.set_defaults(fn=_cmd_unseen)

    p = sub.add_parser("hull", help="convex hull volume estimate from a point cloud")
    p.add_argument("input", help="CSV of points, one per row ('-' for stdin)")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument(
        "--tol",
        type=float,
        default=1e-9,
        help="flatness threshold: singular values below tol times the largest count as zero",
    )
    p.set_defaults(fn=_cmd_hull)

    p = sub.add_parser("poset", help="up-set / order-convex closure size estimates")
    p.add_argument("input", help="one element per line ('-' for stdin)")
    p.add_argument(
        "--kind",
        choices=("antichain", "chain", "product", "tree"),
        required=True,
        help="order structure: bare labels, integers, integer tuples, or /-paths",
    )
    p.add_argument("--convex", action="store_true", help="order-convex closure instead of up-set")
    p.set_defaults(fn=_cmd_poset)

    p = sub.add_parser("coincide", help="nearest-neighbor coincidence analysis")
    p.add_argument("input", help="FASTA file or square distance CSV ('-' for stdin)")
    p.add_argument("--query-id", default=None, help="score this record against the rest")
    p.add_argument("--radius", type=float, default=None, help="coverage radius")
    p.add_argument(
        "--threshold-percentile",
        type=float,
        default=1.0,
        help="flag pairs at or below this percentile of distances",
    )
    p.add_argument("--mask-ambiguous", action="store_true")
    p.add_argument(
        "--dist-out",
        default=None,
        help="write the nearest-neighbor distance distributions as CSV",
    )
    p.set_defaults(fn=_cmd_coincide)

    p = sub.add_parser("coverage", help="leave-one-out prediction-interval coverage")
    p.add_argument("input", help="CSV: feature columns then response ('-' for stdin)")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--method", choices=("refit", "downdate"), default="downdate")
    p.add_argument("--center", action="store_true", help="mean-center features and response")
    p.add_argument("--predict-at", type=_floats, help="comma-separated feature vector; "
                   "one that starts with a minus takes the = form, --predict-at=-0.5,1")
    p.add_argument("--holdout-file", default=None)
    p.set_defaults(fn=_cmd_coverage)

    # The flags of both scenario-running subcommands.
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--workers", type=int, default=1)
    run.add_argument("--out", default=None, help="report path (stdout if omitted)")
    run.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("verify", parents=[run], help="run the Monte Carlo bound checks")
    pick = p.add_mutually_exclusive_group(required=True)
    pick.add_argument("--scenario", action="append", choices=SCENARIO_NAMES, metavar="NAME",
                      help="a scenario of the registry; repeatable")
    pick.add_argument("--all", action="store_true", help="run every scenario")
    pick.add_argument("--config", help="JSON scenario config file")
    p.add_argument("--reps", type=int, default=None, help="override replication counts")
    p.add_argument("--plot-out", default=None, help="write MSE-vs-1/n plot data CSV")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("demo-aldous", parents=[run],
                       help="two-mode coverage demo on a sphere mixture")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--reps", type=int, default=2000)
    p.set_defaults(fn=_cmd_demo_aldous)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for flag, rule in _FLAG_RULES.items():
            value = getattr(args, flag[2:].replace("-", "_"), None)
            if value is not None:
                rule(flag, value)
        return args.fn(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
