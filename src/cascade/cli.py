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
    coincidence_mse_bound,
    coverage_fraction,
    kimura_matrix,
    nn_loo_distances,
    nn_test_pvalue,
)
from .convex_volume import hull_summary, volume_interval
from .coverage_predict import holdout_coverage, loo_coverage, ols_fit, predict_interval
from .loo_core import _check_alpha, _check_number, size_estimate
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


def _open_text(path: str):
    if path == "-":
        return contextlib.nullcontext(sys.stdin)
    return open(path, "r", encoding="utf-8")


def _read_text(path: str) -> str:
    with _open_text(path) as fh:
        return fh.read()


@contextlib.contextmanager
def _naming(flag: str, value: str):
    """A ``ValueError`` raised inside names the flag (or ``input``) and
    its value, the path or token it came from."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{flag} {value!r}: {exc}") from None


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


def _load_matrix(flag: str, path: str) -> np.ndarray:
    with _naming(flag, path):
        return _matrix_from_text(_read_text(path))


def _emit_json(obj) -> None:
    # allow_nan=False: a NaN or infinity would print as invalid JSON.
    print(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False))


# ----------------------------------------------------------- subcommands

def _cmd_unseen(args) -> int:
    # Every line break is whitespace, so counting line by line splits the
    # same labels while holding only the distinct ones.
    counts = Counter()
    with _open_text(args.input) as fh:
        for line in fh:
            counts.update(line.replace(",", " ").split())
    if not counts:
        raise ValueError("no labels in input")
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
    _check_alpha(args.alpha)
    cloud = _load_matrix("input", args.input)
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


def _parse_poset_sample(kind: str, text: str):
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("no elements in input")
    if kind in ("antichain", "chain"):
        return [int(tok) for ln in lines for tok in ln.replace(",", " ").split()]
    if kind == "product":
        return [tuple(int(t) for t in ln.replace(",", " ").split()) for ln in lines]
    sample = []
    for ln in lines:
        parts = [p for p in ln.split("/") if p]
        sample.append(tuple(int(p) for p in parts))
    return sample


def _cmd_poset(args) -> int:
    with _naming("input", args.input):
        sample = _parse_poset_sample(args.kind, _read_text(args.input))
    n = len(sample)
    if args.kind == "product":
        widths = {len(x) for x in sample}
        if len(widths) != 1:
            raise ValueError("product-order elements must share one width")
        oracle = ProductOrder(widths.pop())
    else:
        orders = {"antichain": Antichain, "chain": ReversedNaturals, "tree": TreeAncestor}
        oracle = orders[args.kind]()
    if args.kind in ("chain", "product"):
        # One integer array, by the order's own check, for the witness
        # scan and the closure to share.
        sample = oracle._points(sample)
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
    records, name, parts = [], None, []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith(">"):
            if name is not None:
                records.append((name, "".join(parts)))
            name = line[1:].split()[0] if len(line) > 1 else f"seq{len(records)}"
            parts = []
        elif name is not None:
            parts.append(line)
    if name is not None:
        records.append((name, "".join(parts)))
    if not records:
        raise ValueError("no FASTA records in input")
    return records


def _cmd_coincide(args) -> int:
    if args.radius is not None:
        _check_number("--radius", args.radius, "be finite", math.isfinite)
    _check_number("--threshold-percentile", args.threshold_percentile, "lie in [0, 100]",
                  lambda p: 0 <= p <= 100)
    text = _read_text(args.input)
    stripped = text.lstrip()
    if stripped.startswith(">"):
        pairs = _parse_fasta(text)
        records = [
            SequenceRecord(name, seq, mask_ambiguous=args.mask_ambiguous)
            for name, seq in pairs
        ]
        ids = [r.id for r in records]
        dist = kimura_matrix(records)
    else:
        with _naming("input", args.input):
            dist = _matrix_from_text(text)
        if dist.shape[0] != dist.shape[1]:
            raise ValueError("distance matrix must be square")
        ids = [f"item{i}" for i in range(dist.shape[0])]
    n = dist.shape[0]
    out: dict = {"n": n, "ids_preview": ids[:5]}

    # Checks the whole matrix, the query's row and column included.
    nn = nn_loo_distances(dist)
    if args.query_id is not None:
        if args.query_id not in ids:
            raise ValueError(f"query id {args.query_id!r} not found")
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


def _cmd_coverage(args) -> int:
    data = _load_matrix("input", args.input)
    if data.shape[1] < 2:
        raise ValueError("need at least one feature column plus the response")
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
            x_new = np.array([float(t) for t in args.predict_at.split(",")])
        if x_new.shape[0] != X.shape[1]:
            raise ValueError(
                f"--predict-at has {x_new.shape[0]} values but the data have {X.shape[1]} features"
            )
        interval = predict_interval(fit, x_new - x_shift, args.alpha)
        out["prediction_interval"] = {
            "center": interval.center + y_shift,
            "low": interval.low + y_shift,
            "high": interval.high + y_shift,
        }
    if args.holdout_file is not None:
        hold = _load_matrix("--holdout-file", args.holdout_file)
        if hold.shape[1] != data.shape[1]:
            raise ValueError("holdout file must match the training column count")
        out["holdout_coverage"] = holdout_coverage(
            fit, hold[:, :-1] - x_shift, hold[:, -1] - y_shift, args.alpha
        )
    _emit_json(out)
    return 0


def _configs_from_args(args) -> list[ScenarioConfig]:
    given = {"--config": args.config, "--all": args.all, "--scenario": args.scenario,
             "--reps": args.reps is not None}
    for first, second in (("--config", "--all"), ("--config", "--scenario"),
                          ("--config", "--reps"), ("--all", "--scenario")):
        if given[first] and given[second]:
            raise ValueError(f"{first} cannot be combined with {second}")
    if args.config:
        raw = json.loads(_read_text(args.config))
        if isinstance(raw, dict):
            raw = [raw]
        if not isinstance(raw, list):
            raise ValueError(f"--config must hold a JSON object or a list of them, got {raw!r}")
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
    names = list(SCENARIO_NAMES) if args.all else args.scenario
    if not names:
        raise ValueError("pass --all, --scenario, or --config")
    return [default_config(name, seed=args.seed, replications=args.reps) for name in names]


def _write_report(rows, args) -> None:
    """The report goes to ``--out`` when given, else to stdout."""
    if args.out:
        emit_report(rows, args.out, fmt=args.format)
    else:
        sys.stdout.write(report_text(rows, fmt=args.format))


def _check_out_paths(paths: dict) -> None:
    """Reject an output path (by flag) that cannot be a file, before any scenario runs."""
    for flag, path in paths.items():
        if not path:
            continue
        if os.path.isdir(path):
            raise ValueError(f"{flag} {path!r} is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"{flag} {path!r}: its directory does not exist")


def _cmd_verify(args) -> int:
    _check_out_paths({"--out": args.out, "--plot-out": args.plot_out})
    rows = run_scenarios(_configs_from_args(args), workers=args.workers)
    _write_report(rows, args)
    if args.plot_out:
        emit_plot_data(rows, args.plot_out)
    passed = sum(1 for r in rows if r.passed)
    print(f"{passed}/{len(rows)} rows within bounds", file=sys.stderr)
    return 0 if passed == len(rows) else 1


def _cmd_demo_aldous(args) -> int:
    _check_out_paths({"--out": args.out})
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
    p.add_argument("--predict-at", default=None, help="comma-separated feature vector")
    p.add_argument("--holdout-file", default=None)
    p.set_defaults(fn=_cmd_coverage)

    p = sub.add_parser("verify", help="run the Monte Carlo bound checks")
    p.add_argument("--scenario", action="append", default=[], help="repeatable")
    p.add_argument("--all", action="store_true", help="run every scenario")
    p.add_argument("--config", default=None, help="JSON scenario config file")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--reps", type=int, default=None, help="override replication counts")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None, help="report path (stdout if omitted)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--plot-out", default=None, help="write MSE-vs-1/n plot data CSV")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("demo-aldous", help="two-mode coverage demo on a sphere mixture")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--reps", type=int, default=2000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=_cmd_demo_aldous)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
