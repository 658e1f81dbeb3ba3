"""Output checks for the benchmark workloads.

Every check recomputes the expected answer without the ``cascade``
package: from the geometry of the generated input, from a plain numpy
route, or from the paper's closed-form bounds.  A check takes the call's
result ``{"rc", "stdout", "report"}`` plus the generator's data and
returns a list of problems; an empty list means the output is correct.

Counts that compare a float against a threshold (nearest-neighbour
distances against a radius, residuals against an interval) are checked
against a band: the count at ``threshold - tol`` and at
``threshold + tol``, so last-bit differences between two valid routes
do not read as errors.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from statistics import NormalDist

import numpy as np

REL = 1e-9
REPORT_COLUMNS = ["scenario", "n", "replications", "empirical_mse", "std_err", "bound", "pass",
                  "extras_json"]


def _close(a, b, rel=REL, abs_tol=1e-12) -> bool:
    if a is None or b is None:
        return False
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=abs_tol)


def _json_out(result: dict, problems: list):
    if result["rc"] != 0:
        problems.append(f"exit code {result['rc']!r}, expected 0")
        return None
    try:
        return json.loads(result["stdout"])
    except json.JSONDecodeError as exc:
        problems.append(f"stdout is not JSON: {exc}")
        return None


def _expect(problems: list, label: str, got, want, rel=REL, abs_tol=1e-12) -> None:
    ok = _close(got, want, rel, abs_tol) if isinstance(want, float) else got == want
    if not ok:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


def _band(values, threshold: float, tol: float) -> tuple:
    values = np.asarray(values, dtype=float)
    return int(np.sum(values <= threshold - tol)), int(np.sum(values <= threshold + tol))


def _expect_band(problems: list, label: str, got: int, band: tuple) -> None:
    if not band[0] <= got <= band[1]:
        problems.append(f"{label}: got {got}, expected within {band}")


# ------------------------------------------------------------- verify

# Expected (n, key) rows per scenario, in report order; the key is the
# hull dimension ``d`` or the coincidence radius ``r`` from extras.
_HULL_ROWS = [(n, d) for d in (2, 3) for n in (20, 50, 100, 200)]
_EXPECTED_ROWS = {
    "unseen_uniform": [(n, None) for n in (10, 50, 200)],
    "unseen_zipf": [(n, None) for n in (10, 50, 200)],
    "hull_rect": _HULL_ROWS,
    "hull_disk": _HULL_ROWS,
    "hull_gauss": _HULL_ROWS,
    "hull_gauss_corr": _HULL_ROWS,
    "upset_chain": [(30, None), (100, None)],
    "upset_antichain": [(30, None), (100, None)],
    "upset_staircase": [(30, None), (100, None)],
    "poset_convex_interval": [(30, None), (100, None)],
    "poset_convex_forest": [(30, None), (100, None)],
    "coincide_uniform_square": [(n, r) for n in (30, 100) for r in (0.05, 0.1, 0.2)],
    "dna_split": [(40, None)],
    "coverage_linear": [(n, None) for n in (50, 100, 200, 400)],
    "coverage_quadratic_misspec": [(n, None) for n in (50, 100, 200, 400)],
    "aldous_demo": [(200, None)],
}
_DEFAULT_REPS = {
    "unseen": 2000, "hull": 1000, "upset": 2000, "poset": 2000, "coincide": 1000,
    "dna": 500, "coverage": 500, "aldous": 2000,
}


def _family(scenario: str) -> str:
    return scenario.split("_")[0]


def n_grid(scenario: str) -> list:
    return list(dict.fromkeys(n for n, _ in _EXPECTED_ROWS[scenario]))


def default_reps(scenario: str) -> int:
    return _DEFAULT_REPS[_family(scenario)]


def paper_bound(scenario: str, n: int, extras: dict) -> float:
    """The bound each row is compared against, from its closed form."""
    e = math.e
    family = _family(scenario)
    if family == "unseen":
        return 4.0 / (e * (n - 1)) + 4.0 * (n - 1) / (e * n * (n - 2)) + 2.0 / n
    if family == "hull":
        return (8 * extras["d"] + 9) / n
    if family == "upset":
        return (8.0 / e + 0.5) / n
    if family == "poset":
        return (16.0 / e + 0.5) / n
    if family == "coincide":
        return 9.0 / n
    if family == "coverage":
        return 0.25 / n  # the harness's calibrated envelope
    if family == "aldous":
        return 0.05**2  # the harness's gap envelope
    if family == "dna":
        return 0.15  # the KS threshold between the two AD-statistic samples
    raise ValueError(f"no bound known for {scenario!r}")


def _loo_identity(row: dict, extras: dict, problems: list) -> None:
    """E[V_n/n] = E[defect(n-1)] for the hull estimator.

    defect(n-1) >= defect(n) on every replication (the hull only grows),
    so the mean of defect(n-1) is mean_defect + mean_abs_defect_step.
    The Monte Carlo error of the mean difference is at most
    sqrt(E[(V_n/n - defect(n-1))^2] / reps); probe-based truth adds the
    probe standard error.
    """
    n, reps = int(row["n"]), int(row["replications"])
    lhs = extras["mean_extreme_count"] / n
    rhs = extras["mean_defect"] + extras["mean_abs_defect_step"]
    tol = (5.0 * math.sqrt(extras["mse_vs_prev_defect"] / reps)
           + 3.0 * extras["probe_se_max"] + 1e-12)
    if abs(lhs - rhs) > tol:
        problems.append(
            f"{row['scenario']} n={n} d={extras['d']}: E[V_n/n]={lhs!r} vs "
            f"E[defect(n-1)]={rhs!r} differ by more than {tol!r}"
        )


def verify_report(result: dict, reps: dict) -> list:
    """``reps`` maps each scenario asked for, in order, to its replication count."""
    problems = []
    if result["rc"] != 0:
        return [f"verify exit code {result['rc']!r}, expected 0"]
    lines = [ln for ln in (result["report"] or "").splitlines() if ln and not ln.startswith("#")]
    rows = list(csv.reader(lines))
    if not rows or rows[0] != REPORT_COLUMNS:
        return ["report header missing or wrong"]
    rows = [dict(zip(REPORT_COLUMNS, rec)) for rec in rows[1:]]
    extras_of = [json.loads(row["extras_json"]) for row in rows]
    expected = [(s, n, key) for s in reps for n, key in _EXPECTED_ROWS[s]]
    got = [(row["scenario"], int(row["n"]), extras.get("d", extras.get("r")))
           for row, extras in zip(rows, extras_of)]
    if got != expected:
        return [f"report rows {got} differ from the expected {expected}"]
    for row, extras in zip(rows, extras_of):
        label = f"{row['scenario']} n={row['n']}"
        _expect(problems, f"{label} replications", int(row["replications"]), reps[row["scenario"]])
        mse, se, bound = float(row["empirical_mse"]), float(row["std_err"]), float(row["bound"])
        want = paper_bound(row["scenario"], int(row["n"]), extras)
        _expect(problems, f"{label} bound", bound, want, rel=1e-12)
        if not (math.isfinite(mse) and mse >= 0 and se >= 0):
            problems.append(f"{label}: bad mse {mse!r} or std_err {se!r}")
        if row["pass"] != "true" or not mse <= bound:
            problems.append(f"{label}: mse {mse!r} exceeds bound {bound!r}")
        if _family(row["scenario"]) == "hull":
            _loo_identity(row, extras, problems)
    return problems


# --------------------------------------------------------------- hull

def hull_known(result: dict, n: int, d: int, extreme: int, volume: float,
               alpha: float = 0.05) -> list:
    problems = []
    out = _json_out(result, problems)
    if out is None:
        return problems
    _expect(problems, "n", out.get("n"), n)
    _expect(problems, "d", out.get("d"), d)
    _expect(problems, "extreme_count", out.get("extreme_count"), extreme)
    _expect(problems, "defect_estimate", out.get("defect_estimate"), extreme / n)
    estimate = volume / (1.0 - extreme / n)
    eps = math.sqrt((8 * d + 9) * n) / (math.sqrt(alpha) * (n - extreme))
    wanted = {
        "hull_volume": volume,
        "volume_estimate": estimate,
        "ci_low": estimate,
        "ci_high": None if eps >= 1.0 else estimate / (1.0 - eps),  # None: unbounded
    }
    for key, want in wanted.items():
        _expect(problems, key, out.get(key), want, abs_tol=1e-9)
    return problems


# -------------------------------------------------------------- poset

def _poset_common(out: dict, problems: list, n: int, count_key: str, count: int, closure: int):
    """Shared fields; ``count_key`` is "dominated_count" (up-set) or "sandwiched_count"."""
    bound = (16.0 if count_key == "sandwiched_count" else 8.0) / math.e + 0.5
    _expect(problems, "n", out.get("n"), n)
    _expect(problems, count_key, out.get(count_key), count)
    _expect(problems, "closure_size", out.get("closure_size"), closure)
    _expect(problems, "estimate", out.get("estimate"), n * closure / count if count else None)
    _expect(problems, "mse_bound", out.get("mse_bound"), bound / n)


def poset_product(result: dict, pts: np.ndarray, convex: bool) -> list:
    """Reversed componentwise order: x is below y iff y <= x in every coordinate."""
    problems = []
    out = _json_out(result, problems)
    if out is None:
        return problems
    n = pts.shape[0]
    # ge[i, j]: point j >= point i componentwise, j != i.
    ge = (pts[None, :, 0] >= pts[:, None, 0]) & (pts[None, :, 1] >= pts[:, None, 1])
    np.fill_diagonal(ge, False)
    shape = tuple(pts.max(axis=0))
    up = np.zeros(shape, dtype=bool)  # cells at or below some sample point
    for a, b in pts:
        up[:a, :b] = True
    if convex:
        down = np.zeros(shape, dtype=bool)  # cells at or above some sample point
        for a, b in pts:
            down[a - 1:, b - 1:] = True
        count = int((ge.any(axis=1) & ge.any(axis=0)).sum())
        _poset_common(out, problems, n, "sandwiched_count", count, int((up & down).sum()))
    else:
        _poset_common(out, problems, n, "dominated_count", int(ge.any(axis=1).sum()), int(up.sum()))
    return problems


def poset_antichain(result: dict, labels: np.ndarray) -> list:
    problems = []
    out = _json_out(result, problems)
    if out is None:
        return problems
    _, counts = np.unique(labels, return_counts=True)
    dominated = int(counts[counts > 1].sum())
    _poset_common(out, problems, labels.size, "dominated_count", dominated, counts.size)
    return problems


def poset_tree(result: dict, paths: list) -> list:
    """Ancestry order: a node is dominated when another sampled node lies at or below it."""
    problems = []
    out = _json_out(result, problems)
    if out is None:
        return problems
    counts = Counter(paths)
    proper_prefixes = {p[:k] for p in counts for k in range(len(p))}
    dominated = sum(1 for p in paths if counts[p] > 1 or p in proper_prefixes)
    closure = len(proper_prefixes | set(counts))
    _poset_common(out, problems, len(paths), "dominated_count", dominated, closure)
    return problems


# ----------------------------------------------------------- coincide

def kimura_distances(codes: np.ndarray) -> np.ndarray:
    """Kimura two-parameter distances from base-count matrix products.

    Codes 0..3 stand for A, G, C, T; A<->G and C<->T are transitions.
    """
    codes = np.asarray(codes)
    length = codes.shape[1]
    onehot = [(codes == b).astype(float) for b in range(4)]
    same = sum(h @ h.T for h in onehot)
    purine = onehot[0] + onehot[1]
    pyrimidine = onehot[2] + onehot[3]
    same_class = purine @ purine.T + pyrimidine @ pyrimidine.T
    p = (same_class - same) / length
    q = (length - same_class) / length
    dist = -0.5 * np.log(1.0 - 2.0 * p - q) - 0.25 * np.log(1.0 - 2.0 * q)
    np.fill_diagonal(dist, 0.0)
    return dist


def _loo_nn(dist: np.ndarray) -> np.ndarray:
    masked = dist.copy()
    np.fill_diagonal(masked, np.inf)
    return masked.min(axis=1)


def gap_radius(dist: np.ndarray) -> float:
    """A radius halfway between two distinct nearest-neighbour distances near their median."""
    values = np.unique(_loo_nn(dist))
    i = max(1, values.size // 2)
    return float(0.5 * (values[i - 1] + values[i])) if values.size > 1 else float(values[0]) + 1.0


def coincide(result: dict, codes: np.ndarray, query: int, radius: float,
             percentile: float = 1.0) -> list:
    """``percentile`` is the CLI's default ``--threshold-percentile``."""
    problems = []
    out = _json_out(result, problems)
    if out is None:
        return problems
    dist = kimura_distances(codes)
    n = dist.shape[0]
    tol = 1e-9 * max(1.0, float(dist.max()))
    keep = np.array([i for i in range(n) if i != query])
    ref_nn = _loo_nn(dist[np.ix_(keep, keep)])
    query_nn = float(dist[query, keep].min())
    nn = np.empty(n)
    nn[keep], nn[query] = ref_nn, query_nn
    _expect(problems, "n", out.get("n"), n)
    _expect(problems, "query_id", out.get("query_id"), f"seq{query}")
    _expect(problems, "query_nn_distance", out.get("query_nn_distance"), query_nn)
    lo, hi = _band(ref_nn, query_nn, tol)
    p_value = out.get("p_value")
    if not any(_close(p_value, (1 + c) / (ref_nn.size + 1)) for c in range(lo, hi + 1)):
        problems.append(f"p_value: got {p_value!r}, expected (1 + {lo}..{hi}) / {ref_nn.size + 1}")
    summary = out.get("nn_distance", {})
    for key, want in (("min", nn.min()), ("median", np.median(nn)), ("max", nn.max())):
        _expect(problems, f"nn_distance.{key}", summary.get(key), float(want))
    covered = out.get("coverage")
    hits = round(covered * n) if covered is not None else -1
    _expect_band(problems, "coverage hits", hits, _band(_loo_nn(dist), radius, tol))
    _expect(problems, "mse_bound", out.get("mse_bound"), 9.0 / n)
    off = dist[~np.eye(n, dtype=bool)]
    cutoff = float(np.percentile(off, percentile))
    _expect(problems, "flag_threshold", out.get("flag_threshold"), cutoff)
    upper = dist[np.triu_indices(n, 1)]
    flagged = len(out.get("flagged_pairs", []))
    _expect_band(problems, "flagged pairs", flagged, _band(upper, cutoff, tol))
    return problems


# ----------------------------------------------------------- coverage

def coverage(result: dict, x: np.ndarray, y: np.ndarray, holdout, center: bool, at,
             alpha: float = 0.05) -> list:
    """OLS through the origin; leave-one-out intervals from the hat matrix."""
    problems = []
    out = _json_out(result, problems)
    if out is None:
        return problems
    x_shift = x.mean(axis=0) if center else np.zeros(x.shape[1])
    y_shift = float(y.mean()) if center else 0.0
    xc, yc = x - x_shift, y - y_shift
    n, p = xc.shape
    xtx_inv = np.linalg.inv(xc.T @ xc)
    beta = xtx_inv @ (xc.T @ yc)
    resid = yc - xc @ beta
    rss = float(resid @ resid)
    sigma = math.sqrt(rss / (n - p))
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    lev = np.einsum("ij,jk,ik->i", xc, xtx_inv, xc)
    loo_resid = np.abs(resid / (1.0 - lev))
    halfwidth = z * np.sqrt((rss - resid**2 / (1.0 - lev)) / (n - 1 - p)) / np.sqrt(1.0 - lev)
    margin = (loo_resid - halfwidth) / halfwidth
    band = (int(np.sum(margin < -1e-9)), int(np.sum(margin <= 1e-9)))
    _expect(problems, "n", out.get("n"), n)
    _expect(problems, "p", out.get("p"), p)
    value = out.get("loo_coverage")
    _expect_band(problems, "loo_coverage hits", round(value * n) if value is not None else -1, band)
    got_beta = out.get("beta") or []
    if len(got_beta) != p or not all(_close(g, w, rel=1e-8) for g, w in zip(got_beta, beta)):
        problems.append(f"beta: got {got_beta!r}, expected {beta.tolist()!r}")
    _expect(problems, "sigma_hat", out.get("sigma_hat"), sigma, rel=1e-8)
    if holdout is not None:
        xh, yh = holdout[0] - x_shift, holdout[1] - y_shift
        quad = np.einsum("ij,jk,ik->i", xh, xtx_inv, xh)
        half = z * sigma * np.sqrt(1.0 + quad)
        gap = (np.abs(yh - xh @ beta) - half) / half
        got = out.get("holdout_coverage")
        _expect_band(problems, "holdout hits", round(got * yh.size) if got is not None else -1,
                     (int(np.sum(gap < -1e-8)), int(np.sum(gap <= 1e-8))))
    if at is not None:
        x_new = np.asarray(at, dtype=float) - x_shift
        mid = float(x_new @ beta) + y_shift
        half = z * sigma * math.sqrt(1.0 + float(x_new @ xtx_inv @ x_new))
        interval = out.get("prediction_interval", {})
        for key, want in (("center", mid), ("low", mid - half), ("high", mid + half)):
            _expect(problems, f"prediction_interval.{key}", interval.get(key), want, rel=1e-8)
    return problems


# ------------------------------------------------------------- unseen

def unseen(result: dict, labels: np.ndarray) -> list:
    problems = []
    out = _json_out(result, problems)
    if out is None:
        return problems
    n = labels.size
    _, counts = np.unique(labels, return_counts=True)
    singletons = int(np.sum(counts == 1))
    e = math.e
    _expect(problems, "n", out.get("n"), n)
    _expect(problems, "singletons", out.get("singletons"), singletons)
    _expect(problems, "estimate", out.get("estimate"), singletons / n)
    _expect(problems, "distinct", out.get("distinct"), counts.size)
    three_term = 4.0 / (e * (n - 1)) + 4.0 * (n - 1) / (e * n * (n - 2)) + 2.0 / n
    _expect(problems, "mse_bound_three_term", out.get("mse_bound_three_term"), three_term)
    _expect(problems, "mse_bound_cap", out.get("mse_bound_cap"), 5.0 / (n - 2))
    return problems
