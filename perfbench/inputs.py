"""Seeded inputs for the benchmark workloads, with the checks that judge them.

``build(workload, seed, work_dir, scale)`` writes every input file the
workload needs under ``work_dir`` and returns its operations.  Each
operation is one call into ``cascade.cli.main``: its argument list, the
report file it writes (if any), and a check that turns the call's exit
code, standard output and report into a list of problems.  The same seed
always gives the same files and arguments.

``scale="tiny"`` shrinks every workload so the benchmark's own test can
run all of them in well under a minute.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks

EXACT_SCENARIOS = (
    "unseen_uniform",
    "unseen_zipf",
    "hull_rect",
    "hull_disk",
    "upset_chain",
    "upset_antichain",
    "upset_staircase",
    "poset_convex_interval",
    "poset_convex_forest",
    "dna_split",
    "coverage_linear",
    "coverage_quadratic_misspec",
)
# Reduced exact-truth set for the tiny scale: dna_split is left out because
# its KS statistic needs the default 500 replications to stay in bounds.
TINY_EXACT_SCENARIOS = (
    "unseen_zipf",
    "hull_disk",
    "upset_antichain",
    "poset_convex_forest",
    "coverage_quadratic_misspec",
)
# aldous_demo draws its 20,000 probes only in replications whose sample
# misses the origin (about 37% of them).  At 24 replications nearly every
# seed draws probes, so the run's time and peak memory do not hinge on the
# seed; the other three scenarios run 6 replications.
PROBE_REPS = {
    "full": {"hull_gauss": 6, "hull_gauss_corr": 6, "coincide_uniform_square": 6,
             "aldous_demo": 24},
    "tiny": {"hull_gauss": 2, "hull_gauss_corr": 2, "coincide_uniform_square": 2,
             "aldous_demo": 4},
}
TINY_EXACT_REPS = 30

WORKLOADS = ("verify_probe_truth", "verify_exact_truth", "cli_large_inputs")


@dataclass
class Op:
    name: str
    argv: list
    check: Callable[[dict], list]
    out_file: str | None = None


def build(workload: str, seed: int, work_dir: Path, scale: str = "full") -> list:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    work_dir.mkdir(parents=True, exist_ok=True)
    if workload == "verify_probe_truth":
        reps = PROBE_REPS[scale]
        config = work_dir / "probe_config.json"
        config.write_text(json.dumps([
            {"scenario": name, "n_grid": checks.n_grid(name), "replications": r, "seed": seed}
            for name, r in reps.items()
        ]))
        return [_verify_op(["--config", str(config)], reps, 2, seed, work_dir)]
    if workload == "verify_exact_truth":
        if scale == "tiny":
            reps = dict.fromkeys(TINY_EXACT_SCENARIOS, TINY_EXACT_REPS)
            selection = _scenario_flags(reps) + ["--reps", str(TINY_EXACT_REPS)]
            return [_verify_op(selection, reps, 1, seed, work_dir)]
        reps = {name: checks.default_reps(name) for name in EXACT_SCENARIOS}
        return [_verify_op(_scenario_flags(reps), reps, 1, seed, work_dir)]
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    return _cli_ops(rng, work_dir, _CLI_SIZES[scale])


def _scenario_flags(names) -> list:
    return [arg for name in names for arg in ("--scenario", name)]


def _verify_op(selection: list, reps: dict, workers: int, seed: int, work_dir: Path) -> Op:
    out = work_dir / "report.csv"
    argv = ["verify", *selection, "--seed", str(seed), "--workers", str(workers), "--out", str(out)]
    return Op(
        name=f"verify[{len(reps)} scenarios, workers={workers}]",
        argv=argv,
        check=partial(checks.verify_report, reps=reps),
        out_file=str(out),
    )


# ------------------------------------------------------- CLI analyses

_CLI_SIZES = {
    "full": dict(
        cube=100_000, flat=120, staircase=200, product=900, antichain=1500,
        antichain_labels=3000, tree_nodes=4000, tree=900, seqs=300, seq_len=1000,
        coverage=2500, holdout=20_000, labels=400_000, species=200_000,
    ),
    "tiny": dict(
        cube=500, flat=20, staircase=20, product=60, antichain=80,
        antichain_labels=150, tree_nodes=100, tree=50, seqs=20, seq_len=200,
        coverage=50, holdout=200, labels=1000, species=500,
    ),
}


def _write_rows(path: Path, rows, sep=",") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(sep.join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
            fh.write("\n")


def _write_tokens(path: Path, tokens, per_line: int = 20) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(0, len(tokens), per_line):
            fh.write(" ".join(str(t) for t in tokens[i:i + per_line]) + "\n")


def _cli_ops(rng, work: Path, size: dict) -> list:
    ops = []

    def add(name, argv, check, **data):
        ops.append(Op(name, argv, partial(check, **data)))

    # hull: the unit cube's 8 corners plus interior points (volume 1, 8
    # extreme points), and a flat square in a tilted plane in 3-D
    # (volume 0, 4 extreme points; Qhull cannot run, so the LP path does).
    corners = np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)])
    cube = np.vstack([corners, rng.uniform(0.01, 0.99, size=(size["cube"], 3))])
    cube = cube[rng.permutation(cube.shape[0])]
    path = work / "cube.csv"
    _write_rows(path, cube.tolist())
    add("hull cube", ["hull", str(path)], checks.hull_known,
        n=cube.shape[0], d=3, extreme=8, volume=1.0)

    basis, _ = np.linalg.qr(rng.standard_normal((3, 2)))
    origin = rng.uniform(-1.0, 1.0, size=3)
    st = np.vstack([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                    rng.uniform(0.02, 0.98, size=(size["flat"], 2))])
    flat = origin + st @ basis.T
    flat = flat[rng.permutation(flat.shape[0])]
    path = work / "flat.csv"
    _write_rows(path, flat.tolist())
    add("hull flat", ["hull", str(path)], checks.hull_known,
        n=flat.shape[0], d=3, extreme=4, volume=0.0)

    # poset: product order d=2 on a staircase {a + b <= K + 1}, up-set and
    # order-convex; an antichain of integer labels; paths in a random tree.
    k = size["staircase"]
    cells = np.array([(a, b) for a in range(1, k + 1) for b in range(1, k + 2 - a)])
    pts = cells[rng.integers(0, cells.shape[0], size=size["product"])]
    path = work / "product.txt"
    _write_rows(path, pts.tolist(), sep=" ")
    argv = ["poset", str(path), "--kind", "product"]
    add("poset product", argv, checks.poset_product, pts=pts, convex=False)
    add("poset product convex", argv + ["--convex"], checks.poset_product, pts=pts, convex=True)

    labels = rng.integers(1, size["antichain_labels"] + 1, size=size["antichain"])
    path = work / "antichain.txt"
    _write_tokens(path, labels.tolist())
    add("poset antichain", ["poset", str(path), "--kind", "antichain"], checks.poset_antichain,
        labels=labels)

    tree_paths = [()]
    for t in range(1, size["tree_nodes"]):
        parent = tree_paths[int(rng.integers(0, t))]
        tree_paths.append(parent + (int(rng.integers(0, 4)),))
    # Distinct nodes only: a child index drawn twice under one parent
    # would name the same node, so keep the first of each path.
    tree_paths = list(dict.fromkeys(tree_paths))
    picks = [tree_paths[i] for i in rng.integers(0, len(tree_paths), size=size["tree"])]
    path = work / "tree.txt"
    with open(path, "w", encoding="utf-8") as fh:
        for p in picks:
            fh.write("/" + "/".join(str(c) for c in p) + "\n")
    add("poset tree", ["poset", str(path), "--kind", "tree"], checks.poset_tree, paths=picks)

    # coincide: sequences mutated from one ancestor, scored against a query.
    m, length = size["seqs"], size["seq_len"]
    ancestor = rng.choice(4, size=length, p=[0.3, 0.2, 0.2, 0.3])
    codes = np.tile(ancestor, (m, 1))
    mutate = rng.random(codes.shape) < rng.uniform(0.02, 0.12, size=(m, 1))
    codes[mutate] = (codes[mutate] + rng.integers(1, 4, size=int(mutate.sum()))) % 4
    letters = np.frombuffer(b"AGCT", dtype=np.uint8)[codes]
    path = work / "seqs.fasta"
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(m):
            seq = letters[i].tobytes().decode("ascii")
            fh.write(f">seq{i}\n")
            for j in range(0, length, 70):
                fh.write(seq[j:j + 70] + "\n")
    query = int(rng.integers(0, m))
    radius = checks.gap_radius(checks.kimura_distances(codes))
    argv = ["coincide", str(path), "--query-id", f"seq{query}", "--radius", repr(radius)]
    add("coincide", argv, checks.coincide, codes=codes, query=query, radius=radius)

    # coverage: a linear model through the origin, scored by refitting
    # (with a holdout file) and by downdating (centered, with a prediction).
    n, p = size["coverage"], 3
    beta = np.array([1.0, -0.5, 0.25])

    def draw(count):
        x = 1.5 * rng.standard_normal((count, p))
        return x, x @ beta + rng.standard_normal(count)

    x, y = draw(n)
    xh, yh = draw(size["holdout"])
    path, hold_path = work / "train.csv", work / "holdout.csv"
    _write_rows(path, np.column_stack([x, y]).tolist())
    _write_rows(hold_path, np.column_stack([xh, yh]).tolist())
    argv = ["coverage", str(path), "--method", "refit", "--holdout-file", str(hold_path)]
    add("coverage refit", argv, checks.coverage,
        x=x, y=y, holdout=(xh, yh), center=False, at=None)
    at = [0.5, -1.0, 2.0]
    argv = ["coverage", str(path), "--method", "downdate", "--center",
            "--predict-at", ",".join(map(repr, at))]
    add("coverage downdate", argv, checks.coverage, x=x, y=y, holdout=None, center=True, at=at)

    # unseen: Zipf-like labels over a large species pool.
    weights = 1.0 / np.arange(1, size["species"] + 1)
    draws = rng.choice(size["species"], size=size["labels"], p=weights / weights.sum())
    path = work / "labels.txt"
    _write_tokens(path, [f"s{v}" for v in draws])
    add("unseen", ["unseen", str(path)], checks.unseen, labels=draws)
    return ops
