"""The stdout of every analysis subcommand path, byte for byte.

Small inputs are drawn from ``np.random.default_rng(7)`` and written to a
temporary folder; each case runs ``cascade.cli.main`` on them and compares
its stdout with the entry of the same name in ``golden_cli_outputs.json``.
A change that alters any output fails here.  If the change is meant,
rewrite the file with

    PYTHONPATH=src python tests/test_golden_cli.py

and list every changed value, with its reason, in CHANGES.md.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from cascade.cli import main

GOLDEN = Path(__file__).with_name("golden_cli_outputs.json")

# Each argument is formatted with the input paths that _write_inputs returns.
CASES = {
    "hull_square": ["hull", "{square}"],
    "hull_cube": ["hull", "{cube}", "--alpha", "0.1"],
    "hull_flat": ["hull", "{flat}"],
    **{
        f"poset_{kind}{suffix}": ["poset", "{" + kind + "}", "--kind", kind, *flags]
        for kind in ("antichain", "chain", "product", "tree")
        for suffix, flags in (("", []), ("_convex", ["--convex"]))
    },
    "coincide_fasta": ["coincide", "{fasta}", "--query-id", "s3", "--radius", "0.08"],
    "coincide_matrix": ["coincide", "{dist}", "--threshold-percentile", "5"],
    "coverage_refit_holdout": ["coverage", "{train}", "--method", "refit",
                               "--holdout-file", "{hold}"],
    "coverage_downdate_holdout": ["coverage", "{train}", "--method", "downdate",
                                  "--holdout-file", "{hold}"],
    "coverage_downdate_center": ["coverage", "{train}", "--method", "downdate", "--center",
                                 "--predict-at", "0.3,-1.2"],
    "unseen": ["unseen", "{labels}"],
}


def _write_rows(path: Path, rows, sep=",") -> None:
    path.write_text("".join(sep.join(repr(v) for v in row) + "\n" for row in rows))


def _write_inputs(folder: Path) -> dict:
    rng = np.random.default_rng(7)
    paths = {}

    def rows(name, values, sep=","):
        paths[name] = folder / f"{name}.txt"
        _write_rows(paths[name], values, sep)

    rows("square", rng.random((40, 2)).tolist())
    rows("cube", rng.random((30, 3)).tolist())
    u = rng.random((25, 2))
    rows("flat", np.column_stack([u, 0.5 * u[:, 0] - u[:, 1] + 2.0]).tolist())

    rows("antichain", [rng.integers(0, 15, 10).tolist() for _ in range(3)], sep=" ")
    rows("chain", [[v] for v in rng.integers(1, 1000, 25).tolist()])
    rows("product", rng.integers(1, 7, (25, 2)).tolist(), sep=" ")
    paths["tree"] = folder / "tree.txt"
    paths["tree"].write_text("".join(
        "/" + "/".join(str(c) for c in rng.integers(0, 3, int(rng.integers(0, 5)))) + "\n"
        for _ in range(25)
    ))

    ancestor = rng.choice(list("ACGT"), 80)
    records = []
    for i in range(12):
        seq = ancestor.copy()
        hit = rng.random(80) < 0.08
        seq[hit] = rng.choice(list("ACGT"), int(hit.sum()))
        records.append(f">s{i} record {i}\n{''.join(seq[:50])}\n{''.join(seq[50:])}\n")
    paths["fasta"] = folder / "seqs.fasta"
    paths["fasta"].write_text("".join(records))

    pts = rng.random((15, 2))
    rows("dist", np.linalg.norm(pts[:, None] - pts[None], axis=2).tolist())

    beta = np.array([1.5, -0.7])
    x = rng.normal(size=(40, 2))
    rows("train", np.column_stack([x, x @ beta + rng.normal(0.0, 0.5, 40)]).tolist())
    x = rng.normal(size=(200, 2))
    rows("hold", np.column_stack([x, x @ beta + rng.normal(0.0, 0.5, 200)]).tolist())

    labels = [f"L{k}" for k in rng.integers(0, 30, 60)]
    paths["labels"] = folder / "labels.txt"
    paths["labels"].write_text(
        "".join(" ".join(labels[i:i + 7]) + "\n" for i in range(0, 40, 7))
        + ",".join(labels[40:]) + "\n"
    )
    return paths


def _stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    assert rc == 0, argv
    return buf.getvalue()


def _outputs(paths: dict) -> dict:
    return {
        name: _stdout([arg.format(**paths) for arg in argv]) for name, argv in CASES.items()
    }


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return _outputs(_write_inputs(tmp_path_factory.mktemp("golden_cli")))


def test_golden_file_names_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_file(outputs, name):
    got, want = outputs[name], json.loads(GOLDEN.read_text())[name]
    # Lines first, so a failure names the line that moved; then bytes.
    assert got.splitlines() == want.splitlines()
    assert got.encode("utf-8") == want.encode("utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as folder:
        got = _outputs(_write_inputs(Path(folder)))
    GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
