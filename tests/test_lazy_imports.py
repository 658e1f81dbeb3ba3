"""No CLI path loads ``scipy.stats``, and none but ``in_hull`` (the LP
oracle, which no subcommand calls) loads ``scipy.optimize``: the library
never imports ``scipy.stats``, and ``in_hull`` imports ``scipy.optimize``
when called.  Importing either module would add most of a second to the
start-up of every CLI call, and ``scipy.stats`` about 30 MB to its
resident memory.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
DEFERRED = ("scipy.stats", "scipy.optimize")


def _fresh_python(code: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        check=False,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_analysis_subcommands_load_neither_stats_nor_optimize(tmp_path):
    base = "ACGT" * 10
    fasta = tmp_path / "seqs.fasta"
    fasta.write_text(
        f">a\n{base}\n>b\n{base[:-1]}A\n>c\nA{base[1:]}\n>d\n{base[:20] * 2}\n>q\n{base[:-4]}AAAA\n"
    )
    files = {
        "cloud.csv": "0,0\n5,0\n5,2\n0,2\n1,1\n2,1\n",
        "chain.txt": "3 7 2 5 7 1 4 6\n",
        "fit.csv": "0,1\n1,3.1\n2,4.9\n3,7.2\n4,8.8\n5,11.1\n",
        "labels.txt": "a b a c d d e\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    calls = [
        ["hull", str(tmp_path / "cloud.csv")],
        ["poset", str(tmp_path / "chain.txt"), "--kind", "chain"],
        ["coincide", str(fasta), "--query-id", "q", "--radius", "0.1"],
        ["coverage", str(tmp_path / "fit.csv"), "--predict-at", "2.5"],
        ["unseen", str(tmp_path / "labels.txt")],
    ]
    code = """
import contextlib, io, json, sys
import cascade.cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cascade.cli.main(argv))
print(json.dumps({"codes": codes, "loaded": [m for m in sys.argv[2:] if m in sys.modules]}))
"""
    got = json.loads(_fresh_python(code, json.dumps(calls), *DEFERRED))
    assert got == {"codes": [0] * len(calls), "loaded": []}


def test_the_dna_split_scenario_loads_no_stats():
    # At 20 replications the row exits 1 on correct code (its KS
    # threshold does not scale with the replication count), so only the
    # loaded modules are checked.
    code = """
import contextlib, io, sys
import cascade.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    cascade.cli.main(["verify", "--scenario", "dna_split", "--reps", "20"])
print("scipy.stats" in sys.modules)
"""
    assert _fresh_python(code).split() == ["False"]


def test_in_hull_works_after_a_plain_import():
    code = """
import cascade
print(cascade.in_hull([0.5, 0.5], [[0, 0], [1, 0], [0, 1], [1, 1]]))
print(cascade.in_hull([1.5, 0.5], [[0, 0], [1, 0], [0, 1], [1, 1]]))
"""
    assert _fresh_python(code).split() == ["True", "False"]
