"""The benchmark's own test.

    python3 -m pytest perfbench/selftest.py -q

It runs every workload end to end at the tiny scale, traced and
untraced, checks that the checks reject doctored outputs, that the same
seed gives the same inputs, that the benchmark refuses to run without
the sources, and that ``cascade verify`` writes the same report with one
worker and with two.  The file is not named ``test_*.py``, so the
repository's own test suite does not collect it.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _cascade(*argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-m", "cascade.cli", *argv], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_at_tiny_scale(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", trace, "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["trace.wall_s"]["value"] > 0


def test_same_seed_same_inputs(tmp_path):
    def snapshot(seed, sub):
        ops = inputs.build("cli_large_inputs", seed, tmp_path / sub, "tiny")
        files = {p.name: p.read_bytes() for p in sorted((tmp_path / sub).iterdir())}
        return [[a.replace(str(tmp_path / sub), "") for a in op.argv] for op in ops], files

    assert snapshot(3, "a") == snapshot(3, "b")
    assert snapshot(3, "a")[1] != snapshot(4, "c")[1]


# The field each check must catch when it is off by a little.
_DOCTORED = {
    "hull cube": "extreme_count",
    "hull flat": "hull_volume",
    "poset product": "dominated_count",
    "poset product convex": "closure_size",
    "poset antichain": "estimate",
    "poset tree": "dominated_count",
    "coincide": "p_value",
    "coverage refit": "loo_coverage",
    "coverage downdate": "sigma_hat",
    "unseen": "singletons",
}


def test_checks_pass_real_outputs_and_reject_doctored_ones(tmp_path):
    ops = inputs.build("cli_large_inputs", 9, tmp_path, "tiny")
    assert sorted(op.name for op in ops) == sorted(_DOCTORED)
    for op in ops:
        proc = _cascade(*op.argv)
        result = {"rc": proc.returncode, "stdout": proc.stdout, "report": None}
        assert op.check(result) == [], op.name
        out = json.loads(proc.stdout)
        key = _DOCTORED[op.name]
        out[key] = out[key] + 1 if isinstance(out[key], int) else out[key] * 1.01 + 1e-3
        assert op.check({**result, "stdout": json.dumps(out)}), f"{op.name}: doctored {key} passed"
        assert op.check({**result, "rc": 2}), f"{op.name}: exit code 2 passed"


def test_verify_check_rejects_a_wrong_bound(tmp_path):
    (op,) = inputs.build("verify_exact_truth", 2, tmp_path, "tiny")
    proc = _cascade(*op.argv)
    report = Path(op.out_file).read_text()
    assert op.check({"rc": proc.returncode, "stdout": proc.stdout, "report": report}) == []
    lines = report.splitlines(keepends=True)
    row = lines[2].split(",")
    row[5] = repr(float(row[5]) * 1.001)  # the bound column
    doctored = "".join(lines[:2]) + ",".join(row) + "".join(lines[3:])
    assert op.check({"rc": 0, "stdout": "", "report": doctored})
    assert op.check({"rc": 0, "stdout": "", "report": "".join(lines[:-1])})  # a row missing


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _bench("--workload", "cli_large_inputs", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_worker_count_does_not_change_the_report(tmp_path):
    texts = []
    for workers in ("1", "2"):
        out = tmp_path / f"report{workers}.csv"
        proc = _cascade("verify", "--scenario", "hull_gauss",
                        "--scenario", "coincide_uniform_square", "--scenario", "unseen_zipf",
                        "--reps", "4", "--seed", "3", "--workers", workers, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        texts.append("".join(ln for ln in out.read_text().splitlines(keepends=True)
                             if not ln.startswith("#")))
    assert texts[0] == texts[1]
