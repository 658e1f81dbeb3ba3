"""The benchmark checks every verify report it runs with
``perfbench/checks.py::verify_report``: the rows it expects, each row's
bound from its closed form, and the hull rows' leave-one-out identity
from the extras keys it reads.  The golden report must pass that check,
so a renamed or dropped key, or a moved bound, fails here rather than
only in a benchmark run.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECKS = ROOT / "perfbench" / "checks.py"
GOLDEN = Path(__file__).resolve().parent / "golden_report_seed42_reps10.csv"


def _load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _problems(drop=()):
    lines = GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True)
    kept = [ln for ln in lines if ln.split(",", 1)[0] not in drop]
    scenarios = [ln.split(",", 1)[0] for ln in kept[1:] if not ln.startswith("#")]
    reps = {s: 10 for s in scenarios}  # dict keeps the report's scenario order
    return _load_checks().verify_report({"rc": 0, "report": "".join(kept), "stdout": ""}, reps)


def test_golden_report_meets_the_benchmark_contract():
    # dna_split's KS threshold needs its default 500 replications; at 10
    # its distance is 0.4, so the benchmark leaves it out at small scale.
    assert _problems(drop={"dna_split"}) == []


def test_the_ten_replication_dna_row_is_the_only_problem():
    assert _problems() == ["dna_split n=40: mse 0.4 exceeds bound 0.15"]
