"""The seed-42 report of every scenario at 10 replications, byte for byte.

``golden_report_seed42_reps10.csv`` holds ``report_text(rows)`` for all
scenarios in ``SCENARIO_NAMES`` order.  A
change that alters any value fails here.  If the change is meant, rewrite
the file with

    PYTHONPATH=src python tests/test_golden_report.py

and list every changed value, with its reason, in CHANGES.md.
"""

from pathlib import Path

from cascade.sim_harness import SCENARIO_NAMES, default_config, report_text, run_scenario

GOLDEN = Path(__file__).with_name("golden_report_seed42_reps10.csv")


def _report() -> str:
    rows = []
    for name in SCENARIO_NAMES:
        rows.extend(run_scenario(default_config(name, seed=42, replications=10)))
    return report_text(rows)


def test_report_matches_golden_file():
    got, want = _report().encode("utf-8"), GOLDEN.read_bytes()
    # Lines first, so a failure names the row that moved; then bytes.
    assert got.decode("utf-8").splitlines() == want.decode("utf-8").splitlines()
    assert got == want


if __name__ == "__main__":
    GOLDEN.write_bytes(_report().encode("utf-8"))
