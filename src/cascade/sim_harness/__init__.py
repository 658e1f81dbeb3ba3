"""Seeded Monte Carlo verification of the estimators' error bounds."""

from .report import (
    BoundReportRow,
    emit_plot_data,
    emit_report,
    parse_report_csv,
    report_text,
    strip_comment_lines,
)
from .scenarios import SCENARIO_NAMES, ScenarioConfig, default_config, run_scenario
from .seeding import child_seed, rng_for

__all__ = [
    "BoundReportRow",
    "SCENARIO_NAMES",
    "ScenarioConfig",
    "child_seed",
    "default_config",
    "emit_plot_data",
    "emit_report",
    "parse_report_csv",
    "report_text",
    "rng_for",
    "run_scenario",
    "strip_comment_lines",
]
