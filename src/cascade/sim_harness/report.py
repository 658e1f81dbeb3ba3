"""Machine-readable reports for bound-verification runs.

The CSV schema is fixed:

    scenario,n,replications,empirical_mse,std_err,bound,pass,extras_json

prefixed by a single ``# generated <timestamp>`` comment line (which
consumers exclude when comparing reports byte for byte).  Floats are
written with ``repr`` so they round-trip exactly; ``extras_json`` is a
compact JSON object with sorted keys.  The JSON format mirrors the
same rows.  A separate plot-data CSV (scenario, n, 1/n, mse) supports
error-against-1/n plots.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone

__all__ = [
    "BoundReportRow",
    "emit_report",
    "report_text",
    "parse_report_csv",
    "emit_plot_data",
    "strip_comment_lines",
]

_COLUMNS = ("scenario", "n", "replications", "empirical_mse", "std_err", "bound", "pass", "extras_json")


def _plain(value):
    # Cast numpy scalars/arrays and tuples into JSON-friendly builtins.
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, bool):
        return value
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        value = value.item()
    if isinstance(value, float) and value != value:
        raise ValueError("NaN is not representable in report extras")
    return value


@dataclass
class BoundReportRow:
    """One (scenario, n) verification result.

    ``passed`` must equal ``empirical_mse <= bound``; extras carry
    scenario-specific diagnostics (probe counts, companion bounds,
    mean estimates, ...).
    """

    scenario: str
    n: int
    replications: int
    empirical_mse: float
    std_err: float
    bound: float
    passed: bool
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        self.extras = _plain(self.extras)
        if self.std_err < 0:
            raise ValueError("standard error must be nonnegative")
        if self.passed != (self.empirical_mse <= self.bound):
            raise ValueError("pass flag inconsistent with the two values")

    def as_record(self) -> dict:
        return {
            "scenario": self.scenario,
            "n": self.n,
            "replications": self.replications,
            "empirical_mse": self.empirical_mse,
            "std_err": self.std_err,
            "bound": self.bound,
            "pass": self.passed,
            "extras": self.extras,
        }


def _timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def report_text(rows, fmt: str = "csv", timestamp: bool = True) -> str:
    """Render rows in the given format; see module docs for schemas."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to report")
    if fmt == "csv":
        buf = io.StringIO()
        if timestamp:
            buf.write(f"# generated {_timestamp()}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    row.scenario,
                    row.n,
                    row.replications,
                    repr(float(row.empirical_mse)),
                    repr(float(row.std_err)),
                    repr(float(row.bound)),
                    "true" if row.passed else "false",
                    json.dumps(row.extras, sort_keys=True, separators=(",", ":")),
                ]
            )
        return buf.getvalue()
    if fmt == "json":
        payload = {"rows": [r.as_record() for r in rows]}
        if timestamp:
            payload["generated"] = _timestamp()
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def emit_report(rows, path, fmt: str = "csv", timestamp: bool = True) -> None:
    """Write rows to ``path``.  Raises with the path on I/O failure."""
    text = report_text(rows, fmt=fmt, timestamp=timestamp)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"could not write report to {path}: {exc}") from exc


def strip_comment_lines(text: str) -> str:
    """Drop '#'-prefixed lines (the timestamp header) for comparisons."""
    return "".join(
        line for line in text.splitlines(keepends=True) if not line.startswith("#")
    )


def parse_report_csv(text: str) -> list[BoundReportRow]:
    """Read the text of a CSV report back into rows (inverse of the csv format)."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    if tuple(header) != _COLUMNS:
        raise ValueError("unexpected report header")
    rows = []
    for rec in reader:
        rows.append(
            BoundReportRow(
                scenario=rec[0],
                n=int(rec[1]),
                replications=int(rec[2]),
                empirical_mse=float(rec[3]),
                std_err=float(rec[4]),
                bound=float(rec[5]),
                passed=rec[6] == "true",
                extras=json.loads(rec[7]),
            )
        )
    return rows


def emit_plot_data(rows, path) -> None:
    """CSV of (scenario, n, 1/n, empirical_mse) for error-decay plots."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to report")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["scenario", "n", "inv_n", "empirical_mse"])
            for row in rows:
                writer.writerow(
                    [row.scenario, row.n, repr(1.0 / row.n), repr(float(row.empirical_mse))]
                )
    except OSError as exc:
        raise OSError(f"could not write plot data to {path}: {exc}") from exc
