"""Machine-readable reports for bound-verification runs.

The CSV schema is fixed:

    scenario,n,replications,empirical_mse,std_err,bound,pass,extras_json

with no comment line, so the same rows give the same bytes on every
run.  Floats are written with ``repr`` so they round-trip exactly;
``extras_json`` is a compact JSON object with sorted keys.  The JSON
format is an object whose one key, ``rows``, mirrors the same rows.  A
separate plot-data CSV (scenario, n, 1/n, mse) supports error-against-1/n
plots.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

from ..loo_core import _check_array, _check_int, _check_number

__all__ = [
    "BoundReportRow",
    "emit_report",
    "report_text",
    "emit_plot_data",
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

    ``n`` and ``replications`` follow the integer rule, >= 1;
    ``empirical_mse`` and ``bound`` the number rule, finite and >= 0, and
    ``std_err`` the number rule, >= 0.  ``passed`` is
    ``empirical_mse <= bound``; extras carry scenario-specific
    diagnostics (probe counts, companion bounds, mean estimates, ...).
    """

    scenario: str
    n: int
    replications: int
    empirical_mse: float
    std_err: float
    bound: float
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        self.extras = _plain(self.extras)
        _check_int("n", self.n, 1)
        _check_int("replications", self.replications, 1)
        for name in ("empirical_mse", "bound"):
            _check_number(name, getattr(self, name), "be finite and >= 0",
                          lambda v: 0 <= v < math.inf)
        _check_number("std_err", self.std_err, "be nonnegative", lambda v: v >= 0)

    @property
    def passed(self) -> bool:
        # bool(): an np.float64 comparison gives an np.bool_, which json rejects.
        return bool(self.empirical_mse <= self.bound)

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


def _check_rows(rows) -> list:
    """The array rule for elements of any type: a nonempty sequence of
    ``BoundReportRow``."""
    return _check_array("rows", rows, "be a nonempty sequence of BoundReportRow", kind=None,
                        ok=lambda rs: all(isinstance(r, BoundReportRow) for r in rs))


def report_text(rows, fmt: str = "csv") -> str:
    """Render rows in the given format; see module docs for schemas."""
    rows = _check_rows(rows)
    if fmt == "csv":
        buf = io.StringIO()
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
        return json.dumps({"rows": [r.as_record() for r in rows]}, sort_keys=True, indent=2) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def emit_report(rows, path, fmt: str = "csv") -> None:
    """Write rows to ``path``.  Raises with the path on I/O failure."""
    text = report_text(rows, fmt=fmt)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"could not write report to {path}: {exc}") from exc


def emit_plot_data(rows, path) -> None:
    """CSV of (scenario, n, 1/n, empirical_mse) for error-decay plots."""
    rows = _check_rows(rows)
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
