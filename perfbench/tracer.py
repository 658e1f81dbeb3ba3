"""Layer spans for the traced benchmark run.

``install(tracer)`` wraps the program's public functions where they are
bound: in the module that defines each one and in every ``cascade``
namespace that imported it by name (``sim_harness.scenarios`` and
``cli`` mostly).  Each wrapper records a span ``(id, parent, layer,
label, start, end)``; spans nest through a stack, and a span's self time
is its duration minus the part of it that its children cover.
``ols_fit`` is counted, not timed.  Order oracles' ``leq`` runs millions
of times per ``cli_large_inputs`` round, and counting it would multiply
the poset layer's time several times over, so it is counted only when
``install`` is asked to, in a round whose times are not reported.

Worker processes: the harness forks its ``--workers`` pool inside
``run_scenario``.  A fork keeps the parent's open-span stack, so a
worker's spans name the parent's ``run_scenario`` span as their parent.
The worker appends its spans and counts to its own JSON file each time
its outermost span (one ``_run_chunk`` call) closes; ``collect`` merges
every file.  The clock is ``time.perf_counter`` (CLOCK_MONOTONIC on
Linux), which all processes on the machine share.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

# (module, function names, layer, label); a label of None takes the
# scenario name from the first argument (run_scenario's config).
SPANS = [
    ("cascade.cli", ["main", "_cmd_verify", "_cmd_demo_aldous"], "cli", "other"),
    ("cascade.cli", ["_cmd_hull"], "cli", "hull"),
    ("cascade.cli", ["_cmd_poset"], "cli", "poset"),
    ("cascade.cli", ["_cmd_coincide"], "cli", "coincide"),
    ("cascade.cli", ["_cmd_coverage"], "cli", "coverage"),
    ("cascade.cli", ["_cmd_unseen"], "cli", "unseen"),
    ("cascade.sim_harness.scenarios", ["run_scenario"], "sim_harness.scenarios", None),
    ("cascade.sim_harness.scenarios", ["_run_chunk"], "sim_harness.scenarios", "chunk"),
    ("cascade.sim_harness.seeding", ["rng_for"], "sim_harness.seeding", "rng_for"),
    ("cascade.sim_harness.samplers", ["sample_distribution"], "sim_harness.samplers",
     "sample_distribution"),
    ("cascade.sim_harness.report", ["report_text", "emit_report", "emit_plot_data"],
     "sim_harness.report", "report"),
    ("cascade.convex_volume", ["hull_summary"], "convex_volume", "hull_summary"),
    ("cascade.convex_volume", ["in_hull"], "convex_volume", "in_hull"),
    ("cascade.coincidence_test", ["kimura_matrix"], "coincidence_test", "kimura_matrix"),
    ("cascade.coincidence_test", ["nn_loo_distances", "coverage_fraction", "nn_test_pvalue"],
     "coincidence_test", "nn"),
    ("cascade.coincidence_test", ["ad_two_sample", "ad_two_sample_normalized"],
     "coincidence_test", "ad_two_sample"),
    ("cascade.poset_estimators", ["upset_dominated_count", "convex_sandwiched_count"],
     "poset_estimators", "count"),
    ("cascade.poset_estimators", ["upset_closure_size", "convex_closure_size"],
     "poset_estimators", "closure"),
    ("cascade.coverage_predict", ["loo_coverage"], "coverage_predict", "loo_coverage"),
    ("cascade.coverage_predict", ["holdout_coverage"], "coverage_predict", "holdout_coverage"),
    (
        "cascade.unseen_species",
        ["good_turing", "missing_mass", "unseen_bound", "unseen_bound_finite_N",
         "unseen_bound_general"],
        "unseen_species",
        "",
    ),
]
COUNTED = [("cascade.coverage_predict", "ols_fit", "coverage_predict.ols_fit_calls")]
LEQ_CLASSES = ("Antichain", "ReversedNaturals", "ProductOrder", "TreeAncestor")
CALL_COUNTS = {  # metric -> (layer, label) whose spans it counts
    "sim_harness.seeding.rng_for_calls": ("sim_harness.seeding", "rng_for"),
    "convex_volume.hull_summary_calls": ("convex_volume", "hull_summary"),
    "convex_volume.in_hull_calls": ("convex_volume", "in_hull"),
}
SELF_LAYERS = ("sim_harness.scenarios", "cli")
LEQ_CALLS = "poset_estimators.leq_calls"


class Tracer:
    """Spans and counts of one process tree, kept in memory until flushed."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.root_pid = self.pid = os.getpid()
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.base_depth = 0
        self.seq = 0
        self.flushes = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.spans, self.counts = [], Counter()
        self.base_depth = len(self.stack)

    def span(self, fn, layer: str, label):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = label if label is not None else args[0].scenario
            parent = self.stack[-1] if self.stack else None
            self.seq += 1
            sid = f"{self.pid}.{self.seq}"
            self.stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans.append((sid, parent, layer, name, start, end))
                if self.pid != self.root_pid and len(self.stack) == self.base_depth:
                    self.flush()

        return traced

    def counter(self, fn, key: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def flush(self) -> None:
        if not self.spans and not self.counts:
            return
        self.flushes += 1
        path = self.out_dir / f"spans-{self.pid}-{self.flushes}.json"
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}))
        self.spans, self.counts = [], Counter()


def _rebind(original, wrapped) -> None:
    """Replace ``original`` by ``wrapped`` in every loaded cascade namespace."""
    for name, module in list(sys.modules.items()):
        if name != "cascade" and not name.startswith("cascade."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def install(tracer: Tracer, count_leq: bool = False) -> None:
    for module_name, names, layer, label in SPANS:
        module = sys.modules[module_name]
        for name in names:
            original = getattr(module, name)
            _rebind(original, tracer.span(original, layer, label))
    for module_name, name, key in COUNTED:
        original = getattr(sys.modules[module_name], name)
        _rebind(original, tracer.counter(original, key))
    if not count_leq:
        return
    posets = sys.modules["cascade.poset_estimators"]
    for cls_name in LEQ_CLASSES:
        cls = getattr(posets, cls_name)
        raw = cls.__dict__["leq"]
        if isinstance(raw, staticmethod):
            cls.leq = staticmethod(tracer.counter(raw.__func__, LEQ_CALLS))
        else:
            cls.leq = tracer.counter(raw, LEQ_CALLS)


def collect(out_dir: Path) -> tuple:
    spans, counts = [], Counter()
    for path in sorted(Path(out_dir).glob("spans-*.json")):
        data = json.loads(path.read_text())
        spans.extend(tuple(s) for s in data["spans"])
        counts.update(data["counts"])
    return spans, counts


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def metrics(spans, counts) -> dict:
    """Per-layer metrics from merged spans and counts.

    ``<layer>.<label>_s`` is inclusive time, counting a span only when no
    enclosing span has the same layer and label (so nested calls are not
    counted twice).  ``<layer>.self_s`` sums each span's time outside its
    children.  Summed over worker processes, busy time can exceed wall
    time.
    """
    by_id = {s[0]: s for s in spans}
    children: dict = {}
    for sid, parent, *_ in spans:
        children.setdefault(parent, []).append(sid)
    out: Counter = Counter()
    for sid, parent, layer, label, start, end in spans:
        ancestor, nested = parent, False
        while ancestor in by_id:
            if by_id[ancestor][2:4] == (layer, label):
                nested = True
                break
            ancestor = by_id[ancestor][1]
        if not nested:
            out[f"{layer}.{label}_s" if label else f"{layer}.s"] += end - start
        if layer in SELF_LAYERS:
            kids = [(by_id[c][4], by_id[c][5]) for c in children.get(sid, ())]
            out[f"{layer}.self_s"] += (end - start) - _covered(start, end, kids)
    for metric, key in CALL_COUNTS.items():
        out[metric] = sum(1 for s in spans if s[2:4] == key)
    out.update(counts)
    return dict(out)
