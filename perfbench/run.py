"""Benchmark entry point; run it from the repository root.

    python3 perfbench/run.py --workload verify_exact_truth --seed 7 --seconds 30 --trace 0

The run builds the workload's inputs from ``--seed`` in this process,
then repeats rounds, each a fresh ``perfbench/workload.py`` interpreter
that imports ``cascade`` from ``src/`` (nothing needs installing) and
makes the workload's calls into ``cascade.cli.main``.  A new round
starts only while the rounds so far, plus one more of the same length,
fit in ``--seconds``; there is always at least one.  A traced run adds
one round that also counts order-oracle calls (see ``tracer.py``).
Extra import-only interpreters bring the ``setup_s`` samples up to five.

Every call's output is checked (see ``checks.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count calls over all rounds, and ``metrics`` holds the
median over rounds of each end-to-end metric (``--trace 0``) or each
per-layer metric from traced rounds (``--trace 1``), with the units
``BENCHMARK.json`` gives them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # a run must end within 180 s


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def _spawn(plan: dict, work: Path, tag: str, deadline: float) -> dict:
    """Run one workload.py interpreter to its end and return its result."""
    plan_path, result_path = work / f"plan-{tag}.json", work / f"result-{tag}.json"
    plan_path.write_text(json.dumps(plan))
    cmd = [sys.executable, str(HERE / "workload.py"), str(plan_path), str(result_path)]
    # Own process group, so a timeout also ends the harness's pool workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"round {tag} ran past the run's {RUN_LIMIT_S} s limit")
    if proc.returncode != 0:
        raise RuntimeError(f"round {tag} exited with {proc.returncode}:\n{err[-3000:]}")
    return json.loads(result_path.read_text())


def _round(plan: dict, ops, work: Path, tag: str, trace: bool, deadline: float) -> dict:
    """One round; its result also carries the text of each call's report file."""
    trace_dir = None
    if trace:
        trace_dir = work / f"trace-{tag}"
        trace_dir.mkdir()
    result = _spawn({**plan, "trace_dir": trace_dir and str(trace_dir)}, work, tag, deadline)
    result["reports"] = [
        Path(op.out_file).read_text() if op.out_file and Path(op.out_file).is_file() else None
        for op in ops
    ]
    return result


def _strip_comments(text):
    return None if text is None else "".join(
        ln for ln in text.splitlines(keepends=True) if not ln.startswith("#"))


def _check_rounds(ops, rounds) -> tuple:
    """(attempted, failed, correct) over every call of every round.

    A call fails when its check finds a problem.  ``correct`` turns false
    only when a call that exited 0 gave a wrong answer.  Identical outputs
    (report timestamps aside) are checked once.
    """
    attempted = failed = 0
    correct = True
    seen: dict = {}
    for r in rounds:
        for i, (op, call, report) in enumerate(zip(ops, r["calls"], r["reports"])):
            attempted += 1
            key = (i, str(call["rc"]), call["stdout"], _strip_comments(report))
            if key not in seen:
                seen[key] = op.check({"rc": call["rc"], "stdout": call["stdout"], "report": report})
                for problem in seen[key]:
                    print(f"check failed: {op.name}: {problem}", file=sys.stderr)
            if seen[key]:
                failed += 1
                correct = correct and call["rc"] != 0
    return attempted, failed, correct


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "cascade" / "cli.py").is_file():
        print(f"error: no cascade sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    import inputs

    if args.workload not in inputs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        ops = inputs.build(args.workload, args.seed, work, args.scale)
        plan = {"src": str(ROOT / "src"), "calls": [op.argv for op in ops]}
        rounds = []
        start = time.perf_counter()
        while True:
            rounds.append(_round(plan, ops, work, str(len(rounds)), args.trace, deadline))
            elapsed = time.perf_counter() - start
            if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
        checked = list(rounds)
        if args.trace:
            # Counting leq calls slows the poset layer severalfold, so they
            # are counted in one extra round whose times are not reported.
            count_round = _round({**plan, "count_leq": True}, ops, work, "count", True, deadline)
            checked.append(count_round)
        setups = [r["setup_s"] for r in rounds]
        while len(setups) < SETUP_SAMPLES:
            tag = f"setup{len(setups)}"
            setups.append(_spawn({**plan, "setup_only": True}, work, tag, deadline)["setup_s"])
        attempted, failed, correct = _check_rounds(ops, checked)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    if args.trace:
        for m in spec["per_layer"]:
            if m["name"] == "trace.wall_s":
                values = [r["wall_s"] for r in rounds]
            elif m["name"] == "poset_estimators.leq_calls":
                values = [count_round["layers"].get(m["name"], 0)]
            else:
                values = [r["layers"].get(m["name"], 0) for r in rounds]
            metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            values = setups if m["name"] == "setup_s" else [r[m["name"]] for r in rounds]
            metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
    print(f"{args.workload}: {len(rounds)} rounds, per-round wall_s "
          f"{[round(r['wall_s'], 3) for r in rounds]}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
