"""The benchmark's layer tracer (``perfbench/tracer.py``) wraps program
functions by module and name.  A name it lists that no longer exists
makes every traced benchmark run fail, so each one must still resolve.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    wrapped = [(m, name) for m, names, _, _ in tracer.SPANS for name in names]
    wrapped += [(m, name) for m, name, _ in tracer.COUNTED]
    missing = [
        f"{m}.{name}"
        for m, name in wrapped
        if not callable(getattr(importlib.import_module(m), name, None))
    ]
    posets = importlib.import_module("cascade.poset_estimators")
    missing += [
        f"{cls}.leq"
        for cls in tracer.LEQ_CLASSES
        if "leq" not in vars(getattr(posets, cls, object))
    ]
    assert wrapped and missing == []
