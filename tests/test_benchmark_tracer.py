"""The benchmark tracer wraps package functions by name; every name must resolve.

perfbench/tracing.py looks each wrapped function up with getattr, so renaming
or removing one breaks ``perfbench/run.py --trace 1`` and ``perfbench/smoke.py``
with an AttributeError that no other test would see.
"""

import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_resolves():
    tracing = _load_tracing()
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, *_ in tracing._FUNCTIONS
        if not hasattr(owner, attr)
    ]
    assert missing == []
    # building a tracer looks up the rest (objective_eval, operator methods)
    # without installing anything
    tracing.Tracer(tracing.Recorder())
