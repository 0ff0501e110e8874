"""The benchmark calls the package by name; every name and signature it uses must work.

perfbench/tracing.py looks each wrapped function up with getattr, and the
checks in perfbench/workloads.py call public functions and the CLI, so
renaming, removing or re-typing one breaks ``perfbench/run.py`` and
``perfbench/smoke.py`` with an error that no other test would see.
"""

import importlib.util
import random
import sys
from pathlib import Path

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_resolves():
    tracing = _load("tracing")
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, *_ in tracing._FUNCTIONS
        if not hasattr(owner, attr)
    ]
    assert missing == []
    # building a tracer looks up the rest (objective_eval, operator methods)
    # without installing anything
    tracing.Tracer(tracing.Recorder())


def test_first_check_of_every_kind_verifies(tmp_path):
    workloads = _load("workloads")
    inputs = workloads.InputDir(tmp_path)
    kinds = {kind.name: kind for cycle in workloads.WORKLOADS.values() for kind in cycle}
    failures = {}
    for name, kind in kinds.items():
        check = kind.make(random.Random(0), inputs)
        reason = kind.verify(check, kind.run(check))
        if reason is not None:
            failures[name] = reason
    assert failures == {}
