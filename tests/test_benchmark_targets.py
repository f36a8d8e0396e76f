"""The benchmark's traced run (``benchmarks/tracing.py``) wraps helmscat
functions and methods by name: a module attribute for each function, and
``Class.__dict__[method]`` for each method.  A refactor that renames or
moves one of them, for instance onto a base class, would break the traced
run; this test catches it."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_tracing_targets_resolve():
    targets = _targets()
    assert targets
    missing = []
    for module_name, attr, _, _ in targets:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            found = cls is not None and meth in vars(cls)
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert missing == []
