"""The benchmark tracer (perfbench/tracing.py) wraps package functions that
it looks up by name, so a renamed or deleted function breaks
``perfbench/run.py --trace 1``.  The tracer is loaded by path: perfbench is
not a package."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_wrapped_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{function}"
        for module, function, _, _ in tracing.WRAPPED
        if not callable(
            getattr(importlib.import_module(f"{tracing.PACKAGE}.{module}"), function, None)
        )
    ]
    assert tracing.WRAPPED
    assert missing == []
