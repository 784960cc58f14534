"""The span recorder of the benchmark (perfbench/tracing.py) wraps module
attributes by name, so deleting or renaming one of them breaks
`perfbench/run.py --trace 1`.  This reads its list; it changes nothing."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_wrapped_name_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attr}"
        for module, _, attr in tracing.WRAPPED
        if not hasattr(importlib.import_module(f"shadow_simplex.{module}"), attr)
    ]
    assert tracing.WRAPPED and not missing
