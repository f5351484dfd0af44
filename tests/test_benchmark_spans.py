"""The per-layer spans that BENCHMARK.json names are functions of hmf.

The benchmark's tracer names a span after the module that defines the
function, so a function that moves or is renamed would leave its metric
reading zero with only a warning.  BENCHMARK.json is read, never written.
"""

import importlib
import inspect
import json
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_per_layer_spans_resolve():
    spans = sorted({m["name"].rsplit(".", 1)[0]
                    for m in json.loads(SPEC.read_text())["per_layer"]
                    if not m["name"].startswith("trace.")})
    missing = []
    for span in spans:
        module, *path = span.split(".")
        # metric names drop the underscore of hmf._kernels
        mod = importlib.import_module(
            "hmf._kernels" if module == "kernels" else f"hmf.{module}")
        obj = mod
        for attr in path:
            obj = getattr(obj, attr, None)
        if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
            missing.append(span)
    assert not missing, f"spans with no function of that name: {missing}"
