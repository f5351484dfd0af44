"""The per-layer spans that BENCHMARK.json names, and the package
attributes the benchmark calls, are functions of hmf.

The benchmark's tracer names a span after the module that defines the
function, so a function that moves or is renamed would leave its metric
reading zero with only a warning; one that the workloads call and that is
deleted would fail only the benchmark's own run.  BENCHMARK.json and
perfbench/ are read, never written.
"""

import ast
import importlib
import inspect
import json
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"


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


def _hmf_imports(tree):
    """{local name: module name} for each hmf module a file imports by name
    (import hmf.x as y, from hmf import x)."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname, a.name) for a in node.names
                         if a.asname and a.name.startswith("hmf."))
        elif isinstance(node, ast.ImportFrom) and node.module == "hmf":
            names.update((a.asname or a.name, f"hmf.{a.name}") for a in node.names)
    return names


def test_benchmark_entry_points_resolve():
    used, missing = set(), []
    for name in ("workloads.py", "run.py"):
        tree = ast.parse((ROOT / "perfbench" / name).read_text())
        modules = _hmf_imports(tree)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                continue
            mod = importlib.import_module(modules[node.value.id])
            obj = getattr(mod, node.attr, None)
            used.add(f"{node.value.id}.{node.attr}")
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                missing.append(f"{name}: {node.value.id}.{node.attr}")
    # both files are read: a call from each
    assert {"oracle.finite_betti_formula", "_kernels.backend_name"} <= used
    assert not missing, f"benchmark calls with no function of that name: {missing}"


def _perfbench_module(name):
    """perfbench/<name>.py, compiled from its source so that no bytecode
    cache is written under perfbench/."""
    path = ROOT / "perfbench" / f"{name}.py"
    mod = types.ModuleType(f"perfbench_{name}")
    mod.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), mod.__dict__)
    return mod


def test_tracer_sees_cli_commands_after_the_parser_is_built(tmp_path):
    # the traced pass follows an untraced one: a command the parser reached
    # through a stored function object would escape its span
    import hmf.cli as cli

    path = str(ROOT / "corpus" / "codim2_xa_yb.json")
    assert cli.main(["validate", path, "-o", str(tmp_path / "a.json")]) == 0
    tracer = _perfbench_module("tracer")
    rec = tracer.Recorder()
    inst = tracer.install(rec)
    try:
        assert cli.main(["validate", path, "-o", str(tmp_path / "b.json")]) == 0
    finally:
        inst.uninstall()
    assert rec.calls("cli.cmd_validate") == 1
