"""The benchmark in ``perfbench/`` reaches into the package by name.

``bench_trace.SITES`` wraps package functions at the module attributes the
package looks them up under, and ``bench_workloads`` builds its inputs from
names it imports from the package.  A rename or move under ``src/`` that
breaks one of these lookups would drop a traced span or break the
benchmark's setup; these tests catch it before the benchmark runs.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_site_resolves():
    spec = importlib.util.spec_from_file_location("bench_trace", PERFBENCH / "bench_trace.py")
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)
    assert bench_trace.SITES
    for span, lookups, _ in bench_trace.SITES:
        for module, attr in lookups:
            assert callable(getattr(module, attr, None)), f"{span}: {module.__name__}.{attr}"


def _dotted(node):
    """['a', 'b', 'c'] for the expression a.b.c, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def _member(module_name, name):
    """``from module_name import name``, failing the test with the name when
    it does not exist."""
    module = importlib.import_module(module_name)
    if not hasattr(module, name):
        try:
            importlib.import_module(f"{module_name}.{name}")  # a submodule
        except ImportError:
            pass
    assert hasattr(module, name), f"{module_name}.{name}"
    return getattr(module, name)


def test_every_workload_import_exists():
    tree = ast.parse((PERFBENCH / "bench_workloads.py").read_text())
    # Local name -> the lfrect object it is bound to by an import.
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "lfrect":
                    importlib.import_module(alias.name)
                    bound["lfrect"] = importlib.import_module("lfrect")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lfrect":
            for alias in node.names:
                bound[alias.asname or alias.name] = _member(node.module, alias.name)
    assert "lfrect" in bound and len(bound) > 10
    # Every attribute read through an imported lfrect module must exist too.
    for node in ast.walk(tree):
        path = _dotted(node) if isinstance(node, ast.Attribute) else None
        if path and path[0] in bound:
            obj = bound[path[0]]
            for i, attr in enumerate(path[1:], start=2):
                assert hasattr(obj, attr), ".".join(path[:i])
                obj = getattr(obj, attr)
