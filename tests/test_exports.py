"""Every exported name resolves, and so does every name the benchmark
calls through the package (perfbench/ops.py, read as text)."""

import ast
import importlib
import pkgutil
from pathlib import Path

import braidforge

OPS = Path(__file__).resolve().parent.parent / "perfbench" / "ops.py"


def test_package_exports_resolve():
    missing = [name for name in braidforge.__all__
               if not hasattr(braidforge, name)]
    assert missing == []


def test_module_exports_resolve():
    missing = []
    for info in pkgutil.iter_modules(braidforge.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"braidforge.{info.name}")
        missing += [f"{info.name}.{name}"
                    for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []


def test_benchmark_api_resolves_on_the_package():
    tree = ast.parse(OPS.read_text(encoding="utf-8"))
    api = next(ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.Assign)
               and any(getattr(t, "id", None) == "API"
                       for t in node.targets))
    assert api
    missing = [name for name in api if not hasattr(braidforge, name)]
    assert missing == []
