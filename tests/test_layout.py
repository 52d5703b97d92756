"""The module layout that other code relies on: the tensor algebra stays free
of graphs, and the benchmark's tracer finds every function it hooks."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ckhopf"

GRAPH_FREE = ["vector", "tensor_algebra"]
GRAPH_SIDE = {"graphs", "poly", "chords", "hopf", "insertion", "corpus", "tensors", "verify"}


def _package_imports(path: Path) -> set[str]:
    """The modules beside ``path`` that its source imports, at any depth, so
    an import inside a function counts; the package itself is ``__init__``."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.split(".")[0] == "ckhopf"]
        elif isinstance(node, ast.ImportFrom) and node.level:
            # "from . import memo" names modules, "from .graphs import x" one module
            base = f"ckhopf.{node.module}" if node.module else "ckhopf"
            names = [base] if node.module else [base] + [f"ckhopf.{a.name}" for a in node.names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ckhopf":
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            target = parts[1] if len(parts) > 1 else "__init__"
            if (path.parent / f"{target}.py").exists():
                out.add(target)
    return out


def _closure(module: str) -> set[str]:
    seen, todo = set(), [module]
    while todo:
        for m in _package_imports(PACKAGE / f"{todo.pop()}.py") - seen:
            seen.add(m)
            todo.append(m)
    return seen


@pytest.mark.parametrize("module", GRAPH_FREE)
def test_graph_free_modules_reach_no_graph_module(module):
    reached = _closure(module)
    assert not reached & GRAPH_SIDE, sorted(reached)


def test_the_import_reader_sees_imports_in_functions_and_of_the_package(tmp_path):
    (tmp_path / "probe.py").write_text(
        "import json\n"
        "from . import memo\n"
        "from ckhopf.errors import InvalidInput\n"
        "def f():\n"
        "    from .graphs import canonical_key\n"
        "    import ckhopf.chords\n"
        "    from ckhopf import phi\n",
        encoding="utf-8",
    )
    for name in ("memo", "errors", "graphs", "chords", "__init__"):
        (tmp_path / f"{name}.py").write_text("", encoding="utf-8")
    assert _package_imports(tmp_path / "probe.py") == {"memo", "errors", "graphs", "chords", "__init__"}


def _bench_layers() -> dict:
    """The ``LAYERS`` literal of ``bench/spans.py``, read without importing it."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py has no LAYERS literal")


def test_every_benchmark_hook_resolves():
    hooks = [pair for pairs in _bench_layers().values() for pair in pairs]
    assert hooks
    missing = [
        (module, name)
        for module, name in hooks
        if not callable(getattr(importlib.import_module(f"ckhopf.{module}"), name, None))
    ]
    assert not missing
