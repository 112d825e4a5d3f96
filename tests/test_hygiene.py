"""Source hygiene: every imported name is used in the module importing it."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
# the package's __init__ imports only to re-export
MODULES = sorted(p for p in [*(ROOT / "src" / "hqmoduli").glob("*.py"),
                             *(ROOT / "tests").glob("*.py")]
                 if p.name != "__init__.py")


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import (other than a __future__ one) that no
    expression or annotation of the module reads, quoted ones included."""
    bound = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom)
                and node.module != "__future__"):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in filter(None, _annotations(tree)):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= {sub.id for sub in ast.walk(ast.parse(node.value))
                         if isinstance(sub, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in used]


def test_no_unused_imports():
    found = {str(p.relative_to(ROOT)): unused
             for p in MODULES
             if (unused := unused_imports(ast.parse(p.read_text())))}
    assert not found, f"imported but never used: {found}"


def test_unused_import_scan_catches_a_dead_name():
    tree = ast.parse("from __future__ import annotations\nimport math\n"
                     "from os import path, sep\nfrom q import Q, R\n"
                     "def f(x: 'list[Q]') -> int:\n    return sep\n")
    assert unused_imports(tree) == ["R (line 4)", "math (line 2)",
                                    "path (line 3)"]
