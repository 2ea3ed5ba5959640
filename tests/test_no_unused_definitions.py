"""Lint: every definition in ``qamd_ray/`` is loaded by program code.

A top-level function, class, non-dunder method or module constant of
``qamd_ray/`` must be read somewhere in ``qamd_ray/``, ``perfbench/`` or
``tools/`` — as a name, an attribute or an imported name.  Tests do not
count: a definition only a test reaches is not part of the program.
Stdlib ``ast`` only; nothing is imported or executed.
"""

from __future__ import annotations

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROGRAM_DIRS = ("qamd_ray", "perfbench", "tools")
ALLOWED = {"__version__"}


def _py_files(d: str) -> list[str]:
    out = []
    for dirpath, _dirs, files in os.walk(os.path.join(ROOT, d)):
        out += [os.path.join(dirpath, f) for f in files if f.endswith(".py")]
    return sorted(out)


def _tree(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as f:
        return ast.parse(f.read(), filename=path)


def _loaded_names() -> set[str]:
    used: set[str] = set()
    for d in PROGRAM_DIRS:
        for path in _py_files(d):
            for node in ast.walk(_tree(path)):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    used.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    used.update(a.name for a in node.names)
    return used


def _definitions(path: str) -> list[tuple[str, str]]:
    """(qualified name, loaded name) of the checked definitions of a module."""
    out = []
    for node in _tree(path).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    out.append((f"{node.name}.{item.name}", item.name))
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, ast.AnnAssign)
            else []
        )
        out += [(t.id, t.id) for t in targets if isinstance(t, ast.Name)]
    return out


def unused_definitions() -> list[str]:
    used = _loaded_names()
    out = []
    for path in _py_files("qamd_ray"):
        mod = os.path.relpath(path, ROOT)
        for qual, name in _definitions(path):
            if name not in used and name not in ALLOWED:
                out.append(f"{mod}:{qual}")
    return out


def test_every_definition_is_loaded_by_program_code():
    assert unused_definitions() == []
