"""The package holds only what its commands, modules and scripts reach.

Every top-level function and class of ``src/yangian2``, and every method of
such a class, dunders aside, must be referenced by name outside its own
definition: in a module of ``src/yangian2``, in ``scripts/`` or in
``pyproject.toml``.  A member that only tests read belongs in
``tests/oracles.py``.

The check is by name only, not by binding: a reference to any member of the
same name counts.  A test-only ``Element.parity`` would pass, because
``Shape.parity`` is called, and so would any method whose name a builtin,
a local variable or an attribute of another class shares.

Every name that a module of ``src/yangian2`` or ``scripts/`` imports must
also be read in that module (``from __future__`` aside), so that removing
code leaves no stray import behind.  This check is by module, not by
scope: an import inside a function counts as read when the name is read
anywhere in the module.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "yangian2").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _definitions(tree: ast.Module):
    """(qualified name, node) of each top-level function and class, and of
    each method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield f"{node.name}.{sub.name}", sub


def _names(tree: ast.Module):
    """(name, line) of every identifier the module uses: names, attributes,
    imported names and strings that are one identifier (such as the lazy
    exports of ``yangian2.__init__``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value, node.lineno


def unreferenced_members() -> list[str]:
    refs: dict = {}     # name -> [(path, line)]
    defs = []
    for path in PACKAGE + SCRIPTS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path in PACKAGE:
            defs += [(path, qual, node) for qual, node in _definitions(tree)]
        for name, line in _names(tree):
            refs.setdefault(name, []).append((path, line))
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    for name in re.findall(r"\w+", pyproject):
        refs.setdefault(name, []).append((None, 0))
    missing = []
    for path, qual, node in defs:
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if not any(p != path or not node.lineno <= line <= node.end_lineno
                   for p, line in refs.get(name, ())):
            missing.append(f"{path.stem}.{qual}")
    return missing


def test_every_package_member_is_reached_outside_tests():
    assert unreferenced_members() == []


def unused_imports() -> list[str]:
    unused = []
    for path in PACKAGE + SCRIPTS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = []      # (name, line) of every imported binding
        read = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound += [((a.asname or a.name).split(".")[0], node.lineno)
                          for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                bound += [(a.asname or a.name, node.lineno)
                          for a in node.names]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
        unused += [f"{path.relative_to(ROOT)}:{line} {name}"
                   for name, line in bound if name not in read]
    return unused


def test_every_import_is_read():
    assert unused_imports() == []
