"""Every definition in ``src/repro`` is referenced from somewhere.

A static guard against code that nothing runs: it parses ``src/repro``,
``tests``, ``bench``, ``benchmarks`` and ``examples`` and fails on any
non-dunder ``def`` or ``class`` in ``src/repro`` that nothing names in
a way that can reach it:

- a *method* (any definition directly in a class body) counts as
  referenced only through an ``Attribute`` (``obj.name``) or a word of
  a string constant.  A bare ``Name`` does not count, because that is
  how a local variable of the same name hides a dead method;
- any other definition counts through a ``Name``, an import alias, a
  word of a string constant, or ``module.name`` where ``module`` is an
  imported ``repro`` module.  An attribute of any other object does not
  count, because that is how a method of the same name hides a dead
  function.

Docstrings do not count as references: a function that only its own
module's docstring mentions is still dead.  A string does, since
``getattr``-style lookups (lazy re-exports, tracer wrappers in
``bench/``) name code that way.
"""

from __future__ import annotations

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCANNED = ("src/repro", "tests", "bench", "benchmarks", "examples")
_WORD = re.compile(r"\w+")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)

#: Dotted names of every module and package under ``src/repro``.
MODULES = {".".join(p.relative_to(SRC).with_suffix("").parts[:-1]
                    if p.name == "__init__.py"
                    else p.relative_to(SRC).with_suffix("").parts)
           for p in (SRC / "repro").rglob("*.py")}


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the constant nodes that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOC_OWNERS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add(id(first.value))
    return out


def _imported_modules(tree: ast.AST) -> dict[str, str]:
    """Local name -> dotted ``repro`` path, for every import binding a
    name to a ``repro`` module (``import repro.x`` binds ``repro``)."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    out[a.asname] = a.name
                else:
                    out[a.name.split(".")[0]] = a.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module:
            for a in node.names:
                out[a.asname or a.name] = f"{node.module}.{a.name}"
    return {k: v for k, v in out.items() if v in MODULES}


def _module_of(expr: ast.AST, imported: dict[str, str]) -> "str | None":
    """The ``repro`` module ``expr`` evaluates to, if it is one."""
    if isinstance(expr, ast.Name):
        return imported.get(expr.id)
    if isinstance(expr, ast.Attribute):
        base = _module_of(expr.value, imported)
        if base is not None and f"{base}.{expr.attr}" in MODULES:
            return f"{base}.{expr.attr}"
    return None


def _scan():
    """``(methods, others, by_attribute, by_name)``: where each method and
    each other definition lives, and the names each way of referring
    reaches."""
    methods: dict[str, list[str]] = {}
    others: dict[str, list[str]] = {}
    by_attribute: set[str] = set()    # obj.name, and words of strings
    by_name: set[str] = set()         # Name, alias, repro_module.name, strings
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            docs = _docstrings(tree)
            imported = _imported_modules(tree)
            if top == "src/repro":
                for owner in ast.walk(tree):
                    for node in ast.iter_child_nodes(owner):
                        if isinstance(node, _DEFS) and not (
                                node.name.startswith("__")
                                and node.name.endswith("__")):
                            table = (methods if isinstance(owner, ast.ClassDef)
                                     else others)
                            table.setdefault(node.name, []).append(
                                f"{path.relative_to(ROOT)}:{node.lineno}")
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    by_name.add(node.id)
                elif isinstance(node, ast.Attribute):
                    by_attribute.add(node.attr)
                    if _module_of(node.value, imported) is not None:
                        by_name.add(node.attr)
                elif isinstance(node, ast.alias):
                    by_name.update(node.name.split("."))
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                        and id(node) not in docs):
                    words = _WORD.findall(node.value)
                    by_attribute.update(words)
                    by_name.update(words)
    return methods, others, by_attribute, by_name


def test_every_src_definition_is_referenced():
    methods, others, by_attribute, by_name = _scan()
    dead = sorted(
        [f"method {name} ({', '.join(where)})"
         for name, where in methods.items() if name not in by_attribute]
        + [f"{name} ({', '.join(where)})"
           for name, where in others.items() if name not in by_name])
    assert not dead, "defined in src/repro but referenced nowhere:\n  " + "\n  ".join(dead)
