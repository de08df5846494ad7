"""Every definition in ``src/repro`` is referenced from somewhere.

A static guard against code that nothing runs: it parses ``src/repro``,
``tests``, ``bench``, ``benchmarks`` and ``examples`` and fails on any
non-dunder ``def`` or ``class`` in ``src/repro`` whose name occurs
nowhere as a ``Name``, an ``Attribute``, an import alias or a word of a
string constant.  Docstrings do not count as references: a function
that only its own module's docstring mentions is still dead.  A string
does, since ``getattr``-style lookups (lazy re-exports, tracer wrappers
in ``bench/``) name code that way.
"""

from __future__ import annotations

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCANNED = ("src/repro", "tests", "bench", "benchmarks", "examples")
_WORD = re.compile(r"\w+")
_DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


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


def _scan() -> tuple[dict[str, list[str]], set[str]]:
    defined: dict[str, list[str]] = {}
    used: set[str] = set()
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            docs = _docstrings(tree)
            in_src = top == "src/repro"
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if in_src and not (node.name.startswith("__")
                                       and node.name.endswith("__")):
                        where = f"{path.relative_to(ROOT)}:{node.lineno}"
                        defined.setdefault(node.name, []).append(where)
                elif isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.update(node.name.split("."))
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                        and id(node) not in docs):
                    used.update(_WORD.findall(node.value))
    return defined, used


def test_every_src_definition_is_referenced():
    defined, used = _scan()
    dead = sorted(f"{name} ({', '.join(where)})"
                  for name, where in defined.items() if name not in used)
    assert not dead, "defined in src/repro but referenced nowhere:\n  " + "\n  ".join(dead)
