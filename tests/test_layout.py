"""Package layout: what ``src/`` holds is there for ``src/`` to use."""

import ast
from pathlib import Path

import gesturekit

SRC = Path(gesturekit.__file__).parent

# the delay and dimension estimates serve analysis and check 03, and no
# command calls them yet; ROADMAP item 3 decides whether they stay
UNCALLED = {"ami_curve", "estimate_delay", "estimate_dimension"}


def _mentions(node):
    """Each name that ``node`` and its subtree refer to: plain names,
    attribute names and imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_every_src_function_has_a_src_caller():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    defined = [(module, node) for module, tree in trees.items()
               for node in tree.body if isinstance(
                   node, (ast.FunctionDef, ast.ClassDef))]
    unused = []
    for module, node in defined:
        # every statement of every module but the definition itself
        others = [stmt for name, tree in trees.items() for stmt in tree.body
                  if not (name == module and stmt is node)]
        if not any(node.name in _mentions(stmt) for stmt in others):
            unused.append(f"{module}:{node.name}")
    assert sorted(unused) == sorted(f"rqa.py:{name}" for name in UNCALLED)
