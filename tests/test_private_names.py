"""Every module-level private name of the package is used by the package.

A private helper that only its own definition or a test still names is
dead code: tests reach the package through what it uses, and reference
implementations belong in tests/helpers.py.
"""

import ast
from pathlib import Path

import hyperdefect

SOURCES = sorted(Path(hyperdefect.__file__).parent.glob("*.py"))


def _defined(tree):
    """The private names bound at module level: functions, classes and
    assigned constants, dunder names aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def _used(tree):
    """The names read anywhere: loaded names and attributes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_private_module_name_is_used_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    used = {name for tree in trees.values() for name in _used(tree)}
    private = {
        (module, name)
        for module, tree in trees.items()
        for name in _defined(tree)
        if name.startswith("_") and not name.startswith("__")
    }
    assert len(private) > 50  # the walk found the package's helpers
    assert sorted((m, n) for m, n in private if n not in used) == []
