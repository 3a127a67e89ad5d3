"""Every private function, method and class of the package is used.

A private name has one leading underscore and is not a dunder.  A
definition counts as used when some module of `src/zinbiel` loads its
name, as a plain name or as an attribute; an import does not count.  A
private helper that only the tests call is dead code in the package.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "zinbiel"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _scan():
    """(file, line, name) of each private definition, and every name the
    package loads."""
    defined, loaded = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, DEFINITIONS) and _private(node.name):
                defined.append((path.name, node.lineno, node.name))
            elif isinstance(node, ast.Name) and isinstance(node.ctx,
                                                           ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                                ast.Load):
                loaded.add(node.attr)
    return defined, loaded


def test_every_private_definition_is_used():
    defined, loaded = _scan()
    assert len(defined) > 50
    assert [d for d in defined if d[2] not in loaded] == []
