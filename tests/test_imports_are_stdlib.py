"""The package imports only the standard library and itself, and its
modules import one another without a cycle.

`pyproject.toml` declares no dependencies, so a module of `src/zinbiel`
that imported a third-party package would fail wherever that package is
missing, although it passes where the package happens to be installed.
Every import statement is read off each module's AST, and its top-level
name must be `zinbiel`, a relative import, or a name in
`sys.stdlib_module_names` (Python 3.10 and later).  The relative imports,
function-level ones included, are the edges of the package's module
graph, which must have no cycle.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "zinbiel"


def _statements():
    """(file, node) of each import statement of each module, at any
    depth."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield path, node


def _imports():
    """(file, line, top-level name) of each absolute import."""
    out = []
    for path, node in _statements():
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif node.level == 0:
            names = [node.module]
        else:
            continue
        out += [(path.name, node.lineno, name.split(".")[0])
                for name in names]
    return out


def test_the_package_imports_only_the_standard_library():
    imports = _imports()
    assert len(imports) > 20
    assert [i for i in imports if i[2] != "zinbiel"
            and i[2] not in sys.stdlib_module_names] == []


def _cycle(graph: dict) -> list | None:
    """Modules that import one another in a cycle, the first repeated at
    the end, or None when the graph has no cycle."""
    done, path = set(), []

    def visit(module):
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return None
        path.append(module)
        for target in sorted(graph.get(module, ())):
            found = visit(target)
            if found:
                return found
        path.pop()
        done.add(module)
        return None

    return next(filter(None, map(visit, sorted(graph))), None)


def test_the_package_modules_import_one_another_without_a_cycle():
    graph = {}
    for path, node in _statements():
        if isinstance(node, ast.ImportFrom) and node.level:
            targets = [node.module] if node.module else \
                [alias.name for alias in node.names]
            graph.setdefault(path.stem, set()).update(
                target.split(".")[0] for target in targets)
    assert {"deformation", "sampling"} <= graph["cli"]
    assert _cycle(graph) is None
