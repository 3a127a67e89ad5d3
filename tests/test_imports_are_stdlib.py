"""The package imports only the standard library and itself.

`pyproject.toml` declares no dependencies, so a module of `src/zinbiel`
that imported a third-party package would fail wherever that package is
missing, although it passes where the package happens to be installed.
Every import statement is read off each module's AST, and its top-level
name must be `zinbiel`, a relative import, or a name in
`sys.stdlib_module_names` (Python 3.10 and later).
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "zinbiel"


def _imports():
    """(file, line, top-level name) of each absolute import."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
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
