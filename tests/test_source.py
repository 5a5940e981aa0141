"""Checks on the package's source text, with the standard library alone."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "covspectra"


def _unused_imports(source: str) -> list[str]:
    """Names an import binds that no expression of the module reads; the
    __future__ import binds none."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_every_imported_name_is_used():
    # __init__.py imports names to re-export them, so it is left out
    modules = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    assert len(modules) >= 8
    unused = {path.name: names for path in modules
              if (names := _unused_imports(path.read_text()))}
    assert unused == {}


def test_unused_import_is_found():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b, c as d\nd()\n"
    assert _unused_imports(source) == ["b", "os"]
