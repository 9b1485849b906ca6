"""Static checks on the package source that need no linter: every name a
module imports is used in it (package ``__init__`` files re-export theirs),
and every dataclass field is read somewhere in the package or its tests."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "phevopt"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_unused_import_is_found():
    tree = ast.parse("import math\nfrom os import path, sep\nprint(sep)\n")
    assert unused_imports(tree) == ["math", "path"]


def unread_fields(tree: ast.Module, read: set[str]) -> list[str]:
    """``Class.field`` for each field of a ``@dataclass`` in ``tree`` whose
    name is not in ``read``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                getattr(getattr(d, "func", d), "id", None) == "dataclass"
                for d in node.decorator_list):
            out += [f"{node.name}.{stmt.target.id}" for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and stmt.target.id not in read]
    return out


def attributes_read(tree: ast.Module) -> set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_is_read():
    trees = {p: ast.parse(p.read_text(encoding="utf-8"))
             for p in [*SRC.rglob("*.py"), *TESTS]}
    read = set().union(*map(attributes_read, trees.values()))
    assert [name for p, tree in trees.items() if p.is_relative_to(SRC)
            for name in unread_fields(tree, read)] == []


def test_unread_field_is_found():
    tree = ast.parse("@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 0\n"
                     "@dataclass\nclass B:\n    z: float\n"
                     "class C:\n    w: int\n"
                     "print(A(1).x, B(2.0).z)\na.y = 3\n")
    assert unread_fields(tree, attributes_read(tree)) == ["A.y"]
