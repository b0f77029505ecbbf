"""No module of the package reads another module's private names.

A name with a leading underscore belongs to its module: a sibling that
reads it (``quadform._helper`` or ``from .quadform import _helper``)
depends on what the owner may change or delete without notice, and a
call through it skips the public function a traced run counts.  The
reads are found in each module's syntax tree; nothing is imported."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fermatsieve"
MODULES = {path.stem: path for path in sorted(PACKAGE.glob("*.py"))}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reads(owner: str, tree: ast.AST) -> list:
    """The "owner -> sibling._name" reads in tree, a module of the package."""
    reads = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in MODULES
            and node.value.id != owner
            and _private(node.attr)
        ):
            reads.append(f"{owner} -> {node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in MODULES:
            reads += [f"{owner} -> {node.module}.{a.name}" for a in node.names if _private(a.name)]
    return reads


def test_the_scan_sees_every_module():
    assert {"arith", "audit", "cli", "quadform"} <= set(MODULES)


def test_the_scan_finds_both_forms_of_a_private_read():
    tree = ast.parse("from .arith import _x, y\nquadform._z\narith.__name__\nself._w\n")
    assert sorted(private_reads("cli", tree)) == ["cli -> arith._x", "cli -> quadform._z"]


def test_no_module_reads_a_sibling_private_name():
    reads = [
        read
        for owner, path in MODULES.items()
        for read in private_reads(owner, ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert reads == []
