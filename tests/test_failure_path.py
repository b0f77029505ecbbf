"""cli.main is the one owner of the exit-code policy.

A command returns EXIT_FOUND or EXIT_NEGATIVE and reports anything else
by raising: main alone turns a ValueError into exit 2 and an
ArithmeticError into exit 3, each with its one stderr line.  The rule is
checked on the syntax tree of cli.py; nothing is imported."""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "fermatsieve" / "cli.py"
RETURNED = {"EXIT_FOUND", "EXIT_NEGATIVE"}


def _returns_only(node: ast.AST) -> bool:
    """node is EXIT_FOUND or EXIT_NEGATIVE, or a choice between them."""
    if isinstance(node, ast.IfExp):
        return _returns_only(node.body) and _returns_only(node.orelse)
    return isinstance(node, ast.Name) and node.id in RETURNED


def breaches(tree: ast.AST) -> list:
    """The "function: what" breaches of the policy in tree, a module."""
    found = []
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef) and func.name == "_fail":
            found.append("_fail: defined")
        if not isinstance(func, ast.FunctionDef) or func.name == "main":
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and node.id in ("_fail", "EXIT_INVALID", "EXIT_INCONSISTENT"):
                found.append(f"{func.name}: {node.id}")
            elif isinstance(node, ast.Attribute) and node.attr == "stderr":
                found.append(f"{func.name}: writes to stderr")
            elif (
                func.name.startswith("cmd_")
                and isinstance(node, ast.Return)
                and not (node.value and _returns_only(node.value))
            ):
                found.append(f"{func.name}: returns {ast.unparse(node.value) if node.value else None}")
    return found


def test_the_scan_finds_each_breach():
    tree = ast.parse(
        "def _fail(m):\n    print(m, file=sys.stderr)\n    return EXIT_INVALID\n"
        "def cmd_x(args):\n    if args.n:\n        return 2\n    return EXIT_FOUND if args.m else EXIT_NEGATIVE\n"
        "def cmd_y(args):\n    return _fail('no')\n"
        "def main(argv):\n    print(file=sys.stderr)\n    return EXIT_INCONSISTENT\n"
    )
    assert sorted(breaches(tree)) == [
        "_fail: EXIT_INVALID",
        "_fail: defined",
        "_fail: writes to stderr",
        "cmd_x: returns 2",
        "cmd_y: _fail",
        "cmd_y: returns _fail('no')",
    ]


def test_only_main_maps_a_failure_to_an_exit_code():
    tree = ast.parse(CLI.read_text(encoding="utf-8"))
    assert any(isinstance(f, ast.FunctionDef) and f.name.startswith("cmd_") for f in tree.body)
    assert breaches(tree) == []
