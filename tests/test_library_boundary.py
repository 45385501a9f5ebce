"""The library holds no code that only the tests use: every public
module-level function and class under src/spanex is named somewhere in
the library outside its own definition, in the README or in the
benchmark adapter.  Re-exports in __init__.py do not count as a use, and
the click commands in cli.py are entry points of their own."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spanex"


def _identifiers(tree: ast.AST) -> set:
    """Every name a piece of code reads, as a bare name, an attribute or
    an import."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
    return found


def _is_click_command(node: ast.AST) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def test_every_public_definition_has_a_user_outside_the_tests():
    # One identifier set per top-level statement of each library module.
    statements = [
        (path.name, node, _identifiers(node))
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
        for node in ast.parse(path.read_bytes()).body
    ]
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    outside = readme | _identifiers(ast.parse((ROOT / "perfbench" / "adapter.py").read_bytes()))
    unused = [
        f"{module}:{node.name}"
        for module, node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and not _is_click_command(node)
        and node.name not in outside
        and not any(node.name in names for _, other, names in statements if other is not node)
    ]
    assert unused == []
