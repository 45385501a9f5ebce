"""The library holds no code that only the tests use: every public
module-level function and class under src/spanex is named somewhere in
the library outside its own definition, in the README or in the
benchmark adapter.  Re-exports in __init__.py do not count as a use, and
the click commands in cli.py are entry points of their own.  Every
field a library class lists in ``__slots__`` is read as an attribute in
the library or the adapter, every public method and property of a
public library class is read as an attribute there outside its own
body, and every parameter with a default of a
public function, method or constructor is passed by some call there."""

import ast
import collections
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


def _slot_fields(tree: ast.Module):
    """(class name, field) for every field a top-level class lists in a
    literal ``__slots__``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for statement in node.body:
                if (isinstance(statement, ast.Assign)
                        and any(getattr(t, "id", None) == "__slots__" for t in statement.targets)):
                    for field in ast.literal_eval(statement.value):
                        yield node.name, field


def test_every_slot_is_read_outside_the_tests():
    # README words do not count: it says "index" and the like in prose.
    # A store alone, such as the constructor's, is not a read.
    library = {path.name: ast.parse(path.read_bytes()) for path in sorted(PACKAGE.glob("*.py"))}
    adapter = ast.parse((ROOT / "perfbench" / "adapter.py").read_bytes())
    read = {
        node.attr for tree in [*library.values(), adapter] for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [f"{module}:{cls}.{field}"
              for module, tree in library.items()
              for cls, field in _slot_fields(tree) if field not in read]
    assert unread == []


def _builds_an_automaton(node: ast.AST) -> bool:
    """Whether the code calls the ``EVA`` or ``VA`` constructor, directly or
    through one of their class methods."""
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func.value if isinstance(call.func, ast.Attribute) else call.func
            if isinstance(func, ast.Name) and func.id in ("EVA", "VA"):
                return True
    return False


def test_constructions_build_through_one_builder():
    # Every construction hands its moves to _reachable_eva, so it builds
    # only the reachable part; the plain subset construction walks its own
    # integer subsets, and the property tests hold it equal to the
    # construction over _reachable_eva.
    builders = [
        f"{name}:{getattr(node, 'name', f'line {node.lineno}')}"
        for name in ("transform.py", "algebra.py")
        for node in ast.parse((PACKAGE / name).read_bytes()).body
        if _builds_an_automaton(node)
    ]
    allowed = {"transform.py:_reachable_eva", "transform.py:determinize_eva"}
    assert [builder for builder in builders if builder not in allowed] == []


def _optional_parameters(tree: ast.Module):
    """(name a call uses, position or None, parameter) for every parameter
    with a default of a public module-level function, or of a public
    method or ``__init__`` of a public class; a method's positions leave
    out ``self``, and a keyword-only parameter has None.  A constructor is
    called by its class's name."""
    def optional(name, function, skip):
        arguments = function.args
        positional = arguments.posonlyargs + arguments.args
        for k in range(len(positional) - len(arguments.defaults), len(positional)):
            yield name, k - skip, positional[k].arg
        for parameter, default in zip(arguments.kwonlyargs, arguments.kw_defaults):
            if default is not None:
                yield name, None, parameter.arg

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            if not _is_click_command(node):
                yield from optional(node.name, node, 0)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and (
                        method.name == "__init__" or not method.name.startswith("_")):
                    yield from optional(node.name if method.name == "__init__" else method.name,
                                        method, 1)


def _sets(call: ast.Call, position, parameter: str) -> bool:
    """Whether a call passes the parameter: by keyword, by position, or
    through ``*args``, which may fill every position."""
    if any(keyword.arg == parameter for keyword in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_optional_parameter_is_set_outside_the_tests():
    # A default that no library or benchmark caller overrides is a knob
    # that only the tests turn.
    library = [ast.parse(path.read_bytes()) for path in sorted(PACKAGE.glob("*.py"))]
    calls = {}
    for tree in [*library, ast.parse((ROOT / "perfbench" / "adapter.py").read_bytes())]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                calls.setdefault(name, []).append(node)
    unset = [f"{name}({parameter})"
             for tree in library
             for name, position, parameter in _optional_parameters(tree)
             if not any(_sets(call, position, parameter) for call in calls.get(name, []))]
    assert unset == []


def test_every_public_method_has_a_user_outside_the_tests():
    # A method or property is used when its name is read as an attribute
    # in the library outside its own body or in the adapter; README words
    # do not count, as for the slots.
    trees = [ast.parse(path.read_bytes()) for path in sorted(PACKAGE.glob("*.py"))]
    adapter = ast.parse((ROOT / "perfbench" / "adapter.py").read_bytes())

    def reads(tree):
        return [node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]

    read = collections.Counter(name for tree in [*trees, adapter] for name in reads(tree))
    unused = [
        f"{cls.name}.{method.name}"
        for tree in trees for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
        and read[method.name] == reads(method).count(method.name)
    ]
    assert unused == []
