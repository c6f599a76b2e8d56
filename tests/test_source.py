"""Static checks over the package source, read with `ast` and never imported."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "massdual"
MODULES = sorted(SRC.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def public_homes() -> dict:
    """__init__.py's _HOME table {public name: submodule}, evaluated alone, with no builtins."""
    init = SRC / "__init__.py"
    [node] = [n for n in parse(init).body if isinstance(n, ast.Assign) and ast.unparse(n.targets) == "_HOME"]
    namespace = {"__builtins__": {}}
    exec(compile(ast.Module([node], []), str(init), "exec"), namespace)
    return namespace["_HOME"]


def top_level_names(tree) -> set:
    """The names that a module's top-level statements bind: definitions, assignments and imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(alias.asname or alias.name).partition(".")[0] for alias in node.names}
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    tree = parse(path)
    imported = {
        (alias.asname or alias.name).partition(".")[0]: node.lineno
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in used} == {}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statement(path):
    # `python -O` strips asserts, so a check that must hold raises instead
    lines = [node.lineno for node in ast.walk(parse(path)) if isinstance(node, ast.Assert)]
    assert lines == []


def test_every_public_name_is_bound_at_the_top_of_its_home_module():
    # a typo in the table fails here, without importing the package
    homes = public_homes()
    bound = {module: top_level_names(parse(SRC / f"{module}.py")) for module in set(homes.values())}
    assert {name: home for name, home in homes.items() if name not in bound[home]} == {}
