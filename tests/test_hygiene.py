"""Source hygiene that a linter would otherwise check: no module imports a
name it never uses, and every name in ``eikograph.__all__`` exists."""
import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "eikograph"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module):
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_what_it_uses(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from eikograph import *", namespace)
    import eikograph
    assert set(eikograph.__all__) <= set(namespace)


def _private_definitions(tree: ast.Module):
    """(line, name) of every private function, class and method a module
    defines; dunder names are protocol hooks, not helpers."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.name.endswith("__"):
                out.append((node.lineno, node.name))
    return out


def _referenced_names(tree: ast.Module):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


def test_every_private_helper_is_referenced():
    """A private helper that no code in the package names any more is dead.
    References are matched by name alone, across all modules."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    referenced = set().union(*map(_referenced_names, trees.values()))
    orphans = ["%s:%d %s" % (name, line, helper)
               for name, tree in trees.items()
               for line, helper in _private_definitions(tree)
               if helper not in referenced]
    assert orphans == []
