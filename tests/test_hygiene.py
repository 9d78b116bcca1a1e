"""Import hygiene: the public names resolve and no module imports dead names."""

import ast
import pathlib

import pytest

import finitetop

PACKAGE = pathlib.Path(finitetop.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def test_public_names_resolve():
    missing = [name for name in finitetop.__all__ if not hasattr(finitetop, name)]
    assert missing == []
    assert len(set(finitetop.__all__)) == len(finitetop.__all__)


def imported_names(tree):
    """(bound name, line) for every import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno


def used_names(tree):
    """Names read anywhere in the module, and the strings listed in __all__."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [(name, line) for name, line in imported_names(tree)
              if name not in used]
    assert unused == []
