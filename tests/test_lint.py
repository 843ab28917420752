"""Source hygiene checks that need nothing beyond the standard library."""

import ast
import os

import pytest

import spectralconv

SRC = os.path.dirname(spectralconv.__file__)
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


def unused_imports(source):
    """Module-level imported names that the module never reads.

    String annotations are not parsed; the modules use
    ``from __future__ import annotations`` instead.
    """
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:  # re-exports listed in __all__
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_checker_sees_an_unused_import():
    source = "import os\nimport sys\nfrom typing import Optional\nx = sys.argv\n"
    assert unused_imports(source) == [(1, "os"), (3, "Optional")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_level_imports(module):
    with open(os.path.join(SRC, module)) as handle:
        assert unused_imports(handle.read()) == []
