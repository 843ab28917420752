"""Source hygiene checks that need nothing beyond the standard library."""

import ast
import importlib
import os

import pytest

import spectralconv
from spectralconv import spectrality

SRC = os.path.dirname(spectralconv.__file__)
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


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


def private_definitions(source):
    """Module-level private functions, classes and constants: name -> line."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in nodes if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def unreferenced_private_names(sources):
    """(module, line, name) of every private module-level definition that
    no module in ``sources`` (module name -> source) reads, by name or as
    an attribute."""
    read = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted((module, line, name)
                  for module, source in sources.items()
                  for name, line in private_definitions(source).items()
                  if name not in read)


def test_the_checker_sees_an_unreferenced_private_name():
    sources = {
        "a.py": "_LIMIT = 3\n_SPARE = 4\ndef _helper():\n    return _LIMIT\n"
                "class _Unused:\n    pass\n__all__ = []\n",
        "b.py": "from . import a\nx = a._helper()\n_seen: int = 0\n",
    }
    assert unreferenced_private_names(sources) == [
        ("a.py", 2, "_SPARE"), ("a.py", 5, "_Unused"), ("b.py", 3, "_seen")]


def test_every_private_module_level_name_is_referenced():
    sources = {}
    for module in MODULES:
        with open(os.path.join(SRC, module)) as handle:
            sources[module] = handle.read()
    assert unreferenced_private_names(sources) == []


def traced_targets(source):
    """The TARGETS tuple of (module, attribute) pairs in the benchmark's
    tracer, read from its source without importing it."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS assignment found")


def test_every_traced_function_exists():
    """A rename in src/ must not leave the benchmark's per-layer spans empty."""
    with open(TRACING) as handle:
        targets = traced_targets(handle.read())
    assert len(targets) > 0
    missing = []
    for module, attr in targets:
        owner = importlib.import_module("spectralconv." + module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append((module, attr))
    assert missing == []


# Definitions that only tests reach, kept on purpose: qualified name -> reason.
TEST_ONLY_ALLOWED = {
    "hadamard.digit_sum_vanishes": "acceptance criterion 1 checks admissibility with it",
    "hadamard.find_spectra": "the library's tuple API; acceptance criteria 1 and 2 list spectra with it",
    "spectrality.q_exact_discrete": "acceptance criterion 2 evaluates Q of one level with it",
    "spectrality.candidate_spectrum": "the reference of the Q oracle",
    "measures.AtomicMeasure.ft": "the transform oracle of the measure tests",
    "measures.AtomicMeasure.uniform": "the tests' constructor of uniform measures",
    "measures.AtomicMeasure.point": "the tests' constructor of point masses",
    "measures.AtomicMeasure.atoms": "the tests' Fraction view of a measure",
    "cyclotomic.euler_phi": "the degree of the cyclotomic polynomials in the order tests",
    "convolution.SparseInsertionSpec.digits_at": "the spec's definition of its own levels",
}
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_click_command(node):
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def _is_override(node):
    """A method that calls ``super().<its own name>``: the base class, not
    this package, is what reaches it (``click.Group.invoke``)."""
    return any(isinstance(n, ast.Attribute) and n.attr == node.name
               and isinstance(n.value, ast.Call) and isinstance(n.value.func, ast.Name)
               and n.value.func.id == "super" for n in ast.walk(node))


def _checked_definitions(tree):
    """(qualified name, node) of module-level functions and classes and of
    methods, less dunder methods, overrides and click commands."""
    for node in tree.body:
        if isinstance(node, _FUNCTIONS + (ast.ClassDef,)) and not _is_click_command(node):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, _FUNCTIONS) and not _is_click_command(sub)
                        and not _is_override(sub)
                        and not (sub.name.startswith("__") and sub.name.endswith("__"))):
                    yield node.name + "." + sub.name, sub


def _names_read(node, enclosing, out):
    """Append (name, ids of the enclosing definitions) for every name read
    in the tree under ``node``; a read as an attribute is keyed "." + name."""
    if isinstance(node, _FUNCTIONS + (ast.ClassDef,)):
        enclosing = enclosing | {id(node)}
    if isinstance(node, (ast.Name, ast.Attribute)) and not isinstance(node.ctx, ast.Store):
        key = node.id if isinstance(node, ast.Name) else "." + node.attr
        out.setdefault(key, []).append(enclosing)
    for child in ast.iter_child_nodes(node):
        _names_read(child, enclosing, out)


def definitions_reached_only_by_tests(sources):
    """Sorted ``module.qualname`` of every checked definition that no module
    but ``__init__.py`` names outside the definition itself.  A method is
    named only as an attribute: a local variable of the same name is not
    a read of it."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {}
    for module, tree in trees.items():
        if module != "__init__.py":
            _names_read(tree, frozenset(), read)

    def reads(qualname, name):
        attribute = read.get("." + name, [])
        return attribute if "." in qualname else attribute + read.get(name, [])

    return sorted("%s.%s" % (module[:-3], qualname)
                  for module, tree in trees.items()
                  for qualname, node in _checked_definitions(tree)
                  if all(id(node) in enclosing for enclosing in reads(qualname, node.name)))


def test_the_checker_sees_a_test_only_definition():
    sources = {
        "__init__.py": "from .a import spare, used\n",
        "a.py": "import click\ndef used():\n    return 1\ndef spare(n):\n    return spare(n - 1)\n"
                "class Box:\n    def __init__(self):\n        self.open()\n"
                "    def open(self):\n        pass\n    def shut(self):\n        pass\n"
                "class Loud(click.Group):\n    def invoke(self, ctx):\n"
                "        return super().invoke(ctx)\n"
                "@click.group()\ndef main():\n    pass\n"
                "@main.command('go')\ndef go():\n    pass\n",
        # the local variable shut is not a read of the method Box.shut
        "b.py": "from .a import Box, Loud, used\nshut = [1]\n"
                "x = used() + Box() + Loud() + len(shut)\n",
    }
    assert definitions_reached_only_by_tests(sources) == ["a.Box.shut", "a.spare"]


def test_no_definition_is_reached_only_by_tests():
    sources = {}
    for module in MODULES:
        with open(os.path.join(SRC, module)) as handle:
            sources[module] = handle.read()
    found = definitions_reached_only_by_tests(sources)
    assert sorted(set(found) - set(TEST_ONLY_ALLOWED)) == []
    assert sorted(set(TEST_ONLY_ALLOWED) - set(found)) == []


def test_every_verdict_rule_states_its_argument():
    """Each row of the verdict's rule table cites the argument it applies
    and its hypotheses, as the rule's docstring."""
    rules = [rule for row in spectrality._RULES.values() for rule in row]
    assert len(rules) > 0
    assert [rule.__name__ for rule in rules if not (rule.__doc__ or "").strip()] == []
