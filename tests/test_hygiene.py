"""Source hygiene of the package, read with ``ast``: dforge imports
only the standard library and itself, and no module imports a name it
does not use (``__init__.py`` re-exports, so it is exempt)."""

import ast
import pathlib
import sys

import pytest

import dforge

SRC = pathlib.Path(dforge.__file__).parent
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_package_modules_found():
    assert {"__init__.py", "weil.py", "reduction.py"} <= \
        {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_dforge(path):
    foreign = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            tops = [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops = [node.module.split(".")[0]]
        else:
            continue
        foreign += [(node.lineno, t) for t in tops
                    if t != "dforge" and t not in sys.stdlib_module_names]
    assert not foreign, foreign


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                name = a.asname or a.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in bound.items()
                    if name not in used)
    assert not unused, unused
