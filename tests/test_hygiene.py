"""Source hygiene of the package, read with ``ast``: dforge imports
only the standard library and itself, no module imports a name it
does not use (``__init__.py`` re-exports, so it is exempt), and no
public function is a second name for a call it forwards to."""

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


# public forwarding functions that stay, each with its reason
FORWARDERS_KEPT = {
    # the benchmark traces and calls UniversalRank1 under this name
    ("drinfeld.py", "rank1_universal"),
    # names the decimal-string integer format of the documents
    ("serialize.py", "ser_int"),
}


def _forwards(fn):
    """True if fn's body (after a docstring) is one call that passes on
    exactly fn's parameters: a method called on the first parameter with
    the rest, or any callable given all of them."""
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    if len(body) != 1 or not isinstance(body[0], (ast.Return, ast.Expr)) \
            or not isinstance(body[0].value, ast.Call):
        return False
    call = body[0].value
    a = fn.args
    params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
    passed = call.args + [k.value for k in call.keywords]
    if not all(isinstance(v, ast.Name) for v in passed):
        return False
    names = sorted(v.id for v in passed)
    if names == sorted(params):
        return True
    func = call.func
    return (bool(params) and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == params[0] and names == sorted(params[1:]))


def test_no_public_forwarding_functions():
    found = {(path.name, node.name) for path in MODULES
             for node in _tree(path).body
             if isinstance(node, ast.FunctionDef)
             and not node.name.startswith("_") and _forwards(node)}
    assert found <= FORWARDERS_KEPT, sorted(found - FORWARDERS_KEPT)
