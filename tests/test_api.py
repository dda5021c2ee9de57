import ast
import importlib
import inspect
import io
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import metrotrade
from metrotrade import cli


def _used_names(tree):
    """(called, named): names called anywhere in a module, and names
    written anywhere in it at all, by bare name or as an attribute.  Each
    leaves out what a function or class body says of its own name."""
    called, named = set(), set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in enclosing:
                named.add(name)
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is not None and name not in enclosing:
                called.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return called, named


def test_every_public_function_has_a_caller_in_the_package():
    # a public function only its own tests call, or a public class only
    # they name, is API nobody uses
    package = Path(metrotrade.__file__).parent
    called, named = set(), set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            module_called, module_named = _used_names(
                ast.parse(path.read_text(encoding="utf-8")))
            called |= module_called
            named |= module_named
    public = {name: getattr(metrotrade, name) for name in metrotrade.__all__}
    functions = [name for name, obj in public.items() if inspect.isfunction(obj)]
    classes = [name for name, obj in public.items() if inspect.isclass(obj)]
    assert functions and classes
    assert sorted(set(functions) - called) == []
    assert sorted(set(classes) - named) == []


def test_readme_quick_taste_values():
    # every "# <number>" comment in the README's Python example is the
    # value the annotated expression gives
    readme = Path(__file__).resolve().parents[1] / "README.md"
    code = re.search(r"Quick taste:\n\n```python\n(.*?)```", readme.read_text(encoding="utf-8"),
                     re.S).group(1)
    numbers = {}
    for tok in tokenize.generate_tokens(io.StringIO(code).readline):
        match = re.match(r"#\s*([-+]?[\d.]+(?:e[-+]?\d+)?)", tok.string)
        if tok.type == tokenize.COMMENT and match:
            numbers[tok.start[0]] = float(match.group(1))
    namespace = {}
    checked = 0
    for stmt in ast.parse(code).body:
        if stmt.end_lineno in numbers:
            assert isinstance(stmt, ast.Expr)
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
            assert value == numbers[stmt.end_lineno], ast.unparse(stmt)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    assert checked == len(numbers) >= 2


def test_every_public_name_is_its_modules_object():
    for name in metrotrade.__all__:
        if name != "__version__":
            module = importlib.import_module(f"metrotrade.{metrotrade._MODULE_OF[name]}")
            assert getattr(metrotrade, name) is getattr(module, name), name


def test_namespace_lists_and_star_imports_every_public_name():
    assert set(metrotrade.__all__) <= set(dir(metrotrade))
    namespace = {}
    exec("from metrotrade import *", namespace)
    assert set(metrotrade.__all__) <= set(namespace)


def test_unknown_names_raise_attribute_error():
    for module in (metrotrade, cli):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
        assert not hasattr(module, "__wrapped__")


def test_submodule_resolves_after_a_bare_package_import():
    # in a fresh interpreter: here every module is already loaded
    script = (
        "import sys\n"
        "import metrotrade\n"
        "assert 'metrotrade.verify' not in sys.modules\n"
        "print(metrotrade.verify.__name__, metrotrade.run_all is metrotrade.verify.run_all)\n"
    )
    path = [str(Path(metrotrade.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["metrotrade.verify", "True"]
