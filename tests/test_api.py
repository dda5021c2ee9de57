import ast
import inspect
import io
import re
import tokenize
from pathlib import Path

import metrotrade


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
