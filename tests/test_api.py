import ast
import inspect
import io
import re
import tokenize
from pathlib import Path

import metrotrade


def _called_names(tree):
    """Names called anywhere in a module, by bare name or as an attribute,
    leaving out the calls a function makes to itself."""
    called = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is not None and name not in enclosing:
                called.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return called


def test_every_public_function_has_a_caller_in_the_package():
    # a public function only its own tests call is API nobody uses
    package = Path(metrotrade.__file__).parent
    called = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            called |= _called_names(ast.parse(path.read_text(encoding="utf-8")))
    functions = [name for name in metrotrade.__all__
                 if inspect.isfunction(getattr(metrotrade, name))]
    assert functions
    assert sorted(set(functions) - called) == []


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
