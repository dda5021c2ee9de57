import ast
import inspect
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
