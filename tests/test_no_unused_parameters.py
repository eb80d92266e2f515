"""No unused parameters: every parameter of every function and method in
src/bipmatch (self and cls aside) is read in that function's body, nested
functions included.  Lambdas are not checked."""

import ast
from pathlib import Path

import bipmatch

PACKAGE = Path(bipmatch.__file__).parent


def unused_parameters(tree, filename):
    """'file:line function(parameter)' for each parameter its body never reads."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for name in params:
            if name not in ("self", "cls") and name not in read:
                yield f"{filename}:{fn.lineno} {fn.name}({name})"


def test_every_parameter_is_read():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        unused += unused_parameters(ast.parse(path.read_text(), filename=str(path)),
                                    path.name)
    assert not unused, "parameters never read: " + ", ".join(unused)
