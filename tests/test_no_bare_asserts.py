"""Invariant guards in the library are explicit raises: ``python -O`` strips
``assert`` statements, so none may appear in src/bipmatch."""

import ast
from pathlib import Path

import bipmatch


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(Path(bipmatch.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, "bare assert statements: " + ", ".join(found)
