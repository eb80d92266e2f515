"""No write-only state: every attribute a class in src/bipmatch assigns
through self, or declares as a dataclass field, is read somewhere in the
library, its tests or its benchmark.  Reads are matched by attribute name,
on any object, or by a getattr/hasattr call with the name as a literal."""

import ast
from pathlib import Path

import bipmatch

PACKAGE = Path(bipmatch.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
READERS = ("src", "tests", "perfbench")


def _self_attrs(target):
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _self_attrs(elt)
    elif (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
          and target.value.id == "self"):
        yield target.attr


def _is_dataclass(cls):
    for dec in cls.decorator_list:
        func = dec.func if isinstance(dec, ast.Call) else dec
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "dataclass":
            return True
    return False


def written_attrs(tree, filename):
    """(attribute, where) for each self-assignment and dataclass field."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        if _is_dataclass(cls):
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    yield node.target.id, f"{filename}:{node.lineno} {cls.name}"
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for attr in _self_attrs(target):
                    yield attr, f"{filename}:{node.lineno} {cls.name}"


def read_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "hasattr") and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)):
            yield node.args[1].value


def test_every_assigned_attribute_is_read():
    read = set()
    for folder in READERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            read.update(read_names(ast.parse(path.read_text(), filename=str(path))))
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        unread += [f"{where}.{attr}" for attr, where in written_attrs(tree, path.name)
                   if attr not in read]
    assert not unread, "assigned but never read: " + ", ".join(sorted(set(unread)))
