"""DirectedGraph is the one edge store: no other class in src/bipmatch keeps
edge arrays of its own.  A structure that needs edges subclasses or holds a
DirectedGraph instead of assigning self.tail / self.head."""

import ast
from pathlib import Path

import bipmatch

EDGE_ARRAYS = {"tail", "head"}


def _assigned_self_attrs(target):
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _assigned_self_attrs(elt)
    elif (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
          and target.value.id == "self"):
        yield target.attr


def test_only_directed_graph_assigns_edge_arrays():
    found = []
    for path in sorted(Path(bipmatch.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or cls.name == "DirectedGraph":
                continue
            for node in ast.walk(cls):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    for attr in _assigned_self_attrs(target):
                        if attr in EDGE_ARRAYS:
                            found.append(f"{path.name}:{node.lineno} {cls.name}.{attr}")
    assert not found, "edge arrays outside DirectedGraph: " + ", ".join(found)
