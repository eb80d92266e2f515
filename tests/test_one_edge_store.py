"""DirectedGraph is the one edge store: no other class in src/bipmatch keeps
edge arrays of its own.  A structure that needs edges subclasses or holds a
DirectedGraph instead of assigning self.tail / self.head, and no function
outside DirectedGraph builds a per-vertex index of lists of its own."""

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


def _builds_lists_of_lists(node):
    """[[] for ...] or {k: [] for ...}: one empty list per item, the start of
    an adjacency index."""
    value = node.elt if isinstance(node, ast.ListComp) else (
        node.value if isinstance(node, ast.DictComp) else None)
    return isinstance(value, ast.List) and not value.elts


def test_only_directed_graph_builds_per_vertex_lists():
    # the oracles are independent of the pipeline by design: they keep their own
    found = []
    for path in sorted(Path(bipmatch.__file__).parent.glob("*.py")):
        if path.name == "oracles.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        exempt = {id(node) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name == "DirectedGraph"
                  for node in ast.walk(cls)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if _builds_lists_of_lists(node) and id(node) not in exempt]
    assert not found, "per-vertex lists outside DirectedGraph: " + ", ".join(found)
