"""No test-only API in the library: every module-level function and
non-dunder method defined in src/bipmatch is named somewhere in the library
or its benchmark, as a name or attribute load, an import, or a string
literal (the benchmark's tracer wraps methods by name).  The one exception
is TEST_SUPPORT, the oracles and checks that only the tests call."""

import ast
from pathlib import Path

import bipmatch

PACKAGE = Path(bipmatch.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
USERS = ("src", "perfbench")

TEST_SUPPORT = {
    "Constants.asymptotic",
    "DagSssp.work_budget",
    "EsTree.scan_budget",
    "construct_expander",
    "validate_well_structured",
    "sparse_to_well_structured",
    "mwu_yield_floor",
    # brute-force oracles
    "exhaustive_max_matching_size",
    "dijkstra",
    "bicriteria_path_oracle",
    "enumerate_all_cuts_sparsity",
}


def defined_functions(tree):
    """Qualified names of the module's functions and its classes' methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item.name, f"{node.name}.{item.name}"


def named(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_library_function_is_used_by_the_library_or_benchmark():
    used = set()
    for folder in USERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            used.update(named(ast.parse(path.read_text(), filename=str(path))))
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        unused.update(qual for name, qual in defined_functions(tree) if name not in used)
    assert not unused - TEST_SUPPORT, "only the tests call: " + ", ".join(
        sorted(unused - TEST_SUPPORT))
    assert not TEST_SUPPORT - unused, "used outside the tests, drop from TEST_SUPPORT: " + \
        ", ".join(sorted(TEST_SUPPORT - unused))
