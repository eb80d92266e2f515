import random

import pytest

from bipmatch.constants import Constants
from bipmatch.es_tree import EsTree
from bipmatch.graph_core import (BipartiteGraph, CoreGraph, DirectedGraph, Matching,
                                 residual_graph)


def left_id(g: BipartiteGraph, u: int) -> int:
    return 2 + u


def right_id(g: BipartiteGraph, v: int) -> int:
    return 2 + g.n_left + v


def random_bipartite(rng: random.Random, nl: int, nr: int, p: float) -> BipartiteGraph:
    edges = tuple((u, v) for u in range(nl) for v in range(nr) if rng.random() < p)
    return BipartiteGraph(nl, nr, edges)


def random_matching(rng: random.Random, g: BipartiteGraph, frac: float = 0.5) -> Matching:
    pairs = []
    used_l, used_r = set(), set()
    edges = list(g.edges)
    rng.shuffle(edges)
    for u, v in edges:
        if u not in used_l and v not in used_r and rng.random() < frac:
            pairs.append((u, v))
            used_l.add(u)
            used_r.add(v)
    return Matching(pairs)


def random_core(rng: random.Random, nl: int, nr: int, p: float,
                match_frac: float = 0.7) -> CoreGraph:
    """A random well-structured core: partial matching of specials plus
    random regular edges."""
    side = ["L"] * nl + ["R"] * nr
    core = CoreGraph(nl + nr, side)
    ls = list(range(nl))
    rs = list(range(nl, nl + nr))
    rng.shuffle(ls)
    rng.shuffle(rs)
    k = int(min(nl, nr) * match_frac)
    for l, r in zip(ls[:k], rs[:k]):
        core.add_edge(r, l)
    for l in range(nl):
        for r in range(nl, nl + nr):
            if rng.random() < p:
                try:
                    core.add_edge(l, r)
                except ValueError:
                    pass
    return core


def residual_of_random(rng: random.Random, nl: int, nr: int, p: float,
                       match_frac: float = 0.5):
    g = random_bipartite(rng, nl, nr, p)
    m = random_matching(rng, g, match_frac)
    return g, m, residual_graph(g, m)


def es_tree(n: int, triples, root: int, depth: int) -> EsTree:
    """An EsTree over a new DirectedGraph of the (tail, head, length)
    triples; edge ids are list positions."""
    tail, head, length = zip(*triples) if triples else ((), (), ())
    return EsTree(DirectedGraph(n, tail, head, length), root, depth)


def recount_core_cut(core: CoreGraph, tail_side, head_side):
    """(crossing count, all_special flag) for a directed cut of a core graph."""
    head_set = set(head_side)
    crossing = 0
    all_special = True
    for u in tail_side:
        for eid in core.out_live(u):
            if core.head[eid] in head_set:
                crossing += 1
                if not core.is_special(eid):
                    all_special = False
    return crossing, all_special


def dag_add_edge_p1(dag, u: int, v: int, length: int, weight: int):
    """Add an edge only if it keeps the per-bucket degree property."""
    cls = weight.bit_length() - 1
    heads = {dag.head[e] for e in dag.out_by_class[u].get(cls, ())
             if dag.alive[e]}
    if v not in heads and len(heads) >= (1 << (cls + 2)):
        return None
    return dag.add_edge(u, v, length, weight)


@pytest.fixture
def cnst() -> Constants:
    return Constants.desk()
