import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipmatch.es_tree import INF
from bipmatch.graph_core import DirectedGraph
from bipmatch.oracles import dijkstra
from conftest import es_tree


def capped(dist, d):
    return [x if x <= d else INF for x in dist]


def make_graph(n, edges):
    g = DirectedGraph(n)
    for u, v, ln in edges:
        g.add_edge(u, v, ln)
    return g


def test_simple_path_levels():
    edges = [(0, 1, 1), (1, 2, 2)]
    t = es_tree(3, edges, root=0, depth=5)
    assert t.level == [0, 1, 3]


def test_unreachable_vertex():
    t = es_tree(3, [(0, 1, 1)], root=0, depth=5)
    assert t.level[2] == INF
    assert t.path_to(2) is None


def test_levels_match_dijkstra_on_random_graph():
    rng = random.Random(2)
    n = 30
    edges = []
    for _ in range(120):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v, rng.randint(1, 5)))
    d = 12
    t = es_tree(n, edges, root=0, depth=d)
    g = make_graph(n, edges)
    assert t.level == capped(dijkstra(g, 0), d)


def test_delete_tree_edge_drops_subtree():
    edges = [(0, 1, 1), (1, 2, 2)]
    t = es_tree(3, edges, root=0, depth=5)
    t.delete_edges([1])
    assert t.level[2] == INF


def test_delete_non_tree_edge_changes_nothing():
    edges = [(0, 1, 1), (0, 2, 1), (1, 2, 1)]  # (1,2) is not a tree edge
    t = es_tree(3, edges, root=0, depth=5)
    before = list(t.level)
    t.delete_edges([2])
    assert t.level == before


def test_delete_dead_edge_rejected():
    t = es_tree(2, [(0, 1, 1)], root=0, depth=3)
    t.delete_edges([0])
    with pytest.raises(ValueError):
        t.delete_edges([0])


def test_path_to_root_is_empty():
    t = es_tree(2, [(0, 1, 1)], root=0, depth=3)
    assert t.path_to(0) == [0]
    assert t.path_edges_to(0) == []


def test_path_length_equals_level():
    edges = [(0, 1, 1), (1, 2, 2)]
    t = es_tree(3, edges, root=0, depth=5)
    assert t.path_to(2) == [0, 1, 2]
    assert sum(t.length[e] for e in t.path_edges_to(2)) == t.level[2]


def test_random_deletions_track_oracle():
    rng = random.Random(7)
    for trial in range(12):
        n = rng.randint(6, 40)
        edges = []
        for _ in range(rng.randint(n, 5 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v, rng.randint(1, 4)))
        if not edges:
            continue
        d = rng.choice([3, 7, 15, 50])
        t = es_tree(n, edges, root=0, depth=d)
        g = make_graph(n, edges)
        order = list(range(len(edges)))
        rng.shuffle(order)
        for eid in order:
            t.delete_edges([eid])
            g.delete_edge(eid)
            assert t.level == capped(dijkstra(g, 0), d)
            v = rng.randrange(n)
            p = t.path_to(v)
            if p is None:
                assert t.level[v] == INF
            else:
                assert sum(t.length[e] for e in t.path_edges_to(v)) == t.level[v]
        assert t.scan_steps <= t.scan_budget()


def test_scan_budget_respected_under_full_teardown():
    rng = random.Random(13)
    n = 40
    edges = []
    for _ in range(400):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v, rng.randint(1, 3)))
    d = 20
    t = es_tree(n, edges, root=0, depth=d)
    order = list(range(len(edges)))
    rng.shuffle(order)
    t.delete_edges(order)
    assert all(lv == (0 if v == 0 else INF) for v, lv in enumerate(t.level))
    assert t.scan_steps <= 16 * len(edges) * (d + 1) + 64


def test_lengthen_non_tree_edge_changes_nothing():
    edges = [(0, 1, 1), (0, 2, 1), (1, 2, 1)]  # (1,2) is not a tree edge
    t = es_tree(3, edges, root=0, depth=5)
    before = list(t.level)
    t.increase_lengths([(2, 4)])
    assert t.level == before and t.length[2] == 4


def test_lengthen_rejects_shrinking_and_dead_edges():
    t = es_tree(2, [(0, 1, 2), (0, 1, 1)], root=0, depth=3)
    for bad in ((0, 2), (0, 1), (0, 2.5)):
        with pytest.raises(ValueError):
            t.increase_lengths([bad])
    t.delete_edges([1])
    with pytest.raises(ValueError):
        t.increase_lengths([(1, 4)])


def check_tree(t, g):
    """Levels equal the depth-bounded oracle and every parent is the
    smallest-id live in-edge realizing its head's level."""
    assert t.level == capped(dijkstra(g, t.root), t.depth)
    for v in range(g.n):
        if v == t.root or t.level[v] == INF:
            assert t.parent_edge[v] is None
            continue
        tight = [e for e in g.in_adj[v]
                 if g.alive[e] and t.level[g.tail[e]] + g.length[e] == t.level[v]]
        assert t.parent_edge[v] == min(tight)
        assert v in t.children[g.tail[t.parent_edge[v]]]


def test_lengthening_cycle_entry_drops_cycle_past_depth():
    # 0 -> 1 is the only cheap way into the cycle 1 -> 2 -> 3 -> 1; the
    # other entry 0 -> 3 sits at the depth bound, so the cycle cannot hold
    # 1 and 2 within it once 0 -> 1 is long
    edges = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 1, 1), (0, 3, 6)]
    t = es_tree(4, edges, root=0, depth=6)
    g = make_graph(4, edges)
    assert t.level == [0, 1, 2, 3]
    for ln in (2, 4, 8):
        t.increase_lengths([(0, ln)])
        g.length[0] = ln
        check_tree(t, g)
    assert t.level == [0, INF, INF, 6]
    assert t.scan_steps <= t.scan_budget()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_deletions_and_length_increases_track_oracle(data):
    n = data.draw(st.integers(2, 9))
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
    pairs = data.draw(st.lists(st.sampled_from(arcs), min_size=1, max_size=4 * n))
    edges = [(u, v, data.draw(st.integers(1, 4))) for u, v in pairs]
    depth = data.draw(st.integers(1, 12))
    t = es_tree(n, edges, root=0, depth=depth)
    g = make_graph(n, edges)
    check_tree(t, g)
    for _ in range(data.draw(st.integers(1, 2 * len(edges)))):
        live = [e for e in range(len(edges)) if g.alive[e]]
        if not live:
            break
        batch = data.draw(st.sets(st.sampled_from(live), min_size=1, max_size=3))
        if data.draw(st.booleans()):
            t.delete_edges(sorted(batch))
            for e in batch:
                g.delete_edge(e)
        else:
            ups = [(e, g.length[e] * data.draw(st.sampled_from([2, 3]))) for e in sorted(batch)]
            t.increase_lengths(ups)
            for e, ln in ups:
                g.length[e] = ln
        check_tree(t, g)
    assert t.scan_steps <= t.scan_budget()
