import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipmatch.graph_core import (BipartiteGraph, DirectedGraph, Matching, S_ID, T_ID,
                                 augment, bfs_tree, left_id, parse_graph_text,
                                 residual_graph, right_id, shortcut_to_simple, tree_path,
                                 validate_well_structured, write_graph_text)
from conftest import residual_of_random


def edge_pairs(h):
    return {(h.g.tail[e], h.g.head[e]) for e in h.g.live_edges()}


def test_residual_single_unmatched_edge():
    g = BipartiteGraph(1, 1, ((0, 0),))
    h = residual_graph(g, Matching())
    u, v = left_id(g, 0), right_id(g, 0)
    assert edge_pairs(h) == {(S_ID, u), (u, v), (v, T_ID)}


def test_residual_single_matched_edge():
    g = BipartiteGraph(1, 1, ((0, 0),))
    h = residual_graph(g, Matching([(0, 0)]))
    u, v = left_id(g, 0), right_id(g, 0)
    assert edge_pairs(h) == {(v, u)}
    (eid,) = h.g.live_edges()
    assert h.special[eid]


def test_residual_two_by_two_half_matched():
    # edges a-x, b-y with (a,x) matched: expect (x,a), (s,b), (b,y), (y,t)
    g = BipartiteGraph(2, 2, ((0, 0), (1, 1)))
    h = residual_graph(g, Matching([(0, 0)]))
    a, b = left_id(g, 0), left_id(g, 1)
    x, y = right_id(g, 0), right_id(g, 1)
    assert edge_pairs(h) == {(x, a), (S_ID, b), (b, y), (y, T_ID)}
    assert validate_well_structured(h) == []


def test_residual_rejects_invalid_matching():
    g = BipartiteGraph(2, 2, ((0, 0), (0, 1)))
    with pytest.raises(ValueError):
        Matching([(0, 0), (0, 1)])
    with pytest.raises(ValueError):
        residual_graph(g, Matching([(1, 0)]))  # pair is not an edge


def test_augment_single_path():
    g = BipartiteGraph(1, 1, ((0, 0),))
    m = augment(g, Matching(), [[S_ID, left_id(g, 0), right_id(g, 0), T_ID]])
    assert m.pairs == {(0, 0)}


def test_augment_alternating_path():
    # 2x2 complete-ish: edges a-v, u-v, u-b with (u,v) matched;
    # augmenting path s,a,v,u,b,t yields {(a,v),(u,b)}
    g = BipartiteGraph(2, 2, ((0, 0), (1, 0), (1, 1)))
    m0 = Matching([(1, 0)])
    a, u = left_id(g, 0), left_id(g, 1)
    v, b = right_id(g, 0), right_id(g, 1)
    m1 = augment(g, m0, [[S_ID, a, v, u, b, T_ID]])
    assert m1.pairs == {(0, 0), (1, 1)}
    assert len(m1) == 2


def test_augment_empty_is_identity():
    g = BipartiteGraph(2, 2, ((0, 0), (1, 1)))
    m0 = Matching([(0, 0)])
    m1 = augment(g, m0, [])
    assert m1.pairs == m0.pairs


def test_augment_rejects_shared_internal_vertex():
    g = BipartiteGraph(2, 1, ((0, 0), (1, 0)))
    v = right_id(g, 0)
    with pytest.raises(ValueError):
        augment(g, Matching(), [
            [S_ID, left_id(g, 0), v, T_ID],
            [S_ID, left_id(g, 1), v, T_ID],
        ])


def test_augment_rejects_missing_edge():
    g = BipartiteGraph(1, 1, ((0, 0),))
    with pytest.raises(ValueError):
        augment(g, Matching([(0, 0)]), [[S_ID, left_id(g, 0), right_id(g, 0), T_ID]])


def test_validate_flags_bipartite_violation():
    g = BipartiteGraph(2, 1, ((0, 0),))
    h = residual_graph(g, Matching())
    h.add_edge(left_id(g, 0), left_id(g, 1))
    report = validate_well_structured(h)
    assert any("bipartite" in msg for msg in report)


def test_validate_flags_parallel_copy_bound():
    g = BipartiteGraph(1, 1, ((0, 0),))
    h = residual_graph(g, Matching([(0, 0)]))
    u, v = left_id(g, 0), right_id(g, 0)
    h.size_m = 8  # allows at most log2(8)-1 = 2 parallel copies
    for _ in range(4):
        h.add_edge(v, u, special=True)
    report = validate_well_structured(h)
    assert any("parallel copies" in msg for msg in report)


def test_validate_flags_degree_violations():
    g = BipartiteGraph(2, 2, ((0, 0), (1, 1)))
    h = residual_graph(g, Matching([(0, 0), (1, 1)]))
    # second special partner for the same R vertex
    h.add_edge(right_id(g, 0), left_id(g, 1), special=True)
    report = validate_well_structured(h)
    assert any("several partners" in msg or "out-degree" in msg for msg in report)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_augment_accepts_exactly_the_residual_paths(data):
    nl, nr = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    edges = sorted(data.draw(st.sets(st.tuples(st.integers(0, nl - 1),
                                               st.integers(0, nr - 1)))))
    g = BipartiteGraph(nl, nr, tuple(edges))
    pairs, used_l, used_r = [], set(), set()
    for u, v in data.draw(st.permutations(edges)):
        if u not in used_l and v not in used_r and data.draw(st.booleans()):
            pairs.append((u, v))
            used_l.add(u)
            used_r.add(v)
    m = Matching(pairs)
    live = edge_pairs(residual_graph(g, m))
    if data.draw(st.booleans()):
        # a random walk along residual edges, closed at the sink
        path = [S_ID]
        while path[-1] != T_ID:
            options = sorted(v for a, v in live if a == path[-1] and v not in path)
            if not options:
                path.append(T_ID)
                break
            path.append(data.draw(st.sampled_from(options)))
    else:
        # any simple s-t vertex sequence, ids past the right side included
        path = [S_ID] + data.draw(st.lists(st.integers(2, g.n + 2), unique=True,
                                           max_size=g.n)) + [T_ID]
    if all(step in live for step in zip(path, path[1:])):
        assert len(augment(g, m, [path])) == len(m) + 1
    else:
        with pytest.raises(ValueError):
            augment(g, m, [path])


def test_round_trip_augment_keeps_structure():
    rng = random.Random(5)
    for _ in range(25):
        g, m, h = residual_of_random(rng, rng.randint(2, 9), rng.randint(2, 9), 0.4)
        assert validate_well_structured(h) == []
        # find one augmenting path by BFS, if any
        parent = {S_ID: None}
        stack = [S_ID]
        while stack:
            x = stack.pop(0)
            for eid in h.g.out_live(x):
                y = h.g.head[eid]
                if y not in parent:
                    parent[y] = x
                    stack.append(y)
        if T_ID not in parent:
            continue
        path = [T_ID]
        while path[-1] != S_ID:
            path.append(parent[path[-1]])
        path.reverse()
        m2 = augment(g, m, [path])
        h2 = residual_graph(g, m2)
        assert validate_well_structured(h2) == []
        assert len(m2) == len(m) + 1


def test_edge_disjoint_paths_are_internally_vertex_disjoint():
    rng = random.Random(9)
    for _ in range(20):
        g, m, h = residual_of_random(rng, rng.randint(3, 8), rng.randint(3, 8), 0.5)
        # greedily peel edge-disjoint s-t paths
        used = set()
        paths = []
        while True:
            parent = {S_ID: None}
            queue = [S_ID]
            while queue:
                x = queue.pop(0)
                for eid in h.g.out_live(x):
                    if eid in used:
                        continue
                    y = h.g.head[eid]
                    if y not in parent:
                        parent[y] = (x, eid)
                        queue.append(y)
            if T_ID not in parent:
                break
            path = []
            cur = T_ID
            while cur != S_ID:
                prev, eid = parent[cur]
                path.append(eid)
                cur = prev
            used |= set(path)
            verts = [h.g.tail[e] for e in reversed(path)] + [T_ID]
            paths.append(verts)
        internal = [v for p in paths for v in p[1:-1]]
        assert len(internal) == len(set(internal))


def test_delete_vertex_tombstones_incident_edges():
    g = DirectedGraph(3)
    for u, v in [(0, 1), (1, 2), (2, 0), (0, 2)]:
        g.add_edge(u, v)
    g.delete_vertex(0)
    assert g.live_vertices() == [1, 2] and g.live_n == 2
    assert list(g.live_edges()) == [1]  # only 1->2 avoids vertex 0
    assert g.live_m == 1 and g.live_out[2] == 0 and g.live_in[1] == 0
    with pytest.raises(ValueError):
        g.delete_vertex(0)


def test_adjacency_lists_stay_in_id_order():
    rng = random.Random(3)
    g = DirectedGraph(4)
    for _ in range(300):
        live = g.live_vertices()
        roll = rng.random()
        if roll < 0.55 and live:
            g.add_edge(rng.choice(live), rng.choice(live))
        elif roll < 0.7:
            g.add_vertex()
        elif roll < 0.9 and g.live_m:
            g.delete_edge(rng.choice(list(g.live_edges())))
        elif len(live) > 2:
            g.delete_vertex(rng.choice(live))
        for v in range(g.n):
            assert g.out_adj[v] == sorted(g.out_adj[v])
            assert g.in_adj[v] == sorted(g.in_adj[v])
            assert g[v] == [(e, g.head[e]) for e in g.out_live(v)]
    assert g.live_n < g.n and g.live_m < len(g.tail)  # both deletions ran


def test_bfs_tree_order_target_and_depth():
    adj = {0: [("a", 1), ("b", 2)], 1: [("c", 3)], 2: [("d", 3)], 3: [("e", 4)], 4: []}
    full = bfs_tree(0, adj)
    assert full == {0: None, 1: (0, "a"), 2: (0, "b"), 3: (1, "c"), 4: (3, "e")}
    assert tree_path(full, 4) == ([0, 1, 3, 4], ["a", "c", "e"])
    # the order of adj[u] decides parents
    assert bfs_tree(0, {**adj, 0: [("b", 2), ("a", 1)]})[3] == (2, "d")
    # the search stops at the target, before expanding further
    assert set(bfs_tree(0, adj, target=3)) == {0, 1, 2, 3}
    # at most max_depth layers are expanded
    assert set(bfs_tree(0, adj, max_depth=1)) == {0, 1, 2}
    assert bfs_tree(0, adj, max_depth=0) == {0: None}
    # root == target, and an unreachable target
    at_root = bfs_tree(2, adj, target=2)
    assert at_root == {2: None} and tree_path(at_root, 2) == ([2], [])
    assert 0 not in bfs_tree(4, adj, target=0)


def test_bfs_tree_over_a_directed_graph_skips_dead_edges():
    g = DirectedGraph(3)
    for u, v in [(0, 1), (1, 2), (0, 2)]:
        g.add_edge(u, v)
    assert tree_path(bfs_tree(0, g, target=2), 2) == ([0, 2], [2])
    g.delete_edge(2)
    assert tree_path(bfs_tree(0, g, target=2), 2) == ([0, 1, 2], [0, 1])


def test_shortcut_to_simple():
    # a loop 1-2-3-1 is cut out, keeping the edge that leaves the first visit
    assert shortcut_to_simple([0, 1, 2, 3, 1, 4], [10, 11, 12, 13, 14]) == ([0, 1, 4], [10, 14])
    # a repeated vertex with nothing between the visits
    assert shortcut_to_simple([5, 6, 6, 7], [20, 21, 22]) == ([5, 6, 7], [20, 22])
    # a simple path is returned unchanged
    assert shortcut_to_simple([3, 1, 2], [30, 31]) == ([3, 1, 2], [30, 31])
    assert shortcut_to_simple([9], []) == ([9], [])


def test_graph_text_round_trip():
    g = BipartiteGraph(3, 2, ((0, 0), (1, 1), (2, 0)))
    text = write_graph_text(g)
    g2 = parse_graph_text(text)
    assert g2.n_left == 3 and g2.n_right == 2
    assert set(g2.edges) == set(g.edges)


def test_graph_text_comments_and_errors():
    ok = "c hello\np bm 2 2 1\ne 1 2\n"
    g = parse_graph_text(ok)
    assert g.edges == ((0, 1),)
    for bad in ("e 1 1\np bm 1 1 1\n",          # edge before problem line
                "p bm 1 1 1\ne 2 1\n",          # out of range
                "p bm 1 1 2\ne 1 1\n",          # declared count mismatch
                "q zz\n"):
        with pytest.raises(ValueError):
            parse_graph_text(bad)
