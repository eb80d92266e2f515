import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipmatch.graph_core import (BipartiteGraph, DirectedGraph, Matching,
                                 S_ID, T_ID, augment, bfs_tree, dijkstra_tree,
                                 parse_graph_text, residual_graph,
                                 shortcut_to_simple, tree_path, validate_well_structured,
                                 write_graph_text)
from bipmatch.oracles import dijkstra
from conftest import left_id, residual_of_random, right_id


def edge_pairs(h):
    return {(h.tail[e], h.head[e]) for e in h.live_edges()}


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
    (eid,) = h.live_edges()
    assert h.is_right(h.tail[eid]) and h.is_left(h.head[eid])  # special: R->L


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
    # the hop r0->l1 needs (1,0) matched, but r0 and l1 are matched elsewhere;
    # every other arc is in the residual graph
    g = BipartiteGraph(3, 3, ((0, 0), (1, 1), (1, 2), (2, 0)))
    with pytest.raises(ValueError):
        augment(g, Matching([(1, 2), (2, 0)]),
                [[S_ID, left_id(g, 0), right_id(g, 0), left_id(g, 1), right_id(g, 1), T_ID]])


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
    for _ in range(4):
        h.add_edge(v, u)
    # m = live_m = 5 allows at most log2c(5)-1 = 2 parallel copies
    report = validate_well_structured(h)
    assert any("parallel copies" in msg for msg in report)


def test_validate_flags_degree_violations():
    g = BipartiteGraph(2, 2, ((0, 0), (1, 1)))
    h = residual_graph(g, Matching([(0, 0), (1, 1)]))
    # second special partner for the same R vertex
    h.add_edge(right_id(g, 0), left_id(g, 1))
    report = validate_well_structured(h)
    assert any("out-degree" in msg for msg in report)


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
    before = m.pairs
    if all(step in live for step in zip(path, path[1:])):
        assert len(augment(g, m, [path])) == len(m) + 1
    else:
        with pytest.raises(ValueError):
            augment(g, m, [path])
    assert m.pairs == before  # augment returns a new matching either way


def core_pairs(g, h, tail_side, head_side):
    """(left, right) index pairs of h's live edges from tail_side to
    head_side, each "L" or "R", in edge id order."""
    side = {"L": h.is_left, "R": h.is_right}
    pairs = []
    for eid in h.live_edges():
        u, v = h.tail[eid], h.head[eid]
        if side[tail_side](u) and side[head_side](v):
            left, right = (u, v) if tail_side == "L" else (v, u)
            pairs.append((left - 2, right - 2 - g.n_left))
    return pairs


def test_round_trip_augment_keeps_structure():
    rng = random.Random(5)
    for _ in range(25):
        g, m, h = residual_of_random(rng, rng.randint(2, 9), rng.randint(2, 9), 0.4)
        assert validate_well_structured(h) == []
        # the special (R->L) edges are exactly the matched pairs, reversed,
        # and every L->R edge is an unmatched graph edge
        assert sorted(core_pairs(g, h, "R", "L")) == sorted(m.pairs)
        assert all(p in g.edge_set and p not in m for p in core_pairs(g, h, "L", "R"))
        # find one augmenting path by BFS, if any
        parent = {S_ID: None}
        stack = [S_ID]
        while stack:
            x = stack.pop(0)
            for eid in h.out_live(x):
                y = h.head[eid]
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
                for eid in h.out_live(x):
                    if eid in used:
                        continue
                    y = h.head[eid]
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
            verts = [h.tail[e] for e in reversed(path)] + [T_ID]
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
    assert g.live_m == 1
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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bulk_built_graph_equals_one_edge_at_a_time(data):
    n = data.draw(st.integers(1, 8))
    arcs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                        st.integers(1, 9)), max_size=30))
    with_lengths = data.draw(st.booleans())  # else every arc gets length 1
    bulk = DirectedGraph(n, [u for u, _, _ in arcs], [v for _, v, _ in arcs],
                         [ln for _, _, ln in arcs] if with_lengths else None)
    one_by_one = DirectedGraph(n)
    for u, v, ln in arcs:
        one_by_one.add_edge(u, v, ln if with_lengths else 1)
    assert vars(bulk) == vars(one_by_one)
    # a second batch, with weights, appended to the graph as it now is
    more = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                        st.integers(1, 9), st.integers(1, 4)), max_size=30))
    ids = bulk.add_edges([u for u, _, _, _ in more], [v for _, v, _, _ in more],
                         [ln for _, _, ln, _ in more], [w for _, _, _, w in more])
    assert list(ids) == [one_by_one.add_edge(u, v, ln, w) for u, v, ln, w in more]
    assert vars(bulk) == vars(one_by_one)
    with pytest.raises(ValueError):
        DirectedGraph(n, [0], [0], [0])
    with pytest.raises(ValueError):
        bulk.add_edges([0, 0], [0, 0], [1, 0])
    assert vars(bulk) == vars(one_by_one)  # a rejected batch adds nothing


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


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_dijkstra_tree_matches_the_oracle_with_smallest_id_parents(data):
    n = data.draw(st.integers(1, 6))
    g = DirectedGraph(n)
    # lengths 1..2 make equal-length ties common
    for u, v, ln in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                                 st.integers(1, 2)), max_size=30)):
        g.add_edge(u, v, ln)
    for eid in data.draw(st.sets(st.integers(0, max(0, len(g.tail) - 1)),
                                 max_size=len(g.tail) // 3)):
        g.delete_edge(eid)
    root = data.draw(st.integers(0, n - 1))
    bound = data.draw(st.none() | st.integers(0, 8))
    dist, parent, scans = dijkstra_tree(g, root, g.length, bound)
    exact = dijkstra(g, root)
    for v in range(n):
        if exact[v] < math.inf and (bound is None or exact[v] <= bound):
            assert dist[v] == exact[v]
        else:
            assert dist[v] is math.inf
        if v == root or dist[v] is math.inf:
            assert parent[v] is None
        else:
            tight = [e for e in g.in_live(v) if dist[g.tail[e]] + g.length[e] == dist[v]]
            assert parent[v] == min(tight)
    assert scans == sum(len(g.out_adj[v]) for v in range(n) if dist[v] is not math.inf)


def test_dijkstra_tree_parent_is_the_smallest_tight_edge():
    g = DirectedGraph(3)
    for u, v, ln in [(1, 2, 1), (0, 1, 1), (0, 2, 2)]:
        g.add_edge(u, v, ln)
    # edge 2 reaches vertex 2 first, edge 0 ties it later with a smaller id
    assert dijkstra_tree(g, 0, g.length) == ([0, 1, 2], [None, 1, 0], 3)
    assert dijkstra_tree(g, 0, g.length, bound=1) == ([0, 1, math.inf], [None, 1, None], 3)


def test_shortcut_to_simple():
    # a loop 1-2-3-1 is cut out, keeping the edge that leaves the first visit
    assert shortcut_to_simple([([0, 1, 2, 3, 1, 4], [10, 11, 12, 13, 14])]) == \
        ([0, 1, 4], [10, 14])
    # a repeated vertex with nothing between the visits
    assert shortcut_to_simple([([5, 6, 6, 7], [20, 21, 22])]) == ([5, 6, 7], [20, 22])
    # a simple path is returned unchanged
    assert shortcut_to_simple([([3, 1, 2], [30, 31])]) == ([3, 1, 2], [30, 31])
    assert shortcut_to_simple([([9], [])]) == ([9], [])
    # segments that meet are joined, and a loop across the seam is cut out
    assert shortcut_to_simple([([0, 1, 2], [10, 11]), ([2], []), ([2, 3, 1, 4], [12, 13, 14])]) == \
        ([0, 1, 4], [10, 14])
    # segments that do not meet are no walk
    with pytest.raises(ValueError):
        shortcut_to_simple([([0, 1], [10]), ([2, 3], [11])])


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
    for bad, where in (("p bm -3 2 0\n", "line 1:"),            # negative side size
                       ("c x\np bm 2 -1 0\n", "line 2:"),
                       ("p bm 2 2 1\ne 1 1\np bm 3 3 1\n", "line 3:"),  # second p line
                       ("c x\np bm 2 2 x\n", "line 2: non-integer"),
                       ("p bm 2 2 2\ne 2 1\ne 2 1\n", r"line 3: duplicate edge \(2,1\)")):
        with pytest.raises(ValueError, match=where):
            parse_graph_text(bad)
    with pytest.raises(ValueError):
        BipartiteGraph(-1, 2, ())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_graph_text_round_trip_property(data):
    # empty sides and isolated vertices survive parse -> write -> parse
    n_left = data.draw(st.integers(0, 6))
    n_right = data.draw(st.integers(0, 6))
    cells = [(u, v) for u in range(n_left) for v in range(n_right)]
    edges = tuple(data.draw(st.permutations(cells))[:data.draw(st.integers(0, len(cells)))])
    lines = write_graph_text(BipartiteGraph(n_left, n_right, edges)).splitlines()
    at = data.draw(st.integers(0, len(lines)))
    text = "\n".join(lines[:at] + ["c comment", ""] + lines[at:]) + "\n"
    g = parse_graph_text(text)
    assert (g.n_left, g.n_right, g.edges) == (n_left, n_right, edges)
    assert parse_graph_text(write_graph_text(g)) == g
