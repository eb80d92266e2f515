import dataclasses
import random
from collections import Counter

import pytest

from bipmatch import expander_tools
from bipmatch.constants import log2c
from bipmatch.expander_tools import (Cut, ball_grow, chain_to_balanced,
                                     construct_expander, cut_player, embed_or_cut,
                                     matching_player, sparse_to_well_structured)
from bipmatch.graph_core import CoreGraph, DirectedGraph
from bipmatch.oracles import enumerate_all_cuts_sparsity
from conftest import random_core, recount_core_cut


def recount(edges, cut: Cut) -> int:
    a, b = set(cut.a), set(cut.b)
    return sum(1 for u, v in edges if u in a and v in b)


def graph_of(n, edges) -> DirectedGraph:
    return DirectedGraph(n, [u for u, _ in edges], [v for _, v in edges])


def degree_max(edges) -> int:
    """Largest in+out degree over the edge list."""
    deg = Counter(v for edge in edges for v in edge)
    return max(deg.values())


# ------------------------------------------------------------- construction

def test_expander_n2_is_bidirected_pair(cnst):
    g = construct_expander(2, cnst)
    pairs = {(g.tail[e], g.head[e]) for e in g.live_edges()}
    assert pairs == {(0, 1), (1, 0)}


def test_expander_n9_is_bidirected_base(cnst):
    g = construct_expander(9, cnst)
    pairs = {(g.tail[e], g.head[e]) for e in g.live_edges()}
    assert all((v, u) in pairs for u, v in pairs)
    assert g.live_m == len(g.tail)  # no deleted edges: lists are degrees
    assert all(len(g.out_adj[v]) <= 8 and len(g.in_adj[v]) <= 8 for v in range(9))
    assert enumerate_all_cuts_sparsity(g) >= cnst.alpha0


def test_expander_n7_expansion_exhaustive(cnst):
    g = construct_expander(7, cnst)
    assert enumerate_all_cuts_sparsity(g) >= cnst.alpha0


def test_expander_range_expansion_and_degree(cnst):
    for n in range(2, 15):
        g = construct_expander(n, cnst)
        assert enumerate_all_cuts_sparsity(g) >= cnst.alpha0
        assert g.live_m == len(g.tail)  # no deleted edges: lists are degrees
        for v in range(n):
            assert len(g.out_adj[v]) <= cnst.degree_bound
            assert len(g.in_adj[v]) <= cnst.degree_bound


def test_expander_rejects_tiny(cnst):
    with pytest.raises(ValueError):
        construct_expander(1, cnst)


# ------------------------------------------------------------- ball growing

def _bidirect(edges):
    return edges + [(v, u) for u, v in edges]


def test_ball_grow_separates_cliques(cnst):
    k, plen = 6, 20
    edges = []
    for base in (0, k + plen):
        for u in range(k):
            for v in range(k):
                if u != v:
                    edges.append((base + u, base + v))
    # directed path from clique 1 into clique 2
    chain = [0] + [k + i for i in range(plen)] + [k + plen]
    for a, b in zip(chain, chain[1:]):
        edges.append((a, b))
    n = 2 * k + plen
    d = 16
    cut = ball_grow(graph_of(n, edges), range(n), x=1, y=k + plen + 1, d=d, cnst=cnst)
    phi = cnst.ball_coeff * degree_max(edges) * log2c(n) / d
    assert recount(edges, cut) == cut.crossing
    assert cut.crossing <= phi * cut.min_side()
    a_set = set(cut.a)
    assert (1 in a_set) != (k + plen + 1 in a_set)


def test_ball_grow_rejects_equal_endpoints(cnst):
    with pytest.raises(ValueError):
        ball_grow(graph_of(2, [(0, 1)]), [0, 1], 0, 0, 8, cnst)


def test_ball_grow_layered_dag(cnst):
    rng = random.Random(4)
    layers = 14
    width = 3
    edges = []
    for l in range(layers - 1):
        for i in range(width):
            for j in range(width):
                if rng.random() < 0.7:
                    edges.append((l * width + i, (l + 1) * width + j))
    n = layers * width
    d = 10
    cut = ball_grow(graph_of(n, edges), range(n), 0, n - 1, d, cnst)
    phi = cnst.ball_coeff * degree_max(edges) * log2c(n) / d
    assert recount(edges, cut) == cut.crossing
    assert cut.crossing <= phi * cut.min_side()


# ------------------------------------------------------------- cut chaining

def test_chain_edgeless_singletons():
    n = 12
    clusters = [[v] for v in range(n)]
    cut = chain_to_balanced([], clusters, 0.0)
    assert cut.crossing == 0
    assert cut.min_side() >= n / 4


def test_chain_two_halves_no_cross():
    n = 8
    clusters = [list(range(4)), list(range(4, 8))]
    cut = chain_to_balanced([], clusters, 0.0)
    assert cut.crossing == 0
    assert len(cut.a) == len(cut.b) == 4


def test_chain_puts_a_cluster_sparse_only_backward_first():
    # X_0 = {0, 1} sends 3 edges into the suffix, over its budget of 1, but
    # receives none, so it goes on the left of the order and the cut is
    # (suffix, X_0), crossed by nothing
    edges = [(0, 2), (0, 3), (1, 2)]
    cut = chain_to_balanced(edges, [[0, 1], [2, 3]], 1)
    assert (cut.a, cut.b, cut.crossing) == ([2, 3], [0, 1], 0)
    assert recount(edges, cut) == cut.crossing
    assert len(cut.a) == len(cut.b) == 2


def test_chain_randomized_bounds():
    rng = random.Random(6)
    phi = 0.1
    sizes = [rng.randint(2, 12) for _ in range(7)]
    clusters = []
    base = 0
    for sz in sizes:
        clusters.append(list(range(base, base + sz)))
        base += sz
    n = base
    owner = {v: i for i, cl in enumerate(clusters) for v in cl}
    edges = []
    # suffix -> X_i edges are free; X_i -> suffix edges capped at phi*|X_i|
    for i, cl in enumerate(clusters[:-1]):
        budget = int(phi * len(cl))
        later = [v for j in range(i + 1, len(clusters)) for v in clusters[j]]
        for _ in range(budget):
            edges.append((rng.choice(cl), rng.choice(later)))
        for _ in range(rng.randint(0, 10)):
            edges.append((rng.choice(later), rng.choice(cl)))
    cut = chain_to_balanced(edges, clusters, phi)
    assert recount(edges, cut) == cut.crossing
    assert cut.crossing <= phi * sum(sizes[:-1]) + 1e-9
    alpha = max(sizes) / n
    assert cut.min_side() >= min((1 - alpha) / 2 * n, n / 4) - 1e-9


def test_chain_rejects_dense_cluster():
    clusters = [[0], [1]]
    edges = [(0, 1), (1, 0)]
    with pytest.raises(ValueError):
        chain_to_balanced(edges, clusters, 0.0)


# ---------------------------------------------- well-structured conversion

def _two_block_core():
    # A-block: l0, r0; B-block: l1, r1; one regular edge l0 -> r1 crossing
    side = ["L", "L", "R", "R"]
    core = CoreGraph(4, side)
    core.add_edge(2, 0)  # special r0 -> l0
    core.add_edge(0, 3)  # regular l0 -> r1 (the crossing edge)
    core.add_edge(3, 1)  # special r1 -> l1
    return core


def test_sparse_to_ws_already_structured(cnst):
    # pad the A side with isolated vertices so the input sparsity is <= 1/4
    side = ["L", "L", "R", "R"] + ["L"] * 4 + ["R"]
    core = CoreGraph(9, side)
    core.add_edge(2, 0)  # special r0 -> l0
    core.add_edge(0, 3)  # regular l0 -> r1
    core.add_edge(3, 1)  # special r1 -> l1
    cut = Cut(a=[2, 4, 5, 6, 7], b=[0, 1, 3, 8], crossing=1)  # crossed by (2,0) only
    ws = sparse_to_well_structured(core, cut)
    assert set(ws.a) == {2, 4, 5, 6, 7} and set(ws.b) == {0, 1, 3, 8}
    crossing, special = recount_core_cut(core, ws.a, ws.b)
    assert crossing == ws.crossing == 1 and special


def test_sparse_to_ws_moves_regular_tail(cnst):
    # pad both sides so the input cut is 1/4-sparse
    side = ["L", "L", "R", "R"] + ["L", "R"] * 3
    core = CoreGraph(10, side)
    core.add_edge(2, 0)  # special r0 -> l0
    core.add_edge(0, 3)  # regular l0 -> r1 (the crossing edge)
    core.add_edge(3, 1)  # special r1 -> l1
    a_side = [0, 2, 4, 5, 6, 7]
    b_side = [1, 3, 8, 9]
    cut = Cut(a=a_side, b=b_side, crossing=1)  # crossed by regular (0,3)
    ws = sparse_to_well_structured(core, cut)
    assert 0 in ws.b  # the tail moved
    crossing, special = recount_core_cut(core, ws.a, ws.b)
    assert special and crossing == ws.crossing == 1  # only special (2,0) remains
    assert ws.crossing <= 2 * cut.sparsity() * ws.min_side() + 1e-9


def test_sparse_to_ws_rejects_dense(cnst):
    core = _two_block_core()
    cut = Cut(a=[0], b=[1, 2, 3], crossing=1)
    with pytest.raises(ValueError):
        sparse_to_well_structured(core, cut)


def test_sparse_to_ws_random(cnst):
    rng = random.Random(8)
    for _ in range(10):
        core = random_core(rng, 12, 12, 0.06, match_frac=0.8)
        # a random cut of sparsity <= 0.2, engineered by taking matched pairs
        pairs = [(core.tail[e], core.head[e]) for e in core.live_edges()
                 if core.is_special(e)]
        if len(pairs) < 6:
            continue
        chosen = pairs[: len(pairs) // 2]
        a_side = sorted({v for p in chosen for v in p})
        b_side = sorted(set(range(core.n)) - set(a_side))
        crossing, _ = recount_core_cut(core, a_side, b_side)
        cut = Cut(a_side, b_side, crossing)
        if cut.sparsity() > 0.2:
            continue
        ws = sparse_to_well_structured(core, cut)
        re_crossing, special = recount_core_cut(core, ws.a, ws.b)
        assert special and re_crossing == ws.crossing
        assert ws.crossing <= max(2 * cut.sparsity(), 1e-12) * ws.min_side() + 1e-9


# ------------------------------------------------------------ matching player

def test_matching_player_direct_matching(cnst):
    k = 8
    side = ["L"] * k + ["R"] * k
    core = CoreGraph(2 * k, side)
    for i in range(k):
        core.add_edge(i, k + i)
    kind, res = matching_player(core, list(range(k)), list(range(k, 2 * k)),
                                d_prime=4, z=1, cnst=cnst)
    assert kind == "paths"
    assert len(res.paths) == k
    assert all(len(vs) == 2 for vs, _ in res.paths)


def test_matching_player_edgeless_cut(cnst):
    k = 8
    side = ["L"] * k + ["R"] * k
    core = CoreGraph(2 * k, side)
    kind, res = matching_player(core, list(range(k)), list(range(k, 2 * k)),
                                d_prime=4, z=2, cnst=cnst)
    assert kind == "cut"
    assert res.crossing == 0
    assert len(res.a) >= 2 and len(res.b) >= 2


def test_matching_player_random_postconditions(cnst):
    rng = random.Random(12)
    for trial in range(8):
        core = random_core(rng, 10, 10, rng.choice([0.1, 0.3]), match_frac=0.9)
        live = core.live_vertices()
        rng.shuffle(live)
        half = len(live) // 2
        a, b = sorted(live[:half]), sorted(live[half:2 * half])
        d_prime = rng.choice([4, 8])
        z = rng.randint(1, 3)
        kind, res = matching_player(core, a, b, d_prime, z, cnst)
        n_game = 2 * half
        if kind == "paths":
            assert len(res.paths) >= half - z
            starts = [vs[0] for vs, _ in res.paths]
            ends = [vs[-1] for vs, _ in res.paths]
            assert len(set(starts)) == len(starts) and len(set(ends)) == len(ends)
            usage = {}
            for vs, eids in res.paths:
                assert len(vs) - 1 == len(eids) <= 2 * d_prime + 1
                for eid, (x, y) in zip(eids, zip(vs, vs[1:])):
                    assert core.tail[eid] == x and core.head[eid] == y
                    usage[eid] = usage.get(eid, 0) + 1
            assert max(usage.values(), default=0) <= cnst.matching_congestion_cap(d_prime)
        else:
            edges = [(core.tail[e], core.head[e]) for e in core.live_edges()
                     if core.tail[e] in set(res.a) | set(res.b)
                     and core.head[e] in set(res.a) | set(res.b)]
            assert recount(edges, res) == res.crossing
            assert res.crossing <= 2 * n_game / d_prime
            assert len(res.a) >= z and len(res.b) >= z


def bottleneck_core(k):
    """a_0..a_{k-1} -> r -> l -> b_0..b_{k-1}: every route from A to B takes
    the one special edge r -> l.  L is a_0..a_{k-1}, l; R is r, b_0..b_{k-1}."""
    l_node, r_node = k, k + 1
    core = CoreGraph(2 * k + 2, ["L"] * (k + 1) + ["R"] * (k + 1))
    for a in range(k):
        core.add_edge(a, r_node)
    core.add_edge(r_node, l_node)
    for b in range(k + 2, 2 * k + 2):
        core.add_edge(l_node, b)
    return core, list(range(k)), list(range(k + 2, 2 * k + 2))


def test_matching_player_runs_out_the_top_copy(cnst, monkeypatch):
    # d'=4 gives q=2: the special edge carries d' copies at each of the levels
    # 0..q in turn, so d'(q+1) = 12 routes use it up.  The tree holds one edge
    # per core, source and sink edge, raised in place while a level lasts.
    sizes = []

    class SizedTree(expander_tools.EsTree):
        def __init__(self, g, root, depth):
            sizes.append(len(g.tail))
            super().__init__(g, root, depth)

    monkeypatch.setattr(expander_tools, "EsTree", SizedTree)
    core, a, b = bottleneck_core(13)
    kind, res = matching_player(core, a, b, d_prime=4, z=1, cnst=cnst)
    assert kind == "paths"
    assert len(res.paths) == 12 and res.congestion == 12
    assert sizes == [13 + 1 + 13 + 13 + 13]
    core, a, b = bottleneck_core(16)
    kind, res = matching_player(core, a, b, d_prime=4, z=1, cnst=cnst)
    assert kind == "cut"
    assert res.a == [12, 13, 14, 15, 17] and res.crossing == 1


def test_matching_player_source_edge_dies_with_the_top_copy(cnst):
    # r is in A and routed last, on the route that runs out the top copy: its
    # source edge is both a routed endpoint's and a mirror of r -> l, and is
    # deleted once
    core, a, b = bottleneck_core(12)
    kind, res = matching_player(core, a[:11] + [13], b, d_prime=4, z=1, cnst=cnst)
    assert kind == "paths"
    assert [vs[0] for vs, _ in res.paths] == a[:11] + [13]


# ----------------------------------------------------------------- cut player

def verify_w_embedding(vertices, w_edges, payload):
    exp_vertices, exp_edges, fake, paths = payload
    for idx, (u, v) in enumerate(exp_edges):
        if idx in fake:
            continue
        wids = paths[idx]
        cur = u
        for wid in wids:
            a, b = w_edges[wid]
            assert a == cur
            cur = b
        assert cur == v


def test_cut_player_edgeless(cnst):
    n = 40
    kind, payload = cut_player(list(range(n)), [], cnst)
    assert kind == "cut"
    assert payload.crossing == 0
    assert payload.min_side() >= n / 10


def test_cut_player_on_expander_embeds(cnst):
    n = 32
    exp = construct_expander(n, cnst)
    w_edges = [(exp.tail[e], exp.head[e]) for e in exp.live_edges()]
    kind, payload = cut_player(list(range(n)), w_edges, cnst)
    assert kind == "embed"
    verify_w_embedding(list(range(n)), w_edges, payload)
    assert len(payload[0]) >= n / 4


def test_cut_player_disjoint_expanders_cut(cnst):
    # components all below n/4, so no quarter of W is connected: cut branch
    k, parts = 6, 8
    exp = construct_expander(k, cnst)
    w_edges = []
    for p in range(parts):
        w_edges += [(p * k + exp.tail[e], p * k + exp.head[e])
                    for e in exp.live_edges()]
    n = parts * k
    kind, payload = cut_player(list(range(n)), w_edges, cnst)
    assert kind == "cut"
    assert payload.crossing <= n / 100
    assert payload.min_side() >= n / 10
    assert recount(w_edges, payload) == payload.crossing


# --------------------------------------------------------------- embed or cut

def test_embed_or_cut_edgeless(cnst):
    side = ["L"] * 10 + ["R"] * 10
    core = CoreGraph(20, side)
    kind, payload = embed_or_cut(core, 4, cnst)
    assert kind == "cut"
    assert payload.crossing == 0
    assert payload.min_side() >= cnst.matching_z(20)


def test_embed_or_cut_dense_embeds(cnst):
    rng = random.Random(3)
    core = random_core(rng, 16, 16, 0.5, match_frac=1.0)
    kind, payload = embed_or_cut(core, 6, cnst)
    assert kind == "embed"
    assert payload.verify(core) == []
    assert len(payload.vertices) >= core.live_n // 8


def test_embed_or_cut_odd_vertex_count(cnst):
    rng = random.Random(5)
    core = random_core(rng, 11, 10, 0.02, match_frac=0.3)
    assert core.live_n % 2 == 1
    kind, payload = embed_or_cut(core, 8, cnst)
    if kind == "cut":
        assert payload.crossing <= 2 * (core.live_n - 1) / 8 + 1
        edges = [(core.tail[e], core.head[e]) for e in core.live_edges()]
        assert recount(edges, payload) == payload.crossing
        assert sorted(payload.a + payload.b) == core.live_vertices()
    else:
        assert payload.verify(core) == []


@pytest.mark.parametrize("seed, embeds", [(0, True), (7, False)])
def test_embed_or_cut_relaxed_last_round(monkeypatch, cnst, seed, embeds):
    # with c_cmg tiny the game has 2 rounds; when both end with neither an
    # embedding nor a cut, the inner cut player runs once more without
    # length or congestion caps, and a cut from it is a failure
    cnst = dataclasses.replace(cnst, c_cmg=1e-9)
    core = random_core(random.Random(seed), 8, 8, 0.4)
    assert cnst.cmg_rounds(core.live_n) == 2
    calls = []
    inner = expander_tools.cut_player_inner

    def spy(vertices, w_edges, cnst, relaxed=False):
        calls.append(relaxed)
        return inner(vertices, w_edges, cnst, relaxed=relaxed)

    monkeypatch.setattr(expander_tools, "cut_player_inner", spy)
    if embeds:
        kind, payload = embed_or_cut(core, 4, cnst)
        assert kind == "embed" and payload.rounds_played == 2
        assert len(payload.vertices) == 16
        assert payload.verify(core) == []
    else:
        with pytest.raises(RuntimeError, match="did not converge"):
            embed_or_cut(core, 4, cnst)
    assert calls[-1] is True and calls.count(True) == 1


def test_embed_or_cut_cuts_are_crossed_only_by_special_edges(cnst):
    # cluster maintenance emits these cuts as they come, which is sound only
    # because no regular edge crosses them: the matching player's threshold
    # cut gives regular edges length 0, and the odd vertex of an odd live
    # count is put on the side where its crossing edges are special
    rng = random.Random(25)
    cuts = odd_cuts = 0
    for _ in range(200):
        nl, nr = rng.randint(3, 24), rng.randint(3, 24)
        core = random_core(rng, nl, nr, rng.choice([0.05, 0.15, 0.3, 0.5]),
                           match_frac=rng.choice([0.5, 0.8, 1.0]))
        for v in rng.sample(range(nl + nr), rng.randint(0, (nl + nr) // 4)):
            core.delete_vertex(v)
        kind, payload = embed_or_cut(core, rng.randint(4, 2 * core.live_n), cnst)
        if kind == "cut":
            cuts += 1
            odd_cuts += core.live_n % 2
            assert recount_core_cut(core, payload.a, payload.b) == (payload.crossing, True)
    assert cuts >= 150 and odd_cuts >= 50
