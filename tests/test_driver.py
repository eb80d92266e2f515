import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipmatch import driver
from bipmatch.constants import Constants, log2c
from bipmatch.cli import generate
from bipmatch.driver import (DriverConfig, disjoint_paths, max_matching,
                             round_to_disjoint)
from bipmatch.graph_core import (BipartiteGraph, DirectedGraph, Matching, S_ID,
                                 T_ID, WellStructuredGraph, augment, bfs_tree,
                                 residual_graph, tree_path)
from bipmatch.maintain_cluster import ClusterContractError
from bipmatch.mwu import mwu_run
from bipmatch.oracles import hopcroft_karp
from bipmatch.restricted_sssp import RestrictedSssp
from conftest import random_bipartite, random_matching


def test_empty_graph():
    g = BipartiteGraph(3, 3, ())
    m, rep = max_matching(g)
    assert len(m) == 0


def test_complete_bipartite():
    for k in (1, 4, 9):
        g = BipartiteGraph(k, k, tuple((u, v) for u in range(k) for v in range(k)))
        m, rep = max_matching(g)
        assert len(m) == k
        m.validate(g)


def test_exactness_on_random_instances():
    rng = random.Random(17)
    for trial in range(40):
        nl, nr = rng.randint(1, 16), rng.randint(1, 16)
        g = random_bipartite(rng, nl, nr, rng.choice([0.1, 0.3, 0.7]))
        want = len(hopcroft_karp(g)[0])
        for backend in ("reference", "full"):
            got, _ = max_matching(g, DriverConfig(backend=backend))
            assert len(got) == want


def test_target_mode_stops_early():
    g = BipartiteGraph(6, 6, tuple((u, v) for u in range(6) for v in range(6)))
    m, rep = max_matching(g, DriverConfig(target=3))
    assert len(m) == 3


def test_round_to_disjoint_identity_on_disjoint_input():
    g = BipartiteGraph(4, 4, tuple((i, i) for i in range(4)))
    h = residual_graph(g, Matching())
    paths = []
    for i in range(4):
        eids = [e for e in h.live_edges()
                if i + 2 in (h.tail[e], h.head[e])
                or (h.tail[e] == 6 + i or h.head[e] == 6 + i)]
        # collect the 3-edge route s -> l_i -> r_i -> t
        eids = sorted(set(eids))
        paths.append(eids)
    out = round_to_disjoint(h, paths)
    assert len(out) == 4
    assert all(p[0] == S_ID and p[-1] == T_ID for p in out)


def test_round_to_disjoint_shared_edge():
    # two paths sharing the middle edge: at least one disjoint path survives
    g = BipartiteGraph(1, 1, ((0, 0),))
    h = residual_graph(g, Matching())
    all_edges = sorted(h.live_edges())
    out = round_to_disjoint(h, [all_edges, all_edges])
    assert len(out) >= 1


def test_round_to_disjoint_on_mwu_output(cnst):
    rng = random.Random(23)
    g = random_bipartite(rng, 60, 60, 0.15)
    h = residual_graph(g, Matching())
    delta = 60
    result = mwu_run(h, delta=delta, backend="reference", cnst=cnst)
    out = round_to_disjoint(h, result.paths)
    assert len(out) >= math.ceil(len(result.paths) / log2c(result.m))
    internal = [v for p in out for v in p[1:-1]]
    assert len(internal) == len(set(internal))


def test_disjoint_paths_reach_the_maximum_matching():
    rng = random.Random(5)
    for trial in range(60):
        nl, nr = rng.randint(1, 12), rng.randint(1, 12)
        g = random_bipartite(rng, nl, nr, rng.choice([0.1, 0.3, 0.6]))
        full, _ = hopcroft_karp(g)
        partial = Matching(p for p in sorted(full.pairs) if rng.random() < 0.5)
        h = residual_graph(g, partial)
        paths = disjoint_paths(h)
        assert len(paths) == len(full) - len(partial)
        internal = [v for p in paths for v in p[1:-1]]
        assert len(internal) == len(set(internal))
        assert len(augment(g, partial, paths)) == len(full)


def test_disjoint_paths_follows_one_long_augmenting_path():
    # the reversed-label long path of the benchmark: one augmenting path
    # through every vertex, with 1500 pairs
    k = 1500
    edges = [(k - 1 - i, i) for i in range(k)] + [(k - 1 - i, i - 1) for i in range(1, k)]
    g = BipartiteGraph(k, k, tuple(edges))
    partial = Matching((k - 1 - i, i - 1) for i in range(1, k))
    h = residual_graph(g, partial)
    paths = disjoint_paths(h)
    assert len(paths) == 1 and len(paths[0]) == 2 * k + 2
    assert len(augment(g, partial, paths)) == k


class FlowArcs:
    """adj[u] of the residual network of a unit flow over some edges of g:
    flow-free edges forward in id order, then flow edges backward in id order."""

    def __init__(self, g, flow):
        self.g = g
        self.flow = flow

    def __getitem__(self, u):
        g, flow = self.g, self.flow
        return ([(e, g.head[e]) for e in g.out_adj[u] if flow[e] == 0]
                + [(e, g.tail[e]) for e in g.in_adj[u] if flow[e] == 1])


def bfs_tree_disjoint_paths(h, eids):
    """disjoint_paths as one bfs_tree over FlowArcs per augmentation, with
    the same flow decomposition: the oracle for disjoint_paths' own BFS."""
    flow = [-1] * len(h.tail)
    for eid in eids:
        flow[eid] = 0
    while True:
        parent = bfs_tree(S_ID, FlowArcs(h, flow), target=T_ID)
        if T_ID not in parent:
            break
        for eid in tree_path(parent, T_ID)[1]:
            flow[eid] ^= 1
    remaining = {}
    for eid, f in enumerate(flow):
        if f == 1:
            remaining.setdefault(h.tail[eid], []).append(eid)
    paths = []
    while remaining.get(S_ID):
        verts = [S_ID]
        while verts[-1] != T_ID:
            eid = remaining[verts[-1]].pop(0)
            if not remaining[verts[-1]]:
                del remaining[verts[-1]]
            verts.append(h.head[eid])
        paths.append(verts)
    return paths


def offered_subgraph(h, eids):
    """The edges eids of h as a graph of their own, in increasing id order,
    as round_to_disjoint hands them to disjoint_paths."""
    support = sorted(set(eids))
    return DirectedGraph(h.n, [h.tail[e] for e in support], [h.head[e] for e in support])


def random_st_path(rng, g):
    """Edge ids of a random walk from s that visits no vertex twice, if it
    ends at t; else None."""
    verts, eids = {S_ID}, []
    u = S_ID
    while u != T_ID:
        steps = [e for e in g.out_live(u) if g.head[e] not in verts]
        if not steps:
            return None
        eid = rng.choice(steps)
        eids.append(eid)
        u = g.head[eid]
        verts.add(u)
    return eids


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_disjoint_paths_matches_the_bfs_tree_oracle(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    nl, nr = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
    g = random_bipartite(rng, nl, nr, data.draw(st.floats(0.05, 1.0)))
    h = residual_graph(g, random_matching(rng, g, data.draw(st.floats(0.0, 1.0))))
    drop = data.draw(st.sampled_from([0.0, 0.1, 0.3]))
    for eid in list(h.live_edges()):
        if rng.random() < drop:
            h.delete_edge(eid)
    shape = data.draw(st.sampled_from(["subset", "paths", "all"]))
    if shape == "subset":
        offered = [e for e in h.live_edges() if rng.random() < 0.7]
        rng.shuffle(offered)
    elif shape == "paths":
        # as round_to_disjoint offers them: the support of a path collection
        # in first-use order, with the edges the paths share
        walks = [random_st_path(rng, h) for _ in range(data.draw(st.integers(1, 8)))]
        offered = list(dict.fromkeys(e for w in walks if w for e in w))
    else:  # the finishing flow's generator
        offered = list(h.live_edges())
    assert disjoint_paths(offered_subgraph(h, offered)) == bfs_tree_disjoint_paths(
        h, offered)


def test_disjoint_paths_tries_forward_arcs_before_backward_ones():
    # after the first path s,a,b,t, the second BFS reaches b from c and may
    # go on forward to x or backward over the flow edge a->b to a; both
    # reach t two edges later, so the order of the two arcs picks the path
    s, t, a, b, c, x, w, z = S_ID, T_ID, 2, 3, 4, 5, 6, 7
    h = WellStructuredGraph(3, 3)
    for u, v in [(s, a), (a, b), (b, t), (s, c), (c, b), (b, x), (x, w),
                 (w, t), (a, z), (z, t)]:
        h.add_edge(u, v)
    want = [[s, a, b, t], [s, c, b, x, w, t]]
    assert bfs_tree_disjoint_paths(h, h.live_edges()) == want
    assert disjoint_paths(h) == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_disjoint_paths_matches_the_oracle_when_a_phase_finds_many_paths(data):
    # near-empty matchings on larger graphs: the first phase alone augments
    # along many length-3 paths, and later phases along longer ones
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    nl, nr = data.draw(st.integers(13, 40)), data.draw(st.integers(13, 40))
    g = random_bipartite(rng, nl, nr, data.draw(st.floats(0.03, 0.5)))
    h = residual_graph(g, random_matching(rng, g, data.draw(st.floats(0.0, 0.1))))
    offered = list(h.live_edges())
    if data.draw(st.booleans()):
        offered = [e for e in offered if rng.random() < 0.8]
        rng.shuffle(offered)
    assert disjoint_paths(offered_subgraph(h, offered)) == bfs_tree_disjoint_paths(
        h, offered)


def rerouting_instance(rng, shapes, decoy_n):
    """A graph and matching whose residual makes a later blocking-flow phase
    choose, at an L vertex u, between a forward and a backward arc.

    Each (p, q) gadget has free left vertices x and y, u matched to r, a
    free right vertex w, and the edges x-r and u-w.  y reaches w through p
    matched pairs; x and u each lead into a tail of q and q + 1 matched
    pairs, ending at a free right vertex.  When p, q >= 2 the first phase
    augments along s, x, r, u, w, t alone (length 5; every other path is
    longer), and the next one reaches u from y through w and may leave it
    forward into u's tail, or backward over the flow edge r->u and on from x
    into x's tail: both reach t after 2p + 2q + 7 edges.  A random decoy
    graph with a random matching sits beside the gadgets, and both sides
    are relabelled at random.
    """
    edges, pairs, size = [], [], {"L": 0, "R": 0}

    def new(side):
        size[side] += 1
        return size[side] - 1

    def chain(a, k, end=None):
        # from left vertex a through k matched pairs to a free right vertex
        for _ in range(k):
            b, e = new("R"), new("L")
            edges.extend([(a, b), (e, b)])
            pairs.append((e, b))
            a = e
        edges.append((a, new("R") if end is None else end))

    for p, q in shapes:
        x, y, u, r, w = new("L"), new("L"), new("L"), new("R"), new("R")
        edges.extend([(x, r), (u, r), (u, w)])
        pairs.append((u, r))
        chain(y, p, end=w)
        chain(x, q)
        chain(u, q + 1)
    decoy = random_bipartite(rng, decoy_n, decoy_n, 0.3)
    nl, nr = size["L"], size["R"]
    edges.extend((nl + a, nr + b) for a, b in decoy.edges)
    pairs.extend((nl + a, nr + b) for a, b in random_matching(rng, decoy).pairs)
    left, right = list(range(nl + decoy_n)), list(range(nr + decoy_n))
    rng.shuffle(left)
    rng.shuffle(right)
    g = BipartiteGraph(len(left), len(right),
                       tuple(sorted((left[a], right[b]) for a, b in edges)))
    return g, Matching((left[a], right[b]) for a, b in pairs)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_disjoint_paths_matches_the_oracle_when_a_phase_reroutes_an_l_vertex(data):
    # the random tests above almost never give an L vertex a forward and a
    # backward arc that both start shortest paths; every gadget here does
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    shapes = data.draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3)),
                                min_size=1, max_size=3))
    g, m = rerouting_instance(rng, shapes, data.draw(st.integers(0, 8)))
    h = residual_graph(g, m)
    assert disjoint_paths(h) == bfs_tree_disjoint_paths(h, h.live_edges())


def test_disjoint_paths_backs_out_of_a_dead_end():
    # one phase, with levels s:0, a,b:1, x,y,z:2, t:3.  From a the search
    # enters x first, whose one arc leads back to b, not on to t: it backs
    # out, skips a's arc to x and takes y.  From b it then enters y, spent by
    # the first path, backs out again and takes z.
    s, t, a, b, x, y, z = S_ID, T_ID, 2, 3, 4, 5, 6
    h = WellStructuredGraph(3, 2)
    for u, v in [(s, a), (s, b), (a, x), (a, y), (a, z), (b, y), (b, z),
                 (y, t), (z, t), (x, b)]:
        h.add_edge(u, v)
    want = [[s, a, y, t], [s, b, z, t]]
    assert bfs_tree_disjoint_paths(h, h.live_edges()) == want
    assert disjoint_paths(h) == want


def test_disjoint_paths_rejects_a_graph_with_a_deleted_edge():
    h = residual_graph(BipartiteGraph(2, 2, ((0, 0), (1, 1))), Matching())
    h.delete_edge(0)
    with pytest.raises(ValueError, match="deleted edges"):
        disjoint_paths(h)


def test_unknown_backend_is_rejected_before_any_work():
    # 3x3 with 2 edges: no MWU phase runs, so only the up-front check sees it
    g = BipartiteGraph(3, 3, ((0, 0), (1, 1)))
    with pytest.raises(ValueError, match="unknown backend 'nope'"):
        max_matching(g, DriverConfig(backend="nope"))


def test_exact_phase_builds_one_residual_graph(monkeypatch):
    # the reversed-label long path: every one of its 600 augmenting paths
    # comes from the finishing flow, over one residual graph and one augment
    k = 600
    edges = [(k - 1 - i, i) for i in range(k)] + [(k - 1 - i, i - 1) for i in range(1, k)]
    g = BipartiteGraph(k, k, tuple(edges))
    builds, augments = [], []

    def counting(calls, real):
        def wrapper(*args):
            calls.append(args)
            return real(*args)
        return wrapper

    monkeypatch.setattr(driver, "residual_graph", counting(builds, residual_graph))
    monkeypatch.setattr(driver, "augment", counting(augments, augment))
    matching, rep = max_matching(g)
    assert len(matching) == k
    matching.validate(g)
    assert rep.exact_augmentations == k and rep.phases == []
    assert len(builds) == 1 and len(augments) == 1


def test_backend_contract_failure_falls_back(monkeypatch):
    def broken(self):
        raise ClusterContractError("query retries exhausted")

    monkeypatch.setattr(RestrictedSssp, "query", broken)
    g = generate("random-gnp", {"n": 40, "p": 0.15}, 1)
    m, rep = max_matching(g, DriverConfig(backend="full"))
    m.validate(g)
    assert len(m) == len(hopcroft_karp(g)[0])
    assert rep.backend_failures == 1
    assert rep.fallback_phases == 1
    assert rep.phases[0].fallback and rep.phases[0].collected == 0


def test_phase_progress_with_reference_backend(cnst):
    rng = random.Random(31)
    g = random_bipartite(rng, 90, 90, 0.1)
    m_edges = len(g.edges)
    matching, rep = max_matching(g, DriverConfig(backend="reference", delta_star=1))
    want = len(hopcroft_karp(g)[0])
    assert len(matching) == want
    logm = log2c(3 * m_edges)
    for ph in rep.phases:
        if not ph.fallback:
            floor = ph.delta / (128 * logm * logm * 2)
            assert ph.rounded >= floor
    assert rep.phase_count() <= 64 * logm * logm * log2c(g.n)


def test_overestimated_delta_stays_exact():
    # many left vertices all competing for one right vertex: the driver's
    # deficiency guess far exceeds the truth, phases fail early, exactness holds
    nl = nr = 70
    edges = tuple((u, 0) for u in range(nl)) + tuple((0, v) for v in range(1, nr))
    g = BipartiteGraph(nl, nr, edges)
    want = len(hopcroft_karp(g)[0])
    for backend in ("reference", "full"):
        got, rep = max_matching(g, DriverConfig(backend=backend, delta_star=1))
        assert len(got) == want == 2
        assert rep.fallback_phases == sum(ph.fallback for ph in rep.phases)


def test_report_counts_are_consistent():
    rng = random.Random(41)
    g = random_bipartite(rng, 80, 80, 0.12)
    matching, rep = max_matching(g, DriverConfig(backend="reference", delta_star=1))
    assert rep.matching_size == len(matching)
    assert rep.exact_augmentations >= 0
    assert all(ph.rounded >= 1 or ph.fallback for ph in rep.phases)


LOW_GATE = DriverConfig(delta_star=1, constants=dataclasses.replace(
    Constants.desk(), mwu_gate_coeff=0.25, mwu_min_edges=1))


def test_fallback_stops_at_the_target(monkeypatch):
    def broken(self):
        raise ClusterContractError("query retries exhausted")

    monkeypatch.setattr(RestrictedSssp, "query", broken)
    g = generate("random-gnp", {"n": 60, "p": 0.1}, 2)
    cfg = dataclasses.replace(LOW_GATE, backend="full", target=10)
    m, rep = max_matching(g, cfg)
    m.validate(g)
    assert len(m) == rep.matching_size == 10
    assert rep.fallback_phases == 1 and rep.phases[0].fallback


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_paper_matches_hopcroft_karp_with_a_low_mwu_gate(data):
    # a low gate sends almost every phase through MWU and its SSSP backend
    nl, nr = data.draw(st.integers(1, 10)), data.draw(st.integers(1, 10))
    p = data.draw(st.floats(0.05, 1.0))
    g = random_bipartite(random.Random(data.draw(st.integers(0, 2**32))), nl, nr, p)
    want = len(hopcroft_karp(g)[0])
    for backend in ("reference", "full"):
        cfg = dataclasses.replace(LOW_GATE, backend=backend)
        assert len(max_matching(g, cfg)[0]) == want


def test_finishing_flow_takes_o_sqrt_n_phases(monkeypatch):
    # the 3000-pair reversed path: Edmonds-Karp would run one BFS per pair
    k = 3000
    edges = [(k - 1 - i, i) for i in range(k)] + [(k - 1 - i, i - 1) for i in range(1, k)]
    g = BipartiteGraph(k, k, tuple(edges))
    real, phases = driver.phase_levels, []

    def counting(*args):
        phases.append(args)
        return real(*args)

    monkeypatch.setattr(driver, "phase_levels", counting)
    matching, rep = max_matching(g)
    assert len(matching) == k == rep.exact_augmentations
    matching.validate(g)
    assert len(phases) <= 2 * math.ceil(math.sqrt(g.n)) + 2
