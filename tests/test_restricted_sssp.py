import dataclasses
import hashlib
import heapq
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipmatch.constants import Constants, doubling_levels, mwu_lambda
from bipmatch.dag_sssp import DagSssp
from bipmatch.graph_core import (BipartiteGraph, Matching, S_ID, T_ID,
                                 WellStructuredGraph, residual_graph)
from bipmatch.maintain_cluster import ClusterContractError, ClusterState
from bipmatch.mwu import build_doubling_graph
from bipmatch.oracles import dijkstra, hopcroft_karp
from bipmatch.restricted_sssp import ReferenceSssp, RestrictedSssp
from conftest import random_bipartite


def disjoint_paths_residual(k):
    g = BipartiteGraph(k, k, tuple((i, i) for i in range(k)))
    return residual_graph(g, Matching())


def near_complete_residual(rng, nl, nr, p, leave=2):
    g = random_bipartite(rng, nl, nr, p)
    used_r = set()
    pairs = []
    for u in range(nl):
        for v in range(nr):
            if (u, v) in set(g.edges) and v not in used_r:
                pairs.append((u, v))
                used_r.add(v)
                break
    keep = max(0, len(pairs) - leave)
    return g, residual_graph(g, Matching(pairs[:keep]))


def drain(sssp, h):
    """Query and delete until FAIL or the budget, checking each path in h.

    Both backends return edge ids of h.  Before the path is deleted, each
    edge's length is its cheapest live copy's: its initial length doubled
    once for every earlier use."""
    uses = {}
    paths = []
    while sssp.queries_done < sssp.delta:
        res = sssp.query()
        if res is None:
            break
        verts, eids = res
        assert verts[0] == S_ID and verts[-1] == T_ID
        assert len(set(verts)) == len(verts)
        assert [(h.tail[e], h.head[e]) for e in eids] == list(zip(verts, verts[1:]))
        for e in eids:
            assert sssp.length[e] == h.length[e] << uses.get(e, 0)
            uses[e] = uses.get(e, 0) + 1
        assert sum(sssp.length[e] for e in eids) <= 8 * sssp.lam
        paths.append((verts, eids))
        sssp.delete_path_edges(eids)
    return paths


def test_disjoint_paths_full_and_reference_agree():
    for k in (4, 12, 24):
        h1 = disjoint_paths_residual(k)
        full = RestrictedSssp(h1, delta=k, checked=True)
        got_full = drain(full, h1)
        h2 = disjoint_paths_residual(k)
        ref = ReferenceSssp(h2, delta=k)
        got_ref = drain(ref, h2)
        assert len(got_full) == len(got_ref) == k


def test_no_path_fails_immediately():
    g = BipartiteGraph(2, 2, ())
    h = residual_graph(g, Matching())
    rs = RestrictedSssp(h, delta=2)
    assert rs.query() is None
    assert rs.failed


def test_left_to_right_edges_have_zero_span():
    rng = random.Random(1)
    g, h = near_complete_residual(rng, 30, 30, 0.3)
    rs = RestrictedSssp(h, delta=2, checked=True)
    for eid in h.live_edges():
        u, v = h.tail[eid], h.head[eid]
        if rs.cluster_of[u] == rs.cluster_of[v]:
            continue
        ru = rs.clusters[rs.cluster_of[u]]
        rv = rs.clusters[rs.cluster_of[v]]
        if ru.start + ru.size <= rv.start:  # left-to-right
            assert rs._span(u, v) == 0


def test_parallel_edges_are_rejected():
    # copies are implicit, so a pair names one residual edge; residual
    # graphs are simple
    h = disjoint_paths_residual(6)
    h.add_edge(h.tail[0], h.head[0], length=2)
    with pytest.raises(ValueError, match="parallel edges 0 and"):
        RestrictedSssp(h, delta=6)


def test_interval_bookkeeping_and_p1_after_lifecycle():
    rng = random.Random(3)
    g, h = near_complete_residual(rng, 26, 26, 0.25, leave=3)
    rs = RestrictedSssp(h, delta=3, checked=True)
    # checked mode re-verifies intervals, skip/span monotonicity, and the
    # per-bucket degree property after every operation
    drain(rs, h)
    rs.check_invariants()


def test_cluster_cut_translates_to_split():
    # the cuts fire while the structure is built, before the contracted graph
    # exists; dissolving the spawned cluster afterwards splits its supernode,
    # and the edges it moves outgrow their weight classes
    rng = random.Random(6)
    g, h = near_complete_residual(rng, 66, 66, 0.12, leave=2)
    rs = RestrictedSssp(h, delta=2, checked=True)
    assert rs.stats["splits"] == rs.stats["cuts"] > 0
    nonleaf = [cid for cid, rec in rs.clusters.items() if rec.state is not None]
    assert nonleaf, "expected a non-leaf root cluster at this scale"
    clusters_before = len([r for r in rs.clusters.values() if r.size > 0])
    sup_before = rs.dag.n
    weight_before = {eid: rs.dag.weight[deid] for eid, deid in rs.dag_edge.items()}
    rs._dissolve(nonleaf[0])
    rs.check_invariants()
    assert rs.dag.n > sup_before
    assert len([r for r in rs.clusters.values() if r.size > 0]) > clusters_before
    assert any(rs.dag.weight[deid] > weight_before[eid]
               for eid, deid in rs.dag_edge.items() if eid in weight_before)
    assert len(drain(rs, h)) == 2
    rs.check_invariants()


def test_cluster_trees_count_es_scans():
    # unlike driver runs, whose clusters have no short edge inside and are
    # shattered at once, this cluster's core has short edges, so its ES
    # trees scan and the scans are counted
    rng = random.Random(6)
    g, h = near_complete_residual(rng, 66, 66, 0.12, leave=2)
    rs = RestrictedSssp(h, delta=2, checked=True)
    drain(rs, h)
    assert rs.stats["clusters_spawned"] >= 1
    counters = rs.work_counters()
    assert counters["es_scans"] > 0
    # work counters have one source, so stats holds no copy that can go stale
    assert not set(rs.stats) & set(counters)


def test_cluster_without_short_pair_inside_is_shattered():
    # at the lambda MWU uses every copy is long, so the non-leaf root cluster
    # has an edgeless core: it is shattered at once instead of spawning
    rng = random.Random(5)
    g = random_bipartite(rng, 60, 60, 0.1)
    ordered = sorted(hopcroft_karp(g)[0].pairs)
    dropped = set(rng.sample(ordered, 2))
    h = residual_graph(g, Matching([q for q in ordered if q not in dropped]))
    m = h.live_m
    lam = mwu_lambda(m, 2)
    rs = RestrictedSssp(h, delta=2, lam=lam, checked=True)
    assert not rs._is_leaf(h.n - 2)
    assert all(ln >= rs.long_threshold for ln in rs.length)
    assert rs.stats["clusters_spawned"] == 0
    assert rs.stats["cuts"] == 0
    assert rs.stats["shatters"] == 1
    assert all(rec.state is None for rec in rs.clusters.values())
    assert len(drain(rs, h)) == 2
    rs.check_invariants()


def test_cluster_with_one_short_pair_inside_spawns():
    # every edge long but one between two members of the root cluster
    k = 60
    base = disjoint_paths_residual(k)
    lam = 10_000
    h = WellStructuredGraph(k, k)
    for eid in base.live_edges():
        u, v = base.tail[eid], base.head[eid]
        short = (u, v) == (2, 2 + k)
        h.add_edge(u, v, length=1 if short else 16)
    rs = RestrictedSssp(h, delta=2, lam=lam, checked=True)
    assert not rs._is_leaf(h.n - 2)
    assert 1 < rs.long_threshold < 16
    assert sum(ln < rs.long_threshold for ln in rs.length) == 1
    assert rs.stats["clusters_spawned"] >= 1


def planted_core_residual(seed, k=60, p=0.3):
    """A perfect matching (i, i) on a core of k pairs with random extra
    edges, plus two free left vertices with edges into the core and two free
    right vertices with edges out of it."""
    rng = random.Random(seed)
    edges = {(i, i) for i in range(k)}
    edges |= {(u, v) for u in range(k) for v in range(k) if u != v and rng.random() < p}
    for u in (k, k + 1):
        edges |= {(u, v) for v in rng.sample(range(k), 3)}
    for v in (k, k + 1):
        edges |= {(u, v) for u in rng.sample(range(k), 3)}
    g = BipartiteGraph(k + 2, k + 2, tuple(sorted(edges)))
    return residual_graph(g, Matching([(i, i) for i in range(k)]))


def test_query_routes_through_a_live_cluster():
    # at the default lambda every edge of the planted core is short, so the
    # root cluster spawns and each augmenting path crosses it by a route
    # that the cluster state answers
    h = planted_core_residual(0)
    rs = RestrictedSssp(h, delta=2, checked=True)
    paths = drain(rs, h)
    assert rs.stats["clusters_spawned"] >= 1
    assert rs.stats["cluster_queries"] > 0
    text = json.dumps(paths, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "45aa731580bcb072"


def test_edges_that_turn_long_cut_a_live_cluster():
    # at a lambda whose long threshold is 1.5, an edge turns long on its
    # first use, so every path hands its cluster edges to the cluster state,
    # and the cuts that follow split the contracted graph after it is built
    h = planted_core_residual(0)
    probe = RestrictedSssp(h, delta=2)
    lam = math.ceil(1.5 * probe.lam / probe.long_threshold)
    rs = RestrictedSssp(h, delta=2, lam=lam, checked=True)
    assert rs.long_threshold == pytest.approx(1.5, rel=0.01)
    cuts_at_build = rs.stats["cuts"]
    assert len(drain(rs, h)) == 2
    assert rs.stats["cluster_queries"] > 0
    assert rs.stats["cuts"] > cuts_at_build


def test_cluster_contract_error_shatters_the_cluster_and_requeries(monkeypatch):
    # the first cluster query fails its contract: the cluster is dissolved
    # into singletons and the contracted graph is queried again
    real = ClusterState.query
    calls = []

    def fails_once(self, *args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise ClusterContractError("no path within d*")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(ClusterState, "query", fails_once)
    h = planted_core_residual(0)
    rs = RestrictedSssp(h, delta=2, checked=True)
    assert rs.stats["clusters_spawned"] >= 1
    assert len(drain(rs, h)) == 2
    assert rs.stats["emergency_shatters"] == 1


def test_spent_phase_query_budget_rebuilds_the_cluster_before_the_next_query(monkeypatch):
    # a per-phase query budget of 1 marks the cluster for a rebuild after
    # every query, and the next query flushes it first
    rebuilds = []
    real = ClusterState.flush_rebuild

    def counted(self):
        rebuilds.append(self.needs_rebuild)
        real(self)

    monkeypatch.setattr(ClusterState, "flush_rebuild", counted)
    h = planted_core_residual(0)
    cnst = dataclasses.replace(Constants.desk(), n_query_coeff=1e-9)
    rs = RestrictedSssp(h, delta=2, cnst=cnst, checked=True)
    assert len(drain(rs, h)) == 2
    assert rs.stats["cluster_queries"] == 2
    assert rebuilds == [True]


def test_full_backend_does_not_fail_while_short_supply_lasts():
    # plentiful short disjoint paths: the full backend must answer, and its
    # answers stay within 8*lambda while the oracle distance is within lambda
    k = 16
    h = disjoint_paths_residual(k)
    rs = RestrictedSssp(h, delta=k)
    for _ in range(k):
        dist = dijkstra(h, S_ID)[T_ID]
        if dist > rs.lam:
            break
        res = rs.query()
        assert res is not None, "failed while lambda-short paths existed"
        rs.delete_path_edges(res[1])


def test_contracted_graph_is_built_in_one_batch_and_lengthened_once_per_path(monkeypatch):
    calls = {"add_edge": 0, "add_edges": 0, "increase_lengths": 0}
    for name in calls:
        def counted(self, *args, _name=name, _real=getattr(DagSssp, name)):
            calls[_name] += 1
            return _real(self, *args)
        monkeypatch.setattr(DagSssp, name, counted)
    g, h = near_complete_residual(random.Random(5), 12, 12, 0.3, leave=3)
    rs = RestrictedSssp(h, delta=3, checked=True)
    assert calls == {"add_edge": 0, "add_edges": 1, "increase_lengths": 0}
    # one DAG edge per crossing residual edge, whatever its skip
    crossing = [eid for eid in h.live_edges()
                if rs.cluster_of[h.tail[eid]] != rs.cluster_of[h.head[eid]]]
    assert len(rs.dag.tail) == len(crossing)
    paths = drain(rs, h)
    assert len(paths) == 3
    assert calls == {"add_edge": 0, "add_edges": 1, "increase_lengths": 3}


def test_query_raises_contract_error_when_retries_run_out(monkeypatch):
    def dissolved(self, dag_path):
        raise ClusterContractError("cluster dissolved")

    h = disjoint_paths_residual(4)
    rs = RestrictedSssp(h, delta=4)
    monkeypatch.setattr(RestrictedSssp, "_assemble", dissolved)
    with pytest.raises(ClusterContractError, match="retries exhausted"):
        rs.query()


def delete_cheapest_copies(hat, lam, sssp, eids):
    """Delete from the materialised doubling graph the cheapest live copy of
    each edge of eids, after checking it has the edge's length in sssp.
    Copy j of edge eid has id eid*levels + j and length 2^j."""
    levels = doubling_levels(lam)
    for e in eids:
        c = next(c for c in range(e * levels, (e + 1) * levels) if hat.alive[c])
        assert hat.length[c] == sssp.length[e]
        hat.delete_edge(c)


def test_reference_fail_legality():
    rng = random.Random(8)
    g, h = near_complete_residual(rng, 12, 12, 0.4, leave=2)
    ref = ReferenceSssp(h, delta=4)
    hat = build_doubling_graph(h, ref.lam)
    while ref.queries_done < ref.delta:
        res = ref.query()
        if res is None:
            assert dijkstra(hat, S_ID)[T_ID] > 8 * ref.lam
            break
        delete_cheapest_copies(hat, ref.lam, ref, res[1])
        ref.delete_path_edges(res[1])


def test_delete_requires_membership_in_last_path():
    h = disjoint_paths_residual(4)
    rs = RestrictedSssp(h, delta=4)
    res = rs.query()
    assert res is not None
    outside = [e for e in h.live_edges() if e not in res[1]]
    with pytest.raises(ValueError):
        rs.delete_path_edges([outside[0]])


def test_query_budget_enforced():
    h = disjoint_paths_residual(3)
    rs = RestrictedSssp(h, delta=1)
    res = rs.query()
    assert res is not None
    rs.delete_path_edges(res[1])
    with pytest.raises(ValueError):
        rs.query()


def test_lifecycle_fuzz_checked():
    rng = random.Random(9)
    for trial in range(6):
        nl = nr = rng.randint(10, 30)
        g, h = near_complete_residual(rng, nl, nr, rng.choice([0.2, 0.5]),
                                      leave=rng.randint(1, 4))
        delta = max(1, min(4, h.n))
        rs = RestrictedSssp(h, delta=delta, checked=True)
        drain(rs, h)


def test_bad_edge_budget_instrumented():
    rng = random.Random(12)
    g, h = near_complete_residual(rng, 66, 66, 0.12, leave=2)
    cn = Constants.desk()
    m = h.live_m
    rs = RestrictedSssp(h, delta=2, checked=True)
    drain(rs, h)
    from bipmatch.constants import log2c
    assert rs.dag.m_counted <= 64 * m * log2c(m) ** 3
    for cid, rec in rs.clusters.items():
        if rec.size == 0 or rec.bad_edges == 0:
            continue
        origin = max(rec.origin_size, rec.size, 1)
        if rec.d_star:  # was a non-leaf cluster at some point
            cap = cn.cluster_cut_bound(origin, rec.d_star) * origin + origin
        else:           # leaf: owns at most its own special pairs
            cap = origin
        assert rec.bad_edges <= cap, (cid, rec.bad_edges, cap)


def every_copy_dijkstra(g, cap):
    """Dijkstra over every live copy, keeping the lexicographically least
    (dist, edge id) per vertex; the path to t, or None iff dist(t) > cap."""
    dist = [math.inf] * g.n
    best_edge = [None] * g.n
    dist[S_ID] = 0
    heap = [(0, S_ID)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for eid in g.out_adj[u]:
            if not g.alive[eid]:
                continue
            v = g.head[eid]
            nd = d + g.length[eid]
            if nd < dist[v] or (nd == dist[v] and best_edge[v] is not None
                                and eid < best_edge[v]):
                dist[v] = nd
                best_edge[v] = eid
                heapq.heappush(heap, (nd, v))
    if dist[T_ID] > cap:
        return None
    verts, eids = [T_ID], []
    while verts[-1] != S_ID:
        eids.append(best_edge[verts[-1]])
        verts.append(g.tail[eids[-1]])
    return verts[::-1], eids[::-1]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reference_matches_every_copy_dijkstra(data):
    nl, nr = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    n = 2 + nl + nr
    arcs = [(u, v) for u in range(n) for v in range(n)
            if u != v and u != T_ID and v != S_ID]
    # a pair may carry parallel edges, and all edges go in shuffled
    pairs = data.draw(st.lists(st.sampled_from(arcs), min_size=n, max_size=3 * n))
    h = WellStructuredGraph(nl, nr)
    for u, v in pairs:
        h.add_edge(u, v)
    lam = data.draw(st.integers(1, 3))
    ref = ReferenceSssp(h, delta=40, lam=lam)
    # the oracle runs over the materialised copies, deleting each one it
    # returns; copy c is one of edge c // levels, with length hat.length[c]
    hat = build_doubling_graph(h, lam)
    levels = doubling_levels(lam)
    while ref.queries_done < ref.delta:
        want = every_copy_dijkstra(hat, 8 * lam)
        got = ref.query()
        assert (got is None) == (want is None)
        if got is None:
            break
        assert got[0] == want[0]
        assert ([(e, ref.length[e]) for e in got[1]]
                == [(c // levels, hat.length[c]) for c in want[1]])
        ref.delete_path_edges(got[1])
        for c in want[1]:
            hat.delete_edge(c)


def test_reference_rejects_edges_added_after_construction():
    # the backend owns every edge's length, so the graph must not change
    # behind it, nor hold deleted edges when it is built
    for change in ("add", "delete"):
        h = disjoint_paths_residual(3)
        ref = ReferenceSssp(h, delta=3)
        res = ref.query()
        assert res is not None
        ref.delete_path_edges(res[1])
        if change == "add":
            h.add_edge(S_ID, T_ID, length=1)
        else:
            h.delete_edge(0)
        with pytest.raises(ValueError, match="added or deleted"):
            ref.query()
    with pytest.raises(ValueError, match="deleted edges"):
        ReferenceSssp(h, delta=3)
