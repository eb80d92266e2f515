import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipmatch.constants import log2c
from bipmatch.dag_sssp import DagSssp, INF
from bipmatch.graph_core import DirectedGraph
from bipmatch.oracles import bicriteria_path_oracle, dijkstra
from conftest import dag_add_edge_p1


def make_dag(n, d=30, eps_inv=20, gamma=16, checked=True, n_hint=None):
    dag = DagSssp(s=0, t=1, d=d, eps_inv=eps_inv, gamma=gamma,
                  n_hint=n_hint or (2 * n + 4), checked=checked)
    for _ in range(n):
        dag.add_vertex()
    return dag


def random_instance(rng, n, m_edges, max_len=5, d=30, gamma=16, checked=True):
    dag = make_dag(n, d=d, gamma=gamma, checked=checked)
    eids = []
    payload = []
    for _ in range(m_edges):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or v == 0 or u == 1:
            continue
        w = 1 << rng.randint(0, min(3, dag.max_class))
        ln = rng.randint(1, max_len)
        eid = dag_add_edge_p1(dag, u, v, ln, w)
        if eid is None:
            continue
        eids.append(eid)
        payload.append((u, v, ln, w))
    dag.finalize()
    return dag, eids, payload


def lprime_oracle_graph(dag):
    """Independent graph over the modified (scaled) lengths."""
    g = DirectedGraph(dag.n)
    ids = {}
    for eid in range(len(dag.tail)):
        if dag.alive[eid]:
            ids[eid] = g.add_edge(dag.tail[eid], dag.head[eid], dag.lprime[eid])
    return g


def test_single_edge_estimate_is_modified_length():
    dag = DagSssp(s=0, t=1, d=4, eps_inv=8, gamma=4, n_hint=8, checked=True)
    dag.add_vertex()
    dag.add_vertex()
    eid = dag.add_edge(0, 1, 1, 1)
    dag.finalize()
    assert dag.est[1] == dag.lprime[eid]
    path = dag.path_query()
    assert path == [eid]


def test_unreachable_sink_is_infinite():
    dag = make_dag(3)
    dag.add_edge(0, 2, 1, 1)
    dag.finalize()
    assert dag.est[1] is INF
    assert dag.path_query() is None


def test_modified_lengths_match_recomputation():
    rng = random.Random(10)
    n = 40
    d, gamma = 50, 16
    dag, eids, payload = random_instance(rng, n, 160, d=d, gamma=gamma)
    # recompute the transformation independently
    k = 20
    logn = log2c(2 * n + 4)
    d1, c1 = d, 1
    if d1 > (2 * n + 4) * k:
        c1 = -(-d1 // ((2 * n + 4) * k))
        d1 = ((k + 2) * d1) // (k * c1)
    c2 = 1
    if d1 < gamma * logn:
        c2 = -(-(gamma * logn) // d1)
        d1 = c2 * d1
    assert (dag.c1, dag.c2, dag.d) == (c1, c2, d1)
    for eid, (u, v, ln, w) in zip(eids, payload):
        cls = w.bit_length() - 1
        t_i = -(-(d1 * (1 << cls)) // (gamma * logn))
        expected = k * k * (c2 * (-(-ln // c1))) + k * t_i
        assert dag.lprime[eid] == expected


def test_delete_only_route_fails():
    dag = DagSssp(s=0, t=1, d=4, eps_inv=8, gamma=4, n_hint=8, checked=True)
    dag.add_vertex()
    dag.add_vertex()
    eid = dag.add_edge(0, 1, 1, 1)
    dag.finalize()
    dag.delete_edge(eid)
    assert dag.est[1] is INF
    assert dag.path_query() is None


def test_delete_non_tree_edge_keeps_estimates():
    dag = make_dag(3)
    e_short = dag.add_edge(0, 1, 1, 1)
    e_long = dag.add_edge(0, 1, 5, 1)
    dag.finalize()
    before = list(dag.est)
    dag.delete_edge(e_long)
    assert dag.est == before
    assert dag.path_query() == [e_short]


def test_deletion_fuzz_against_oracle():
    rng = random.Random(21)
    total_updates = 0
    for trial in range(10):
        n = rng.randint(8, 40)
        dag, eids, _ = random_instance(rng, n, rng.randint(2 * n, 4 * n),
                                       d=rng.choice([20, 60]), gamma=rng.choice([8, 32]))
        order = list(eids)
        rng.shuffle(order)
        for eid in order[: 50]:
            dag.delete_edge(eid)  # checked mode asserts the invariants
            total_updates += 1
            oracle = dijkstra(lprime_oracle_graph(dag), 0)
            k = dag.k
            for v in range(dag.n):
                if oracle[v] <= dag.cap:
                    assert dag.est[v] is not INF and dag.est[v] <= oracle[v]
                if dag.est[v] is not INF and oracle[v] is not INF:
                    assert k * dag.est[v] >= (k - 1) * oracle[v]
        assert dag.work <= dag.work_budget()
    assert total_updates >= 400


def test_split_mirror_key_equality():
    dag = make_dag(4)
    e_in = dag.add_edge(0, 2, 2, 2)     # external in-edge of the split vertex
    e_out = dag.add_edge(2, 3, 1, 1)    # external out-edge
    dag.add_edge(3, 1, 1, 1)
    dag.finalize()
    nid = dag.n
    created = dag.split_vertex(2, [nid], [
        (0, nid, 2, 2),   # mirrors e_in
        (nid, 3, 1, 1),   # mirrors e_out
        (2, nid, 1, 1),   # internal
    ])
    assert dag.stale[created[0]] == dag.stale[e_in]
    assert dag.lprime[created[0]] == dag.lprime[e_in]
    assert dag.stale[created[1]] == dag.stale[e_out]
    assert dag.est[nid] is not INF


def test_split_isolated_vertex_keeps_tree():
    dag = make_dag(4)
    dag.add_edge(0, 2, 1, 1)
    dag.add_edge(2, 1, 1, 1)
    dag.finalize()
    assert dag.est[3] is INF
    parents_before = list(dag.parent_edge[:dag.n])
    nid = dag.n
    dag.split_vertex(3, [nid], [(3, nid, 1, 1)])
    assert dag.parent_edge[:len(parents_before)] == parents_before
    assert dag.est[nid] is INF


def test_split_requires_mirror():
    dag = make_dag(4)
    dag.add_edge(0, 2, 1, 1)
    dag.finalize()
    with pytest.raises(ValueError):
        dag.split_vertex(2, [dag.n], [(3, dag.n, 1, 1)])  # no (3,2) edge exists


def test_randomized_splits_keep_invariants():
    rng = random.Random(33)
    for trial in range(8):
        n = rng.randint(6, 14)
        dag, eids, payload = random_instance(rng, n, 3 * n)
        edges = {e: p for e, p in zip(eids, payload)}
        for _ in range(4):
            v = rng.randrange(2, dag.n)
            nid = dag.n
            specs = [(v, nid, 1, 1)]
            for e, (a, b, ln, w) in sorted(edges.items()):
                if not dag.alive[e]:
                    continue
                if b == v and a != v and len(specs) < 3:
                    specs.append((a, nid, ln, w))
                elif a == v and b != v and len(specs) < 5:
                    specs.append((nid, b, ln, w))
            created = dag.split_vertex(v, [nid], specs)
            for ce, sp in zip(created, specs):
                edges[ce] = sp
        for e in sorted(edges):
            if dag.alive[e]:
                dag.delete_edge(e)
        assert dag.path_query() is None


def test_fail_certified_infeasible_by_bicriteria():
    rng = random.Random(44)
    for trial in range(25):
        n = rng.randint(5, 16)
        d = rng.choice([6, 12, 25])
        gamma = rng.choice([2, 6, 20])
        dag = DagSssp(s=0, t=1, d=d, eps_inv=20, gamma=gamma,
                      n_hint=2 * n + 4, checked=True)
        for _ in range(n):
            dag.add_vertex()
        mirror = DirectedGraph(n)
        eids = []
        for _ in range(rng.randint(n, 3 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v or v == 0 or u == 1:
                continue
            w = 1 << rng.randint(0, 3)
            ln = rng.randint(1, 4)
            de = dag_add_edge_p1(dag, u, v, ln, w)
            if de is None:
                continue
            eids.append((de, mirror.add_edge(u, v, ln, w)))
        dag.finalize()
        rng.shuffle(eids)
        for dag_e, mir_e in eids:
            if dag.path_query() is None:
                assert not bicriteria_path_oracle(mirror, 0, 1, d, gamma)
                break
            dag.delete_edge(dag_e)
            mirror.delete_edge(mir_e)
        else:
            if dag.path_query() is None:
                assert not bicriteria_path_oracle(mirror, 0, 1, d, gamma)


def test_fail_on_heavy_only_path():
    # the only short path is far too heavy: the weight term inflates the
    # modified lengths past the threshold, so the query fails, and the
    # bicriteria oracle certifies no (d, Gamma)-feasible path exists
    dag = DagSssp(s=0, t=1, d=8, eps_inv=20, gamma=4, n_hint=600, checked=True)
    for _ in range(3):
        dag.add_vertex()
    mirror = DirectedGraph(3)
    for u, v in ((0, 2), (2, 1)):
        dag.add_edge(u, v, 1, 512)
        mirror.add_edge(u, v, 1, 512)
    dag.finalize()
    assert dag.path_query() is None
    assert not bicriteria_path_oracle(mirror, 0, 1, 8, 4)


def test_query_length_bound():
    rng = random.Random(55)
    for trial in range(10):
        n = rng.randint(6, 20)
        d = rng.choice([10, 40])
        dag, eids, _ = random_instance(rng, n, 4 * n, d=d, checked=False)
        order = list(eids)
        rng.shuffle(order)
        for eid in order:
            p = dag.path_query()
            if p is None:
                break
            total = dag.path_length(p)
            assert total * 20 <= (20 + 10) * d  # (1+10*eps) with eps=1/20
            dag.delete_edge(eid)


def test_lengthened_tree_edge_reattaches_through_another_in_edge():
    dag = make_dag(4)
    e_direct = dag.add_edge(0, 2, 1, 1)
    e_in = dag.add_edge(0, 3, 1, 1)
    e_detour = dag.add_edge(3, 2, 1, 1)
    e_out = dag.add_edge(2, 1, 1, 1)
    dag.finalize()
    assert dag.parent_edge[2] == e_direct
    dag.increase_lengths([(e_direct, 8)])
    assert dag.length[e_direct] == 8
    assert dag.parent_edge[2] == e_detour
    assert dag.est[2] == dag.stale[e_detour] + dag.lprime[e_detour]
    assert dag.path_query() == [e_in, e_detour, e_out]
    with pytest.raises(ValueError):
        dag.increase_lengths([(e_direct, 4)])  # lengths never shrink


def test_a_bad_update_rejects_the_whole_batch():
    dag = make_dag(4)
    e_direct = dag.add_edge(0, 2, 2, 1)
    dag.add_edge(0, 3, 2, 1)
    e_detour = dag.add_edge(3, 2, 2, 1)
    e_out = dag.add_edge(2, 1, 2, 2)
    e_dead = dag.add_edge(3, 1, 9, 1)
    dag.finalize()
    dag.delete_edge(e_dead)

    def state():
        return (list(dag.length), list(dag.weight), list(dag.lprime), list(dag.stale),
                list(dag.est), list(dag.parent_edge),
                [{c: set(b) for c, b in by.items()} for by in dag.out_by_class])

    before = state()
    too_heavy = 1 << (dag.max_class + 1)
    # the good updates come first, so applying as it checks would show; a
    # bad update makes a length or weight fall, or a weight that is not a
    # power of two or is past max_class
    for bad in [(e_dead, 18), (e_out, 1), (e_direct, 4), (e_out, 2, 1),
                (e_out, 2, 3), (e_out, 2, too_heavy), (e_direct, 8, 0)]:
        with pytest.raises(ValueError):
            dag.increase_lengths([(e_direct, 8), (e_detour, 2, 4), bad])
        assert state() == before


def test_raised_class_moves_the_edge_and_its_key():
    dag = make_dag(4, gamma=2)
    e_a = dag.add_edge(0, 2, 1, 1)
    e_b = dag.add_edge(0, 3, 1, 1)
    e_c = dag.add_edge(3, 2, 1, 1)
    dag.add_edge(2, 1, 1, 1)
    dag.finalize()
    assert dag.parent_edge[2] == e_a
    dag.increase_lengths([(e_a, 1, 16)])
    assert dag.weight[e_a] == 16 and dag.length[e_a] == 1
    assert e_a in dag.out_by_class[0][4] and e_a not in dag.out_by_class[0][0]
    assert e_b in dag.out_by_class[0][0]
    assert dag.lprime[e_a] == dag.k * dag.k * dag.c2 + dag.k * dag.thresholds[4]
    assert dag.stale[e_a] == dag.est[0]
    # the heavier direct edge now costs more than the two-hop detour
    assert dag.parent_edge[2] == e_c
    with pytest.raises(ValueError):
        dag.increase_lengths([(e_a, 1, 8)])  # classes never fall


def test_raised_class_keeps_the_staleness_bound():
    # T_1 = 2*T_0 - 1 here, so the class-1 blocks drift from the class-0
    # ones: the estimate an edge last heard under class 0 can lie more than
    # T_1 below its tail's estimate after later class-1 silence, unless the
    # raise notifies the edge afresh (checked mode asserts the bound)
    dag = DagSssp(s=0, t=1, d=3000, eps_inv=8, gamma=1, n_hint=64, checked=True)
    for _ in range(4):
        dag.add_vertex()
    e_in = dag.add_edge(0, 2, 1, 1)
    e_mid = dag.add_edge(2, 3, 1, 1)
    dag.add_edge(3, 1, 1, 1)
    dag.finalize()
    assert dag.thresholds[1] == 2 * dag.thresholds[0] - 1
    for ln in range(2, 100):
        if ln == 78:
            dag.increase_lengths([(e_mid, 1, 2)])
        dag.increase_lengths([(e_in, ln)])
    assert dag.weight[e_mid] == 2


COPIES = 4


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_increase_length_matches_deleting_the_cheapest_copy(data):
    # oracle: every (pair, class) holds parallel copies of lengths base*2^j,
    # and using it deletes the cheapest; the structure under test holds one
    # edge per (pair, class) and doubles its length instead
    n = data.draw(st.integers(3, 8))
    d = data.draw(st.sampled_from([6, 30, 900]))  # 900 rounds lengths (c1 > 1)
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v and v != 0 and u != 1]
    pairs = data.draw(st.lists(st.sampled_from(arcs), min_size=1, max_size=3 * n,
                               unique=True))
    copies, single = make_dag(n, d=d), make_dag(n, d=d)
    copy_ids, key_of = [], {}  # oracle ids per (pair, class), and back
    for u, v in pairs:
        base = data.draw(st.integers(1, 3))
        for cls in data.draw(st.sets(st.integers(0, 2), min_size=1)):
            eid = dag_add_edge_p1(single, u, v, base, 1 << cls)
            if eid is None:
                continue
            ids = [copies.add_edge(u, v, base << j, 1 << cls) for j in range(COPIES)]
            key_of.update({c: eid for c in ids})
            copy_ids.append((eid, ids))
    copies.finalize()
    single.finalize()

    def same_state():
        assert copies.est == single.est
        assert [None if p is None else key_of[p] for p in copies.parent_edge] == \
            single.parent_edge

    same_state()
    for _ in range(data.draw(st.integers(0, 12))):
        live = [(eid, ids) for eid, ids in copy_ids if len(ids) > 1]
        if not live:
            break
        eid, ids = data.draw(st.sampled_from(live))
        copies.delete_edge(ids.pop(0))
        single.increase_lengths([(eid, 2 * single.length[eid])])
        same_state()


def p1_holds_with(dag, weight_of, pairs):
    """Whether the per-bucket degree property would hold with the mirror
    edges in weight_of moved to the weights given."""
    heads = {}
    for de, me in pairs:
        if dag.alive[de]:
            w = weight_of.get(me, dag.weight[de])
            heads.setdefault((dag.tail[de], w), set()).add(dag.head[de])
    return all(len(hs) <= 4 * w for (_, w), hs in heads.items())


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_batched_length_increases_keep_the_invariants(data):
    # checked mode runs check_invariants (I1-I5) after every batch; a batch
    # may lengthen an edge twice, or leave a length as it is, and may raise
    # weight classes, each edge's once or twice
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    n = data.draw(st.integers(3, 14))
    d = data.draw(st.sampled_from([6, 12, 30]))
    gamma = data.draw(st.sampled_from([2, 6, 20]))
    dag = make_dag(n, d=d, gamma=gamma)
    mirror = DirectedGraph(n)  # the same edges at the same lengths, for the oracle
    pairs = []
    for _ in range(rng.randint(n, 4 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or v == 0 or u == 1:
            continue
        w = 1 << rng.randint(0, 3)
        ln = rng.randint(1, 4)
        de = dag_add_edge_p1(dag, u, v, ln, w)
        if de is not None:
            pairs.append((de, mirror.add_edge(u, v, ln, w)))
    dag.finalize()
    for _ in range(data.draw(st.integers(1, 10))):
        live = [(de, me) for de, me in pairs if dag.alive[de]]
        if not live:
            break
        if rng.random() < 0.2:
            de, me = rng.choice(live)
            dag.delete_edge(de)
            mirror.delete_edge(me)
        else:
            updates, new_length, new_weight = [], {}, {}
            for de, me in rng.choices(live, k=rng.randint(1, 6)):
                ln = new_length.get(me, dag.length[de])
                new_length[me] = ln + rng.choice([0, 1, ln])
                w = new_weight.get(me, dag.weight[de]) << rng.choice([0, 0, 1, 2])
                if w > mirror.weight[me] and w.bit_length() - 1 <= dag.max_class \
                        and p1_holds_with(dag, {**new_weight, me: w}, pairs):
                    new_weight[me] = w
                    updates.append((de, new_length[me], w))
                else:
                    updates.append((de, new_length[me]))
            dag.increase_lengths(updates)
            for me, ln in new_length.items():
                mirror.length[me] = ln
            for me, w in new_weight.items():
                mirror.weight[me] = w
        path = dag.path_query()
        if path is None:  # FAIL is legal only without a (d, Gamma)-feasible path
            assert not bicriteria_path_oracle(mirror, 0, 1, d, gamma)
            break
        assert dag.path_length(path) * dag.k <= (dag.k + 10) * d
