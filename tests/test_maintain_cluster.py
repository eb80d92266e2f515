import math
import random

import pytest

from bipmatch.constants import Constants
from bipmatch.graph_core import CoreGraph
from bipmatch.maintain_cluster import (ClusterContractError, ClusterHalted,
                                       ClusterState)
from conftest import random_core, recount_core_cut


def collecting_sink(store):
    def sink(cluster, cut, kind):
        crossing, special = recount_core_cut(cluster.core, cut.a, cut.b)
        store.append({
            "emission": cut,
            "recounted": crossing,
            "special": special,
            "min_side": cut.min_side(),
        })
    return sink


def check_emissions(store):
    for item in store:
        em = item["emission"]
        assert item["special"], "emitted cut crossed by a regular edge"
        assert item["recounted"] == em.crossing
        assert em.crossing <= em.sparsity_bound * item["min_side"] + 1e-9


def two_halves_core(rng, half, p, bridges):
    """Two dense well-structured blocks joined by a few special bridges.

    The first `bridges` in-block special pairs of each block are released so
    that bridge vertices keep out-degree/in-degree one.
    """
    side = (["L"] * half + ["R"] * half) * 2
    core = CoreGraph(4 * half, side)
    for l0, r0 in ((0, half), (2 * half, 3 * half)):
        for i in range(bridges, half):
            core.add_edge(r0 + i, l0 + i)  # in-block specials
        for i in range(half):
            for j in range(half):
                if rng.random() < p:
                    try:
                        core.add_edge(l0 + i, r0 + j)
                    except ValueError:
                        pass
    for b in range(bridges):
        core.add_edge(b, 3 * half + b)             # regular l(block1) -> r(block2)
        core.add_edge(half + b, 2 * half + b)      # special r(block1) -> l(block2)
    return core


def test_dense_cluster_builds_and_serves(cnst):
    rng = random.Random(1)
    store = []
    core = random_core(rng, 24, 24, 0.35, match_frac=0.9)
    st = ClusterState(core, d_star=24, delta=40, cut_sink=collecting_sink(store),
                      cnst=cnst, checked=True)
    assert not st.halted
    assert st.stats["phases"] >= 1
    live = st.core.live_vertices()
    verts, eids = st.query(live[0], live[-1])
    assert len(eids) <= 24
    assert len(set(verts)) == len(verts)
    check_emissions(store)


def test_two_halves_emit_sparse_cut(cnst):
    rng = random.Random(2)
    store = []
    core = two_halves_core(rng, 10, 0.5, bridges=1)
    st = ClusterState(core, d_star=20, delta=40, cut_sink=collecting_sink(store),
                      cnst=cnst, checked=True)
    assert store, "expected at least one bad iteration on a near-disconnected graph"
    check_emissions(store)
    bound = cnst.cluster_cut_bound(core.n, 20)
    for item in store:
        assert item["emission"].sparsity_bound <= bound + 1e-9


def test_cluster_halts_below_half(cnst):
    rng = random.Random(3)
    store = []
    # two blocks with NO bridges: the first cut removes half: instant halving
    core = two_halves_core(rng, 8, 0.6, bridges=0)
    st = ClusterState(core, d_star=16, delta=10, cut_sink=collecting_sink(store),
                      cnst=cnst, checked=True)
    # either it halted during construction or it serves on the surviving block
    if st.halted:
        with pytest.raises(ClusterHalted):
            st.query(0, 1)
    check_emissions(store)


def test_query_adjacent_expander_pair_uses_embedding(cnst):
    rng = random.Random(4)
    core = random_core(rng, 20, 20, 0.4, match_frac=0.95)
    st = ClusterState(core, d_star=30, delta=20, cut_sink=None, cnst=cnst,
                      checked=True)
    assert not st.halted
    # pick an expander edge with a live embedding path and query its endpoints
    idx = next(i for i in range(len(st.emb.edges))
               if st.exp.alive[i] and i not in st.emb.fake)
    x, y = st.emb.edges[idx]
    verts, eids = st.query(x, y)
    assert verts[0] == x and verts[-1] == y
    assert len(eids) <= 30


def test_query_rejects_budget_and_dead_vertices(cnst):
    rng = random.Random(5)
    core = random_core(rng, 12, 12, 0.4, match_frac=0.9)
    st = ClusterState(core, d_star=20, delta=1, cut_sink=None, cnst=cnst)
    live = st.core.live_vertices()
    st.query(live[0], live[1])
    with pytest.raises(ValueError):
        st.query(live[0], live[1])


def test_delete_requires_last_path_edges(cnst):
    rng = random.Random(6)
    core = random_core(rng, 12, 12, 0.4, match_frac=0.9)
    st = ClusterState(core, d_star=20, delta=10, cut_sink=None, cnst=cnst)
    live = st.core.live_vertices()
    verts, eids = st.query(live[0], live[2])
    other = [e for e in st.core.live_edges() if e not in set(eids)]
    if other:
        with pytest.raises(ValueError):
            st.delete_edges([other[0]])
    st.delete_edges([])  # no-op
    if eids:
        st.delete_edges([eids[0]])


def test_delete_edge_without_embedding_path_only_bookkeeps(cnst):
    rng = random.Random(1)
    core = random_core(rng, 16, 16, 0.35, match_frac=0.9)
    store = []
    st = ClusterState(core, d_star=26, delta=20, cut_sink=collecting_sink(store),
                      cnst=cnst, checked=True)
    assert not st.halted
    live = st.core.live_vertices()
    verts, eids = st.query(live[0], live[-1])
    bare = [e for e in eids if not st.s_index.get(e)]
    assert bare, "instance chosen to include an embedding-free path edge"
    exp_alive_before = sum(st.exp.alive)
    st.delete_edges([bare[0]])
    assert sum(st.exp.alive) == exp_alive_before


def test_adversarial_middle_deletions(cnst):
    rng = random.Random(8)
    store = []
    core = random_core(rng, 26, 26, 0.3, match_frac=0.85)
    n0, d_star, delta = core.live_n, 26, 60
    m0 = core.live_m
    st = ClusterState(core, d_star=d_star, delta=delta,
                      cut_sink=collecting_sink(store), cnst=cnst, checked=True)
    answered = 0
    while not st.halted and answered < 20:
        live = st.core.live_vertices()
        x, y = rng.choice(live), rng.choice(live)
        try:
            verts, eids = st.query(x, y)
        except ClusterContractError:
            break
        assert len(eids) <= 26
        assert len(set(verts)) == len(verts)
        answered += 1
        if eids:
            st.delete_edges([eids[len(eids) // 2]])
    check_emissions(store)
    assert answered >= 1
    # phase accounting: type-1 phases shrink vertices geometrically, type-2
    # phases consume query budget
    from bipmatch.constants import log2c
    phase_cap = (math.ceil(cnst.c_hat * log2c(n0) ** cnst.shrink_exp)
                 + delta // st.n_budget + 4)
    assert st.stats["phases"] <= phase_cap
    # instrumented scan work within the configured multiple of (m*d* + n^2)
    factor = max(1.0, delta * d_star * d_star / n0)
    assert st.total_es_scans() <= 64 * (m0 * d_star + n0 * n0) * factor


def test_phase_budget_forces_rebuild():
    cn = Constants(n_query_coeff=1e-6)  # floor the per-phase budget at one query
    rng = random.Random(9)
    core = random_core(rng, 18, 18, 0.4, match_frac=0.9)
    st = ClusterState(core, d_star=30, delta=10, cut_sink=None, cnst=cn)
    live = st.core.live_vertices()
    assert st.n_budget == 1
    st.query(live[0], live[1])
    assert st.needs_rebuild
    phases_before = st.stats["phases"]
    st.flush_rebuild()
    assert st.stats["phases"] > phases_before
