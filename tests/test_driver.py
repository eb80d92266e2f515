import math
import random

from bipmatch.constants import log2c
from bipmatch.driver import (DriverConfig, disjoint_paths, max_matching,
                             round_to_disjoint)
from bipmatch.graph_core import (BipartiteGraph, Matching, S_ID, T_ID, augment,
                                 residual_graph)
from bipmatch.mwu import mwu_run
from bipmatch.oracles import hopcroft_karp
from conftest import random_bipartite


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
        eids = [e for e in h.g.live_edges()
                if i + 2 in (h.g.tail[e], h.g.head[e])
                or (h.g.tail[e] == 6 + i or h.g.head[e] == 6 + i)]
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
    all_edges = sorted(h.g.live_edges())
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
        paths = disjoint_paths(h, h.g.live_edges())
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
    paths = disjoint_paths(h, h.g.live_edges())
    assert len(paths) == 1 and len(paths[0]) == 2 * k + 2
    assert len(augment(g, partial, paths)) == k


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


def test_report_counts_are_consistent():
    rng = random.Random(41)
    g = random_bipartite(rng, 80, 80, 0.12)
    matching, rep = max_matching(g, DriverConfig(backend="reference", delta_star=1))
    assert rep.matching_size == len(matching)
    assert rep.exact_augmentations >= 0
    assert all(ph.rounded >= 1 or ph.fallback for ph in rep.phases)
