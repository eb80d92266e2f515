"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  All tolerances are pinned here; nothing is deferred to later
calibration.
"""

import random
import time

import pytest

from bipmatch.cli import main as cli_main
from bipmatch.constants import Constants, log2c
from bipmatch.dag_sssp import DagSssp, INF
from bipmatch.driver import DriverConfig, max_matching, round_to_disjoint
from bipmatch.expander_tools import construct_expander, embed_or_cut
from bipmatch.graph_core import (BipartiteGraph, DirectedGraph, Matching,
                                 residual_graph)
from bipmatch.maintain_cluster import ClusterContractError, ClusterState
from bipmatch.mwu import mwu_run, mwu_yield_floor
from bipmatch.oracles import (bicriteria_path_oracle, dijkstra,
                              enumerate_all_cuts_sparsity, hopcroft_karp)
from bipmatch.restricted_sssp import RestrictedSssp
from conftest import (dag_add_edge_p1, es_tree, random_bipartite, random_core,
                      recount_core_cut)

CN = Constants.desk()
_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_console(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def report(name: str, detail: str) -> None:
    line = f"ACCEPTANCE {name}: PASS ({detail})"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print("\n" + line)
    else:
        print("\n" + line)


def _mixed_instances(count: int, rng: random.Random):
    """A deterministic stream of (descr, graph) pairs with n <= 400."""
    out = []
    for i in range(count):
        style = i % 10
        if style < 5:
            nl, nr = rng.randint(2, 30), rng.randint(2, 30)
            p = rng.choice([0.08, 0.2, 0.5, 0.9])
            out.append((f"gnp-small-{i}", random_bipartite(rng, nl, nr, p)))
        elif style < 7:
            nl = nr = rng.randint(31, 80)
            p = rng.choice([0.04, 0.1, 0.25])
            out.append((f"gnp-medium-{i}", random_bipartite(rng, nl, nr, p)))
        elif style == 7:
            k = rng.randint(4, 60)
            edges = tuple((j, j) for j in range(k))
            out.append((f"paths-{i}", BipartiteGraph(k, k, edges)))
        elif style == 8:
            k = rng.randint(3, 30)
            edges = set()
            for u in range(k):
                for v in range(k):
                    if rng.random() < 0.4:
                        edges.add((u, v))
                        edges.add((k + u, k + v))
            edges.add((0, k))
            out.append((f"blocks-{i}", BipartiteGraph(2 * k, 2 * k,
                                                      tuple(sorted(edges)))))
        else:
            nl = nr = rng.randint(81, 199)
            p = rng.choice([0.02, 0.05])
            out.append((f"gnp-large-{i}", random_bipartite(rng, nl, nr, p)))
    return out


def test_criterion_1_exactness():
    rng = random.Random(2024)
    t0 = time.time()
    instances = _mixed_instances(500, rng)
    checked = 0
    for i, (descr, g) in enumerate(instances):
        assert g.n <= 400
        want = len(hopcroft_karp(g)[0])
        delta_star = 1 if i % 3 == 0 else None  # exercise MWU phases on a third
        for backend in ("reference", "full"):
            got, _ = max_matching(g, DriverConfig(backend=backend,
                                                  delta_star=delta_star))
            assert len(got) == want, f"{descr} backend={backend}"
        checked += 1
    elapsed = time.time() - t0
    assert checked >= 500
    assert elapsed < 600, f"suite took {elapsed:.0f}s, above the 10 minute budget"
    report("1 exactness", f"{checked} instances, both backends, {elapsed:.0f}s")


def test_criterion_2_mwu_guarantees():
    rng = random.Random(77)
    runs = 0
    while runs < 100:
        style = runs % 2
        if style == 0:
            k = rng.randint(48, 120)
            g = BipartiteGraph(k, k, tuple((j, j) for j in range(k)))
        else:
            nl = nr = rng.randint(50, 110)
            g = random_bipartite(rng, nl, nr, rng.choice([0.1, 0.25]))
        h = residual_graph(g, Matching())
        m = h.live_m
        delta = len(hopcroft_karp(g)[0])
        if m < CN.mwu_min_edges or delta < CN.mwu_gate(m):
            continue
        result = mwu_run(h, delta=delta, backend="reference", cnst=CN)
        assert len(result.paths) >= mwu_yield_floor(delta, m), \
            f"|P|={len(result.paths)} below Delta/(128 log m)"
        assert result.max_usage() <= log2c(m)
        runs += 1
    report("2 MWU guarantees",
           f"{runs} runs, |P| >= Delta/(128 log2 m) and usage <= ceil(log2 m)")


def test_criterion_3_es_tree_oracle():
    rng = random.Random(31)
    graphs = 0
    deletions = 0
    while graphs < 50 or deletions < 10_000:
        n = rng.randint(8, 60)
        edges = []
        for _ in range(rng.randint(2 * n, 6 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v, rng.randint(1, 5)))
        if not edges:
            continue
        depth = rng.choice([5, 12, 40, 10**6])
        tree = es_tree(n, edges, root=0, depth=depth)
        g = DirectedGraph(n)
        for u, v, ln in edges:
            g.add_edge(u, v, ln)
        order = list(range(len(edges)))
        rng.shuffle(order)
        for eid in order:
            tree.delete_edges([eid])
            g.delete_edge(eid)
            oracle = dijkstra(g, 0)
            expect = [x if x <= depth else INF for x in oracle]
            assert tree.level == expect
            deletions += 1
        assert tree.scan_steps <= tree.scan_budget()
        graphs += 1
    report("3 ES-tree oracle",
           f"{deletions} deletions over {graphs} graphs, exact level match")


def test_criterion_4_dag_sssp():
    rng = random.Random(57)
    updates = 0
    fails_certified = 0
    while updates < 10_000:
        n = rng.randint(6, 24)
        d = rng.choice([8, 20, 60])
        gamma = rng.choice([4, 12, 40])
        dag = DagSssp(s=0, t=1, d=d, eps_inv=20, gamma=gamma,
                      n_hint=2 * n + 6, checked=True)
        for _ in range(n):
            dag.add_vertex()
        mirror = DirectedGraph(n)
        pairs = []
        payload = {}
        for _ in range(rng.randint(2 * n, 4 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v or v == 0 or u == 1:
                continue
            w = 1 << rng.randint(0, 3)
            ln = rng.randint(1, 4)
            de = dag_add_edge_p1(dag, u, v, ln, w)
            if de is None:
                continue
            pairs.append((de, mirror.add_edge(u, v, ln, w)))
            payload[pairs[-1][0]] = (u, v, ln, w)
        dag.finalize()
        rng.shuffle(pairs)
        k = dag.k
        budget = (10 * k + 100) * dag.d_original
        failed = False
        for step, (de, me) in enumerate(pairs):
            # interleave occasional vertex splits
            if step % 9 == 4 and not failed:
                v = rng.randrange(2, dag.n)
                nid = dag.n
                specs = [(v, nid, 1, 1)]
                for e, (a, b, ln, w) in sorted(payload.items()):
                    if dag.alive[e] and b == v and a != v and len(specs) < 3:
                        specs.append((a, nid, ln, w))
                created = dag.split_vertex(v, [nid], specs)
                for ce, sp in zip(created, specs):
                    payload[ce] = sp
                updates += 1
            res = dag.path_query()
            if res is None:
                if not failed and mirror.n <= 60:
                    assert not bicriteria_path_oracle(mirror, 0, 1, d, gamma)
                    fails_certified += 1
                failed = True
            else:
                assert dag.path_length(res) * 10 * k <= budget
            dag.delete_edge(de)
            mirror.delete_edge(me)
            updates += 1
        assert dag.work <= dag.work_budget()
    report("4 dag-sssp", f"{updates} checked updates, {fails_certified} FAILs "
                         "certified infeasible, work within 16(n^2+m+Gn)/eps^2")


def test_criterion_5_cut_certificates():
    rng = random.Random(91)
    emissions = 0
    violations = []

    def make_sink(cluster_box, d_star, n0):
        def sink(cluster, cut, kind):
            nonlocal emissions
            emissions += 1
            crossing, special = recount_core_cut(cluster.core, cut.a, cut.b)
            bound = CN.cluster_cut_bound(n0, d_star)
            if not special:
                violations.append("regular edge crossed an emitted cut")
            if crossing != cut.crossing:
                violations.append("recount mismatch")
            if cut.crossing > cut.sparsity_bound * cut.min_side() + 1e-9:
                violations.append("claimed bound violated")
            if cut.sparsity_bound > bound + 1e-9:
                violations.append("claimed bound above the module contract")
        return sink

    # standalone cluster campaigns
    for trial in range(10):
        core = random_core(rng, 22, 22, rng.choice([0.15, 0.35]), match_frac=0.85)
        n0, d_star = core.live_n, rng.choice([18, 30])
        st = ClusterState(core, d_star, 40, make_sink(None, d_star, n0), cnst=CN)
        steps = 0
        while not st.halted and steps < 12:
            live = st.core.live_vertices()
            try:
                verts, eids = st.query(rng.choice(live), rng.choice(live))
            except ClusterContractError:
                break
            if eids:
                st.delete_edges([eids[len(eids) // 2]])
            steps += 1

    # full pipeline campaigns (cuts flow through the restricted-SSSP sink)
    for trial in range(6):
        nl = nr = rng.randint(60, 80)
        g = random_bipartite(rng, nl, nr, 0.12)
        pairs = []
        used_r = set()
        for u, v in sorted(g.edges):
            if u not in {p[0] for p in pairs} and v not in used_r:
                pairs.append((u, v))
                used_r.add(v)
        h = residual_graph(g, Matching(pairs[:-2] if len(pairs) > 2 else []))
        rs = RestrictedSssp(h, delta=2, checked=True)
        emissions += rs.stats["cuts"]
        while rs.stats["queries"] < rs.delta:
            res = rs.query()
            if res is None:
                break
            rs.delete_path_edges(res[1])
    assert not violations, violations
    assert emissions >= 20
    report("5 cut certificates", f"{emissions} cuts recounted, zero violations")


def test_criterion_6_expander_construction():
    for n in range(2, 15):
        g = construct_expander(n, CN)
        sparsity = enumerate_all_cuts_sparsity(g)
        assert sparsity >= CN.alpha0, f"n={n}: {sparsity} < {CN.alpha0}"
        assert g.live_m == len(g.tail)  # no deleted edges: lists are degrees
        for v in range(n):
            assert len(g.out_adj[v]) <= CN.degree_bound
            assert len(g.in_adj[v]) <= CN.degree_bound
    report("6 expander construction",
           f"n=2..14 exhaustive, expansion >= {CN.alpha0}, degree <= {CN.degree_bound}")


def test_criterion_7_embedding_certificates():
    rng = random.Random(101)
    embeds = 0
    attempts = 0
    while embeds < 50 and attempts < 200:
        attempts += 1
        half = rng.randint(10, 26)
        core = random_core(rng, half, half, rng.choice([0.3, 0.5]),
                           match_frac=0.95)
        kind, payload = embed_or_cut(core, rng.choice([4, 6, 10]), CN)
        if kind != "embed":
            continue
        problems = payload.verify(core)
        assert problems == [], problems
        assert len(payload.vertices) >= core.live_n // 8
        embeds += 1
    assert embeds >= 50
    report("7 embedding certificates",
           f"{embeds} embeddings fully verified (paths, |F|, length, congestion)")


def test_criterion_8_rounding():
    rng = random.Random(111)
    tested = 0
    for trial in range(30):
        nl = nr = rng.randint(40, 90)
        g = random_bipartite(rng, nl, nr, rng.choice([0.08, 0.2]))
        h = residual_graph(g, Matching())
        m = h.live_m
        delta = min(nl, nr)
        if m < CN.mwu_min_edges or delta < CN.mwu_gate(m):
            continue
        result = mwu_run(h, delta=delta, backend="reference", cnst=CN)
        if not result.paths:
            continue
        out = round_to_disjoint(h, result.paths)
        assert len(out) >= len(result.paths) / log2c(m)
        internal = [v for p in out for v in p[1:-1]]
        assert len(internal) == len(set(internal))
        tested += 1
    assert tested >= 15
    report("8 rounding", f"{tested} MWU outputs rounded, disjoint, size >= |P|/ceil(log2 m)")


def test_criterion_9_scaling_trend(tmp_path):
    csv_path = tmp_path / "scaling.csv"
    rows = []
    for k in (16, 32, 64, 128, 256):
        g = BipartiteGraph(k, k, tuple((j, j) for j in range(k)))
        matching, rep = max_matching(
            g, DriverConfig(backend="reference", delta_star=1)
        )
        assert len(matching) == k
        m_res = 3 * k
        bound = 64 * log2c(m_res) ** 2 * log2c(2 * k + 2)
        assert rep.phase_count() <= bound
        rows.append(f"disjoint-paths,{k},{m_res},{rep.phase_count()},{bound}")
    csv_path.write_text("generator,k,m,phases,bound\n" + "\n".join(rows) + "\n")
    # the CLI records the same trend
    rc = cli_main(["--algo", "paper", "--backend", "reference",
                   "--gen", "disjoint-paths", "--paths", "64", "--plen", "1",
                   "--verify", "--csv", str(tmp_path / "cli.csv")])
    assert rc == 0
    report("9 scaling trend", f"phase counts recorded to CSV, all within 64*log^2(m)*log(n)")
