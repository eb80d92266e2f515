import ast
import dataclasses
import itertools
import random
from pathlib import Path

import pytest

import bipmatch
from bipmatch.constants import doubling_levels, log2c
from bipmatch.graph_core import BipartiteGraph, Matching, residual_graph
from bipmatch.mwu import build_doubling_graph, mwu_run, mwu_yield_floor
from bipmatch.oracles import hopcroft_karp
from bipmatch.restricted_sssp import ReferenceSssp
from conftest import random_bipartite


def disjoint_paths_residual(k):
    g = BipartiteGraph(k, k, tuple((i, i) for i in range(k)))
    return residual_graph(g, Matching())


def test_doubling_graph_shape():
    h = disjoint_paths_residual(4)
    lam = 4
    hat = build_doubling_graph(h, lam)
    levels = doubling_levels(lam)
    assert len(hat.tail) == levels * len(h.tail)
    for c in hat.live_edges():
        eid, j = divmod(c, levels)  # copy j of residual edge eid
        assert (hat.tail[c], hat.head[c]) == (h.tail[eid], h.head[eid])
        assert hat.length[c] == 1 << j
    assert 1 << (levels - 1) > 8 * lam  # a copy above the budget always survives


def test_gate_rejects_small_delta(cnst):
    h = disjoint_paths_residual(40)
    with pytest.raises(ValueError):
        mwu_run(h, delta=1, backend="reference", cnst=cnst)


def test_rejects_residual_with_deleted_edges(cnst):
    # the backends read the graph once and keep one length per edge id
    h = disjoint_paths_residual(40)
    h.delete_edge(0)
    with pytest.raises(ValueError, match="deleted edges"):
        mwu_run(h, delta=40, backend="reference", cnst=cnst)


def test_disjoint_paths_all_collected(cnst):
    k = 64
    h = disjoint_paths_residual(k)
    m = h.live_m
    assert k >= cnst.mwu_gate(m)
    result = mwu_run(h, delta=k, backend="reference", cnst=cnst)
    # every one of the k disjoint routes is collected at least once
    middles = {tuple(p[1:-1]) for p in result.vertex_paths}
    assert len(middles) == k
    assert result.max_usage() <= log2c(m)
    assert len(result.paths) >= mwu_yield_floor(k, m)


def test_no_path_warns(cnst):
    g = BipartiteGraph(3, 3, ())
    h = residual_graph(g, Matching())
    result = mwu_run(h, delta=max(3, cnst.mwu_gate(max(2, h.live_m))),
                     backend="reference", cnst=cnst)
    assert result.paths == []
    assert result.warned_no_path


@pytest.mark.parametrize("backend", ["reference", "full"])
def test_tiny_residual_graphs_pass_the_gate_and_find_no_path(cnst, backend):
    # 0, 1 and 2 residual edges: no side, one free left vertex, a matched
    # pair, and one free vertex per side with no edge between them
    for g, start in ((BipartiteGraph(0, 0, ()), Matching()),
                     (BipartiteGraph(1, 0, ()), Matching()),
                     (BipartiteGraph(1, 1, ((0, 0),)), Matching([(0, 0)])),
                     (BipartiteGraph(1, 1, ()), Matching())):
        h = residual_graph(g, start)
        assert h.live_m <= 2
        gate = cnst.mwu_gate(h.live_m)
        for delta in (gate, 50):
            result = mwu_run(h, delta=delta, backend=backend, cnst=cnst)
            assert result.paths == [] and result.warned_no_path
            assert result.m == h.live_m
        with pytest.raises(ValueError, match="below the configured MWU gate"):
            mwu_run(h, delta=gate - 1, backend=backend, cnst=cnst)


def test_paths_have_unit_mwu_length(cnst):
    # when a path is collected, each of its edges has its initial length
    # doubled once per earlier collected path through it, and the path's
    # total is at most 8*lambda, which is MWU length 1.  The gnp residual
    # routes some edge through two paths, so a doubled length is summed
    gnp = random_bipartite(random.Random(4), 40, 40, 0.12)
    max_uses = 0
    for backend, (h, delta) in itertools.product(
            ("reference", "full"),
            ((disjoint_paths_residual(48), 48), (residual_graph(gnp, Matching()), 40))):
        result = mwu_run(h, delta=delta, backend=backend, cnst=cnst)
        assert result.paths
        uses: dict[int, int] = {}
        for eids, verts in zip(result.paths, result.vertex_paths):
            assert len(eids) == len(verts) - 1
            assert sum(h.length[e] << uses.get(e, 0) for e in eids) <= 8 * result.lam
            for e in eids:
                uses[e] = uses.get(e, 0) + 1
        max_uses = max(max_uses, *uses.values())
    assert max_uses > 1


def test_full_backend_matches_reference_congestion(cnst):
    rng = random.Random(4)
    g = random_bipartite(rng, 40, 40, 0.12)
    h = residual_graph(g, Matching())
    delta = min(40, len({u for u, _ in g.edges}))
    m = h.live_m
    if delta < cnst.mwu_gate(m):
        pytest.skip("instance below the MWU gate")
    res_full = mwu_run(h, delta=delta, backend="full", cnst=cnst)
    assert res_full.max_usage() <= log2c(m)
    g2 = random_bipartite(random.Random(4), 40, 40, 0.12)
    h2 = residual_graph(g2, Matching())
    res_ref = mwu_run(h2, delta=delta, backend="reference", cnst=cnst)
    assert res_ref.max_usage() <= log2c(m)
    assert len(res_ref.paths) >= mwu_yield_floor(delta, m)


def snapshot(h):
    return (list(h.tail), list(h.head), list(h.length), list(h.alive), h.live_m)


@pytest.mark.parametrize("backend", ["reference", "full"])
def test_backends_do_not_write_to_the_residual_graph(cnst, backend):
    # the driver rounds over h after mwu_run, and falls back on it when the
    # backend breaks its contract.  Inputs: 48 disjoint paths, gnp residuals
    # from the empty matching, and warm-start residuals from a maximum
    # matching less four pairs, which a lowered MWU gate admits
    rng = random.Random(17)
    warm = dataclasses.replace(cnst, mwu_gate_coeff=0.25)
    runs = [(disjoint_paths_residual(48), 48, cnst)]
    for trial in range(6):
        g = random_bipartite(rng, 50, 50, 0.1)
        if trial % 2 == 0:
            start, run_cnst = Matching(), cnst
        else:
            pairs = sorted(hopcroft_karp(g)[0].pairs)
            start, run_cnst = Matching(rng.sample(pairs, len(pairs) - 4)), warm
        runs.append((residual_graph(g, start), g.n_left - len(start), run_cnst))
    for h, delta, run_cnst in runs:
        before = snapshot(h)
        assert mwu_run(h, delta, backend=backend, cnst=run_cnst).paths
        assert snapshot(h) == before
    assert ReferenceSssp(h, delta=4).tree.g is h


def test_no_library_module_builds_a_doubling_graph():
    # both backends and the matching player keep the copies implicit; the
    # materialised doubling graph, and the copy count doubling_levels gives
    # it, are an oracle for tests only
    calls, level_uses = [], []
    for path in sorted(Path(bipmatch.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        oracle = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name == "build_doubling_graph"
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "build_doubling_graph":
                    calls.append(f"{path.name}:{node.lineno}")
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name == "doubling_levels" and id(node) not in oracle:
                level_uses.append(f"{path.name}:{node.lineno}")
    assert not calls, "doubling graph built in " + ", ".join(calls)
    assert not level_uses, "doubling_levels used in " + ", ".join(level_uses)


def test_yield_floor_on_random_instances(cnst):
    rng = random.Random(7)
    checked = 0
    for _ in range(20):
        nl = nr = rng.randint(40, 90)
        g = random_bipartite(rng, nl, nr, rng.choice([0.08, 0.2]))
        h = residual_graph(g, Matching())
        m = h.live_m
        delta = min(nl, nr)
        if m < 64 or delta < cnst.mwu_gate(m):
            continue
        result = mwu_run(h, delta=delta, backend="reference", cnst=cnst)
        assert len(result.paths) >= mwu_yield_floor(delta, m)
        assert result.max_usage() <= log2c(m)
        checked += 1
    assert checked >= 10
