"""Self-tests for the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
import types

import pytest

import run
from checker import matching_errors
from inputs import drop_pairs, gnp_edges, long_path_edges
from spans import Tracer

LIB = run.import_library()


# ------------------------------------------------------------------ checker

def test_checker_accepts_maximum_matching():
    edges = [(0, 0), (1, 0), (1, 1)]
    assert matching_errors(2, 2, edges, [(0, 0), (1, 1)], expected_size=2) == []


def test_checker_rejects_non_maximum_matching():
    # {(1,0)} is maximal but L0-R0-L1-R1 augments it
    errors = matching_errors(2, 2, [(0, 0), (1, 0), (1, 1)], [(1, 0)])
    assert any("augmenting path" in e for e in errors)


def test_checker_rejects_non_matching():
    edges = [(0, 0), (1, 0), (1, 1)]
    assert any("reuses" in e for e in matching_errors(2, 2, edges, [(0, 0), (1, 0)]))
    assert any("not an edge" in e for e in matching_errors(2, 2, edges, [(0, 1)]))


def test_checker_rejects_size_mismatch():
    edges = [(0, 0), (1, 1)]
    errors = matching_errors(2, 2, edges, [(0, 0), (1, 1)], expected_size=3)
    assert any("reference size" in e for e in errors)


def test_checker_needs_no_recursion_on_long_paths():
    k = 5000
    edges = long_path_edges(k)
    # shift the perfect matching by one along the path: maximal, one short
    pairs = [(k - 2 - i, i) for i in range(k - 1)]
    assert matching_errors(k, k, edges, pairs)
    assert matching_errors(k, k, edges, [(k - 1 - i, i) for i in range(k)]) == []


# ------------------------------------------------------------------ inputs

@pytest.mark.parametrize("k", [1, 2, 7])
def test_long_path_shape(k):
    edges = long_path_edges(k)
    assert len(edges) == 2 * k - 1 == len(set(edges))
    assert edges[0] == (k - 1, 0)  # left labels run backwards along the path
    adj: dict[tuple[str, int], list[tuple[str, int]]] = {}
    for u, v in edges:
        adj.setdefault(("L", u), []).append(("R", v))
        adj.setdefault(("R", v), []).append(("L", u))
    assert len(adj) == 2 * k
    assert all(len(nb) <= 2 for nb in adj.values())
    ends = [x for x, nb in adj.items() if len(nb) == 1]
    assert sorted(ends) == sorted({("L", k - 1), ("R", k - 1)})
    # walk from one end: a single simple path through every vertex
    prev, cur, seen = None, ends[0], {ends[0]}
    while True:
        nxt = [x for x in adj[cur] if x != prev]
        if not nxt:
            break
        prev, cur = cur, nxt[0]
        assert cur not in seen
        seen.add(cur)
    assert len(seen) == 2 * k
    assert matching_errors(k, k, edges, [(k - 1 - i, i) for i in range(k)], k) == []


def test_gnp_is_seeded_and_simple():
    a = gnp_edges(30, 0.2, random.Random("x"))
    assert a == gnp_edges(30, 0.2, random.Random("x"))
    assert a != gnp_edges(30, 0.2, random.Random("y"))
    assert len(set(a)) == len(a)
    assert all(0 <= u < 30 and 0 <= v < 30 for u, v in a)


def test_drop_pairs_removes_k():
    pairs = {(i, i) for i in range(10)}
    kept = drop_pairs(pairs, 4, random.Random(1))
    assert len(kept) == 6 and set(kept) < pairs
    assert kept == drop_pairs(pairs, 4, random.Random(1))


def test_setup_round_trips_and_warm_starts():
    w = dataclasses.replace(run.WORKLOADS["warm-repair"], count=2, n=40, p=0.15)
    insts = run.setup(w, 3, LIB)
    assert len(insts) == 2
    for inst in insts:
        full, _ = LIB["oracles"].hopcroft_karp(inst.g)
        assert len(inst.start) == len(full) - run.WARM_REPAIR_DROP
        assert inst.start.pairs < full.pairs


# ------------------------------------------------------------------ tracing

def _root_wall(tr: Tracer) -> float:
    """Summed duration of the spans without a parent."""
    return sum(end - start for _, parent, start, end in tr.spans if parent < 0)


def test_self_time_subtracts_direct_children():
    import time

    ns = types.SimpleNamespace()
    ns.inner = lambda: time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        ns.inner()
        ns.inner()

    ns.outer = outer
    tr = Tracer()
    tr.wrap(ns, "inner", "inner")
    tr.wrap(ns, "outer", "outer")
    ns.outer()
    st = tr.self_times()
    assert tr.calls() == {"outer": 1, "inner": 2}
    assert 0.009 < st["outer"] < 0.03 and st["inner"] >= 0.04
    assert [rec[1] for rec in tr.spans] == [-1, 0, 0]
    assert abs(sum(st.values()) - _root_wall(tr)) < 1e-9
    tr.unwrap_all()
    assert ns.inner is not None and ns.outer is outer


@pytest.mark.parametrize("name", ["gnp-dense", "warm-repair"])
def test_trace_reconciles_on_tiny_instance(name):
    w = dataclasses.replace(run.WORKLOADS[name], count=1, n=30, p=0.15)
    inst = run.setup(w, 0, LIB)[0]
    solve = run.solve_warm_repair if w.warm_repair else run.solve_driver
    originals = (LIB["driver"].round_to_disjoint, LIB["es_tree"].EsTree.__init__)
    tr = Tracer()
    run.install_spans(tr, LIB)
    try:
        matching, _ = tr.span(run.ROOT_SPAN, solve, inst, LIB)
    finally:
        tr.unwrap_all()
    assert (LIB["driver"].round_to_disjoint, LIB["es_tree"].EsTree.__init__) == originals
    st = tr.self_times()
    assert set(st) <= set(run.TIME_METRICS)
    assert abs(sum(st.values()) - _root_wall(tr)) <= 1e-9 * max(1, len(tr.spans))
    assert all(v >= 0 for v in st.values())
    full, _ = LIB["oracles"].hopcroft_karp(inst.g)
    assert matching_errors(inst.g.n_left, inst.g.n_right, inst.g.edges,
                           matching.pairs, len(full)) == []


# ------------------------------------------------------------------ command

def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_contract_line(monkeypatch, capsys, trace):
    tiny = dataclasses.replace(run.WORKLOADS["long-path"], pairs=12)
    monkeypatch.setitem(run.WORKLOADS, "long-path", tiny)
    code = run.main(["--workload", "long-path", "--seed", "5", "--seconds", "0.01",
                     "--trace", str(trace)])
    out = _last_json(capsys.readouterr().out)
    assert code == 0
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    assert set(out["metrics"]) == {m["name"] for m in bench[key]}
    for m in bench[key]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert out["metrics"]["driver.exact_augments"]["value"] == 12
        assert abs(out["metrics"]["trace.self_sum_frac"]["value"] - 1) < 0.05


def test_run_counts_failed_checks(monkeypatch, capsys):
    tiny = dataclasses.replace(run.WORKLOADS["long-path"], pairs=6)
    monkeypatch.setitem(run.WORKLOADS, "long-path", tiny)
    real = run.solve_driver

    def short(inst, lib):
        matching, st = real(inst, lib)
        matching.discard(*sorted(matching.pairs)[0])
        return matching, st

    monkeypatch.setattr(run, "solve_driver", short)
    code = run.main(["--workload", "long-path", "--seconds", "0.01", "--trace", "0"])
    out = _last_json(capsys.readouterr().out)
    assert code != 0 and out["correct"] is False and out["failed"] == out["attempted"]


def test_run_fails_without_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in run.HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gnp-dense",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
