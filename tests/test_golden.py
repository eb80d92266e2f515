"""Golden outputs: exact results of fixed runs, pinned as literals.

Matchings, phase records, MWU path collections, backend counters, cluster
query answers and cut-matching-game results must not move under a
refactor.  Long lists are pinned as the first 16 hex digits of the sha256
of their canonical JSON.  To print the current values, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import dataclasses
import hashlib
import json
import random

import pytest

from bipmatch.cli import generate
from bipmatch.constants import Constants
from bipmatch.driver import DriverConfig, max_matching
from bipmatch.expander_tools import embed_or_cut
from bipmatch.graph_core import BipartiteGraph, Matching, residual_graph
from bipmatch.maintain_cluster import ClusterContractError, ClusterState
from bipmatch.mwu import mwu_run
from bipmatch.oracles import hopcroft_karp
from conftest import random_core

# integer work counters of the full backend
COUNTERS = ("queries", "fails", "cuts", "splits", "shatters", "emergency_shatters",
            "over_2lam", "cluster_queries", "es_scans", "dag_work")

DRIVER_CASES = {
    "gnp-40": ("random-gnp", {"n": 40, "p": 0.15}, 1),
    "gnp-60": ("random-gnp", {"n": 60, "p": 0.1}, 2),
    "two-blocks-24": ("two-blocks", {"n": 24, "p": 0.4, "bridges": 2}, 3),
}


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def driver_outcome(case: str, backend: str) -> dict:
    kind, params, seed = DRIVER_CASES[case]
    matching, report = max_matching(generate(kind, params, seed),
                                    DriverConfig(backend=backend))
    return {
        "size": len(matching),
        "pairs": digest(sorted(matching.pairs)),
        "phases": [[ph.delta, ph.collected, ph.rounded, ph.fallback]
                   for ph in report.phases],
        "exact": report.exact_augmentations,
        "fallbacks": report.fallback_phases,
        "cuts": report.backend_stats.get("cuts", 0),
    }


def warm_repair_outcome() -> dict:
    """One full-backend MWU phase repairing a Hopcroft-Karp matching minus 4 pairs."""
    rng = random.Random(0)
    n, p = 200, 0.045
    g = BipartiteGraph(n, n, tuple((u, v) for u in range(n) for v in range(n)
                                   if rng.random() < p))
    full, _ = hopcroft_karp(g)
    ordered = sorted(full.pairs)
    dropped = set(rng.sample(ordered, 4))
    start = Matching([q for q in ordered if q not in dropped])
    cnst = dataclasses.replace(Constants.desk(), mwu_gate_coeff=0.25)
    result = mwu_run(residual_graph(g, start), 4, backend="full", cnst=cnst)
    return {
        "paths": digest(result.paths),
        "n_paths": len(result.paths),
        "stats": {k: result.backend_stats[k] for k in COUNTERS},
    }


def cluster_outcome() -> dict:
    """Queries between random live pairs, deleting the middle edge of each answer."""
    rng = random.Random(8)
    cuts = []
    core = random_core(rng, 26, 26, 0.3, match_frac=0.85)
    st = ClusterState(core, d_star=26, delta=60,
                      cut_sink=lambda _st, cut, kind: cuts.append(
                          [sorted(cut.smaller()), cut.smaller() is cut.a, cut.crossing, kind]),
                      cnst=Constants.desk(), checked=True)
    answers = []
    while not st.halted and len(answers) < 20:
        live = st.core.live_vertices()
        x, y = rng.choice(live), rng.choice(live)
        try:
            verts, eids = st.query(x, y)
        except ClusterContractError:
            answers.append("contract")
            break
        answers.append([verts, eids])
        if eids:
            st.delete_edges([eids[len(eids) // 2]])
    return {
        "answers": digest(answers),
        "n_answers": len(answers),
        "cuts": digest(cuts),
        "live": digest(st.core.live_vertices()),
        "stats": dict(st.stats),
        "scans": st.total_es_scans(),
    }


EMBED_CASES = {
    "dense": (3, (16, 16, 0.5, 1.0), 6),
    "sparse": (11, (16, 16, 0.3, 0.9), 8),
    "odd": (5, (11, 10, 0.02, 0.3), 8),
}


def embed_outcome(case: str) -> dict:
    seed, (nl, nr, p, frac), d_prime = EMBED_CASES[case]
    core = random_core(random.Random(seed), nl, nr, p, match_frac=frac)
    kind, payload = embed_or_cut(core, d_prime, Constants.desk())
    if kind == "cut":
        return {"kind": kind, "cut": digest([payload.a, payload.b, payload.crossing])}
    return {
        "kind": kind,
        "embedding": digest([payload.vertices, payload.edges, sorted(payload.fake),
                             sorted(payload.path_vertices.items()),
                             sorted(payload.path_edges.items()),
                             payload.rounds_played]),
    }


EXPECTED = {'driver': {'gnp-40/reference': {'size': 40,
                                            'pairs': '3bb8bdbd936abda8',
                                            'phases': [[40, 40, 37, False]],
                                            'exact': 3,
                                            'fallbacks': 0,
                                            'cuts': 0},
                       'gnp-40/full': {'size': 40,
                                       'pairs': 'e6607c9db539c37e',
                                       'phases': [[40, 40, 36, False]],
                                       'exact': 4,
                                       'fallbacks': 0,
                                       'cuts': 0},
                       'gnp-60/reference': {'size': 60,
                                            'pairs': '43409540f4a21393',
                                            'phases': [[60, 60, 54, False]],
                                            'exact': 6,
                                            'fallbacks': 0,
                                            'cuts': 0},
                       'gnp-60/full': {'size': 60,
                                       'pairs': '6b3c24590701755e',
                                       'phases': [[60, 60, 51, False]],
                                       'exact': 9,
                                       'fallbacks': 0,
                                       'cuts': 0},
                       'two-blocks-24/reference': {'size': 48,
                                                   'pairs': '0f56885e37473936',
                                                   'phases': [[48, 48, 46, False]],
                                                   'exact': 2,
                                                   'fallbacks': 0,
                                                   'cuts': 0},
                       'two-blocks-24/full': {'size': 48,
                                              'pairs': 'df9bee5878c4135c',
                                              'phases': [[48, 48, 43, False]],
                                              'exact': 5,
                                              'fallbacks': 0,
                                              'cuts': 0}},
            'warm_repair': {'paths': 'e34a98b138233ece',
                            'n_paths': 4,
                            'stats': {'queries': 4,
                                      'fails': 0,
                                      'cuts': 0,
                                      'splits': 0,
                                      'shatters': 1,
                                      'emergency_shatters': 0,
                                      'over_2lam': 0,
                                      'cluster_queries': 0,
                                      'es_scans': 0,
                                      'dag_work': 12469}},
            'cluster': {'answers': 'c42f9e0d741b3a28',
                        'n_answers': 16,
                        'cuts': 'cde572319fc1be3e',
                        'live': '488140fba5ba74c4',
                        'stats': {'phases': 5,
                                  'cuts_emitted': 19,
                                  'queries': 16,
                                  'rebases': 83,
                                  'bfs_fallbacks': 0,
                                  'type1_fixes': 15,
                                  'type2_fixes': 67,
                                  'es_scans': 3416,
                                  'emitted_cut_edges': 9},
                        'scans': 4090},
            'embed': {'dense': {'kind': 'embed', 'embedding': 'f1f48713d0f86aa4'},
                      'odd': {'kind': 'cut', 'cut': 'cd6ab9b759545adf'},
                      'sparse': {'kind': 'cut', 'cut': '732be376b1406ce3'}}}


@pytest.mark.parametrize("case", sorted(DRIVER_CASES))
@pytest.mark.parametrize("backend", ["reference", "full"])
def test_driver_golden(case, backend):
    assert driver_outcome(case, backend) == EXPECTED["driver"][f"{case}/{backend}"]


def test_warm_repair_mwu_golden():
    assert warm_repair_outcome() == EXPECTED["warm_repair"]


def test_cluster_sequence_golden():
    assert cluster_outcome() == EXPECTED["cluster"]


@pytest.mark.parametrize("case", sorted(EMBED_CASES))
def test_embed_or_cut_golden(case):
    assert embed_outcome(case) == EXPECTED["embed"][case]


if __name__ == "__main__":
    import pprint
    pprint.pprint({
        "driver": {f"{c}/{b}": driver_outcome(c, b)
                   for c in sorted(DRIVER_CASES) for b in ("reference", "full")},
        "warm_repair": warm_repair_outcome(),
        "cluster": cluster_outcome(),
        "embed": {c: embed_outcome(c) for c in sorted(EMBED_CASES)},
    }, width=100, sort_dicts=False)
