"""Top-level matching algorithm: MWU phases with a deficiency cutoff,
deterministic rounding of congested path collections, and one finishing
maximum flow over the residual graph.

The binary search over the optimum is replaced by running to exhaustion: the
finishing flow reaches the true maximum regardless of how productive the MWU
phases were, so the result is always optimal.  A ``target`` mode
implements the guessed-optimum contract for benchmark parity.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .constants import Constants
from .graph_core import (BipartiteGraph, Matching, S_ID, T_ID, WellStructuredGraph,
                         augment, bfs_tree, residual_graph, tree_path)
from .maintain_cluster import ClusterContractError
from .mwu import MwuResult, mwu_run


@dataclass
class DriverConfig:
    constants: Constants = field(default_factory=Constants.desk)
    backend: str = "reference"          # "reference" | "full"
    delta_star: int | None = None       # override of n^(5/3)/m^(2/3)
    target: int | None = None           # stop once the matching reaches this size
    checked: bool = False


@dataclass
class PhaseRecord:
    delta: int
    collected: int
    rounded: int
    fallback: bool
    millis: float


@dataclass
class RunReport:
    phases: list[PhaseRecord] = field(default_factory=list)
    exact_augmentations: int = 0
    fallback_phases: int = 0
    backend_failures: int = 0
    matching_size: int = 0
    max_congestion: int = 0
    backend_stats: dict = field(default_factory=dict)

    def phase_count(self) -> int:
        return len(self.phases)


def _delta_star(n: int, m: int) -> int:
    if m == 0:
        return 1
    return max(1, round(n ** (5 / 3) / m ** (2 / 3)))


def find_augmenting_path(h: WellStructuredGraph) -> list[int] | None:
    """BFS for any s-t path in the residual graph; returns the vertex sequence.

    max_matching does not use it; its one caller is the warm-repair tail of
    the benchmark harness (perfbench/run.py).
    """
    parent = bfs_tree(S_ID, h, target=T_ID)
    return tree_path(parent, T_ID)[0] if T_ID in parent else None


def disjoint_paths(h: WellStructuredGraph, eids) -> list[list[int]]:
    """A maximum set of edge-disjoint s-t paths over the edges eids of h.

    It serves both the rounding of an MWU path collection (eids: the
    collection's support) and max_matching's finishing flow (eids: every
    live edge of h).  Edmonds-Karp over unit capacities, then a
    decomposition of the flow that follows each vertex's flow edges in id
    order.  In a residual graph every L vertex has one in-edge and every R
    vertex one out-edge, so the paths are internally vertex-disjoint as
    well.

    Each BFS tries, from a vertex u, its flow-free offered out-edges forward
    in id order, then its flow-carrying offered in-edges backward in id
    order.  The offered edges are indexed per vertex once per call, so a BFS
    costs O(offered edges), not O(edges of h).
    """
    g = h.g
    tail, head = g.tail, g.head
    flow = [-1] * len(tail)  # -1: not offered
    offered = []
    for eid in eids:
        if flow[eid] < 0:
            flow[eid] = 0
            offered.append(eid)
    offered.sort()
    out_of: list[list[int]] = [[] for _ in range(g.n)]
    in_of: list[list[int]] = [[] for _ in range(g.n)]
    for eid in offered:
        out_of[tail[eid]].append(eid)
        in_of[head[eid]].append(eid)
    seen = [0] * g.n   # number of the last BFS that reached v
    par_e = [0] * g.n  # the edge by which that BFS reached v

    def reaches_sink(stamp: int) -> bool:
        seen[S_ID] = stamp
        queue = [S_ID]
        for u in queue:  # grows while it is read: a FIFO queue
            for e in out_of[u]:
                if flow[e] == 0:
                    v = head[e]
                    if seen[v] != stamp:
                        seen[v] = stamp
                        par_e[v] = e
                        if v == T_ID:
                            return True
                        queue.append(v)
            for e in in_of[u]:
                if flow[e] == 1:
                    v = tail[e]
                    if seen[v] != stamp:
                        seen[v] = stamp
                        par_e[v] = e
                        if v == T_ID:
                            return True
                        queue.append(v)
        return False

    stamp = 1
    while reaches_sink(stamp):
        v = T_ID
        while v != S_ID:
            e = par_e[v]
            v = tail[e] if flow[e] == 0 else head[e]
            flow[e] ^= 1
        stamp += 1

    remaining: dict[int, list[int]] = {}
    for eid, f in enumerate(flow):
        if f == 1:
            remaining.setdefault(g.tail[eid], []).append(eid)
    paths: list[list[int]] = []
    while remaining.get(S_ID):
        verts = [S_ID]
        while verts[-1] != T_ID:
            eid = remaining[verts[-1]].pop(0)
            if not remaining[verts[-1]]:
                del remaining[verts[-1]]
            verts.append(g.head[eid])
        paths.append(verts)
    return paths


def round_to_disjoint(h: WellStructuredGraph, path_edge_lists: list[list[int]]
                      ) -> list[list[int]]:
    """Round a congested path collection to internally vertex-disjoint paths.

    Takes disjoint_paths over the support of the collection.  Output
    cardinality is at least ceil(|P| / max-congestion).
    """
    if not path_edge_lists:
        return []
    usage: dict[int, int] = {}
    for pe in path_edge_lists:
        for eid in pe:
            if not h.g.alive[eid]:
                raise ValueError(f"path edge {eid} is not alive in the host graph")
            usage[eid] = usage.get(eid, 0) + 1
    eta = max(usage.values())
    paths = disjoint_paths(h, usage)
    floor = math.ceil(len(path_edge_lists) / eta)
    if len(paths) < floor:
        raise AssertionError(
            f"rounding produced {len(paths)} paths, below |P|/congestion = {floor}"
        )
    seen: set[int] = set()
    for verts in paths:
        for v in verts[1:-1]:
            if v in seen:
                raise AssertionError("rounded paths share an internal vertex")
            seen.add(v)
    return paths


def max_matching(g: BipartiteGraph, cfg: DriverConfig | None = None
                 ) -> tuple[Matching, RunReport]:
    cfg = cfg or DriverConfig()
    cnst = cfg.constants
    report = RunReport()
    matching = Matching()
    cap = min(g.n_left, g.n_right)
    if cfg.target is not None:
        if cfg.target < 0:
            raise ValueError("target must be nonnegative")
        cap = min(cap, cfg.target)
    delta_star = cfg.delta_star if cfg.delta_star is not None else _delta_star(
        g.n, max(1, len(g.edges))
    )

    while True:
        delta_hat = cap - len(matching)
        if delta_hat <= 0:
            break
        # live edges of the residual graph: one per graph edge, plus s->u and
        # v->t for each free vertex
        m = len(g.edges) + g.n - 2 * len(matching)
        if (delta_hat < delta_star or m < cnst.mwu_min_edges
                or delta_hat < cnst.mwu_gate(m)):
            break
        h = residual_graph(g, matching)
        if h.g.live_m != m:
            raise AssertionError(f"residual graph has {h.g.live_m} edges, expected {m}")
        t0 = time.perf_counter()
        try:
            result = mwu_run(h, delta_hat, backend=cfg.backend, cnst=cnst,
                             checked=cfg.checked)
        except ClusterContractError:
            # the backend broke its contract: the phase collects no path and
            # falls back to the finishing flow
            report.backend_failures += 1
            result = MwuResult([], [], {}, lam=0, m=m)
        report.max_congestion = max(report.max_congestion, result.max_usage())
        for key, val in result.backend_stats.items():
            if isinstance(val, int):
                report.backend_stats[key] = report.backend_stats.get(key, 0) + val
        disjoint = round_to_disjoint(h, result.paths)
        if disjoint:
            matching = augment(g, matching, disjoint)
        else:
            report.fallback_phases += 1
        report.phases.append(PhaseRecord(
            delta=delta_hat,
            collected=len(result.paths),
            rounded=len(disjoint),
            fallback=not disjoint,
            millis=(time.perf_counter() - t0) * 1e3,
        ))
        if not disjoint:
            break  # the finishing flow below finds this phase's paths

    # finishing step: one maximum flow over every live residual edge
    if len(matching) < cap:
        h = residual_graph(g, matching)
        paths = disjoint_paths(h, h.g.live_edges())[:cap - len(matching)]
        matching = augment(g, matching, paths)
        report.exact_augmentations += len(paths)

    report.matching_size = len(matching)
    return matching, report
